(** Conservative parallel simulation over engine shards.

    A sharded simulation partitions its model into [n] shards, each
    owning a private {!Engine.t} (heap, clock) that records into its own
    child of the run's context ({!Ctx.child}): shards share no trace or
    registry while they run, and merge into the run's context in shard
    order when it ends.  Within
    a shard, components schedule on the shard's engine exactly as in a
    sequential simulation; interactions that cross shards go through
    {!post}, which carries a callback to another shard's engine through
    the inbox of that (source, destination) pair.

    Execution is barrier-epoch conservative PDES.  The [lookahead] is
    the minimum simulated latency of any cross-shard interaction —
    typically the smallest propagation delay among the topology links
    cut by the partition (see [Atm.Net.partition]).  Every epoch, all
    shards advance to [min(next event) + lookahead] (exclusive), then
    exchange messages at a barrier.  Because {!post} refuses timestamps
    under [now + lookahead], no shard can ever receive a message for an
    instant it has already passed.

    Same-instant cross-shard ties are broken by [(source shard, post
    order)], so the whole simulation — results, merged metrics and
    merged trace — is a pure function of its inputs, byte-identical
    whatever domain budget the context carries. *)

type t

val create : ?lookahead:Time.t -> shards:int -> Ctx.t -> t
(** [shards] fresh engines, each on its own {!Ctx.child} of the given
    context, so shards share no mutable state.  [lookahead] (default
    1 us) must be positive; it is the floor every {!post} must respect,
    so it must not exceed the true minimum cross-shard latency of the
    model.  Raises [Invalid_argument] on [shards < 1] or a non-positive
    lookahead. *)

val lookahead : t -> Time.t

val engine : t -> int -> Engine.t
(** The engine owned by a shard; build each shard's model on it. *)

val post : t -> src:int -> dst:int -> at:Time.t -> (unit -> unit) -> unit
(** Deliver a callback to shard [dst]'s engine at absolute time [at].
    Must be called from shard [src]'s own execution (or during setup,
    before {!run}).  Raises [Invalid_argument] unless
    [at >= now(src) + lookahead] — the conservative contract.
    Messages never outrun the lookahead horizon, so the callback is
    scheduled before [dst] reaches [at]; ties at one instant order by
    [(src, post order)] after all local events already queued.
    While [dst]'s trace is enabled, each delivery records a
    ["shard.deliver"] instant there at [at]. *)

val run : ?until:Time.t -> t -> unit
(** Run the sharded simulation on the context's domain budget
    ({!Ctx.domains}, clamped to the shard count).  Without [until],
    runs until no shard has non-daemon work left — like {!Engine.run},
    though daemon events may additionally fire up to the final epoch
    horizon.  With [until], runs every event with timestamp
    [<= until] and leaves every shard clock at exactly [until].  The
    domain count affects wall-clock speed only, never results.  When
    the run ends, every shard's context merges into the one given to
    {!create}, in shard order ({!Ctx.merge}).  A shard set runs once:
    a second call raises [Invalid_argument]. *)

(** {1 Introspection} *)

val epochs : t -> int
(** Barrier epochs executed so far (0 for single-shard runs, which
    delegate straight to {!Engine.run}). *)

val messages : t -> int
(** Cross-shard messages delivered so far. *)
