(** Popularity-aware replication and read load balancing over a fleet
    of log-structured file servers.

    The directory is the control point a switch-attached file service
    needs once it is sharded: every file has a {e home} shard (chosen
    round-robin at creation), writes {e always} go to the home shard,
    and reads are routed to any member of the file's replica set.  The
    directory tracks a deterministic EWMA of each file's read rate over
    simulated time; files hotter than [per_replica_rate] grow replicas
    — built by copying the file's {e sealed, immutable} log segments
    onto another shard's array — and cooled-off files shrink back.
    Replica copies are tagged with the file's version: a write bumps
    the version and drops every replica at once, so a read after a
    reseal can never be served from a stale copy (writes never fan out
    — the copy path moves only sealed segments, never individual
    writes).

    Reads pick a server by deterministic rotation over the candidate
    set (home plus valid replicas), biased by each server's
    outstanding-request count: the rotation spreads load when servers
    are equally busy, and the bias steers around a server with a deep
    queue.  All decisions are functions of simulated state, so runs
    are byte-reproducible and shard-count independent.

    Network legs (request, response, replica copy) go through a
    {!transport} supplied by the caller — the VOD experiment binds it
    to real framed VCs on an {!Atm.Net} fabric, tests use {!loopback}.

    Known simplification: dropping or discarding a replica returns its
    segment ids to a per-server free pool but does not scrub the
    array; running a cleaner over a shard that also holds replica
    segments is not supported (the log and the replica store share the
    array but not the allocator — see [replica_seg_base]). *)

type t

type transport = {
  t_request : client:int -> server:int -> flow:int -> k:(unit -> unit) -> unit;
      (** Deliver a read request from [client] to [server]; [k] runs at
          the server when the request arrives. *)
  t_respond :
    server:int -> client:int -> flow:int -> len:int -> k:(unit -> unit) -> unit;
      (** Ship [len] result bytes back; [k] runs at the client when the
          last byte lands. *)
  t_copy : src:int -> dst:int -> len:int -> k:(unit -> unit) -> unit;
      (** Move one segment's bytes between servers during replication. *)
}

val loopback : ?delay:Sim.Time.t -> Sim.Engine.t -> transport
(** A transport where every leg is a fixed [delay] (default 50 us) —
    for tests and rigs that do not model the fabric. *)

type config = {
  replicate : bool;  (** Master switch; off = static placement. *)
  per_replica_rate : float;
      (** EWMA reads/s that justify one replica: the target replica
          count is [rate / per_replica_rate], clamped to
          [max_replicas]. *)
  max_replicas : int;  (** Beyond the home copy. *)
  ewma_tau : Sim.Time.t;  (** Read-rate decay time constant. *)
  review_period : Sim.Time.t;
      (** Period of the daemon tick that decays rates, grows replica
          sets one copy at a time and shrinks cooled files. *)
  shrink_hysteresis : float;
      (** A file with [r] replicas shrinks only once its rate falls
          under [per_replica_rate * r * shrink_hysteresis] — the gap
          between the grow and shrink thresholds stops flapping. *)
  cache_blocks : int;
      (** Per-server home-shard block cache capacity; [0] disables.
          A read whose blocks all hit skips the disks entirely (it
          still crosses the network both ways). *)
  cache_block_bytes : int;
  replica_seg_base : int;
      (** First array segment id used for replica copies on each
          server — must stay above any id the local log will allocate
          ({!create} refuses to copy onto a server whose log has grown
          past it). *)
}

val default_config : config
(** [replicate] on, 40 reads/s per replica, 3 replicas max, 250 ms
    tau, 25 ms review period, 0.5 hysteresis, no cache, segment base
    2048. *)

val create :
  Sim.Engine.t -> logs:Log.t array -> transport:transport -> ?config:config ->
  unit -> t
(** One directory over [logs] (one per shard, at least one).  The
    review tick is a daemon: it never keeps a run alive. *)

(** {1 Files} *)

val create_file : t -> ?kind:Log.kind -> unit -> int
(** Allocate a file on the next shard (round-robin homes); the result
    is a directory-global file id. *)

val home_of : t -> int -> int
(** The file's home shard.  Raises [Not_found]. *)

val replicas_of : t -> int -> int list
(** Shards currently holding a valid replica (most recent first). *)

val rate_of : t -> int -> float
(** The file's read-rate EWMA decayed to the current instant. *)

val write :
  t ->
  int ->
  off:int ->
  ?data:bytes ->
  len:int ->
  ((unit, Log.error) result -> unit) ->
  unit
(** Write through to the home shard's log.  Bumps the file's version:
    every replica is dropped immediately and any copy in flight is
    discarded on completion, so no read routed after this instant can
    observe pre-write bytes from a replica.  Also invalidates the
    home's block cache for the file. *)

val read :
  t ->
  ?client:int ->
  ?flow:int ->
  int ->
  off:int ->
  len:int ->
  k:((bytes option, Log.error) result -> unit) ->
  unit
(** Route a read: update the popularity estimate, pick a server
    (rotation + load bias), cross the transport, serve from the block
    cache / home log / replica segments, and return over the
    transport.  [k] runs at the client with the bytes when the arrays
    store data ([None] on timing-only arrays, like {!Log.read}).
    [flow] threads a causal flow through every stage
    (["dir.route"], the pfs stages, ["pfs.replica"] on a replica
    serve). *)

val sync : t -> k:((unit, Log.error) result -> unit) -> unit
(** Seal the open segments of every shard (e.g. after preloading a
    file set, so the whole corpus is replicable). *)

(** {1 Statistics} *)

val reads_total : t -> int

val reads_home : t -> int
(** Served by the home shard's disks. *)

val reads_replica : t -> int
val replications_started : t -> int
val replications_completed : t -> int
val replications_discarded : t -> int
(** Copies abandoned because the file was rewritten mid-copy (or a
    segment read failed). *)

val replicas_dropped : t -> int
(** Shrinks by cooling plus drops by write invalidation. *)

val server_reads : t -> int -> int
(** Completed reads served by shard [i]. *)

val server_replica_bytes : t -> int -> int
(** Bytes of replica segments currently installed on shard [i]. *)
