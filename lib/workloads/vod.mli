(** Zipf flash-crowd video-on-demand read traffic.

    A fixed population of closed-loop clients reads from a catalogue of
    [files]: each client thinks (exponential), draws a title by rank
    from a Zipf law ({!Sim.Rng.zipf} — most load lands on a handful of
    hot titles), draws a chunk uniformly within the title, issues the
    read through the caller's {!ops} and loops when the read
    completes.  Closed-loop means a slow server self-throttles the
    offered load — exactly the regime where tail latency, not offered
    rate, tells the story.

    The flash crowd is a {e scripted popularity flip}: at [flip_at]
    the rank-to-title mapping rotates by half the catalogue, so the
    titles that were cold suddenly take the Zipf head while the
    previously hot ones cool off.  A popularity-aware replication
    layer must both tear down the stale replica set and grow a new one
    mid-run to hold its tail latency through the flip.

    Each client draws from its own split of the caller's RNG, so the
    trace is deterministic regardless of completion interleaving. *)

type ops = {
  op_read : client:int -> fid:int -> off:int -> len:int -> k:(unit -> unit) -> unit;
      (** Issue a read; [k] runs when the last byte reaches the
          client.  [fid] is an index in [0, files). *)
}

type t

val create :
  Sim.Engine.t ->
  rng:Sim.Rng.t ->
  ops:ops ->
  clients:int ->
  files:int ->
  file_bytes:int ->
  ?read_bytes:int ->
  ?zipf_s:float ->
  ?flip_at:Sim.Time.t ->
  ?stop_at:Sim.Time.t ->
  unit ->
  t
(** Clients think 40 ms on average.  Defaults: 64 KB reads, Zipf
    exponent 1.1, no flip, no stop (clients loop as long as the run is
    bounded by the engine's [until]).  Reads are aligned to [read_bytes] chunks
    within [file_bytes].  Raises [Invalid_argument] when the shape is
    degenerate (no clients, no files, a read larger than a file). *)

val start : t -> unit
(** Launch every client's loop (first think time starts now). *)

val reads_started : t -> int
val bytes_read : t -> int
