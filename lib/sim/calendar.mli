(** Calendar queue keyed by [(int, int)]: the engine's event queue,
    with O(1) amortized push and pop-min from a handful of live
    entries to millions.

    The primary key is a timestamp in integer nanoseconds; the
    secondary key is an insertion sequence number, so entries with
    equal keys pop in FIFO order.  Values are plain [int]s (the engine
    stores arena slot indexes).

    Entries live in a pooled free list of [int]s and buckets are
    chains through the pool, so steady-state push/pop performs no
    allocation.  Geometry (bucket count and width) is recomputed from
    the live keys and the gaps between recent pops whenever the
    population doubles or collapses, or scanning (empty laps, long
    chains) costs too much per pop.  It is a pure function of the
    operation sequence, so behaviour replays identically across runs,
    and it never changes which entry a pop returns. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val max_key : int
(** The largest key {!push_ns} accepts: 2^61, ~73 years of simulated
    nanoseconds. *)

val push_ns : t -> key:int -> seq:int -> int -> unit
(** [push_ns t ~key ~seq v] inserts [v].  Raises [Invalid_argument]
    when [key] is negative or beyond {!max_key}. *)

val min_key_ns : t -> int
(** Key of the minimum entry, or [max_int] when empty.  Never
    allocates. *)

val min_seq_ns : t -> int
(** Sequence number of the minimum entry, or [max_int] when empty. *)

val pop_min : t -> int
(** Removes the minimum entry under [(key, seq)] order and returns its
    value.  Raises [Invalid_argument] when empty.  Never allocates in
    steady state. *)

val work : t -> int
(** Buckets visited, chain entries walked and entries sorted by every
    search for the minimum so far: the queue's own cost count, which
    tests bound per pop. *)
