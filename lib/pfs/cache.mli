(** LRU block cache.

    Used by the {e normal} service stack; the continuous-media stack
    deliberately bypasses it — caching a stream larger than the cache
    only evicts everything else before the stream ever comes back
    around (the paper's argument against caching video). *)

type t

val create : capacity_blocks:int -> unit -> t

val access : t -> fid:int -> block:int -> [ `Hit | `Miss ]
(** Touch a block: a hit refreshes its recency; a miss inserts it,
    evicting the least recently used block when full. *)

val probe : t -> fid:int -> block:int -> bool
(** Membership without side effects. *)

val invalidate_file : t -> fid:int -> unit
(** Drop every block of a file (delete/truncate/replica reseal).  A
    per-fid secondary index makes this O(blocks of that file), not
    O(cache size) — the replication directory invalidates on every
    overwrite of a replicated file, so the old whole-table fold was on
    a hot path. *)

val size : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int
