(** Segment-addressed RAID: each megabyte segment is striped across
    four data disks, with a fifth parity disk allowing recovery from
    the failure of any single component.

    Each segment is divided into four contiguous chunks, one per data
    disk, plus an XOR parity chunk; the five writes (or four reads)
    proceed in parallel, which is what multiplies the per-disk rate by
    four.  With [store_data] the array really keeps the bytes and
    reconstructs them through the parity computation, so tests can
    verify recovery bit-for-bit; without it the array is timing-only,
    letting experiments address terabytes. *)

type t

type error = [ `Lost ]
(** More than one component failed: data is unrecoverable. *)

val create :
  Sim.Engine.t ->
  ?data_disks:int ->
  ?store_data:bool ->
  segment_bytes:int ->
  unit ->
  t
(** Defaults: 4 data disks + 1 parity, [store_data] = false. *)

val segment_bytes : t -> int

val stores_data : t -> bool
val data_disks : t -> int
val disks : t -> Disk.t list
(** Data disks first, parity disk last. *)

val write_segment :
  t ->
  seg:int ->
  ?data:bytes ->
  ?flow:int ->
  ((unit, error) result -> unit) ->
  unit
(** Write a whole segment.  [data] (exactly [segment_bytes] long) is
    retained only when the array stores data.  When [flow] names a
    causal flow, each component disk records a ["pfs.disk"] flow step
    and the join records ["pfs.raid"] (see {!Sim.Trace}). *)

val read_segment :
  t -> seg:int -> k:((bytes option, error) result -> unit) -> unit
(** Read a whole segment.  Returns the stored bytes when available —
    reconstructing a failed disk's chunk from parity if needed. *)

val peek_segment : t -> seg:int -> bytes option
(** The stored contents of a segment, without any disk activity or
    simulated time — the buffer-cache hit path.  [None] when the array
    is timing-only or the segment is unreadable. *)

val read_extent :
  t -> seg:int -> off:int -> len:int -> k:((unit, error) result -> unit) ->
  unit
(** Timing-only partial read touching just the disks whose chunks
    intersect [off, off+len). *)

val read_range :
  ?flow:int ->
  t ->
  seg:int ->
  off:int ->
  len:int ->
  into:bytes ->
  at:int ->
  k:((unit, error) result -> unit) ->
  unit
(** Read [off, off+len) of a sealed segment, the way a file read does.
    When the array stores data it reads the whole segment
    ({!read_segment}) and copies the range into [into] at [at]; when it
    does not, it reads only the range ({!read_extent}) and leaves
    [into] alone.  When [flow] names a causal flow, each disk touched
    records a ["pfs.disk"] step and the join records ["pfs.raid"]. *)

val fail_disk : t -> int -> unit
(** 0 .. data_disks-1 are data disks; [data_disks] is the parity disk. *)

val repair_disk : t -> int -> unit
(** Bring the disk back (empty); stored chunks are rebuilt from the
    surviving disks on the next read of each segment. *)

val fail_disk_at : t -> int -> at:Sim.Time.t -> unit
(** Schedule a permanent failure of the disk at a simulated instant
    (clamped to now).  Reads in flight complete with a failure, which
    {!read_segment} survives by retrying over the remaining disks. *)

val fail_disk_for : t -> int -> at:Sim.Time.t -> duration:Sim.Time.t -> unit
(** Schedule a transient failure window. *)

val failed_disks : t -> int list

(** {1 Statistics} *)

val degraded_reads : t -> int
(** Segment reads served with at least one disk missing (parity
    standing in for the lost chunk). *)
