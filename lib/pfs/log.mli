(** The core layer: a log-structured store over the RAID.

    The log is divided into megabyte segments.  Normal file data fills
    "normal" segments; continuous-media data is collected in separate
    segments, though its metadata (pnodes) is appended to the normal
    log like everything else.  Overwrites and deletes do not touch old
    data — they record holes in the {!Garbage} file, from which the
    cleaner later reclaims whole segments.

    All disk-touching operations are continuation-passing; [k] runs at
    the simulated completion time. *)

type t

type kind = Normal | Continuous

type fid = int

type error = [ `Lost | `No_such_file ]

val create : Sim.Engine.t -> raid:Raid.t -> unit -> t

val engine : t -> Sim.Engine.t
val raid : t -> Raid.t
val garbage : t -> Garbage.t
val segment_bytes : t -> int

(** {1 Files} *)

val create_file : t -> ?kind:kind -> unit -> fid
(** Allocate a file.  [kind] (default [Normal]) selects which open
    segment its data goes to. *)

val file_exists : t -> fid -> bool
val file_size : t -> fid -> int
(** Raises [Not_found] for unknown files. *)

val write :
  t ->
  fid ->
  off:int ->
  ?data:bytes ->
  ?flow:int ->
  len:int ->
  ((unit, error) result -> unit) ->
  unit
(** Write [len] bytes at [off] (zeros when [data] is omitted).
    Overwritten ranges become garbage.  [k] fires once the data is in
    the log — immediately if it only filled the open segment buffer,
    or after the RAID write when it sealed one or more segments.
    A pnode update is appended to the normal log as a side effect,
    obsoleting the previous pnode.
    When [flow] names a causal flow ({!Sim.Trace.flows_on}), a
    ["pfs.log"] step is recorded at entry and the flow is threaded
    through any seal into the RAID and disk layers. *)

val read :
  ?flow:int ->
  t ->
  fid ->
  off:int ->
  len:int ->
  k:((bytes option, error) result -> unit) ->
  unit
(** Read back a range.  Bytes are returned when the RAID stores data
    ([Some], holes reading as zeros); timing is exercised either way.
    Each sealed extent is read with {!Raid.read_range}.  When [flow]
    (default {!Sim.Trace.no_flow}) names a causal flow, the read records
    ["pfs.log"] at entry, one ["pfs.cache"] step when any byte is
    served from an open segment buffer, and ["pfs.raid"] / ["pfs.disk"]
    steps from the layers below for sealed extents. *)

val peek : t -> fid -> off:int -> len:int -> bytes option
(** Read a range without disk activity or simulated time — the path a
    buffer-cache hit takes.  [None] unless the RAID stores data and
    every needed segment is readable. *)

val delete : t -> fid -> k:((unit, error) result -> unit) -> unit
(** All of the file's data and its pnode become garbage. *)

val sync : t -> k:((unit, error) result -> unit) -> unit
(** Seal the open segments (partially filled space is recorded as
    garbage so the cleaner can recover it). *)

(** {1 Checkpoint and crash recovery}

    Sealing writes a segment to the array, and every metadata update
    travels through the log as a pnode append.  A crash recovers the
    state at the {e recovery point}: the latest boundary between two
    operations ({!create_file}, {!write}, {!delete}, {!sync},
    {!checkpoint}, or the move of one segment by {!clean_segment})
    before which every record sits in a sealed segment.  Whatever sat
    only in the open segment buffers is lost, and with it every
    operation from the one that wrote the oldest such record onwards,
    even where part of that operation was sealed: recovery never shows
    half an operation.  That window is precisely what the client
    agent's buffering (and the UPS) exists to cover.

    A delete appends nothing, but counts as a record in the normal log:
    a crash rolls it back until the normal segment next seals or a
    checkpoint is taken.  The log keeps the inverse of every change
    made since the recovery point, so a seal costs time in proportion
    to those changes, not to the size of the file system. *)

val checkpoint : t -> k:((unit, error) result -> unit) -> unit
(** Seal the open segments and take a checkpoint of the pnode map, so
    every operation before it survives a crash, deletes included.  The
    checkpoint region's I/O is modelled as one zero-length read at the
    start of segment 0: one positioning of the first data disk, with
    nothing transferred or written. *)

val crash_and_recover : t -> k:(lost_bytes:int -> unit) -> unit
(** Lose the open segment buffers, roll the mapping back to the
    recovery point and open empty segments; [k] reports how many
    buffered bytes vanished.  Note the LFS quirk: a delete performed
    after the last seal is also rolled back — the file returns.  A fid
    whose create was rolled back is issued again. *)

(** {1 Segment bookkeeping (used by the cleaners)} *)

val total_segments : t -> int
(** Segments ever opened (the size of the segment table). *)

val free_segments : t -> int
val segment_live : t -> int -> int
(** Live bytes in a segment. *)

val segment_sealed : t -> int -> bool

val clean_segment : t -> int -> k:((int, error) result -> unit) -> unit
(** Move every live byte of a sealed segment to the head of the log and
    free it.  Returns the number of bytes moved.  Cleaning a segment
    that is open or already free is an error ([Invalid_argument]).
    The freed segment is not written again while a crash could still
    roll the move back, since that needs its old contents. *)

(** {1 Extent map (used by the replication directory)} *)

val file_extents : t -> fid -> (int * int * int * int) list
(** The file's live extents as [(foff, seg, soff, len)], sorted by file
    offset — the map a seal-time segment copy needs to mirror a file
    onto another server.  Raises [Not_found] for unknown files. *)

val file_sealed : t -> fid -> bool
(** [true] when every live extent of the file sits in a sealed segment
    — the precondition for replicating it: sealed segments are
    immutable, so a copy taken afterwards can never be dirtied by a
    write (writes only append to {e open} segments and bump the file's
    version at the directory).  Raises [Not_found] for unknown
    files. *)

(** {1 Statistics} *)

val live_bytes : t -> int
val garbage_bytes_created : t -> int
val metadata_writes : t -> int
