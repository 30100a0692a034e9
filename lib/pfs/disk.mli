(** A magnetic disk of the early-90s "high-performance" class.

    Timing only — contents live in the layers above.  Operations queue
    FIFO; each pays the transfer at the sustained media rate, and one
    that does not start where the previous one ended also pays a seek
    and half a rotation.  The defaults are sized so that reading or writing
    whole megabyte extents keeps seek overhead under ten per cent and
    delivers at least five megabytes per second, the figures the paper
    quotes: a 6 MB/s media rate, 2–12 ms seeks, 7200 rpm (4.17 ms half
    turn), 2 GB. *)

type t

type error = [ `Failed ]

val create : Sim.Engine.t -> name:string -> t

val read :
  ?flow:int ->
  t ->
  off:int ->
  len:int ->
  k:((unit, error) result -> unit) ->
  unit
(** Queue a read of [len] bytes at byte offset [off]; [k] runs at
    completion time, or immediately with [Error `Failed] if the disk
    has failed.  When [flow] (default {!Sim.Trace.no_flow}) names a
    causal flow and flow tracing is on ({!Sim.Trace.flows_on}), a
    ["pfs.disk"] flow step is recorded at the operation's completion
    instant. *)

val write :
  ?flow:int ->
  t ->
  off:int ->
  len:int ->
  k:((unit, error) result -> unit) ->
  unit
(** Queue a write; otherwise as {!read}. *)

val fail : t -> unit
(** The disk stops answering (head crash).  Queued operations complete
    with [Error `Failed]. *)

val repair : t -> unit
val failed : t -> bool

(** {1 Scripted failure windows}

    Deterministic fault schedules: the disk fails at a simulated
    instant (clamped to now), permanently or for a bounded window.
    Operations in flight when the failure strikes complete with
    [Error `Failed] — the mid-read case the RAID layer must survive. *)

val fail_at : t -> at:Sim.Time.t -> unit

val fail_for : t -> at:Sim.Time.t -> duration:Sim.Time.t -> unit

(** {1 Statistics} *)

val head : t -> int
(** Byte position of the head after the last queued operation. *)

val reads : t -> int
val writes : t -> int
val bytes_written : t -> int
val busy_time : t -> Sim.Time.t
(** Total time servicing operations (seek + rotation + transfer). *)

val seek_time : t -> Sim.Time.t
(** The seek and rotation share of [busy_time]. *)

