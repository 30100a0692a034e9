(** Client-agent / server write buffering (paper §5, reliability).

    Client and server machines crash independently.  On a write, the
    client agent sends the data to the server and keeps a copy in its
    own buffers; when the server receives the data it acknowledges, and
    the application is unblocked.  The data is now safe against any
    single failure: if the server crashes, the agent replays; if the
    client crashes, the server completes the write.  Only simultaneous
    failure (a power cut) can lose data — unless the server has a UPS
    and flushes its volatile buffers before halting.

    The server delays disk writes (default 30 s): Baker et al. measured
    that 70 % of files die within 30 s, so most buffered writes are
    cancelled by an overwrite or delete before costing any disk I/O —
    and the data that does reach the log is stable, creating garbage at
    a far lower rate. *)

type write_id

(** The file-server machine. *)
module Server : sig
  type t

  val create :
    Sim.Engine.t -> log:Log.t -> ?write_delay:Sim.Time.t -> ?ups:bool ->
    ?nvram:bool -> unit -> t
  (** [write_delay] defaults to 30 s.  [ups] models an uninterruptible
      power supply (volatile buffers are flushed during the shutdown
      grace); [nvram] models battery-backed memory (buffers survive
      the crash and are flushed on recovery).  Both default to false. *)

  val create_file : t -> Log.fid
  val crash : t -> unit
  (** Volatile buffers are lost — unless [ups], in which case they are
      flushed to the log during the shutdown grace. *)

  val recover : t -> unit
  (** With [nvram], recovery flushes the preserved buffers. *)

  (** {2 Statistics} *)

  val writes_received : t -> int
  val disk_writes : t -> int
  (** Writes that actually reached the log. *)

  val writes_cancelled : t -> int
  (** Pending writes superseded by an overwrite or delete. *)
end

(** The client-machine agent. *)
module Agent : sig
  type t

  val create : Sim.Engine.t -> server:Server.t -> t
  (** The one-way client-server latency is 1 ms.  When the server is
      down, the agent re-offers each unacknowledged write with capped
      exponential backoff: starting at 100 ms, doubling up to 10 s,
      with ±10 % jitter drawn from a deterministic stream.
      Retry events are daemons, so a server that never recovers does
      not keep a simulation run alive. *)

  val write :
    t -> fid:Log.fid -> off:int -> len:int -> ?ack:(unit -> unit) -> unit ->
    write_id
  (** Send a write.  [ack] runs when the server's acknowledgement
      arrives (the application unblocks); the agent keeps its copy
      until the server reports the data durable.  If the server is
      down, the agent keeps retrying (see {!create}) until the write is
      accepted, superseded, or the agent itself crashes. *)

  val delete : t -> fid:Log.fid -> unit

  val crash : t -> unit
  (** The agent's buffered copies are lost. *)

  val replay : t -> unit
  (** Resend every held copy that the server no longer has (run after
      the server recovers from a crash). *)

  val copies_held : t -> int

  val retries : t -> int
  (** Write offers that found the server down and were rescheduled. *)
end

(** {1 Auditing} *)

type audit = {
  acknowledged : int;  (** writes acknowledged to applications *)
  durable : int;  (** of those, now in the log *)
  recoverable : int;  (** not yet durable but a copy survives somewhere *)
  lost : int;  (** acknowledged yet gone — must stay 0 under any single
                   failure *)
}

val audit : Server.t -> audit
