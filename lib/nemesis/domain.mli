(** Nemesis domains.

    A domain is the schedulable entity: a single protection domain
    within the shared address space, holding its own user-level thread
    scheduler.  The processor is given to a domain by {e activating} it
    (an upcall through the activation vector in the Domain Information
    Block) and taken away by {e deactivating} it — unlike a Unix
    process, the domain is told when it has the processor.

    The [mode] captures the paper's comparison with traditional kernel
    threads: an [Informed] domain's user-level scheduler is re-entered
    at every activation and picks the most urgent job (it can exploit
    the time and pending-event information); an [Opaque] domain is
    resumed transparently exactly where it was preempted, like a
    suspended process, so an urgent job can sit behind a long stale
    one. *)

type mode = Informed | Opaque

(** Scheduling parameters of the domain (the "sdom"): [slice] of CPU
    guaranteed every [period]; [extra] marks willingness to consume
    slack time; [priority] is only used by the fixed-priority baseline
    policy. *)
type params = {
  mutable period : Sim.Time.t;
  mutable slice : Sim.Time.t;
  mutable extra : bool;
  mutable priority : int;
}

(** Per-domain scratch state owned by the scheduling policy. *)
type sched_state = {
  mutable release : Sim.Time.t;  (** start of the next allocation period *)
  mutable deadline : Sim.Time.t;  (** end of the current period *)
  mutable remain : Sim.Time.t;  (** allocation left in this period *)
  mutable rr_last : int;  (** round-robin recency *)
}

type t

val create :
  name:string ->
  ?mode:mode ->
  ?period:Sim.Time.t ->
  ?slice:Sim.Time.t ->
  ?extra:bool ->
  ?priority:int ->
  unit ->
  t
(** Defaults: [Informed], 40 ms period, 4 ms slice, [extra] = true,
    priority 0. *)

val name : t -> string
val params : t -> params
val sched : t -> sched_state

(** {1 Jobs and the user-level thread scheduler} *)

val add_job : t -> Job.t -> unit

val next_job : t -> Job.t option
(** The job the domain's user-level scheduler would run now:
    EDF among pending jobs for [Informed] domains; for [Opaque]
    domains, the job that was already running, else FIFO order. *)

val set_current : t -> Job.t option -> unit
val current : t -> Job.t option

val remove_job : t -> Job.t -> unit
(** Also clears [current] if it was this job. *)

val has_work : t -> bool
val earliest_job_deadline : t -> Sim.Time.t
(** Over pending jobs; far future when none carry deadlines. *)

(** {1 Activation bookkeeping} *)

val set_activation_handler : t -> (now:Sim.Time.t -> events:int -> unit) -> unit
(** The activation-vector entry: invoked whenever the domain is given
    the processor after a deactivation.  [events] counts event
    notifications delivered with this activation. *)

val activate : t -> now:Sim.Time.t -> events:int -> unit
(** Called by the kernel; updates accounting and runs the handler. *)

val deactivate : t -> unit
val is_deactivated : t -> bool

val note_runnable : t -> now:Sim.Time.t -> unit
(** Record the instant the domain became runnable (for activation-
    latency accounting); keeps the earliest mark until activation. *)

(** {1 Accounting} *)

val charge : t -> Sim.Time.t -> unit
val cpu_used : t -> Sim.Time.t
val activations : t -> int
val jobs_completed : t -> int
val deadline_misses : t -> int
val note_job_done : t -> Job.t -> now:Sim.Time.t -> unit
val activation_latency_us : t -> Sim.Stats.Samples.t
