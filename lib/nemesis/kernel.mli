(** The Nemesis kernel: domain scheduling, events, interrupts and
    kernel-privileged sections.

    The kernel multiplexes one CPU over its domains under a pluggable
    {!Policy.t}.  A domain holds the processor for a window; it is told
    when it gets the processor (activation) and the kernel charges it
    for exactly the CPU it consumes, including the context-switch
    overhead of getting there.  There are no blocking system calls: a
    domain that runs out of work simply yields the rest of its window.

    Events are the single interprocess-communication primitive.  An
    event channel targets a domain and carries no value — only the fact
    that something happened — but a closure associated with the channel
    turns each notification into work (a {!Job.t}) when the domain is
    next activated.  Sends are [`Sync] (the sender gives up the
    processor, giving the lowest signalling latency for client/server
    pairs) or [`Async] (the sender keeps its window, best for
    demultiplexers that batch arrivals). *)

type t

val create :
  Sim.Engine.t ->
  policy:Policy.t ->
  ?ctx_switch_cost:Sim.Time.t ->
  unit ->
  t
(** [ctx_switch_cost] (default 10 us) is charged whenever the processor
    moves between different domains — see {!Vm} for how the single
    address space shrinks this number. *)

val engine : t -> Sim.Engine.t
val now : t -> Sim.Time.t

val add_domain : t -> Domain.t -> unit
(** Register a domain; its first allocation period starts now. *)

val submit : t -> Domain.t -> Job.t -> unit
(** Hand a job to a domain's user-level scheduler (and reschedule). *)

(** {1 Events} *)

type channel

val channel :
  t ->
  dst:Domain.t ->
  mode:[ `Sync | `Async ] ->
  ?closure:(unit -> Job.t option) ->
  unit ->
  channel
(** [closure] runs once per pending notification when the destination
    is activated; a returned job is queued in the destination. *)

val send : t -> channel -> unit
(** Raise the event from whatever is currently executing.  [`Sync]
    triggers an immediate reschedule (the sender yields); [`Async]
    leaves the running window alone. *)

val interrupt : t -> channel -> unit
(** Raise the event from a device.  Always triggers a reschedule, but
    is deferred while any kernel-privileged section is active. *)

val pending : channel -> int
val sent : channel -> int
val delivered : channel -> int

val timer : t -> at:Sim.Time.t -> channel -> unit
(** Deliver an interrupt on [channel] at absolute time [at]. *)

(** {1 Kernel-privileged sections (paper Figure 5)} *)

val enter_kps : t -> unit
val exit_kps : t -> unit
(** Raises [Invalid_argument] when not inside a section. *)

val kps_active : t -> bool

val with_kps : t -> (unit -> 'a) -> 'a
(** TRY ... FINALLY semantics: the section is exited even if the body
    raises, so the thread leaves kernel mode before any outside handler
    runs.  Sections nest. *)

(** {1 Introspection} *)

val context_switches : t -> int
val idle_time : t -> Sim.Time.t
(** Total time no domain held the processor. *)
