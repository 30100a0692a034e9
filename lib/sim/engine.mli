(** Discrete-event simulation engine.

    The engine owns the simulated clock and a priority queue of pending
    events.  Callbacks run at their scheduled instant; two events at the
    same instant run in scheduling order, so runs are deterministic.

    Event bookkeeping lives in a preallocated int arena and the clock
    is an immediate {!Time.t}, so the steady-state schedule/fire path
    allocates nothing on the minor heap — the property [test_sim]'s
    "schedule and fire at 10 000 live events allocates nothing" checks
    with a [Gc.minor_words] delta.

    An engine holds no process-wide state: it records into the trace
    and registry it was created with, so engines built on different
    contexts ({!Ctx}) may run at once on different domains.  A callback
    may schedule further events and cancel pending ones, but it never
    fires one: {!run} and {!run_until} raise [Invalid_argument] when a
    callback calls them. *)

type t

type event_id
(** Handle for cancelling a scheduled event: an immediate packing the
    event's arena slot and a generation counter.  The generation bumps
    when the slot is recycled, so a stale handle kept across fire and
    reuse fails {!cancel} harmlessly — no lookup tables sit on the
    event hot path, and handles never keep callbacks alive. *)

val no_event : event_id
(** A handle that names no event, for a field that holds one pending
    event or none without an [option] block: {!cancel} returns [false]
    on it. *)

val create : ?trace:Trace.t -> ?metrics:Metrics.t -> unit -> t
(** A fresh engine at time zero, its events held in a {!Calendar}
    queue.

    The engine records into [trace] and [metrics], which belong to the
    caller — normally a run's {!Ctx} (see {!Ctx.engine}).  Without
    them it gets a fresh disabled trace and a fresh registry of its
    own, so an engine never shares state it was not handed.  The
    engine registers its own metrics
    ([sim/engine.events_fired], [sim/engine.events_cancelled],
    [sim/engine.queue_depth]) into the registry.  The queue-depth gauge
    is sampled every few hundred schedule/cancel/fire transitions and
    refreshed at the end of every {!run}, not written per event. *)

val now : t -> Time.t
(** Current simulated time. *)

val trace : t -> Trace.t
(** The trace sink components attached to this engine record into. *)

val metrics : t -> Metrics.t
(** The metrics registry components attached to this engine use. *)

val schedule_at : ?daemon:bool -> t -> at:Time.t -> (unit -> unit) -> event_id
(** Schedule a callback at an absolute time.  Raises [Invalid_argument]
    if [at] is in the past or beyond {!Calendar.max_key} (2^61 ns,
    about 73 years of simulated time); nothing is scheduled then.  A
    [daemon] event (default false) fires normally but does not keep an
    unbounded {!run} alive — use it for periodic background
    services. *)

val schedule : ?daemon:bool -> t -> delay:Time.t -> (unit -> unit) -> event_id
(** Schedule a callback [delay] from now.  A zero delay runs after all
    callbacks currently executing, still at the same instant. *)

val cancel : t -> event_id -> bool
(** Cancel a pending event.  Returns [true] when the cancellation took
    effect; cancelling an already-fired or already-cancelled event — or
    a stale handle whose arena slot has been recycled — is a no-op that
    returns [false] and leaves {!pending}, the [engine.queue_depth]
    gauge and the cancellation counter untouched. *)

val pending : t -> int
(** Number of scheduled, uncancelled events. *)

val pending_user : t -> int
(** Like {!pending}, counting only non-daemon events. *)

val next_at : t -> Time.t
(** Instant of the earliest entry still in the queue, [max_int] ns when
    the queue is empty.  Cancelled-but-undelivered events are included,
    so this is a lower bound on the next instant at which anything can
    actually fire — exactly what a conservative parallel runner needs
    (see {!Shard}).  Never allocates — {!Shard}'s epoch loop publishes
    this every epoch for every shard. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Run events in timestamp order until the queue empties, simulated
    time would pass [until], or [max_events] callbacks have run.
    When stopped by [until], the clock is advanced to exactly [until].
    Without [until], the run also stops once only daemon events
    remain.  An exception a callback raises leaves the run and the
    engine stays runnable.  Raises [Invalid_argument] when called from
    inside a callback of the same engine's run. *)

val run_until : t -> Time.t -> unit
(** [run_until t u] is [run ~until:u t] without the optional argument's
    [Some] block: the allocation-free entry point for {!Shard}'s
    per-epoch calls. *)

val flush_gauges : t -> unit
(** Write every sampled gauge (currently the queue-depth gauge) with
    its exact current value.  {!run} does this when it returns;
    {!Shard} calls it at every epoch barrier so the every-256-
    transitions sampling inside a run can never leave a stale gauge
    visible across a shard boundary. *)

val every : ?daemon:bool -> t -> period:Time.t -> (unit -> bool) -> unit
(** [every t ~period f] calls [f] periodically (first call one period
    from now) for as long as [f] returns [true].
    Raises [Invalid_argument] when [period <= 0] — a non-positive
    period would reschedule at the same instant forever and livelock
    the run. *)
