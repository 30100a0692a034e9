(** Deterministic fault injection.

    A fault plan owns a seeded RNG and schedules failure transitions
    against an engine: one-shot failure windows and renewal-process
    link outages, plus Bernoulli decision streams for per-cell loss.
    Everything is driven by the plan's {!Rng}, so a run is reproducible
    from the seed, and two runs with the same seed inject byte-identical
    fault sequences.

    The plan knows nothing about the components it breaks: callers pass
    closures ([down]/[up]) that flip the actual switches —
    [Atm.Link.set_down], [Pfs.Disk.fail], and so on.  Every injected
    transition is counted in the [sim/fault.events] metric and, when
    tracing is on, recorded as an instant in the [fault] category. *)

type t

val create : ?seed:int64 -> Engine.t -> t
(** A fresh plan.  The default seed is a fixed constant, so plans
    created without a seed replay the same fault sequence. *)

val rng : t -> Rng.t
(** The plan's generator — draw from it for ad-hoc decisions that must
    stay inside the plan's deterministic stream. *)

val events_injected : t -> int
(** Fault transitions fired so far (downs and ups). *)

val bernoulli : t -> p:float -> unit -> bool
(** [bernoulli t ~p] is a deterministic decision stream: each call is
    [true] with probability [p], drawn from a stream split off the
    plan's RNG.  Suitable for per-cell loss ({!Atm.Link.set_loss}). *)

val window :
  t -> at:Time.t -> duration:Time.t -> down:(unit -> unit) ->
  up:(unit -> unit) -> unit
(** Scripted transient failure: [down] fires at [at] (clamped to now),
    [up] fires [duration] later. *)

val outages :
  t ->
  span:Time.t ->
  mean_up:Time.t ->
  mean_down:Time.t ->
  down:(unit -> unit) ->
  up:(unit -> unit) ->
  unit ->
  unit
(** Alternating renewal process over [now, now+span): healthy periods
    drawn exponentially with mean [mean_up], outages with mean
    [mean_down].  The component is always left healthy ([up]) by the
    end of the span. *)
