(** Declarative service-level objectives.

    An SLO names a signal, the threshold it must stay at or below, and
    the window geometry used to judge it online: the signal is
    accumulated into tumbling sub-windows of length [window], and two
    sliding aggregates are maintained over them — a {e fast} aggregate
    spanning the last [fast_windows] sub-windows that decides when the
    objective is in breach, and a {e slow} aggregate spanning the last
    [slow_windows] that decides when a firing alert has genuinely
    recovered (SRE-style two-window burn-rate alerting: the short
    window reacts quickly, the long window keeps a resolved alert from
    re-firing on noise).

    A spec is pure data; binding it to a live signal (a counter rate, a
    gauge level, a windowed latency percentile) happens in
    {!Monitor.register}. *)

type t = private {
  name : string;
  sub : Subsystem.t;
  help : string;
  unit_ : string;  (** render label for values, e.g. ["us"] or ["/s"] *)
  threshold : float;  (** healthy while the signal stays at or below *)
  window : Time.t;  (** tumbling sub-window length *)
  fast_windows : int;  (** sub-windows in the firing aggregate *)
  slow_windows : int;  (** sub-windows in the resolving aggregate *)
  hysteresis : float;  (** resolve threshold = hysteresis * threshold *)
}

val make :
  ?help:string ->
  ?unit_:string ->
  ?window:Time.t ->
  ?fast_windows:int ->
  ?slow_windows:int ->
  ?hysteresis:float ->
  sub:Subsystem.t ->
  threshold:float ->
  string ->
  t
(** Defaults: [window = 100ms], [fast_windows = 1], [slow_windows = 5],
    [hysteresis = 1.0].

    Raises [Invalid_argument] on an empty name, non-positive window,
    [fast_windows < 1], [slow_windows < fast_windows], or a hysteresis
    outside [(0, 1]], which would put the resolve threshold on the
    unhealthy side of the fire threshold. *)

val resolve_threshold : t -> float
(** [hysteresis * threshold] — what the slow aggregate must reach
    before a firing alert may resolve. *)

val violates : t -> float -> bool
(** Strict breach test for the fast aggregate: a value exactly at the
    threshold is healthy, so a signal riding the boundary never
    fires. *)

val recovers : t -> float -> bool
(** Recovery test for the slow aggregate, against
    {!resolve_threshold} (inclusive). *)
