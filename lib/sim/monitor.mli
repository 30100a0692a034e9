(** Online SLO evaluation and burn-rate alerting in simulated time.

    A monitor binds {!Slo} specs to live signals on ONE engine and
    evaluates them as the simulation runs: each objective accumulates
    into tumbling sub-windows rolled by a daemon event chain pinned to
    absolute multiples of the window length, and a two-window burn-rate
    state machine drives the alert lifecycle

    {v Ok -> Pending -> Firing -> (resolved) Ok v}

    The {e fast} aggregate (last [fast_windows] sub-windows) fires the
    alert after 2 consecutive rolls above the threshold; the {e slow}
    aggregate (last [slow_windows]) must recover to the hysteresis
    threshold or below for 2 consecutive rolls before the alert
    resolves.  A pending alert that sees one clean roll clears
    silently.  Every transition is emitted as a [Trace.instant]
    (category ["health"], names [slo_pending]/[slo_firing]/
    [slo_resolved]), counted in [sim/monitor.*] counters, and kept for
    the final report.

    {b Determinism.}  Rolls are ordinary engine events at instants that
    depend only on the window length; sources must read only state
    owned by the monitored engine.  Sharded rigs attach one monitor per
    shard (a source reaching across shards would race under parallel
    domains) and merge with {!report} over the monitors in shard order
    — {!Shard} flushes sampled gauges at every barrier, so the merged
    report is byte-identical at --domains 1/2/4. *)

type t

(** Where an objective's signal comes from.  All evaluation happens at
    roll instants, against state owned by the monitored engine. *)
type source =
  | Rate of (unit -> int)
      (** a monotone count; evaluated as its per-second delta over the
          window span *)
  | Ratio of { num : unit -> int; den : unit -> int }
      (** two monotone counts; evaluated as delta(num)/delta(den) over
          the span — e.g. cells lost per cell sent.  A span with zero
          denominator has no data and is healthy. *)
  | Level of (unit -> float)
      (** sampled once per roll; aggregated as the worst (highest)
          sample over the span *)
  | Windowed of Metrics.observer
      (** every {!Metrics.sample} lands in the current sub-window;
          evaluated as the 99th percentile of the span's samples *)

type state = Ok | Pending | Firing

val state_string : state -> string

val create : Engine.t -> t
(** Registers [sim/monitor.pending], [sim/monitor.firing] and
    [sim/monitor.resolved] counters in the engine's registry. *)

(** {1 Source constructors} *)

val counter_rate : Metrics.counter -> source
val counter_ratio : num:Metrics.counter -> den:Metrics.counter -> source
val gauge_level : Metrics.gauge -> source
val windowed : Metrics.observer -> source
(** Registering a windowed source attaches a sink to the observer,
    enabling it. *)

val register : t -> Slo.t -> source -> unit
(** Bind a spec to a signal and arm its roll chain.  The first
    sub-window closes at the next absolute multiple of [slo.window];
    counter sources are baselined now, so the first window covers the
    delta since registration. *)

(** {1 Reports} *)

type transition = { tr_at : Time.t; tr_event : string; tr_value : float }

type alert_report = {
  r_slo : Slo.t;
  r_state : state;
  r_rolls : int;
  r_breaches : int;
  r_fired : int;
  r_resolved : int;
  r_last : float option;  (** fast aggregate at the last roll *)
  r_worst : float option;  (** most violating fast aggregate seen *)
  r_transitions : transition list;  (** chronological *)
}

type report = { rep_name : string; rep_alerts : alert_report list }

val report : ?name:string -> t list -> report
(** Merge monitors (pass them in shard order for a deterministic
    multi-shard report); alerts appear in registration order within
    each monitor. *)

val pp : Format.formatter -> report -> unit
(** Deterministic human-readable rendering: every float through a fixed
    %.2f/%.1f format, no host state — byte-identical across runs and
    domain counts. *)

val to_json : report -> Json.t
(** Schema [pegasus-health/1]; values rounded to 2 decimals exactly as
    the table prints them, transition times in exact integer ns. *)
