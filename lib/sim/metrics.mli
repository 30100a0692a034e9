(** Metrics registry: named counters, gauges and latency distributions.

    Subsystems get-or-create metrics by [(subsystem, name)] at
    construction time and update them on the hot path through the
    returned handle (an unboxed field write — no hashing per update).
    Instances of the same component share one aggregate metric, so the
    registry stays small no matter how many switches or links a
    simulation builds.

    Distributions are backed by a streaming {!Stats.Summary} (count,
    mean, stddev, min, max — always exact) plus a percentile store
    snapshotted as p50/p95/p99.  By default the store is a bounded
    deterministic {!Stats.Reservoir} (1024 samples, seeded from the
    metric's own name), so a dist observed millions of times costs
    O(1) memory and its snapshot is still byte-reproducible across
    runs; percentiles are exact below 1024 observations and carry the
    sampling tolerance documented on {!Stats.Reservoir} beyond it
    (±1.6 rank points for p50, ±0.7 for p95/p99, one sigma).  Pass
    [~exact_dists:true] to {!create} to store every observation instead
    (exact percentiles, O(n) memory) — intended for tests and
    regression baselines.

    A registry belongs to whoever created it — normally a run's {!Ctx},
    which hands it to every engine the run builds; there is no
    process-wide one.  Parallel pieces of a run count into registries
    of their own and {!merge} back in a fixed order.  A snapshot of the
    whole registry dumps as deterministic JSON (sorted by subsystem
    then name), which is what [pegasus_cli --metrics-out] and the
    benchmark harness emit. *)

type t

type counter
type gauge
type dist

type observer
(** A windowed-sample fan-out point.  Components {!sample} values on
    their hot path unconditionally; the sample is dropped (one load and
    one branch — a few ns, CI-gated) unless a consumer such as
    {!Monitor} has attached a sink with {!attach_sink}.  This is how
    health runs tap per-event latencies without the component knowing
    about SLO windows, and without any cost to runs that don't
    monitor. *)

val create : ?exact_dists:bool -> unit -> t
(** [exact_dists] (default [false]) makes every dist registered in
    this registry store all observations exactly instead of reservoir-
    sampling them. *)

val reset : t -> unit
(** Zero every registered metric in place: counters to 0, gauges to
    0.0, distributions emptied.  Handles alias the registry entries
    rather than copying them, so handles obtained before the reset
    remain connected — updates made through them stay visible in later
    snapshots. *)

(** {1 Registration (get-or-create)}

    Re-registering the same [(subsystem, name)] returns the existing
    metric; a kind mismatch raises [Invalid_argument]. *)

val counter : t -> sub:Subsystem.t -> ?help:string -> string -> counter
val gauge : t -> sub:Subsystem.t -> ?help:string -> string -> gauge
val dist : t -> sub:Subsystem.t -> ?help:string -> string -> dist
val observer : t -> sub:Subsystem.t -> ?help:string -> string -> observer

(** {1 Updates} *)

val incr : ?by:int -> counter -> unit
val value : counter -> int

val set : gauge -> float -> unit
val get : gauge -> float

val cell : gauge -> floatarray
(** The gauge's one-element backing store.  A hot-path writer that must
    not allocate fetches the cell once at setup and updates with
    [Float.Array.set cell 0 v] inline — an unboxed store, unlike
    calling {!set} with a freshly computed float, which boxes the
    argument at the call boundary. *)

val observe : dist -> float -> unit
val observed : dist -> int
(** Number of observations recorded. *)

val sample : observer -> float -> unit
(** Deliver a sample to every attached sink.  With no sinks attached
    this is one load and one branch — safe on any hot path. *)

val attach_sink : observer -> (float -> unit) -> unit
(** Attach a sink and enable the observer.  Multiple sinks may be
    attached (several SLOs can watch one stream); each sample is
    delivered to all of them in attachment order. *)

val detach_sinks : observer -> unit
(** Drop every sink and disable the observer. *)

val sample_count : observer -> int
(** Samples delivered while enabled (dropped samples are not counted). *)

val enabled : observer -> bool

(** {1 Merging} *)

val merge : into:t -> t -> unit
(** Fold every metric of [src] into the metric of the same kind and
    [(subsystem, name)] in [into], registering it there first when
    absent.  Counters add; a gauge takes [src]'s value (the last writer
    wins, as in a sequential run into one registry); observers add
    their sample counts and are enabled if [src]'s was; a dist merges its {!Stats.Summary} (count, min
    and max exact) and its percentile store — exact stores
    concatenate, reservoirs merge by {!Stats.Reservoir.merge}.  Merging
    the same sources in the same order gives byte-identical snapshots.
    Raises [Invalid_argument] on a kind mismatch, or when one side
    keeps exact dists and the other sampled ones. *)

(** {1 Snapshots} *)

val snapshot : t -> Json.t
(** [{"metrics": [...]}] with one object per metric, sorted by
    subsystem then name.  Distributions carry count/mean/stddev/min/
    max/p50/p95/p99 (count only when empty). *)

val write : t -> string -> unit
(** Write {!snapshot} to a file. *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-line-per-metric dump. *)
