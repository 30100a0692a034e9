(** Metrics registry: named counters, gauges and latency distributions.

    Subsystems get-or-create metrics by [(subsystem, name)] at
    construction time and update them on the hot path through the
    returned handle (an unboxed field write — no hashing per update).
    Instances of the same component share one aggregate metric, so the
    registry stays small no matter how many switches or links a
    simulation builds.

    A distribution observes durations in integer nanoseconds and
    reports them in its {!time_unit}.  It keeps exact integer moments
    (count, sum, sum of squares, min, max), a log-linear histogram
    whose buckets are at most 1/64 of their lower bound wide, and the
    first 1 024 samples raw.  Its snapshot carries count/mean/stddev/
    min/max and p50/p95/p99.  Count, min and max are exact, and so are
    the percentiles of a dist that has seen at most 1 024 samples.
    Past that, each percentile interpolates between bucket midpoints
    and is within 1/128 of the exact order statistics.  Memory is
    bounded by the octaves of ns the samples reach (64 counts each, at
    most 3 648 counts in all), not by their number, and nothing in a
    dist depends on the order of its samples.  Pass [~exact_dists:true] to {!create} to keep every
    sample raw instead (exact percentiles, O(n) memory) — intended for
    tests and regression baselines.

    A registry belongs to whoever created it — normally a run's {!Ctx},
    which hands it to every engine the run builds; there is no
    process-wide one.  Parallel pieces of a run count into registries
    of their own and {!merge} back in a fixed order.  A snapshot of the
    whole registry dumps as deterministic JSON (sorted by subsystem
    then name), which is what [pegasus_cli --metrics-out] emits. *)

type t

type counter
type gauge
type dist

type time_unit =
  | Us  (** microseconds *)
  | Ms  (** milliseconds *)

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
    this registry keep all its samples raw, not only the first
    1 024. *)

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
val dist :
  t -> sub:Subsystem.t -> ?help:string -> ?unit:time_unit -> string -> dist
(** [unit] (default [Us]) is the unit the snapshot reports in.
    Re-registering a dist in another unit raises [Invalid_argument]. *)

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

val observe : dist -> int -> unit
(** Record a duration in ns: integer adds and compares, and no
    division.  It allocates only while the raw samples and the
    histogram grow, in blocks the major heap takes directly, so it adds
    no minor-heap words.  Raises [Invalid_argument] on a negative
    sample. *)

val observe_run : dist -> first:int -> step:int -> count:int -> unit
(** Record the [count] durations [first + j * step] ns, [j] in
    [\[0, count)]: the same dist as [count] calls of {!observe}.  The
    sum and sum of squares come in closed form, min and max from the
    run's ends, and the histogram is walked in ascending order one
    octave at a time, with one division per octave and then one add
    per sample or per bucket, whichever is fewer; samples are stored
    raw one by one only while the dist holds fewer than its raw cap
    (all of them with [~exact_dists:true]).  [count <= 0] records
    nothing.  Raises [Invalid_argument] when a sample would be
    negative. *)

val observed : dist -> int
(** Number of observations recorded. *)

val sample : observer -> float -> unit
(** Deliver a sample to every attached sink.  With no sinks attached
    this is one load and one branch — safe on any hot path. *)

val attach_sink : observer -> (float -> unit) -> unit
(** Attach a sink and enable the observer.  Multiple sinks may be
    attached (several SLOs can watch one stream); each sample is
    delivered to all of them in attachment order. *)

val enabled : observer -> bool

(** {1 Merging} *)

val merge : into:t -> t -> unit
(** Fold every metric of [src] into the metric of the same kind and
    [(subsystem, name)] in [into], registering it there first when
    absent.  Counters add; a gauge takes [src]'s value (the last writer
    wins, as in a sequential run into one registry); observers add
    their sample counts and are enabled if [src]'s was; dists add
    their moments and histograms and take the lower min and higher
    max, and their raw samples concatenate while the total still fits.
    So merging the same sources in any order gives byte-identical
    snapshots.  Raises [Invalid_argument] on a kind mismatch, or when
    one side keeps exact dists and the other does not. *)

(** {1 Snapshots} *)

val snapshot : t -> Json.t
(** [{"metrics": [...]}] with one object per metric, sorted by
    subsystem then name.  Distributions carry count/mean/stddev/min/
    max/p50/p95/p99 (count only when empty). *)

val write : t -> string -> unit
(** Write {!snapshot} to a file. *)
