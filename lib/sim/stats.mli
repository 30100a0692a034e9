(** Online statistics for simulation measurements. *)

(** Streaming summary: count, mean, variance (Welford), min, max. *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val clear : t -> unit
  (** Reset to the freshly-created state, in place. *)

  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val total : t -> float
  val merge : t -> t -> t
  val pp : Format.formatter -> t -> unit
end

(** Sample store with exact percentiles (sorts lazily on query). *)
module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val clear : t -> unit
  (** Drop every sample, in place (capacity is retained). *)

  val count : t -> int
  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0, 100\]].  Raises [Invalid_argument]
      when empty. *)

  val mean : t -> float
  val min : t -> float
  val max : t -> float
  (** {!mean}, {!min}, {!max} and {!percentile} all raise
      [Invalid_argument] on an empty store — there is no statistic of
      zero samples, and returning a default would let an empty set
      masquerade as a measured value.  Guard with {!count} when empty
      is a legitimate state. *)

  val to_array : t -> float array
end

(** Bounded-memory sample store: a fixed-capacity uniform random sample
    (Vitter's Algorithm R) of an unbounded observation stream.

    Replacement decisions come from an explicit seeded {!Rng}
    generator, so the retained sample — and every percentile computed
    from it — is a deterministic function of [(seed, observations)]:
    two runs that observe the same stream snapshot byte-identically.

    Accuracy: the first [capacity] observations are stored verbatim, so
    below capacity percentiles are {e exact} (identical to {!Samples}).
    Beyond capacity, a percentile estimate from a uniform sample of
    size [k] has standard error ~[sqrt (p * (1-p) / k)] in rank space:
    with the default capacity of 1024 that is ±1.6 rank-percentage
    points for p50 and ±0.7 for p95/p99 (one sigma), independent of
    stream length.  Use {!Samples} when exact order statistics
    matter. *)
module Reservoir : sig
  type t

  val default_capacity : int
  (** 1024. *)

  val create : ?capacity:int -> ?seed:int64 -> unit -> t
  (** Raises [Invalid_argument] if [capacity <= 0].  The default seed
      is a fixed constant, so reservoirs created without one behave
      identically across runs. *)

  val capacity : t -> int

  val add : t -> float -> unit

  val count : t -> int
  (** Total observations seen (not the number retained). *)

  val stored : t -> int
  (** Number of observations currently retained,
      [min count capacity]. *)

  val clear : t -> unit
  (** Drop every sample and restart the replacement stream from the
      seed, in place: a cleared reservoir replays exactly like a fresh
      one. *)

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0, 100\]], over the retained
      sample.  Raises [Invalid_argument] when empty. *)

  val to_array : t -> float array
  (** The retained sample, in insertion/replacement order. *)

  val merge : into:t -> t -> unit
  (** Fold [src] into [into] as if [into] had also seen [src]'s
      observations.  While the two retained samples fit [into]'s
      capacity they are concatenated, so percentiles stay exact.
      Beyond it, each side fills a share of the slots proportional to
      the observations it has seen, with values drawn by [into]'s own
      generator: the result is a deterministic function of the two
      reservoirs and the order of merges. *)
end

(** Fixed-width bucket histogram over [\[0, width * buckets)]; values
    beyond the last bucket are clamped into it.  NaN and negative
    samples are not bucketed (they carry no position information) —
    they are tallied in a separate out-of-range counter instead. *)
module Histogram : sig
  type t

  val create : bucket_width:float -> buckets:int -> t
  val add : t -> float -> unit
  val count : t -> int
  (** Number of bucketed (in-range) samples. *)

  val out_of_range : t -> int
  (** Number of NaN or negative samples rejected by {!add}. *)

  val bucket_count : t -> int -> int
  val pp : Format.formatter -> t -> unit
end

(** Named monotonic counters. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : ?by:int -> t -> string -> unit
  val get : t -> string -> int
  val to_list : t -> (string * int) list
end
