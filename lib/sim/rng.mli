(** Deterministic pseudo-random numbers (SplitMix64).

    Every stochastic component of the simulation draws from an explicit
    generator so that runs are reproducible from a seed, and independent
    subsystems can be given independent streams ([split]). *)

type t

val create : ?seed:int64 -> unit -> t
(** Fresh generator.  The default seed is a fixed constant, so two
    generators created without a seed produce identical streams. *)

val split : t -> t
(** A new generator whose stream is independent of the parent's. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be > 0. *)

val uniform : t -> lo:float -> hi:float -> float

val exponential : t -> mean:float -> float
(** Exponentially distributed, with the given mean. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [exp] of a Gaussian draw (Box–Muller); [mu]/[sigma] are the
    underlying normal's. *)

val zipf : t -> n:int -> s:float -> int
(** Zipf-distributed rank in [\[1, n\]] with exponent [s], by inversion
    on a cached CDF.  A small MRU set of caches keyed on [(n, s)] is
    kept per generator, so draws that interleave a handful of
    distributions — the flash-crowd generator mixes its pre- and
    post-flip popularity laws — stay O(log n) per draw instead of
    rebuilding the O(n) table on every alternation.  The cache never
    changes drawn values. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
