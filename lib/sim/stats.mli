(** Online statistics for simulation measurements. *)

val percentile : n:int -> (int -> float) -> float -> float
(** [percentile ~n at q] is the [q]th percentile, [q] in [\[0, 100\]],
    of [n > 0] ordered values whose [k]th smallest (from 0) is [at k]:
    rank [q / 100 * (n - 1)], interpolated linearly between the order
    statistics either side of it.  {!Samples.percentile}, the metrics
    dists and the SLO monitor's windows all use it. *)

(** Streaming standard deviation (Welford). *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val stddev : t -> float
end

(** Sample store with exact percentiles (sorts lazily on query). *)
module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
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
