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
