(** Simulated time.

    Time is a count of nanoseconds since the start of the simulation,
    held in an immediate [int]: storing, comparing or adding times
    allocates nothing.  The type is private, so a time stays distinct
    from a bare int: [(t :> int)] reads its nanoseconds, and only this
    module's constructors make one.  2^62 ns is about 146 years, so
    overflow is not a practical concern.  All of the simulator, the
    ATM network, the Nemesis kernel and the file-server models share
    this clock. *)

type t = private int

val zero : t

(** {1 Constructors} *)

external ns : int -> t = "%identity"
(** [ns n] is [n] nanoseconds. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val sec : int -> t
(** [sec n] is [n] seconds. *)

val of_sec_f : float -> t
(** [of_sec_f s] converts a duration in (possibly fractional) seconds. *)

(** {1 Arithmetic} *)

external add : t -> t -> t = "%addint"
external sub : t -> t -> t = "%subint"
val mul : t -> int -> t
val div : t -> int -> t
val min : t -> t -> t
val max : t -> t -> t
val compare : t -> t -> int
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

(** {1 Conversions} *)

external to_ns : t -> int = "%identity"
val to_us_f : t -> float
val to_ms_f : t -> float
val to_sec_f : t -> float

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/us/ms/s). *)
