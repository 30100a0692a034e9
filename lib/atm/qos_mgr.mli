(** Network-side QoS manager: per-VC stream contracts over the fabric.

    The paper's QoS manager mediates between applications and scarce
    resources — accepting, rejecting and renegotiating contracts.
    {!Nemesis.Qos} plays that role for CPU; this module plays it for
    network bandwidth.  A {!request} names a stream class and a rate;
    the manager admits it at full rate if any candidate path through the
    fabric has the capacity ({!Net.open_vc} with rotating [path_sel]),
    admits it {e degraded} at a lower tier of the class's rate ladder
    when only that fits, and rejects it otherwise.  {!review} — run
    manually or on a periodic interval — renegotiates upward: degraded
    contracts are promoted one tier at a time, in admission order, as
    departures free capacity.

    Every admission and every upgrade is all-or-nothing on the
    underlying signalling: a refused attempt leaves no reservation,
    route or VCI behind. *)

type t

type stream_class = Video | Audio | Rpc

val class_name : stream_class -> string

type contract

type verdict =
  | Accepted of contract  (** admitted at the requested rate *)
  | Degraded of contract  (** admitted at a lower tier of the ladder *)
  | Rejected

val create : ?path_attempts:int -> Net.t -> unit -> t
(** A manager over the given fabric; contracts are renegotiated only
    when the caller runs {!review}.  [path_attempts] (default 1) is how
    many rotated path selections each admission tier tries — set it to
    the spine count of a Clos fabric to let admission spread over every
    equal-cost crossing. *)

val request :
  ?rx_train:(Train.t -> unit) ->
  t ->
  cls:stream_class ->
  bps:int ->
  src:Net.node_id ->
  dst:Net.node_id ->
  rx:(Cell.t -> unit) ->
  unit ->
  verdict
(** Offer a contract: a [cls] stream from [src] to [dst] at [bps].
    Tries full rate on every candidate path, then each lower tier of
    the class's degradation ladder (fractions of the requested rate:
    video 1, 1/2, 1/4; audio 1, 1/2; RPC 1, take-it-or-leave-it); the
    returned contract's VC is open and reserved at the granted rate.
    Raises [Invalid_argument] when [bps <= 0]. *)

val teardown : t -> contract -> unit
(** Close the contract's VC and release everything it held.
    Idempotent. *)

val review : t -> unit
(** One renegotiation pass: every live degraded contract, in admission
    order, is offered the next tier up; the upgrade happens only when
    every link of its path can take the difference. *)

(** {1 Contract accessors} *)

val contract_id : contract -> int
val contract_class : contract -> stream_class

val contract_vc : contract -> Net.vc option
(** [None] once torn down. *)

val granted_bps : contract -> int

val upgrades : contract -> int
(** Tier promotions this contract has received from {!review}. *)

val is_degraded : contract -> bool

(** {1 Manager statistics} *)

val live : t -> contract list
(** Live contracts in admission order. *)

val offered : t -> int
val accepted : t -> int
val degraded : t -> int
val rejected : t -> int
val released : t -> int

val renegotiated : t -> int
(** Total tier promotions across all reviews. *)
