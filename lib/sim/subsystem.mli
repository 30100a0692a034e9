(** Subsystem tags shared by the trace sink and the metrics registry.

    Every observability record names the layer it came from, so traces
    can be filtered per subsystem and metric names stay collision-free
    across libraries. *)

type t = Atm | Nemesis | Pfs | Rpc | Naming | Sim

val to_string : t -> string
val compare : t -> t -> int

val lane : t -> int
(** Stable code per subsystem, 0 to 5: the subsystem field of a
    {!Trace} event and the [tid] lane in Chrome trace exports, so each
    layer renders as its own track. *)

val of_lane : int -> t
(** The subsystem whose {!lane} is the given code.  Raises
    [Invalid_argument] outside 0 to 5. *)
