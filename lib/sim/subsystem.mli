(** Subsystem tags shared by the trace sink and the metrics registry.

    Every observability record names the layer it came from, so traces
    can be filtered per subsystem and metric names stay collision-free
    across libraries. *)

type t = Atm | Nemesis | Pfs | Rpc | Naming | Sim | Other of string

val to_string : t -> string
val compare : t -> t -> int

val lane : t -> int
(** Stable small integer per subsystem, used as the [tid] lane in
    Chrome trace exports so each layer renders as its own track. *)
