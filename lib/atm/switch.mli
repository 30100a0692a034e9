(** Output-queued ATM switch (Fairisle-style).

    Cells arriving on an input port are looked up in the routing table
    by (input port, VCI), have their VCI rewritten, cross the fabric in
    a fixed transit time, and are offered to the output port's link
    (which owns the bounded output queue).  Unroutable cells are
    dropped and counted. *)

type t

type port = int

val create : Sim.Engine.t -> name:string -> ports:int -> t
(** The fabric transit time is 4.24 us — one cell time at 100 Mbit/s,
    matching Fairisle's cell-pipelined fabric. *)

val ports : t -> int

val attach_output : t -> port -> Link.t -> unit
(** Connect the transmit side of [port]. Raises if already attached. *)

val add_route :
  ?priority:bool ->
  t ->
  in_port:port ->
  in_vci:int ->
  out_port:port ->
  out_vci:int ->
  unit
(** Install a routing-table entry.  [priority] marks the VC as
    bandwidth-reserved: its cells are forwarded onto the output link
    with priority.  Raises [Invalid_argument] if the (in_port, in_vci)
    pair is already routed. *)

val remove_route : t -> in_port:port -> in_vci:int -> unit

val route : t -> in_port:port -> in_vci:int -> (port * int) option

val input : t -> port -> Cell.t -> unit
(** Deliver a cell to an input port (this is the link rx callback). *)

val input_train : t -> port -> Train.t -> arrivals:Cell_times.t -> unit
(** Deliver a train window to an input port (the link's [Stream]
    callback): one routing lookup for the whole burst, and no
    fabric-transit event.  [arrivals] gives each cell's arrival instant
    at this port; shifted by the fabric delay it becomes the offer
    sequence for the output link, so the switch's cost follows the
    number of runs in [arrivals], not of cells.  The switch keeps
    [arrivals] while some of them lie in the future, so that
    {!cells_switched} and {!cells_unroutable} count each cell only once
    it has arrived. *)

val cells_switched : t -> int
val cells_unroutable : t -> int
