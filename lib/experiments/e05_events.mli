(** E5 — synchronous vs asynchronous event signalling (paper §3.4).

    "...lowest latency for a client/server interaction will be
    achieved by the client and server implementing the synchronous
    form of notification.  However, a domain performing demultiplexing
    of incoming packets may be most efficient using the asynchronous
    means." *)

val run : ?quick:bool -> Sim.Ctx.t -> Table.t
