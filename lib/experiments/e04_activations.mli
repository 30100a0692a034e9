(** E4 — activations vs transparent resumption (paper §3.2).

    "First, it provides a means of informing applications when they
    have the processor; a user-level scheduler can use this
    information, together with the current time, to make more informed
    decisions about the fate of the threads which it controls." *)

val run : ?quick:bool -> Sim.Ctx.t -> Table.t
