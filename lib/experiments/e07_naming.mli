(** E7 — naming and invocation costs (paper §4).

    "Name resolution should, therefore, be most efficient for local
    names.  This implies that local names should be shortest..."  The
    invocation ladder: procedure call / protected call / RPC, with the
    maillon imposing "very little overhead" in the common case. *)

val run : Sim.Ctx.t -> Table.t
