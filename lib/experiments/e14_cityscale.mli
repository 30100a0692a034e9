(** E14 — city-scale fabric: admission control under a load sweep.

    A fixed Clos fabric ({!Atm.Net.clos}) takes 10 to 10,000 offered
    stream contracts mixed over video/audio/RPC; {!Atm.Qos_mgr} admits,
    degrades or rejects each, churn departs every fifth contract, and
    renegotiation promotes degraded contracts into the freed capacity.
    A deterministic sample of survivors carries flow-traced traffic so
    {!Sim.Audit} yields per-class jitter and a Jain fairness index.

    The sweep rows are independent closed worlds: {!Sim.Ctx.map} fans
    them over the context's OCaml domains, each recording into its own
    child context, with byte-identical output — table, metrics and
    trace — at every domain count. *)

val run : Sim.Ctx.t -> Table.t
