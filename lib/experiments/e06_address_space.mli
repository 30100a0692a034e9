(** E6 — the single address space's costs and benefits (paper §3.1).

    Benefits: "the removal of virtual address aliases which can result
    in significant context switch costs with caches accessed by
    virtual address."  Cost: "the penalty of load-time relocation",
    amortised by "allocating the top 32 address bits of a 64 bit
    virtual address based on a 32-bit hash function of the code". *)

val run : ?quick:bool -> Sim.Ctx.t -> Table.t
