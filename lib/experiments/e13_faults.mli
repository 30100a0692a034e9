(** E13 — graceful degradation under deterministic fault injection.

    A seeded {!Sim.Fault} plan drops cells, takes links down and fails
    disks while three workloads run: an open-loop video source (frame
    delivery must fall monotonically with the cell-loss rate), an RPC
    echo client (retransmission holds goodput through loss and a link
    outage), and a RAID read sweep (parity serves reads through one
    disk failure; only two failures lose data).  Fixed seeds make two
    runs of the experiment byte-identical.

    The ten rows are independent closed worlds, so they run through
    {!Sim.Ctx.map} on as many OCaml domains as the context allows, each
    recording into a child context merged back in row order: the table
    and everything the context records are byte-identical at every
    domain count. *)

val run : Sim.Ctx.t -> Table.t
