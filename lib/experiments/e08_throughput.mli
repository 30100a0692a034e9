(** E8 — storage throughput (paper §5).

    "The speeds of modern disks are such that the overhead of seeks
    between reading and writing whole segments is less than ten per
    cent, so that a transfer rate of at least five megabytes per second
    per disk is possible...  Striping over four disks makes a total
    bandwidth of 20 MB per second possible.  We have not been able to
    test this yet, since our ATM network runs only at a mere 100
    megabits per second, just over 10 MB per second." *)

val run : Sim.Ctx.t -> Table.t
