(** E10 — delayed writes under Baker-style traffic (paper §5).

    "Baker et al. showed that 70% of files are deleted or overwritten
    within 30 seconds ... The data that does eventually get written to
    the log is reasonably stable, so garbage is created at a much
    lower rate." *)

val run : Sim.Ctx.t -> Table.t
