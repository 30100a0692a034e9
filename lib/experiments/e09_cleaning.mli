(** E9 — cleaning cost vs file-system size (paper §5).

    "If any part of the cleaning process scales with, say, the square
    of the system size, cleaning a terabyte file system will take a
    very long time.  We are currently implementing a cleaning
    algorithm whose complexity only depends on the number of segments
    to be cleaned and the amount of 'garbage'." *)

val run : ?quick:bool -> Sim.Ctx.t -> Table.t
