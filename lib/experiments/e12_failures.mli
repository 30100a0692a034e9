(** E12 — no data loss under single failures (paper §5).

    "The data is now safe under single-point failures: when the server
    crashes, the client agent ... waits for the crashed server to come
    back up; when the client machine crashes, the server will complete
    the write.  When there is a power failure, client and server will
    crash together ... the servers can either be equipped with
    battery-backed-up memory, or with an uninterruptible power
    supply." *)

val run : Sim.Ctx.t -> Table.t
