(** E11 — caching helps files, hurts streams (paper §5).

    "In contrast, caching video and audio is usually not a good idea...
    Most video sequences and many audio sequences are larger than the
    cache, so, by the time a user has seen ... a video to the end, the
    beginning has already been evicted from the (LRU) cache." *)

val run : ?quick:bool -> Sim.Ctx.t -> Table.t
