(** E1 — tile-grained vs frame-grained video transport (paper §2.1).

    "The use of tiles for video reduces latency in several places from
    a 'frame time' (33 or 40 ms) to a 'tile time' (30 to 40 us)." *)

val run : Sim.Ctx.t -> Table.t

val audit_scenario : Sim.Engine.t -> unit
(** The tile-row raw-video rig behind the table's second row, run on
    the given engine for 400 ms — the scenario
    [pegasus_cli audit video] traces, so the per-stage breakdown cited
    alongside this experiment comes from the same topology. *)
