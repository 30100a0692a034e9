(** E1 — tile-grained vs frame-grained video transport (paper §2.1).

    "The use of tiles for video reduces latency in several places from
    a 'frame time' (33 or 40 ms) to a 'tile time' (30 to 40 us)." *)

val run : Sim.Ctx.t -> Table.t

val rig :
  Sim.Engine.t ->
  release:Atm.Camera.release ->
  mode:Atm.Camera.mode ->
  Atm.Net.t * Atm.Display.t * int * Atm.Camera.t
(** One 640x480, 25 fps camera behind a Fairisle switch, feeding one
    display window: the net, the display, the window's VCI and the
    camera (not yet started). *)

val audit_scenario : Sim.Engine.t -> unit
(** The tile-row raw-video rig behind the table's second row, run on
    the given engine for 400 ms — the scenario
    [pegasus_cli audit video] traces, so the per-stage breakdown cited
    alongside this experiment comes from the same topology. *)
