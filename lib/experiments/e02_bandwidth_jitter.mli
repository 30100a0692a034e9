(** E2 — stream bandwidths and audio jitter (paper §2).

    "Using frame-by-frame compression, for instance with JPEG, a video
    stream requires no more than a megabyte per second."  "Audio has
    modest bandwidth requirements compared to video, but is much more
    susceptible to jitter." *)

val run : Sim.Ctx.t -> Table.t

val audit_scenario : Sim.Engine.t -> unit
(** The loaded-path rig behind the bursty-load rows, with a JPEG video
    stream in the audio source's place, run on the given engine for
    400 ms — the [pegasus_cli audit av] scenario,
    whose jitter figures complement this experiment's table. *)
