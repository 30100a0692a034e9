(** E3 — shares + EDF scheduling vs the usual suspects (paper §3.3).

    "The approach to scheduling in Nemesis is to schedule domains with
    a weighted scheduling discipline ... While domains have some
    processor allocation remaining, the current scheduler
    implementation uses an earliest deadline first algorithm to select
    between them."  Plus the QoS manager adapting weights above it. *)

val run : ?quick:bool -> Sim.Ctx.t -> Table.t

val run_qos : ?quick:bool -> Sim.Ctx.t -> Table.t
(** The QoS-manager half: an application's grant over time as
    competitors arrive and leave, and its adaptation. *)
