(** A1 (ablation) — policies for sharing out slack time (paper §3.3).

    "Within a given time frame, not all domains may use their
    allocation; the policy for sharing out remaining resources is
    still the subject of investigation."  This ablation runs the
    candidate policies the sentence invites. *)

val run : ?quick:bool -> Sim.Ctx.t -> Table.t
