(** Domain scheduling policies.

    The paper's scheduler (here [atropos], after the Nemesis scheduler
    of that name) gives each domain a guaranteed slice of CPU per
    period and, while domains have allocation remaining, selects among
    them earliest-deadline-first; when all guarantees are satisfied the
    remaining slack is shared round-robin among domains that asked for
    extra time.  [edf], [fixed_priority] and [round_robin] are the
    baselines the evaluation compares against. *)

type decision = {
  domain : Domain.t;
  window_end : Sim.Time.t;
      (** instant at which the kernel must re-examine the decision *)
  from_slack : bool;  (** true when granted from slack, not guarantee *)
}

type t = {
  policy_name : string;
  select : domains:Domain.t list -> now:Sim.Time.t -> decision option;
      (** Pick a runnable domain, or [None] to idle. *)
  charge : Domain.t -> amount:Sim.Time.t -> unit;
      (** Consume [amount] of the domain's allocation. *)
  next_wake : domains:Domain.t list -> now:Sim.Time.t -> Sim.Time.t option;
      (** When to re-run [select] although nothing else happened
          (e.g. a new allocation period starts). *)
}

val atropos : ?slack:[ `Round_robin | `Proportional | `None ] -> unit -> t
(** The paper's scheduler.  A slack grant runs at most 1 ms before the
    decision is revisited.  [slack]
    selects the policy for sharing out remaining resources — which the
    paper leaves as "the subject of investigation"; the ablation in
    experiment A1 compares the options.  [`Round_robin] (default)
    rotates among extra-time domains, [`Proportional] weights slack by
    guaranteed share, [`None] idles once guarantees are met. *)

val edf : unit -> t
(** Plain earliest-deadline-first over the domains' most urgent job
    deadlines, with no reservations: optimal when feasible, collapses
    unpredictably under overload.  Decisions are revisited every 1 ms. *)

val fixed_priority : unit -> t
(** Highest static priority wins; among equal priorities, the domain
    listed first in [domains] (the kernel lists them in the order they
    were added).  Decisions are revisited every 10 ms. *)

val round_robin : unit -> t
(** Equal turns in become-runnable order, 10 ms each. *)
