type decision = { domain : Domain.t; window_end : Sim.Time.t; from_slack : bool }

type t = {
  policy_name : string;
  select : domains:Domain.t list -> now:Sim.Time.t -> decision option;
  charge : Domain.t -> amount:Sim.Time.t -> unit;
  next_wake : domains:Domain.t list -> now:Sim.Time.t -> Sim.Time.t option;
}

let runnable domains = List.filter Domain.has_work domains

(* ------------------------------------------------------------------ *)
(* Atropos: guaranteed slices consumed EDF, slack shared round-robin.  *)

let refresh_allocations domains ~now =
  let refresh d =
    let s = Domain.sched d and p = Domain.params d in
    while Sim.Time.(s.Domain.release <= now) do
      s.Domain.remain <- p.Domain.slice;
      s.Domain.deadline <- Sim.Time.add s.Domain.release p.Domain.period;
      s.Domain.release <- Sim.Time.add s.Domain.release p.Domain.period
    done
  in
  List.iter refresh domains

let next_release domains =
  List.fold_left
    (fun acc d -> Sim.Time.min acc (Domain.sched d).Domain.release)
    Int64.max_int domains

(* How long a slack grant runs before the decision is revisited. *)
let slack_quantum = Sim.Time.ms 1

let atropos ?(slack = `Round_robin) () =
  (* Selection sequence for round-robin fairness of slack: using a
     counter rather than the clock makes ties impossible. *)
  let seq = ref 0L in
  let select ~domains ~now =
    refresh_allocations domains ~now;
    let ready = runnable domains in
    let horizon = next_release domains in
    let guaranteed =
      List.filter (fun d -> (Domain.sched d).Domain.remain > 0L) ready
    in
    match guaranteed with
    | _ :: _ ->
        let best =
          List.fold_left
            (fun acc d ->
              let da = (Domain.sched acc).Domain.deadline
              and dd = (Domain.sched d).Domain.deadline in
              if Sim.Time.(dd < da) then d else acc)
            (List.hd guaranteed) (List.tl guaranteed)
        in
        let s = Domain.sched best in
        let window_end =
          Sim.Time.min
            (Sim.Time.add now s.Domain.remain)
            (Sim.Time.min s.Domain.deadline horizon)
        in
        Some { domain = best; window_end; from_slack = false }
    | [] -> begin
        (* All guarantees met (or exhausted): the slack policy decides
           who, if anyone, gets the leftovers. *)
        match slack with
        | `None -> None
        | (`Round_robin | `Proportional) as policy -> begin
            match
              List.filter (fun d -> (Domain.params d).Domain.extra) ready
            with
            | [] -> None
            | extras ->
                let best =
                  match policy with
                  | `Round_robin ->
                      List.fold_left
                        (fun acc d ->
                          if
                            Sim.Time.(
                              (Domain.sched d).Domain.rr_last
                              < (Domain.sched acc).Domain.rr_last)
                          then d
                          else acc)
                        (List.hd extras) (List.tl extras)
                  | `Proportional ->
                      (* Weight slack by the guaranteed share: the
                         domain furthest below (usage / share) goes
                         next. *)
                      let score d =
                        let p = Domain.params d in
                        let share =
                          Sim.Time.to_sec_f p.Domain.slice
                          /. Float.max 1e-9 (Sim.Time.to_sec_f p.Domain.period)
                        in
                        Sim.Time.to_sec_f (Domain.cpu_used d)
                        /. Float.max 1e-9 share
                      in
                      List.fold_left
                        (fun acc d -> if score d < score acc then d else acc)
                        (List.hd extras) (List.tl extras)
                in
                seq := Int64.add !seq 1L;
                (Domain.sched best).Domain.rr_last <- !seq;
                let window_end =
                  Sim.Time.min (Sim.Time.add now slack_quantum) horizon
                in
                Some { domain = best; window_end; from_slack = true }
          end
      end
  in
  let charge d ~amount =
    let s = Domain.sched d in
    s.Domain.remain <- Sim.Time.max Sim.Time.zero (Sim.Time.sub s.Domain.remain amount)
  in
  let next_wake ~domains ~now =
    if runnable domains = [] then None
    else begin
      let r = next_release domains in
      if Sim.Time.(r > now) && r <> Int64.max_int then Some r else None
    end
  in
  { policy_name = "atropos"; select; charge; next_wake }

(* ------------------------------------------------------------------ *)
(* Baselines.                                                          *)

let simple_policy name pick ~quantum =
  let select ~domains ~now =
    match runnable domains with
    | [] -> None
    | ready ->
        let best = pick ready ~now in
        Some { domain = best; window_end = Sim.Time.add now quantum; from_slack = false }
  in
  {
    policy_name = name;
    select;
    charge = (fun _ ~amount:_ -> ());
    next_wake = (fun ~domains:_ ~now:_ -> None);
  }

let edf () =
  let pick ready ~now:_ =
    List.fold_left
      (fun acc d ->
        if
          Sim.Time.(Domain.earliest_job_deadline d < Domain.earliest_job_deadline acc)
        then d
        else acc)
      (List.hd ready) (List.tl ready)
  in
  simple_policy "edf" pick ~quantum:(Sim.Time.ms 1)

let fixed_priority () =
  let pick ready ~now:_ =
    List.fold_left
      (fun acc d ->
        if (Domain.params d).Domain.priority > (Domain.params acc).Domain.priority
        then d
        else acc)
      (List.hd ready) (List.tl ready)
  in
  simple_policy "fixed-priority" pick ~quantum:(Sim.Time.ms 10)

let round_robin () =
  let seq = ref 0L in
  let pick ready ~now:_ =
    let best =
      List.fold_left
        (fun acc d ->
          if
            Sim.Time.(
              (Domain.sched d).Domain.rr_last < (Domain.sched acc).Domain.rr_last)
          then d
          else acc)
        (List.hd ready) (List.tl ready)
    in
    seq := Int64.add !seq 1L;
    (Domain.sched best).Domain.rr_last <- !seq;
    best
  in
  simple_policy "round-robin" pick ~quantum:(Sim.Time.ms 10)
