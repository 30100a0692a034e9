type channel = {
  ch_dst : Domain.t;
  ch_mode : [ `Sync | `Async ];
  ch_closure : (unit -> Job.t option) option;
  mutable ch_pending : int;
  mutable ch_sent : int;
  mutable ch_delivered : int;
}

type plan = {
  p_dom : Domain.t;
  p_window_end : Sim.Time.t;
  p_window_ev : Sim.Engine.event_id;
  mutable p_completion_ev : Sim.Engine.event_id option;
  mutable p_seg_start : Sim.Time.t;
  p_overhead_until : Sim.Time.t;
  p_span : Sim.Trace.span;
}

type t = {
  engine : Sim.Engine.t;
  policy : Policy.t;
  ctx_switch_cost : Sim.Time.t;
  mutable doms : Domain.t list;
  mutable channels : channel list;
  mutable plan : plan option;
  mutable last_running : Domain.t option;
  mutable kick_pending : bool;
  mutable handoff : (Domain.t * Sim.Time.t) option;
      (* sync-send target and the window it inherits from the sender *)
  mutable idle_wake : Sim.Engine.event_id option;
  mutable kps_depth : int;
  mutable deferred : channel list;  (* interrupts raised during a KPS *)
  mutable switches : int;
  mutable idle_since : Sim.Time.t option;
  mutable idle_total : Sim.Time.t;
  m_switches : Sim.Metrics.counter;
  m_deadline_misses : Sim.Metrics.counter;
  m_slack_windows : Sim.Metrics.counter;
  m_slack_window_us : Sim.Metrics.dist;
  m_lateness_win : Sim.Metrics.observer;
}

let create engine ~policy ?(ctx_switch_cost = Sim.Time.us 10) () =
  let metrics = Sim.Engine.metrics engine in
  {
    engine;
    policy;
    ctx_switch_cost;
    doms = [];
    channels = [];
    plan = None;
    last_running = None;
    kick_pending = false;
    handoff = None;
    idle_wake = None;
    kps_depth = 0;
    deferred = [];
    switches = 0;
    idle_since = Some Sim.Time.zero;
    idle_total = Sim.Time.zero;
    m_switches =
      Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Nemesis
        ~help:"processor moves between different domains"
        "kernel.context_switches";
    m_deadline_misses =
      Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Nemesis
        ~help:"jobs completed after their deadline" "kernel.deadline_misses";
    m_slack_windows =
      Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Nemesis
        ~help:"scheduling windows granted from slack, not guarantees"
        "kernel.slack_windows";
    m_slack_window_us =
      Sim.Metrics.dist metrics ~sub:Sim.Subsystem.Nemesis
        ~help:"length of slack-granted windows in us" "kernel.slack_window_us";
    m_lateness_win =
      Sim.Metrics.observer metrics ~sub:Sim.Subsystem.Nemesis
        ~help:"windowed deadline-miss lateness samples (us)"
        "kernel.lateness_win_us";
  }

let engine t = t.engine
let now t = Sim.Engine.now t.engine

(* -------------------------------------------------------------- *)
(* The scheduling machinery.  Every state change funnels through   *)
(* [kick], which coalesces same-instant changes into one           *)
(* reschedule run as a zero-delay event.                           *)

let rec kick t =
  if not t.kick_pending then begin
    t.kick_pending <- true;
    ignore (Sim.Engine.schedule t.engine ~delay:Sim.Time.zero (fun () -> reschedule t))
  end

and charge_segment t p at =
  let elapsed = Sim.Time.sub at p.p_seg_start in
  if Sim.Time.(elapsed > zero) then begin
    Domain.charge p.p_dom elapsed;
    t.policy.Policy.charge p.p_dom ~amount:elapsed;
    (match Domain.current p.p_dom with
    | Some j ->
        let work_start = Sim.Time.max p.p_seg_start p.p_overhead_until in
        if Sim.Time.(at > work_start) then begin
          let used = Sim.Time.sub at work_start in
          j.Job.remaining <- Sim.Time.max Sim.Time.zero (Sim.Time.sub j.Job.remaining used)
        end
    | None -> ());
    p.p_seg_start <- at
  end

and suspend_current t at =
  match t.plan with
  | None -> ()
  | Some p ->
      ignore (Sim.Engine.cancel t.engine p.p_window_ev);
      (match p.p_completion_ev with
      | Some ev -> ignore (Sim.Engine.cancel t.engine ev)
      | None -> ());
      charge_segment t p at;
      Sim.Trace.span_end (Sim.Engine.trace t.engine) ~ts:at p.p_span;
      Domain.deactivate p.p_dom;
      t.plan <- None

(* Deliver pending event notifications for a domain that is being
   activated; each notification's closure may enqueue a job. *)
and deliver_events t d =
  List.fold_left
    (fun total ch ->
      if ch.ch_dst == d && ch.ch_pending > 0 then begin
        let n = ch.ch_pending in
        ch.ch_pending <- 0;
        ch.ch_delivered <- ch.ch_delivered + n;
        (match ch.ch_closure with
        | Some f ->
            for _ = 1 to n do
              match f () with
              | Some job -> Domain.add_job d job
              | None -> ()
            done
        | None -> ());
        total + n
      end
      else total)
    0 t.channels

and note_idle_start t at =
  match t.idle_since with None -> t.idle_since <- Some at | Some _ -> ()

and note_idle_end t at =
  match t.idle_since with
  | Some since ->
      t.idle_total <- Sim.Time.add t.idle_total (Sim.Time.sub at since);
      t.idle_since <- None
  | None -> ()

and reschedule t =
  t.kick_pending <- false;
  let at = now t in
  suspend_current t at;
  (match t.idle_wake with
  | Some ev ->
      ignore (Sim.Engine.cancel t.engine ev);
      t.idle_wake <- None
  | None -> ());
  (* Domains with pending events are runnable even before the events
     are turned into jobs, so give every such domain its activation
     first: activation is what converts notifications into work. *)
  List.iter
    (fun d ->
      if
        Domain.is_deactivated d
        && List.exists (fun ch -> ch.ch_dst == d && ch.ch_pending > 0) t.channels
      then begin
        let n = deliver_events t d in
        Domain.activate d ~now:at ~events:n
      end)
    t.doms;
  (* A synchronous send hands the processor directly to the signalled
     domain for the remainder of the sender's window. *)
  let decision =
    match t.handoff with
    | Some (d, window_end)
      when Domain.has_work d && Sim.Time.(window_end > at) ->
        t.handoff <- None;
        Some { Policy.domain = d; window_end; from_slack = false }
    | Some _ ->
        t.handoff <- None;
        t.policy.Policy.select ~domains:t.doms ~now:at
    | None -> t.policy.Policy.select ~domains:t.doms ~now:at
  in
  match decision with
  | None ->
      note_idle_start t at;
      (match t.policy.Policy.next_wake ~domains:t.doms ~now:at with
      | Some wake when Sim.Time.(wake > at) ->
          t.idle_wake <-
            Some
              (Sim.Engine.schedule_at t.engine ~at:wake (fun () ->
                   t.idle_wake <- None;
                   reschedule t))
      | Some _ | None -> ())
  | Some { Policy.domain = d; window_end; from_slack } ->
      note_idle_end t at;
      let same =
        match t.last_running with Some prev -> prev == d | None -> false
      in
      if not same then begin
        t.switches <- t.switches + 1;
        Sim.Metrics.incr t.m_switches
      end;
      if from_slack then begin
        Sim.Metrics.incr t.m_slack_windows;
        Sim.Metrics.observe t.m_slack_window_us
          (Sim.Time.to_ns (Sim.Time.sub window_end at))
      end;
      let overhead = if same then Sim.Time.zero else t.ctx_switch_cost in
      t.last_running <- Some d;
      if Domain.is_deactivated d then begin
        let n = deliver_events t d in
        Domain.activate d ~now:at ~events:n
      end;
      let p =
        {
          p_dom = d;
          p_window_end = window_end;
          p_window_ev =
            Sim.Engine.schedule_at t.engine ~at:window_end (fun () -> kick t);
          p_completion_ev = None;
          p_seg_start = at;
          p_overhead_until = Sim.Time.add at overhead;
          p_span =
            Sim.Trace.span_begin (Sim.Engine.trace t.engine) ~ts:at
              ~sub:Sim.Subsystem.Nemesis ~cat:"sched"
              ~args:[ ("from_slack", Sim.Trace.Bool from_slack) ]
              (Domain.name d);
        }
      in
      t.plan <- Some p;
      plan_job t p

and plan_job t p =
  let d = p.p_dom in
  match Domain.next_job d with
  | None ->
      (* The domain yielded the rest of its window: nothing to run. *)
      Domain.set_current d None;
      suspend_current t (now t);
      kick t
  | Some j ->
      Domain.set_current d (Some j);
      let start = Sim.Time.max (now t) p.p_overhead_until in
      let completion_at = Sim.Time.add start j.Job.remaining in
      if Sim.Time.(completion_at <= p.p_window_end) then
        p.p_completion_ev <-
          Some
            (Sim.Engine.schedule_at t.engine ~at:completion_at (fun () ->
                 complete t p j))

and complete t p j =
  let at = now t in
  charge_segment t p at;
  p.p_completion_ev <- None;
  assert (j.Job.remaining = Sim.Time.zero);
  Domain.remove_job p.p_dom j;
  Domain.note_job_done p.p_dom j ~now:at;
  (let tr = Sim.Engine.trace t.engine in
   if Sim.Trace.flows_on tr && j.Job.flow >= 0 then
     Sim.Trace.flow_step tr ~ts:at ~sub:Sim.Subsystem.Nemesis ~cat:"sched"
       ~flow:j.Job.flow "cpu.run");
  (match j.Job.deadline with
  | Some d when Sim.Time.(at > d) ->
      Sim.Metrics.incr t.m_deadline_misses;
      Sim.Metrics.sample t.m_lateness_win
        (Sim.Time.to_us_f (Sim.Time.sub at d));
      let tr = Sim.Engine.trace t.engine in
      if Sim.Trace.enabled tr then
        Sim.Trace.instant tr ~ts:at ~sub:Sim.Subsystem.Nemesis ~cat:"sched"
          ~flow:j.Job.flow
          ~args:
            [
              ("domain", Sim.Trace.Str (Domain.name p.p_dom));
              ("late_us", Sim.Trace.Float (Sim.Time.to_us_f (Sim.Time.sub at d)));
            ]
          "deadline_miss"
  | Some _ | None -> ());
  (match j.Job.on_complete with Some f -> f () | None -> ());
  (* Continue in the same window if the plan survived the callback. *)
  match t.plan with Some p' when p' == p -> plan_job t p | Some _ | None -> ()

let add_domain t d =
  t.doms <- t.doms @ [ d ];
  let s = Domain.sched d in
  s.Domain.release <- now t;
  if Domain.has_work d then Domain.note_runnable d ~now:(now t);
  kick t

let submit t d job =
  Domain.add_job d job;
  Domain.note_runnable d ~now:(now t);
  (* Adding work to the domain that already holds the processor needs
     no scheduling decision: its own thread scheduler will pick the job
     up at the next completion point. *)
  match t.plan with
  | Some p when p.p_dom == d -> ()
  | Some _ | None -> kick t

(* -------------------------------------------------------------- *)
(* Events.                                                         *)

let channel t ~dst ~mode ?closure () =
  let ch =
    {
      ch_dst = dst;
      ch_mode = mode;
      ch_closure = closure;
      ch_pending = 0;
      ch_sent = 0;
      ch_delivered = 0;
    }
  in
  t.channels <- ch :: t.channels;
  ch

let raise_event t ch =
  ch.ch_pending <- ch.ch_pending + 1;
  ch.ch_sent <- ch.ch_sent + 1;
  Domain.note_runnable ch.ch_dst ~now:(now t)

let send t ch =
  raise_event t ch;
  match ch.ch_mode with
  | `Sync ->
      (* The sender gives up the processor to the signalled domain,
         which inherits the rest of the window. *)
      (match t.plan with
      | Some p when p.p_dom != ch.ch_dst ->
          t.handoff <- Some (ch.ch_dst, p.p_window_end)
      | Some _ | None -> ());
      kick t
  | `Async -> if t.plan = None then kick t

let rec interrupt t ch =
  if t.kps_depth > 0 then t.deferred <- t.deferred @ [ ch ]
  else begin
    raise_event t ch;
    kick t
  end

and flush_deferred t =
  match t.deferred with
  | [] -> ()
  | ch :: rest ->
      t.deferred <- rest;
      interrupt t ch;
      flush_deferred t

let pending ch = ch.ch_pending
let sent ch = ch.ch_sent
let delivered ch = ch.ch_delivered

let timer t ~at ch =
  ignore (Sim.Engine.schedule_at t.engine ~at (fun () -> interrupt t ch))

(* -------------------------------------------------------------- *)
(* Kernel-privileged sections.                                     *)

let enter_kps t = t.kps_depth <- t.kps_depth + 1

let exit_kps t =
  if t.kps_depth = 0 then invalid_arg "Kernel.exit_kps: not in a section";
  t.kps_depth <- t.kps_depth - 1;
  if t.kps_depth = 0 then flush_deferred t

let kps_active t = t.kps_depth > 0

let with_kps t f =
  enter_kps t;
  Fun.protect ~finally:(fun () -> exit_kps t) f

(* -------------------------------------------------------------- *)

let context_switches t = t.switches

let idle_time t =
  match t.idle_since with
  | Some since -> Sim.Time.add t.idle_total (Sim.Time.sub (now t) since)
  | None -> t.idle_total

