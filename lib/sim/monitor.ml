(* Online SLO evaluation in simulated time.

   Each registered objective accumulates its signal into tumbling
   sub-windows of length [slo.window], rolled by a daemon event chain
   aligned to absolute multiples of the window.  At every roll two
   sliding aggregates are computed over the sub-window ring — fast
   (last [fast_windows]) and slow (last [slow_windows]) — and a
   three-state machine advances:

     Ok --breach--> Pending --fire_after consecutive--> Firing
     Pending --clean roll--> Ok            (silent: never fired)
     Firing --slow recovered resolve_after times--> Ok  ("resolved")

   Determinism: rolls are ordinary engine events at instants that are a
   pure function of the window length (absolute multiples), sources
   read only state owned by the same engine, and {!Shard} flushes
   sampled gauges at every barrier — so a sharded run evaluates every
   window identically at --domains 1, 2 and 4.  A monitor watches ONE
   engine; sharded rigs attach one monitor per shard and merge reports
   with {!report} over the monitor list in shard order. *)

type source =
  | Rate of (unit -> int)
  | Ratio of { num : unit -> int; den : unit -> int }
  | Level of (unit -> float)
  | Windowed of Metrics.observer

type state = Ok | Pending | Firing

let state_string = function
  | Ok -> "ok"
  | Pending -> "pending"
  | Firing -> "firing"

type transition = { tr_at : Time.t; tr_event : string; tr_value : float }

(* A growable flat float buffer for windowed samples; slots swap with
   the live accumulation buffer at each roll, so steady state does not
   allocate. *)
type fbuf = { mutable fb_data : float array; mutable fb_len : int }

let fbuf () = { fb_data = [||]; fb_len = 0 }

let fbuf_add b v =
  if b.fb_len = Array.length b.fb_data then begin
    let ncap = if b.fb_len = 0 then 16 else b.fb_len * 2 in
    let nd = Array.make ncap 0.0 in
    Array.blit b.fb_data 0 nd 0 b.fb_len;
    b.fb_data <- nd
  end;
  b.fb_data.(b.fb_len) <- v;
  b.fb_len <- b.fb_len + 1

type entry = {
  slo : Slo.t;
  source : source;
  win_num : float array;  (* ring of slow_windows sub-window numerators *)
  win_den : float array;
  win_samples : fbuf array;  (* Windowed only; [||] otherwise *)
  mutable cur : fbuf;  (* live accumulation buffer (Windowed) *)
  mutable prev_num : int;  (* counter snapshot at the last roll *)
  mutable prev_den : int;
  mutable head : int;  (* next ring slot to write *)
  mutable filled : int;
  mutable state : state;
  mutable consec_breach : int;
  mutable consec_ok : int;
  mutable rolls : int;
  mutable breaches : int;
  mutable fired : int;
  mutable resolved : int;
  mutable last_value : float option;  (* fast aggregate at the last roll *)
  mutable worst : float option;
  mutable transitions_rev : transition list;
}

type t = {
  engine : Engine.t;
  mutable entries_rev : entry list;
  m_pending : Metrics.counter;
  m_firing : Metrics.counter;
  m_resolved : Metrics.counter;
}

let create engine =
  let metrics = Engine.metrics engine in
  {
    engine;
    entries_rev = [];
    m_pending =
      Metrics.counter metrics ~sub:Subsystem.Sim
        ~help:"SLO alerts entering the pending state" "monitor.pending";
    m_firing =
      Metrics.counter metrics ~sub:Subsystem.Sim
        ~help:"SLO alerts fired" "monitor.firing";
    m_resolved =
      Metrics.counter metrics ~sub:Subsystem.Sim
        ~help:"SLO alerts resolved" "monitor.resolved";
  }

(* {1 Source constructors} *)

let counter_rate c = Rate (fun () -> Metrics.value c)

let counter_ratio ~num ~den =
  Ratio
    {
      num = (fun () -> Metrics.value num);
      den = (fun () -> Metrics.value den);
    }

let gauge_level g = Level (fun () -> Metrics.get g)
let windowed obs = Windowed obs

(* {1 Aggregation} *)

(* Aggregate over the last [j] completed sub-windows.  [None] means the
   objective has no data for the span — treated as healthy, so an idle
   signal neither fires nor blocks a resolution. *)
let aggregate e j =
  let k = e.slo.Slo.slow_windows in
  let j = Stdlib.min j e.filled in
  if j = 0 then None
  else
    match e.source with
    | Rate _ | Ratio _ ->
        let num = ref 0.0 and den = ref 0.0 in
        for i = 1 to j do
          let idx = (e.head - i + k) mod k in
          num := !num +. e.win_num.(idx);
          den := !den +. e.win_den.(idx)
        done;
        if !den <= 0.0 then None else Some (!num /. !den)
    | Level _ ->
        (* The worst sample over the span: max for a Below objective,
           min for an Above one. *)
        let worst = ref e.win_num.((e.head - 1 + k) mod k) in
        for i = 2 to j do
          let v = e.win_num.((e.head - i + k) mod k) in
          match e.slo.Slo.comparator with
          | Slo.Below -> if v > !worst then worst := v
          | Slo.Above -> if v < !worst then worst := v
        done;
        Some !worst
    | Windowed _ ->
        let total = ref 0 in
        for i = 1 to j do
          total := !total + e.win_samples.((e.head - i + k) mod k).fb_len
        done;
        if !total = 0 then None
        else begin
          let scratch = Array.make !total 0.0 in
          let pos = ref 0 in
          for i = 1 to j do
            let b = e.win_samples.((e.head - i + k) mod k) in
            Array.blit b.fb_data 0 scratch !pos b.fb_len;
            pos := !pos + b.fb_len
          done;
          Stats.sort_floats scratch !total;
          Some (Stats.percentile ~n:!total (Array.get scratch) 99.0)
        end

(* {1 The state machine} *)

let record t e event value =
  let now = Engine.now t.engine in
  e.transitions_rev <-
    { tr_at = now; tr_event = event; tr_value = value } :: e.transitions_rev;
  (match event with
  | "pending" -> Metrics.incr t.m_pending
  | "firing" -> Metrics.incr t.m_firing
  | "resolved" -> Metrics.incr t.m_resolved
  | _ -> ());
  let tr = Engine.trace t.engine in
  if Trace.enabled tr then
    Trace.instant tr ~ts:now ~sub:e.slo.Slo.sub ~cat:"health"
      ~args:
        [
          ("slo", Trace.Str e.slo.Slo.name);
          ("value", Trace.Float value);
          ("threshold", Trace.Float e.slo.Slo.threshold);
        ]
      ("slo_" ^ event)

let track_worst e v =
  match (e.worst, e.slo.Slo.comparator) with
  | None, _ -> e.worst <- Some v
  | Some w, Slo.Below -> if v > w then e.worst <- Some v
  | Some w, Slo.Above -> if v < w then e.worst <- Some v

let roll t e =
  let k = e.slo.Slo.slow_windows in
  (* Close the current sub-window into the ring. *)
  (match e.source with
  | Rate f ->
      let cur = f () in
      e.win_num.(e.head) <- Float.of_int (cur - e.prev_num);
      e.win_den.(e.head) <- Time.to_sec_f e.slo.Slo.window;
      e.prev_num <- cur
  | Ratio { num; den } ->
      let n = num () and d = den () in
      e.win_num.(e.head) <- Float.of_int (n - e.prev_num);
      e.win_den.(e.head) <- Float.of_int (d - e.prev_den);
      e.prev_num <- n;
      e.prev_den <- d
  | Level f -> e.win_num.(e.head) <- f ()
  | Windowed _ ->
      let slot = e.win_samples.(e.head) in
      e.win_samples.(e.head) <- e.cur;
      slot.fb_len <- 0;
      e.cur <- slot);
  e.head <- (e.head + 1) mod k;
  if e.filled < k then e.filled <- e.filled + 1;
  e.rolls <- e.rolls + 1;
  (* Evaluate. *)
  let fast = aggregate e e.slo.Slo.fast_windows in
  e.last_value <- fast;
  (match fast with Some v -> track_worst e v | None -> ());
  let breach =
    match fast with None -> false | Some v -> Slo.violates e.slo v
  in
  if breach then e.breaches <- e.breaches + 1;
  match e.state with
  | Ok | Pending ->
      if breach then begin
        let v = Option.get fast in
        e.consec_breach <- e.consec_breach + 1;
        if e.state = Ok then begin
          e.state <- Pending;
          record t e "pending" v
        end;
        if e.consec_breach >= e.slo.Slo.fire_after then begin
          e.state <- Firing;
          e.fired <- e.fired + 1;
          e.consec_ok <- 0;
          record t e "firing" v
        end
      end
      else begin
        e.consec_breach <- 0;
        (* A pending alert that sees a clean roll clears silently — it
           never fired, so there is nothing to resolve. *)
        if e.state = Pending then e.state <- Ok
      end
  | Firing ->
      (* While firing, the fast window is ignored: only a sustained
         recovery of the SLOW aggregate past the hysteresis threshold
         resolves — a signal riding the fire threshold cannot flap. *)
      let slow = aggregate e e.slo.Slo.slow_windows in
      let recovered =
        match slow with None -> true | Some v -> Slo.recovers e.slo v
      in
      if recovered then begin
        e.consec_ok <- e.consec_ok + 1;
        if e.consec_ok >= e.slo.Slo.resolve_after then begin
          e.state <- Ok;
          e.resolved <- e.resolved + 1;
          e.consec_breach <- 0;
          record t e "resolved"
            (Option.value slow ~default:(Slo.resolve_threshold e.slo))
        end
      end
      else e.consec_ok <- 0

(* Rolls are pinned to absolute multiples of the window so that every
   shard — and every domain count — schedules the same instants.  The
   chain is a daemon: monitoring never keeps a run alive. *)
let rec arm t e =
  let now_ns = Time.to_ns (Engine.now t.engine) in
  let w = Time.to_ns e.slo.Slo.window in
  let next = ((now_ns / w) + 1) * w in
  ignore
    (Engine.schedule_at ~daemon:true t.engine ~at:(Time.ns next) (fun () ->
         roll t e;
         arm t e))

let register t slo source =
  let k = slo.Slo.slow_windows in
  let is_windowed = match source with Windowed _ -> true | _ -> false in
  let e =
    {
      slo;
      source;
      win_num = Array.make k 0.0;
      win_den = Array.make k 0.0;
      win_samples =
        (if is_windowed then Array.init k (fun _ -> fbuf ()) else [||]);
      cur = fbuf ();
      prev_num = 0;
      prev_den = 0;
      head = 0;
      filled = 0;
      state = Ok;
      consec_breach = 0;
      consec_ok = 0;
      rolls = 0;
      breaches = 0;
      fired = 0;
      resolved = 0;
      last_value = None;
      worst = None;
      transitions_rev = [];
    }
  in
  (* Baseline counter snapshots so the first sub-window holds the delta
     since registration, not since process start. *)
  (match source with
  | Rate f -> e.prev_num <- f ()
  | Ratio { num; den } ->
      e.prev_num <- num ();
      e.prev_den <- den ()
  | Level _ -> ()
  | Windowed obs ->
      Metrics.attach_sink obs (fun v -> fbuf_add e.cur v));
  t.entries_rev <- e :: t.entries_rev;
  arm t e

(* {1 Reports} *)

type alert_report = {
  r_slo : Slo.t;
  r_state : state;
  r_rolls : int;
  r_breaches : int;
  r_fired : int;
  r_resolved : int;
  r_last : float option;
  r_worst : float option;
  r_transitions : transition list;  (* chronological *)
}

type report = {
  rep_name : string;
  rep_alerts : alert_report list;  (* registration order, monitor order *)
}

let entry_report e =
  {
    r_slo = e.slo;
    r_state = e.state;
    r_rolls = e.rolls;
    r_breaches = e.breaches;
    r_fired = e.fired;
    r_resolved = e.resolved;
    r_last = e.last_value;
    r_worst = e.worst;
    r_transitions = List.rev e.transitions_rev;
  }

let report ?(name = "health") monitors =
  {
    rep_name = name;
    rep_alerts =
      List.concat_map
        (fun m -> List.rev_map entry_report m.entries_rev)
        monitors;
  }

(* Rendering.  Every float goes through %.2f (values) or %.1f
   (milliseconds), so the table and the JSON are byte-stable — the same
   discipline {!Audit} uses. *)

let value_string u = function
  | None -> "-"
  | Some v -> Printf.sprintf "%.2f%s" v u

let pp fmt r =
  let open Format in
  fprintf fmt "@[<v>== %s: %d objectives ==@," r.rep_name
    (List.length r.rep_alerts);
  List.iter
    (fun a ->
      let s = a.r_slo in
      fprintf fmt "@,%s/%s [%s %s %.2f%s]: %s@,"
        (Subsystem.to_string s.Slo.sub)
        s.Slo.name
        (Slo.comparator_string s.Slo.comparator)
        (match s.Slo.comparator with Slo.Below -> "<=" | Slo.Above -> ">=")
        s.Slo.threshold s.Slo.unit_
        (String.uppercase_ascii (state_string a.r_state));
      fprintf fmt "  rolls %d  breaches %d  fired %d  resolved %d  last %s  worst %s@,"
        a.r_rolls a.r_breaches a.r_fired a.r_resolved
        (value_string s.Slo.unit_ a.r_last)
        (value_string s.Slo.unit_ a.r_worst);
      List.iter
        (fun tr ->
          fprintf fmt "  %8.1f ms  %-8s  %.2f%s@," (Time.to_ms_f tr.tr_at)
            tr.tr_event tr.tr_value s.Slo.unit_)
        a.r_transitions)
    r.rep_alerts;
  let firing =
    List.fold_left
      (fun acc a -> if a.r_state = Firing then acc + 1 else acc)
      0 r.rep_alerts
  in
  let fired = List.fold_left (fun acc a -> acc + a.r_fired) 0 r.rep_alerts in
  let resolved =
    List.fold_left (fun acc a -> acc + a.r_resolved) 0 r.rep_alerts
  in
  fprintf fmt "@,%d fired, %d resolved, %d still firing@]" fired resolved
    firing

(* JSON rounds the same way the table prints (2 decimals), so the two
   renderings agree and both are byte-stable. *)
let json_val f = Json.Float (Float.round (f *. 100.0) /. 100.0)

let json_opt = function None -> Json.Null | Some v -> json_val v

let to_json r =
  Json.Obj
    [
      ("schema", Json.String "pegasus-health/1");
      ("name", Json.String r.rep_name);
      ( "alerts",
        Json.List
          (List.map
             (fun a ->
               let s = a.r_slo in
               Json.Obj
                 [
                   ("slo", Json.String s.Slo.name);
                   ("subsystem", Json.String (Subsystem.to_string s.Slo.sub));
                   ( "comparator",
                     Json.String (Slo.comparator_string s.Slo.comparator) );
                   ("threshold", json_val s.Slo.threshold);
                   ("unit", Json.String s.Slo.unit_);
                   ("window_ns", Json.Int (Time.to_ns s.Slo.window));
                   ("fast_windows", Json.Int s.Slo.fast_windows);
                   ("slow_windows", Json.Int s.Slo.slow_windows);
                   ("state", Json.String (state_string a.r_state));
                   ("rolls", Json.Int a.r_rolls);
                   ("breaches", Json.Int a.r_breaches);
                   ("fired", Json.Int a.r_fired);
                   ("resolved", Json.Int a.r_resolved);
                   ("last", json_opt a.r_last);
                   ("worst", json_opt a.r_worst);
                   ( "transitions",
                     Json.List
                       (List.map
                          (fun tr ->
                            Json.Obj
                              [
                                ("at_ns", Json.Int (Time.to_ns tr.tr_at));
                                ("event", Json.String tr.tr_event);
                                ("value", json_val tr.tr_value);
                              ])
                          a.r_transitions) );
                 ])
             r.rep_alerts) );
    ]
