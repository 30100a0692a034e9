(* Offline audit engine over causal flow traces.

   Consumes the flow events recorded by Trace (Flow_start / Flow_step /
   Flow_end), reconstructs each flow's hop sequence, and produces a
   deterministic per-stream QoS report: stage-latency breakdown,
   end-to-end latency, inter-flow jitter, deadline-miss attribution and
   a critical-path summary.

   Stage model: a flow's events, in time order, partition its lifetime.
   The interval ending at event [e] is attributed to the stage named
   [e.ev_name]; the flow_start event opens the clock and owns no
   interval.  Summing every interval therefore reconstructs the full
   end-to-end latency — attribution is exhaustive by construction, and
   the report states the achieved fraction explicitly so a consumer can
   verify it. *)

type stage = {
  sg_name : string;
  sg_count : int;  (* intervals observed across the stream's flows *)
  sg_p50_ns : float;
  sg_p95_ns : float;
  sg_p99_ns : float;
  sg_mean_ns : float;
  sg_max_ns : float;
  sg_share : float;  (* fraction of the stream's total attributed time *)
  sg_misses : int;  (* deadline misses attributed to this stage *)
}

type stream = {
  st_label : string;
  st_flows : int;  (* completed flows (start and end both seen) *)
  st_incomplete : int;  (* flows missing their end event *)
  st_stages : stage list;  (* first-appearance order *)
  st_e2e_p50_ns : float;
  st_e2e_p95_ns : float;
  st_e2e_p99_ns : float;
  st_e2e_mean_ns : float;
  st_e2e_max_ns : float;
  st_jitter_mean_ns : float;  (* mean |delta| of consecutive e2e *)
  st_jitter_max_ns : float;
  st_attributed : float;  (* attributed time / total e2e time *)
  st_misses : int;
  st_critical : string option;  (* stage with the largest share *)
}

type report = {
  rp_streams : stream list;  (* sorted by label *)
  rp_flows : int;  (* completed flows across all streams *)
  rp_incomplete : int;
  rp_orphan_events : int;  (* flow events whose flow has no start *)
  rp_deadline_ns : int option;
}

(* ------------------------------------------------------------------ *)
(* Construction. *)

type acc = {
  mutable fa_events : Trace.event list;  (* newest first *)
  mutable fa_started : bool;
  mutable fa_ended : bool;
}

let arg_stream args =
  match List.assoc_opt "stream" args with
  | Some (Trace.Str s) -> Some s
  | _ -> None

let ns ev = Time.to_ns ev.Trace.ev_ts

let capture tr =
  Trace.set_capacity tr None;
  Trace.enable tr true;
  Trace.set_flows tr true;
  Trace.set_cell_detail tr false

let build ?deadline_ns events =
  (* Group flow events by id, preserving trace (time) order. *)
  let flows : (int, acc) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  let orphans = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.ev_phase with
      | Trace.Instant | Trace.Complete -> ()
      | Trace.Flow_start | Trace.Flow_step | Trace.Flow_end ->
          let a =
            match Hashtbl.find_opt flows e.ev_flow with
            | Some a -> a
            | None ->
                let a =
                  { fa_events = []; fa_started = false; fa_ended = false }
                in
                Hashtbl.add flows e.ev_flow a;
                order := e.ev_flow :: !order;
                a
          in
          a.fa_events <- e :: a.fa_events;
          (match e.ev_phase with
          | Trace.Flow_start -> a.fa_started <- true
          | Trace.Flow_end -> a.fa_ended <- true
          | _ -> ()))
    events;
  (* Partition flows into streams keyed by the start event's "stream"
     arg (or its name).  Flows without a start only contribute to the
     orphan count. *)
  let streams : (string, (int * Trace.event list) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let stream_order = ref [] in
  let complete = ref 0 and incomplete = ref 0 in
  List.iter
    (fun id ->
      let a = Hashtbl.find flows id in
      (* Train-path hops are committed ahead of time with future
         timestamps, so record order within a flow is not guaranteed to
         be ts order; normalise. *)
      let evs =
        List.stable_sort
          (fun (x : Trace.event) y -> compare (ns x) (ns y))
          (List.rev a.fa_events)
      in
      if not a.fa_started then orphans := !orphans + List.length evs
      else begin
        if a.fa_ended then incr complete else incr incomplete;
        let start =
          List.find (fun e -> e.Trace.ev_phase = Trace.Flow_start) evs
        in
        let label =
          match arg_stream start.Trace.ev_args with
          | Some s -> s
          | None -> start.Trace.ev_name
        in
        let bucket =
          match Hashtbl.find_opt streams label with
          | Some r -> r
          | None ->
              let r = ref [] in
              Hashtbl.add streams label r;
              stream_order := label :: !stream_order;
              r
        in
        bucket := (id, evs) :: !bucket
      end)
    (List.rev !order);
  let labels = List.sort String.compare (List.rev !stream_order) in
  let mk_stream label =
    let flows = List.rev !(Hashtbl.find streams label) in
    (* Completed flows ordered by (start ts, id) for jitter. *)
    let done_flows =
      List.filter
        (fun (_, evs) ->
          List.exists
            (fun e -> e.Trace.ev_phase = Trace.Flow_end)
            evs)
        flows
    in
    let done_flows =
      List.stable_sort
        (fun (ia, a) (ib, b) ->
          let c = compare (ns (List.hd a)) (ns (List.hd b)) in
          if c <> 0 then c else compare ia ib)
        done_flows
    in
    let n_done = List.length done_flows in
    let n_incomplete = List.length flows - n_done in
    (* Stage samples, in first-appearance order. *)
    let stage_order = ref [] in
    let stage_samples : (string, Stats.Samples.t) Hashtbl.t =
      Hashtbl.create 16
    in
    let stage_total : (string, float ref) Hashtbl.t = Hashtbl.create 16 in
    let samples_for name =
      match Hashtbl.find_opt stage_samples name with
      | Some s -> s
      | None ->
          let s = Stats.Samples.create () in
          Hashtbl.add stage_samples name s;
          Hashtbl.add stage_total name (ref 0.0);
          stage_order := name :: !stage_order;
          s
    in
    let e2e = Stats.Samples.create () in
    let total_e2e = ref 0.0 and total_attr = ref 0.0 in
    (* Per-flow interval lists, kept for miss attribution. *)
    let flow_intervals =
      List.map
        (fun (_, evs) ->
          let start =
            List.find (fun e -> e.Trace.ev_phase = Trace.Flow_start) evs
          in
          let t0 = ns start in
          let prev = ref t0 in
          let intervals =
            List.filter_map
              (fun e ->
                if e == start then None
                else begin
                  let d = float_of_int (ns e - !prev) in
                  prev := ns e;
                  let s = samples_for e.Trace.ev_name in
                  Stats.Samples.add s d;
                  let tot = Hashtbl.find stage_total e.Trace.ev_name in
                  tot := !tot +. d;
                  Some (e.Trace.ev_name, d)
                end)
              evs
          in
          let latency = float_of_int (!prev - t0) in
          Stats.Samples.add e2e latency;
          total_e2e := !total_e2e +. latency;
          total_attr :=
            !total_attr +. List.fold_left (fun a (_, d) -> a +. d) 0.0 intervals;
          (intervals, latency))
        done_flows
    in
    (* Deadline misses: attributed to the stage that ate the most slack
       relative to its stream-median duration. *)
    let stage_misses : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
    let misses = ref 0 in
    (match deadline_ns with
    | None -> ()
    | Some dl ->
        let dl = float_of_int dl in
        List.iter
          (fun (intervals, latency) ->
            if latency > dl then begin
              incr misses;
              let worst = ref None in
              List.iter
                (fun (name, d) ->
                  let med =
                    Stats.Samples.percentile
                      (Hashtbl.find stage_samples name)
                      50.0
                  in
                  let slack = d -. med in
                  match !worst with
                  | Some (_, s) when s >= slack -> ()
                  | _ -> worst := Some (name, slack))
                intervals;
              match !worst with
              | None -> ()
              | Some (name, _) ->
                  let r =
                    match Hashtbl.find_opt stage_misses name with
                    | Some r -> r
                    | None ->
                        let r = ref 0 in
                        Hashtbl.add stage_misses name r;
                        r
                  in
                  incr r
            end)
          flow_intervals);
    let grand_total =
      Hashtbl.fold (fun _ tot acc -> acc +. !tot) stage_total 0.0
    in
    let stages =
      List.rev_map
        (fun name ->
          let s = Hashtbl.find stage_samples name in
          {
            sg_name = name;
            sg_count = Stats.Samples.count s;
            sg_p50_ns = Stats.Samples.percentile s 50.0;
            sg_p95_ns = Stats.Samples.percentile s 95.0;
            sg_p99_ns = Stats.Samples.percentile s 99.0;
            sg_mean_ns = Stats.Samples.mean s;
            sg_max_ns = Stats.Samples.max s;
            sg_share =
              (if grand_total > 0.0 then
                 !(Hashtbl.find stage_total name) /. grand_total
               else 0.0);
            sg_misses =
              (match Hashtbl.find_opt stage_misses name with
              | Some r -> !r
              | None -> 0);
          })
        !stage_order
    in
    let critical =
      List.fold_left
        (fun acc sg ->
          match acc with
          | Some best when best.sg_share >= sg.sg_share -> acc
          | _ -> Some sg)
        None stages
    in
    (* Inter-flow jitter over consecutive end-to-end latencies. *)
    let jitter_mean, jitter_max =
      let rec deltas acc = function
        | (_, a) :: ((_, b) :: _ as rest) ->
            deltas (Float.abs (b -. a) :: acc) rest
        | _ -> acc
      in
      match deltas [] flow_intervals with
      | [] -> (0.0, 0.0)
      | ds ->
          let n = float_of_int (List.length ds) in
          ( List.fold_left ( +. ) 0.0 ds /. n,
            List.fold_left Float.max 0.0 ds )
    in
    let pc p = if n_done = 0 then 0.0 else Stats.Samples.percentile e2e p in
    {
      st_label = label;
      st_flows = n_done;
      st_incomplete = n_incomplete;
      st_stages = stages;
      st_e2e_p50_ns = pc 50.0;
      st_e2e_p95_ns = pc 95.0;
      st_e2e_p99_ns = pc 99.0;
      st_e2e_mean_ns = (if n_done = 0 then 0.0 else Stats.Samples.mean e2e);
      st_e2e_max_ns = (if n_done = 0 then 0.0 else Stats.Samples.max e2e);
      st_jitter_mean_ns = jitter_mean;
      st_jitter_max_ns = jitter_max;
      st_attributed =
        (if !total_e2e > 0.0 then !total_attr /. !total_e2e else 1.0);
      st_misses = !misses;
      st_critical =
        (match critical with Some sg -> Some sg.sg_name | None -> None);
    }
  in
  {
    rp_streams = List.map mk_stream labels;
    rp_flows = !complete;
    rp_incomplete = !incomplete;
    rp_orphan_events = !orphans;
    rp_deadline_ns = deadline_ns;
  }

let of_trace ?deadline_ns tr = build ?deadline_ns (Trace.events tr)

(* ------------------------------------------------------------------ *)
(* Rendering.  Both renderers format every float through %.2f of a
   microsecond value, so output is a deterministic function of the
   report. *)

let us f = f /. 1000.0

let pp fmt r =
  let line = String.make 74 '-' in
  Format.fprintf fmt "flows: %d completed, %d incomplete, %d orphan events@."
    r.rp_flows r.rp_incomplete r.rp_orphan_events;
  (match r.rp_deadline_ns with
  | Some dl -> Format.fprintf fmt "deadline: %.2f us@." (us (float_of_int dl))
  | None -> ());
  List.iter
    (fun st ->
      Format.fprintf fmt "%s@." line;
      Format.fprintf fmt "stream %s: %d flows%s@." st.st_label st.st_flows
        (if st.st_incomplete > 0 then
           Printf.sprintf " (+%d incomplete)" st.st_incomplete
         else "");
      Format.fprintf fmt
        "  e2e us: p50 %.2f  p95 %.2f  p99 %.2f  mean %.2f  max %.2f@."
        (us st.st_e2e_p50_ns) (us st.st_e2e_p95_ns) (us st.st_e2e_p99_ns)
        (us st.st_e2e_mean_ns) (us st.st_e2e_max_ns);
      Format.fprintf fmt "  jitter us: mean %.2f  max %.2f@."
        (us st.st_jitter_mean_ns) (us st.st_jitter_max_ns);
      Format.fprintf fmt "  attributed: %.1f%%  misses: %d%s@."
        (100.0 *. st.st_attributed) st.st_misses
        (match st.st_critical with
        | Some c -> Printf.sprintf "  critical stage: %s" c
        | None -> "");
      Format.fprintf fmt "  %-24s %6s %9s %9s %9s %7s %6s@." "stage" "n"
        "p50us" "p95us" "p99us" "share" "miss";
      List.iter
        (fun sg ->
          Format.fprintf fmt "  %-24s %6d %9.2f %9.2f %9.2f %6.1f%% %6d@."
            sg.sg_name sg.sg_count (us sg.sg_p50_ns) (us sg.sg_p95_ns)
            (us sg.sg_p99_ns) (100.0 *. sg.sg_share) sg.sg_misses)
        st.st_stages)
    r.rp_streams

let json_us f = Json.Float (Float.round (f /. 10.0) /. 100.0)

let stage_json sg =
  Json.Obj
    [
      ("stage", Json.String sg.sg_name);
      ("count", Json.Int sg.sg_count);
      ("p50_us", json_us sg.sg_p50_ns);
      ("p95_us", json_us sg.sg_p95_ns);
      ("p99_us", json_us sg.sg_p99_ns);
      ("mean_us", json_us sg.sg_mean_ns);
      ("max_us", json_us sg.sg_max_ns);
      ("share", Json.Float (Float.round (sg.sg_share *. 1000.0) /. 1000.0));
      ("misses", Json.Int sg.sg_misses);
    ]

let stream_json st =
  Json.Obj
    [
      ("stream", Json.String st.st_label);
      ("flows", Json.Int st.st_flows);
      ("incomplete", Json.Int st.st_incomplete);
      ( "e2e_us",
        Json.Obj
          [
            ("p50", json_us st.st_e2e_p50_ns);
            ("p95", json_us st.st_e2e_p95_ns);
            ("p99", json_us st.st_e2e_p99_ns);
            ("mean", json_us st.st_e2e_mean_ns);
            ("max", json_us st.st_e2e_max_ns);
          ] );
      ( "jitter_us",
        Json.Obj
          [
            ("mean", json_us st.st_jitter_mean_ns);
            ("max", json_us st.st_jitter_max_ns);
          ] );
      ( "attributed",
        Json.Float (Float.round (st.st_attributed *. 1000.0) /. 1000.0) );
      ("misses", Json.Int st.st_misses);
      ( "critical_stage",
        match st.st_critical with
        | Some c -> Json.String c
        | None -> Json.Null );
      ("stages", Json.List (List.map stage_json st.st_stages));
    ]

let to_json r =
  Json.Obj
    [
      ("schema", Json.String "pegasus-audit/1");
      ("flows", Json.Int r.rp_flows);
      ("incomplete", Json.Int r.rp_incomplete);
      ("orphan_events", Json.Int r.rp_orphan_events);
      ( "deadline_us",
        match r.rp_deadline_ns with
        | Some dl -> json_us (float_of_int dl)
        | None -> Json.Null );
      ("streams", Json.List (List.map stream_json r.rp_streams));
    ]
