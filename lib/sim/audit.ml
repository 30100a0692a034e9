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
(* Construction.

   The audit reads the trace's columns, never its records.  Two passes
   over the flow events make a counting sort: the first gives each flow
   a dense index in first-appearance order, the second places each
   event's ts, name id, phase and args id in its flow's run, in record
   order.  A stable insertion sort then puts each flow in ts order.
   Stages are keyed by name id (a sink interns equal names to one id).
   Every float is summed in the order this report has always used, so
   reports stay byte-identical: float addition is not associative. *)

let arg_stream args =
  match List.assoc_opt "stream" args with
  | Some (Trace.Str s) -> Some s
  | _ -> None

let capture tr =
  Trace.set_capacity tr None;
  Trace.enable tr true;
  Trace.set_flows tr true;
  Trace.set_cell_detail tr false

(* A stage of one stream, found by its name id. *)
type stage_acc = {
  sa_name : int;
  sa_samples : Stats.Samples.t;
  mutable sa_total : float;
  mutable sa_misses : int;
}

(* Event codes in the grouped key: [name lsl 2 lor code]. *)
let start_code = 0
let step_code = 1
let end_code = 2

let of_trace ?deadline_ns tr =
  (* Pass 1: a dense index per flow, in first-appearance order, for
     each flow event in record order. *)
  let dense = Int_table.create 256 in
  let ev_flow = Array.make (Trace.length tr) 0 in
  let n = ref 0 in
  Trace.iter_flow_events tr (fun ~ts:_ ~flow ~phase:_ ~name:_ ~args:_ ->
      let f =
        match Int_table.find dense flow with
        | f -> f
        | exception Not_found ->
            let f = Int_table.length dense in
            Int_table.add dense flow f;
            f
      in
      ev_flow.(!n) <- f;
      incr n);
  let n = !n and nf = Int_table.length dense in
  let fl_id = Array.make nf 0 in
  Int_table.iter (fun id f -> fl_id.(f) <- id) dense;
  (* A counting sort: flow [f]'s events go to [fl_off.(f)] and on, in
     record order. *)
  let fl_off = Array.make (nf + 1) 0 in
  for k = 0 to n - 1 do
    let f = ev_flow.(k) in
    fl_off.(f + 1) <- fl_off.(f + 1) + 1
  done;
  for f = 1 to nf do
    fl_off.(f) <- fl_off.(f) + fl_off.(f - 1)
  done;
  let next = Array.sub fl_off 0 nf in
  let g_ts = Array.make n 0
  and g_key = Array.make n 0
  and g_args = Array.make n 0 in
  let fl_start = Array.make nf false and fl_end = Array.make nf false in
  let k = ref 0 and max_name = ref 0 in
  (* Pass 2: place each event's ts, name, phase and args. *)
  Trace.iter_flow_events tr (fun ~ts ~flow:_ ~phase ~name ~args ->
      let f = ev_flow.(!k) in
      incr k;
      let p = next.(f) in
      next.(f) <- p + 1;
      let code =
        match phase with
        | Trace.Flow_start ->
            fl_start.(f) <- true;
            start_code
        | Trace.Flow_end ->
            fl_end.(f) <- true;
            end_code
        | Trace.Flow_step | Trace.Instant | Trace.Complete -> step_code
      in
      g_ts.(p) <- ts;
      g_key.(p) <- (name lsl 2) lor code;
      g_args.(p) <- args;
      if name > !max_name then max_name := name);
  (* Train-path hops are committed ahead of time with future
     timestamps, so record order within a flow is not guaranteed to be
     ts order.  The few events recorded early move back; ties keep
     record order. *)
  for f = 0 to nf - 1 do
    let lo = fl_off.(f) in
    for i = lo + 1 to fl_off.(f + 1) - 1 do
      let ts = g_ts.(i) and key = g_key.(i) and args = g_args.(i) in
      let j = ref (i - 1) in
      while !j >= lo && g_ts.(!j) > ts do
        g_ts.(!j + 1) <- g_ts.(!j);
        g_key.(!j + 1) <- g_key.(!j);
        g_args.(!j + 1) <- g_args.(!j);
        decr j
      done;
      g_ts.(!j + 1) <- ts;
      g_key.(!j + 1) <- key;
      g_args.(!j + 1) <- args
    done
  done;
  (* The position of a flow's first start in ts order: it opens the
     flow's clock and owns no interval. *)
  let start_of f =
    let rec go i =
      if g_key.(i) land 3 = start_code then i else go (i + 1)
    in
    go fl_off.(f)
  in
  (* Partition flows into streams keyed by the start event's "stream"
     arg (or its name).  Flows without a start only contribute to the
     orphan count. *)
  let streams : (string, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let complete = ref 0 and incomplete = ref 0 and orphans = ref 0 in
  for f = 0 to nf - 1 do
    if not fl_start.(f) then orphans := !orphans + fl_off.(f + 1) - fl_off.(f)
    else begin
      if fl_end.(f) then incr complete else incr incomplete;
      let s = start_of f in
      let label =
        match arg_stream (Trace.args_of_id tr g_args.(s)) with
        | Some l -> l
        | None -> Trace.name_of_id tr (g_key.(s) lsr 2)
      in
      match Hashtbl.find_opt streams label with
      | Some r -> r := f :: !r
      | None -> Hashtbl.add streams label (ref [ f ])
    end
  done;
  let labels =
    List.sort String.compare (Hashtbl.fold (fun l _ acc -> l :: acc) streams [])
  in
  let no_stage =
    {
      sa_name = -1;
      sa_samples = Stats.Samples.create ();
      sa_total = 0.0;
      sa_misses = 0;
    }
  in
  let stage_of_name = Array.make (!max_name + 1) no_stage in
  let mk_stream label =
    let flows = List.rev !(Hashtbl.find streams label) in
    (* Completed flows ordered by (first ts, id) for jitter. *)
    let first_ts f = g_ts.(fl_off.(f)) in
    let done_flows =
      Array.of_list
        (List.sort
           (fun a b ->
             let c = Int.compare (first_ts a) (first_ts b) in
             if c <> 0 then c else Int.compare fl_id.(a) fl_id.(b))
           (List.filter (fun f -> fl_end.(f)) flows))
    in
    let n_done = Array.length done_flows in
    let n_incomplete = List.length flows - n_done in
    (* Stages, newest first; [stage_of_name] finds them until the
       stream is done. *)
    let found = ref [] in
    let stage name =
      let a = stage_of_name.(name) in
      if a != no_stage then a
      else begin
        let a =
          {
            sa_name = name;
            sa_samples = Stats.Samples.create ();
            sa_total = 0.0;
            sa_misses = 0;
          }
        in
        stage_of_name.(name) <- a;
        found := a :: !found;
        a
      end
    in
    (* The interval ending at each event but the start is charged to
       that event's stage: [d] is its length. *)
    let e2e = Stats.Samples.create () in
    let total_e2e = ref 0.0 and total_attr = ref 0.0 in
    let latencies = Array.make n_done 0.0 in
    for j = 0 to n_done - 1 do
      let f = done_flows.(j) in
      let s = start_of f in
      let t0 = g_ts.(s) in
      let prev = ref t0 and attr = ref 0.0 in
      for i = fl_off.(f) to fl_off.(f + 1) - 1 do
        if i <> s then begin
          let d = float_of_int (g_ts.(i) - !prev) in
          prev := g_ts.(i);
          let a = stage (g_key.(i) lsr 2) in
          Stats.Samples.add a.sa_samples d;
          a.sa_total <- a.sa_total +. d;
          attr := !attr +. d
        end
      done;
      let latency = float_of_int (!prev - t0) in
      Stats.Samples.add e2e latency;
      total_e2e := !total_e2e +. latency;
      total_attr := !total_attr +. !attr;
      latencies.(j) <- latency
    done;
    (* Deadline misses: attributed to the stage that ate the most slack
       relative to its stream-median duration (the first on a tie). *)
    let misses = ref 0 in
    (match deadline_ns with
    | None -> ()
    | Some dl ->
        let dl = float_of_int dl in
        for j = 0 to n_done - 1 do
          if latencies.(j) > dl then begin
            incr misses;
            let f = done_flows.(j) in
            let s = start_of f in
            let prev = ref g_ts.(s) in
            let worst = ref no_stage and worst_slack = ref 0.0 in
            for i = fl_off.(f) to fl_off.(f + 1) - 1 do
              if i <> s then begin
                let d = float_of_int (g_ts.(i) - !prev) in
                prev := g_ts.(i);
                let a = stage_of_name.(g_key.(i) lsr 2) in
                let slack = d -. Stats.Samples.percentile a.sa_samples 50.0 in
                if !worst == no_stage || not (!worst_slack >= slack) then begin
                  worst := a;
                  worst_slack := slack
                end
              end
            done;
            if !worst != no_stage then
              !worst.sa_misses <- !worst.sa_misses + 1
          end
        done);
    let found = List.rev !found in
    List.iter (fun a -> stage_of_name.(a.sa_name) <- no_stage) found;
    (* Summed in the order a string-keyed Hashtbl of the stage totals,
       filled in first-appearance order, folds them: the order this
       report has always used. *)
    let grand_total =
      let totals = Hashtbl.create 16 in
      List.iter
        (fun a -> Hashtbl.add totals (Trace.name_of_id tr a.sa_name) a.sa_total)
        found;
      Hashtbl.fold (fun _ tot acc -> acc +. tot) totals 0.0
    in
    let stages =
      List.map
        (fun a ->
          let s = a.sa_samples in
          {
            sg_name = Trace.name_of_id tr a.sa_name;
            sg_count = Stats.Samples.count s;
            sg_p50_ns = Stats.Samples.percentile s 50.0;
            sg_p95_ns = Stats.Samples.percentile s 95.0;
            sg_p99_ns = Stats.Samples.percentile s 99.0;
            sg_mean_ns = Stats.Samples.mean s;
            sg_max_ns = Stats.Samples.max s;
            sg_share =
              (if grand_total > 0.0 then a.sa_total /. grand_total else 0.0);
            sg_misses = a.sa_misses;
          })
        found
    in
    let critical =
      List.fold_left
        (fun acc sg ->
          match acc with
          | Some best when best.sg_share >= sg.sg_share -> acc
          | _ -> Some sg)
        None stages
    in
    (* Inter-flow jitter over consecutive end-to-end latencies, summed
       newest delta first. *)
    let jitter_mean, jitter_max =
      let ds = ref [] in
      for j = 1 to n_done - 1 do
        ds := Float.abs (latencies.(j) -. latencies.(j - 1)) :: !ds
      done;
      match !ds with
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
