(* One round of the repository benchmark.

     perfbench --workload NAME --seed N [--traced] [--short]
               [--spans-out FILE]
     perfbench --list

   A round builds a fresh rig from the seed (set-up: topology, preload,
   initial population), runs the workload's fixed simulated input (the
   timed phase) and checks its outputs.  It prints one JSON object:
   host times, the operation counts, the failed checks, the sim_digest
   of the simulated outputs, the exact work counters read from the
   rig's own Sim.Metrics registry, and GC figures.  A traced round also
   brackets every call the benchmark makes into a layer with a span
   (see span.ml), samples the engine's queue depth, and reports the
   per-layer times.  An untraced round runs reference ticks between
   engine slices of its timed phase (see reference.ml) and reports
   their count and time; [timed_s] and [run_s] leave the ticks out.

   run.py starts one process per round, so every round begins from the
   same fresh heap, and aggregates the rounds of a run. *)

let workloads =
  [ Video_cells.workload; Vod_flash.workload; Pfs_churn.workload ]

(* Every workload's default seed, and the held-out seed for checking a
   claim on a seed it was not tuned on. *)
let default_seed = 1
let heldout_seed = 2

(* Counters read from the rig's registry after the round. *)
let counters =
  [
    ("sim.events", Sim.Subsystem.Sim, "engine.events_fired");
    ("sim.events_cancelled", Sim.Subsystem.Sim, "engine.events_cancelled");
    ("atm.cells_sent", Sim.Subsystem.Atm, "link.cells_sent");
    ("atm.cells_switched", Sim.Subsystem.Atm, "switch.cells_switched");
    ("atm.cells_dropped", Sim.Subsystem.Atm, "link.cells_dropped");
    ("pfs.segments_sealed", Sim.Subsystem.Pfs, "log.segments_sealed");
    ("pfs.bytes_appended", Sim.Subsystem.Pfs, "log.bytes_appended");
    ("pfs.segments_cleaned", Sim.Subsystem.Pfs, "cleaner.segments_cleaned");
    ("pfs.clean_bytes_moved", Sim.Subsystem.Pfs, "cleaner.bytes_moved");
    ("pfs.clean_bytes_reclaimed", Sim.Subsystem.Pfs, "cleaner.bytes_reclaimed");
    ("pfs.dir_reads", Sim.Subsystem.Pfs, "dir.reads");
    ("pfs.dir_replica_reads", Sim.Subsystem.Pfs, "dir.replica_reads");
    ("pfs.replications", Sim.Subsystem.Pfs, "dir.replications");
  ]

(* Per-layer host times of a traced round, by span. *)
let span_times =
  Workload.
    [
      ("sim.run_self_s", Span.self_s, sp_run);
      ("atm.send_s", Span.total_s, sp_send);
      ("atm.rx_s", Span.total_s, sp_rx);
      ("pfs.write_s", Span.total_s, sp_write);
      ("pfs.sync_s", Span.total_s, sp_sync);
      ("pfs.recover_s", Span.total_s, sp_recover);
      ("pfs.clean_s", Span.total_s, sp_clean);
      ("pfs.dir_read_s", Span.total_s, sp_dir_read);
      ("trace.audit_s", Span.total_s, sp_audit);
    ]

let percentile a q =
  let a = Array.map Float.of_int a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = q *. Float.of_int (n - 1) in
    let lo = truncate rank in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    let frac = rank -. Float.of_int lo in
    (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"
let json_string s = Printf.sprintf "%S" s

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
  ^ "}"

let json_list vs = "[" ^ String.concat ", " (List.map json_string vs) ^ "]"

let round (w : Workload.t) ~start ~seed ~short ~traced ~spans_out =
  Span.reset ~records:(if traced then 20_000 else 0);
  let rig = w.setup ~seed ~short ~traced in
  let e = rig.engine in
  let depths = ref [] and samples = ref 0 in
  if traced then
    Sim.Engine.every ~daemon:true e ~period:w.depth_period (fun () ->
        depths := Sim.Engine.pending e :: !depths;
        incr samples;
        true);
  (* Set-up time leaves out the reference kernel's own set-up. *)
  let r0 = Span.now_ns () in
  Reference.start ~enabled:(not traced) ~copy:(w.copy_weight > 0.0);
  let ref_setup_ns = Span.now_ns () - r0 in
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let t1 = Span.now_ns () in
  let o = rig.run () in
  let t2 = Span.now_ns () in
  let minor_words = Gc.minor_words () -. minor0 in
  let gc = Gc.quick_stat () in
  if traced && spans_out <> "" then Span.write_jsonl spans_out;
  let registry = Sim.Engine.metrics e in
  let count (label, sub, name) =
    let v = Sim.Metrics.value (Sim.Metrics.counter registry ~sub name) in
    (* The depth sampler's own events are not the workload's. *)
    let v = if label = "sim.events" then v - !samples else v in
    (label, string_of_int v)
  in
  let trace_events = Sim.Trace.length (Sim.Engine.trace e) in
  let failed_checks =
    List.filter_map (fun (name, ok) -> if ok then None else Some name) o.checks
  in
  let secs ns = json_float (Float.of_int ns *. 1e-9) in
  let digest = Digest.to_hex (Digest.string (String.concat "\n" o.sim_lines)) in
  let traced_fields =
    if not traced then []
    else
      let depths = Array.of_list !depths in
      let writes = Span.durations_ns Workload.sp_write in
      [
        ( "spans",
          json_obj
            (List.map (fun (k, f, sp) -> (k, json_float (f sp))) span_times) );
        ("queue_depth_p50", json_float (percentile depths 0.5));
        ("queue_depth_max", json_float (percentile depths 1.0));
        ("write_calls", string_of_int (Array.length writes));
        ("write_us_p50", json_float (percentile writes 0.5 /. 1e3));
        ("write_us_p99", json_float (percentile writes 0.99 /. 1e3));
      ]
  in
  print_endline
    (json_obj
       ([
          ("workload", json_string w.name);
          ("seed", string_of_int seed);
          ("traced", string_of_bool traced);
          ("op", json_string w.op);
          ("setup_s", secs (t1 - start - ref_setup_ns));
          ("timed_s", secs (t2 - t1 - !Reference.spent_ns));
          ("ref_ticks", string_of_int !Reference.ticks);
          ("ref_tick_ns", string_of_int !Reference.tick_ns);
          ("ref_nominal_ns", string_of_int Reference.nominal_ns);
          ("ref_copy_ns", string_of_int !Reference.copy_ns);
          ("ref_copy_nominal_ns", string_of_int Reference.copy_nominal_ns);
          ("ref_copy_weight", json_float w.copy_weight);
          ("ref_spent_s", secs !Reference.spent_ns);
          ("ops", string_of_int o.ops);
          ("attempted", string_of_int o.attempted);
          ("failed", string_of_int o.failed);
          ("failed_checks", json_list failed_checks);
          ("sim_digest", json_string digest);
          ("sim_lines", json_list o.sim_lines);
          ( "counts",
            json_obj
              (List.map count counters
              @ [ ("trace.events", string_of_int trace_events) ]) );
          ( "run_s",
            json_float
              (Span.total_s Workload.sp_run
              -. (Float.of_int !Reference.spent_ns *. 1e-9)) );
          ("minor_words", Printf.sprintf "%.0f" minor_words);
          ("major_collections", string_of_int (gc.major_collections - major0));
          ( "top_heap_bytes",
            string_of_int (gc.top_heap_words * (Sys.word_size / 8)) );
        ]
       @ traced_fields))

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N [--traced] [--short] \
     [--spans-out FILE]\n\
    \       perfbench --list";
  exit 2

let () =
  let start = Span.now_ns () in
  let workload = ref "" and seed = ref None and traced = ref false in
  let short = ref false and spans_out = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := Some (int_of_string v);
        parse rest
    | "--traced" :: rest ->
        traced := true;
        parse rest
    | "--short" :: rest ->
        short := true;
        parse rest
    | "--spans-out" :: v :: rest ->
        spans_out := v;
        parse rest
    | [ "--list" ] ->
        List.iter
          (fun (w : Workload.t) ->
            Printf.printf "%s %d %d\n" w.name default_seed heldout_seed)
          workloads;
        exit 0
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match
    List.find_opt (fun (w : Workload.t) -> w.name = !workload) workloads
  with
  | None -> usage ()
  | Some w ->
      let seed = Option.value !seed ~default:default_seed in
      round w ~start ~seed ~short:!short ~traced:!traced ~spans_out:!spans_out
