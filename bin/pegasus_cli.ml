(* Command-line front end: list and run the experiments, audit a
   flow-traced scenario, report a monitored scenario's health.

   Every command that runs a simulation builds one run context
   (Sim.Ctx) from the shared --domains/--trace-out/--metrics-out
   options.  Everything the run does records into that context's trace
   and registry, parallel rows and shards included (they merge back in
   a fixed order), and the dumps are written from it after the run. *)

open Cmdliner

let quick_arg =
  let doc = "Run with reduced parameters (seconds instead of minutes)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

type run_opts = {
  domains : int;
  trace_out : string option;
  metrics_out : string option;
}

let run_opts =
  let domains =
    let doc =
      "Worker domains for parallelisable work.  Results, and the \
       $(b,--metrics-out) and $(b,--trace-out) dumps, are byte-identical \
       at every value: the domain count buys wall-clock speed, never \
       different answers."
    in
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)
  in
  let trace_out =
    let doc =
      "Record a typed event trace of the run and write it to $(docv) in \
       Chrome trace_event JSON (open in about:tracing or \
       https://ui.perfetto.dev).  Use a .jsonl suffix for line-oriented \
       JSONL instead."
    in
    Arg.(
      value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let metrics_out =
    let doc =
      "Write a JSON snapshot of the run's metrics registry (counters, \
       gauges, latency distributions with p50/p95/p99) to $(docv) after \
       the run."
    in
    Arg.(
      value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  Term.(
    const (fun domains trace_out metrics_out ->
        { domains; trace_out; metrics_out })
    $ domains $ trace_out $ metrics_out)

(* Run [f] on a fresh context, then write the dumps [o] asks for.
   [trace] replaces the default sink, which records only under
   --trace-out. *)
let with_ctx ?trace o f =
  if o.domains < 1 then
    `Error (false, Printf.sprintf "--domains %d: must be >= 1" o.domains)
  else begin
    let trace =
      match trace with
      | Some tr -> tr
      | None ->
          Sim.Trace.create ~unbounded:true ~enabled:(o.trace_out <> None) ()
    in
    let ctx = Sim.Ctx.create ~domains:o.domains ~trace () in
    let result = f ctx in
    try
      (match o.trace_out with
      | Some path ->
          if Filename.check_suffix path ".jsonl" then
            Sim.Trace.write_jsonl trace path
          else Sim.Trace.write_chrome trace path;
          Format.eprintf "wrote %d trace events to %s (%d dropped)@."
            (Sim.Trace.length trace) path (Sim.Trace.dropped trace)
      | None -> ());
      (match o.metrics_out with
      | Some path ->
          Sim.Metrics.write (Sim.Ctx.metrics ctx) path;
          Format.eprintf "wrote metrics snapshot to %s@." path
      | None -> ());
      result
    with Sys_error msg -> `Error (false, msg)
  end

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-4s %s\n" e.Experiments.Registry.e_id
          e.Experiments.Registry.e_title)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available experiments.")
    Term.(const run $ const ())

let run_cmd =
  let ids =
    let doc = "Experiment ids to run (e.g. E1 E9 PAR); omit for all." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let run quick o ids =
    let ids =
      if ids = [] then
        List.map (fun e -> e.Experiments.Registry.e_id) Experiments.Registry.all
      else ids
    in
    with_ctx o (fun ctx ->
        let rec go = function
          | [] -> `Ok ()
          | id :: rest -> begin
              match Experiments.Registry.find id with
              | Some e ->
                  Format.printf "%a@.@." Experiments.Table.pp
                    (e.Experiments.Registry.e_run ~quick ctx);
                  go rest
              | None -> `Error (false, "unknown experiment " ^ id)
            end
        in
        go ids)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run experiments and print their tables (all when no id given).  \
          E13, E14, E15 and PAR (the sharded multi-site fabric) spread \
          their independent rows or shards over $(b,--domains) OCaml \
          domains.")
    Term.(ret (const run $ quick_arg $ run_opts $ ids))

let json_arg ~doc = Arg.(value & flag & info [ "json" ] ~doc)

let audit_cmd =
  let scenario_arg =
    let scenarios =
      [
        ("video", `Video);
        ("av", `Av);
        ("pfs", `Pfs);
        ("video-pfs", `Video_pfs);
      ]
    in
    let doc =
      "Scenario to trace and audit: " ^ Arg.doc_alts_enum scenarios
      ^ ". $(b,video) is the E1 tile-latency rig, $(b,av) the E2 \
         loaded-path rig, $(b,pfs) the RPC file service, $(b,video-pfs) \
         both on one engine."
    in
    Arg.(value & pos 0 (enum scenarios) `Video & info [] ~docv:"SCENARIO" ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-flow end-to-end deadline in microseconds: completed flows \
       slower than this count as misses, attributed to the stage that \
       overran its stream median the most."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-us" ] ~docv:"MICROSECONDS" ~doc)
  in
  let run scenario json deadline_us o =
    (* The audit needs every flow event, whatever --trace-out says. *)
    let tr = Sim.Trace.create () in
    Sim.Audit.capture tr;
    with_ctx ~trace:tr o (fun ctx ->
        let e = Sim.Ctx.engine ctx in
        (match scenario with
        | `Video -> Experiments.Audit_scenarios.video e
        | `Av -> Experiments.Audit_scenarios.av e
        | `Pfs -> Experiments.Audit_scenarios.pfs e
        | `Video_pfs -> Experiments.Audit_scenarios.video_pfs e);
        let deadline_ns = Option.map (fun us -> us * 1_000) deadline_us in
        let report = Sim.Audit.of_trace ?deadline_ns tr in
        if json then
          print_string (Sim.Json.to_string (Sim.Audit.to_json report))
        else Format.printf "%a" Sim.Audit.pp report;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Run a flow-traced scenario for 400 ms of simulated time and print \
          its per-stream QoS audit (stage latency breakdown, end-to-end \
          latency, jitter, deadline misses, critical path).")
    Term.(
      ret
        (const run $ scenario_arg
        $ json_arg ~doc:"Emit the report as JSON instead of a table."
        $ deadline_arg $ run_opts))

let health_cmd =
  let scenario_arg =
    let scenarios =
      List.map (fun n -> (n, n)) Experiments.Health_scenarios.names
    in
    let doc =
      "Health scenario to run: " ^ Arg.doc_alts_enum scenarios
      ^ ". $(b,video) is the E1 rig under healthy load, $(b,congest) the \
         same rig with a scripted wire-loss episode that fires and \
         resolves the cell-loss alert mid-run, $(b,pfs) the RPC file \
         service plus a replicated directory with a retransmission \
         storm, $(b,fabric) a 4-site sharded ring (one monitor per \
         shard, merged in shard order)."
    in
    Arg.(value & pos 0 (enum scenarios) "video" & info [] ~docv:"SCENARIO" ~doc)
  in
  let run scenario json o =
    (* SLO evaluation runs inside the simulation: the report — including
       every alert transition instant — is byte-identical across runs
       and, for the sharded fabric scenario, across --domains values
       (the CI determinism job diffs both). *)
    with_ctx o (fun ctx ->
        let report = Experiments.Health_scenarios.run ctx scenario in
        if json then
          print_string (Sim.Json.to_string (Sim.Monitor.to_json report))
        else Format.printf "%a" Sim.Monitor.pp report;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Run a monitored scenario and print its SLO health report: \
          per-objective state (ok/pending/firing), breach counts, worst \
          observed burn, and the full pending/firing/resolved transition \
          history with simulated timestamps.")
    Term.(
      ret
        (const run $ scenario_arg
        $ json_arg
            ~doc:
              "Emit the health report as $(b,pegasus-health/1) JSON \
               instead of a table."
        $ run_opts))

let () =
  let doc = "Pegasus/Nemesis reproduction: experiments driver." in
  let info = Cmd.info "pegasus_cli" ~version:"1.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; audit_cmd; health_cmd ]))
