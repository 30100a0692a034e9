(* The benchmark harness, in ten parts.

   Part 1 regenerates every table of the experiment registry (E1..E15,
   the A1 ablation and the PAR fabric) on one run context: these are
   simulation experiments, so the numbers that matter are the
   *simulated* metrics inside each table; each runs once, at the size
   EXPERIMENTS.md reports.

   Part 2 is a Bechamel microbenchmark suite over the substrate's hot
   operations (event queue, CRC, AAL5, switching, scheduling decisions,
   name resolution, cache), one Test.make per operation, reporting
   host-machine ns/op.

   Part 3 re-times the same operations with a light sampling harness
   and writes machine-readable results (per-benchmark mean/p50/p95/p99
   ns/op, per-experiment wall time, and the metrics-registry snapshot)
   to BENCH_results.json so the perf trajectory across PRs is
   comparable.  `--json-out FILE` overrides the output path.

   Parts 4 to 10 each time one subsystem (engine, ATM cell trains,
   flow-trace record sites, the sharded fabric, the city-scale fabric,
   VOD replication, the SLO monitor) and write its own BENCH_*.json,
   which CI gates against a committed baseline with
   bench/check_baseline.sh.  `--smoke` skips part 2 and takes fewer
   samples and smaller ATM and city-scale workloads, for CI. *)

(* Alias the raw clock before [open Toolkit] shadows its module name
   with Bechamel's measure of the same clock. *)
module Clock = Monotonic_clock

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Microbenchmark operations, shared by Bechamel and the sampler.      *)

let op_engine () =
  let e = Sim.Engine.create () in
  for i = 1 to 1000 do
    ignore (Sim.Engine.schedule e ~delay:(Sim.Time.us i) (fun () -> ()))
  done;
  Sim.Engine.run e

let op_rng =
  let rng = Sim.Rng.create () in
  fun () -> ignore (Sim.Rng.int64 rng)

let op_crc =
  let buf = Bytes.create 1024 in
  fun () -> ignore (Atm.Crc32.digest_bytes buf)

(* A 1 KB payload written into its PDU in place, then checked in
   place as the one train window a host receives. *)
let op_aal5 =
  let payload = Bytes.create 1024 in
  let r = Atm.Aal5.Reassembler.create () in
  let ok _ _ _ = () and err _ = () in
  fun () ->
    let pdu =
      Atm.Aal5.build 1024 (fun pdu -> Bytes.blit payload 0 pdu 0 1024)
    in
    Atm.Aal5.Reassembler.push_train r (Atm.Train.make ~vci:1 pdu) ~ok ~err

let op_switch =
  let e = Sim.Engine.create () in
  let sw = Atm.Switch.create e ~name:"sw" ~ports:16 in
  for vci = 32 to 1031 do
    Atm.Switch.add_route sw ~in_port:0 ~in_vci:vci ~out_port:1
      ~out_vci:(vci + 1000)
  done;
  fun () -> ignore (Atm.Switch.route sw ~in_port:0 ~in_vci:500)

(* A tile packet written into its PDU, then its trailer checked and
   read where it lies. *)
let op_tile =
  let data = Bytes.create 64 in
  let len = 64 + 20 in
  fun () ->
    let pdu =
      Atm.Tile.pdu ~x:10 ~y:20 ~frame:3 ~count:8 ~bytes_per_tile:8
        ~captured_at:(Sim.Time.us 1) (fun buf -> Bytes.blit data 0 buf 0 64)
    in
    if Atm.Tile.well_formed pdu 0 len then
      ignore
        (Atm.Tile.x pdu 0 len + Atm.Tile.y pdu 0 len + Atm.Tile.frame pdu 0 len
        + Atm.Tile.count pdu 0 len
        + Atm.Tile.bytes_per_tile pdu 0 len)

let op_select =
  let domains =
    List.init 8 (fun i ->
        let d =
          Nemesis.Domain.create
            ~name:(Printf.sprintf "d%d" i)
            ~period:(Sim.Time.ms (10 + i)) ~slice:(Sim.Time.ms 1) ()
        in
        Nemesis.Domain.add_job d
          (Nemesis.Job.make ~work:(Sim.Time.ms 1) ~created:Sim.Time.zero ());
        d)
  in
  let policy = Nemesis.Policy.atropos () in
  fun () -> ignore (policy.Nemesis.Policy.select ~domains ~now:(Sim.Time.ms 5))

let op_resolve =
  let ns = Naming.Namespace.create (Sim.Metrics.create ()) in
  Naming.Namespace.bind ns ~path:"a/b/c/obj"
    (Naming.Maillon.of_iface ~reference:"o" (Naming.Maillon.iface []));
  fun () -> ignore (Naming.Namespace.resolve ns "a/b/c/obj")

let op_maillon =
  let m =
    Naming.Maillon.of_iface ~reference:"o"
      (Naming.Maillon.iface [ ("f", fun b -> b) ])
  in
  fun () -> ignore (Naming.Maillon.invoke m ~meth:"f" Bytes.empty)

let op_cache =
  let c = Pfs.Cache.create ~capacity_blocks:1024 () in
  let i = ref 0 in
  fun () ->
    incr i;
    ignore (Pfs.Cache.access c ~fid:1 ~block:(!i mod 2048))

(* The garbage-file half of a cleaner pass: sum the entries per
   segment, then drop the victims' entries (here every other segment's)
   and keep the rest. *)
let op_garbage () =
  let segments = 64 in
  let g = Pfs.Garbage.create () in
  for s = 1 to 1000 do
    Pfs.Garbage.append g ~seg:(s mod segments) ~off:0 ~len:100
  done;
  Pfs.Garbage.set_marker g;
  let per_seg = Array.make segments 0 in
  Pfs.Garbage.iter_before_marker g (fun e ->
      let seg = e.Pfs.Garbage.g_seg in
      per_seg.(seg) <- per_seg.(seg) + e.Pfs.Garbage.g_len);
  Pfs.Garbage.truncate_to_marker g ~keep:(fun seg -> seg land 1 = 0)

let op_fault () =
  let e = Sim.Engine.create () in
  let f = Sim.Fault.create ~seed:42L e in
  let up = ref true in
  for i = 1 to 100 do
    Sim.Fault.window f
      ~at:(Sim.Time.us (i * 20))
      ~duration:(Sim.Time.us 10)
      ~down:(fun () -> up := false)
      ~up:(fun () -> up := true)
  done;
  Sim.Engine.run e;
  let decide = Sim.Fault.bernoulli f ~p:0.01 in
  for _ = 1 to 1000 do
    ignore (decide ())
  done

let op_wire =
  let msg =
    {
      Rpc.Wire.kind = Rpc.Wire.Request;
      call_id = 42;
      iface = "pfs";
      meth = "read";
      payload = Bytes.create 64;
    }
  in
  fun () -> ignore (Rpc.Wire.unmarshal (Rpc.Wire.marshal msg))

let op_bulk_chunking =
  let e = Sim.Engine.create () in
  let net = Atm.Net.create e in
  let a = Atm.Net.add_host net ~name:"a" in
  let b = Atm.Net.add_host net ~name:"b" in
  Atm.Net.connect net a b;
  let sender, _ =
    Rpc.Bulk.establish net ~src:a ~dst:b ~on_data:(fun _ -> ()) ()
  in
  let blob = Bytes.create 65536 in
  fun () -> Rpc.Bulk.send sender blob

let op_vnode_lookup =
  let e = Sim.Engine.create () in
  let raid = Pfs.Raid.create e ~segment_bytes:65536 () in
  let log = Pfs.Log.create e ~raid () in
  let fs = Pfs.Vnode.create e ~log in
  Pfs.Vnode.mkdir fs "a" (fun _ -> ());
  Pfs.Vnode.mkdir fs "a/b" (fun _ -> ());
  Pfs.Vnode.creat fs "a/b/f" (fun _ -> ());
  Sim.Engine.run e;
  fun () -> ignore (Pfs.Vnode.exists fs "a/b/f")

let ops : (string * (unit -> unit)) list =
  [
    ("bulk: chunk 64KB to MTU", op_bulk_chunking);
    ("vnode: path lookup depth 3", op_vnode_lookup);
    ("engine: 1k timer events", op_engine);
    ("rng: int64", op_rng);
    ("crc32: 1KB", op_crc);
    ("aal5: build+check 1KB in place", op_aal5);
    ("switch: route lookup", op_switch);
    ("tile: write+read in place", op_tile);
    ("scheduler: atropos select (8 domains)", op_select);
    ("naming: resolve depth 4", op_resolve);
    ("naming: maillon invoke", op_maillon);
    ("cache: LRU access", op_cache);
    ("garbage: 1k appends + marker cycle", op_garbage);
    ("fault: 100 windows + 1k loss draws", op_fault);
    ("rpc: wire marshal+unmarshal", op_wire);
  ]

(* ------------------------------------------------------------------ *)
(* Part 2: the Bechamel table.                                         *)

let run_microbenches () =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Printf.printf "%-40s %14s\n" "microbenchmark" "time/op";
  Printf.printf "%s\n" (String.make 56 '-');
  List.iter
    (fun (name, fn) ->
      let test = Test.make ~name (Staged.stage fn) in
      let results =
        Benchmark.all cfg instances test
        |> Analyze.all ols Instance.monotonic_clock
      in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              let pretty =
                if est > 1.0e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
                else if est > 1.0e3 then Printf.sprintf "%.2f us" (est /. 1e3)
                else Printf.sprintf "%.1f ns" est
              in
              Printf.printf "%-40s %14s\n" name pretty
          | Some _ | None -> Printf.printf "%-40s %14s\n" name "n/a")
        results)
    ops;
  Printf.printf "%s\n" (String.make 56 '-')

(* ------------------------------------------------------------------ *)
(* Part 3: sampling harness and the machine-readable results file.     *)

let now_ns () = Clock.now ()

(* Time [samples] batches of [fn]; batch size is calibrated so one
   batch takes roughly a millisecond, keeping clock granularity noise
   out of the per-op numbers. *)
let sample_op ~samples fn =
  fn ();
  (* calibration: time a small burst *)
  let calib = 16 in
  let t0 = now_ns () in
  for _ = 1 to calib do
    fn ()
  done;
  let t1 = now_ns () in
  let per_op = Stdlib.max 1L (Int64.div (Int64.sub t1 t0) (Int64.of_int calib)) in
  let batch =
    Stdlib.max 1 (Stdlib.min 10_000 (Int64.to_int (Int64.div 1_000_000L per_op)))
  in
  let s = Sim.Stats.Samples.create () in
  for _ = 1 to samples do
    let b0 = now_ns () in
    for _ = 1 to batch do
      fn ()
    done;
    let b1 = now_ns () in
    Sim.Stats.Samples.add s
      (Int64.to_float (Int64.sub b1 b0) /. Float.of_int batch)
  done;
  s

let json_of_samples name s =
  let p q = Sim.Json.Float (Sim.Stats.Samples.percentile s q) in
  Sim.Json.Obj
    [
      ("name", Sim.Json.String name);
      ("unit", Sim.Json.String "ns/op");
      ("samples", Sim.Json.Int (Sim.Stats.Samples.count s));
      ("mean", Sim.Json.Float (Sim.Stats.Samples.mean s));
      ("min", Sim.Json.Float (Sim.Stats.Samples.min s));
      ("max", Sim.Json.Float (Sim.Stats.Samples.max s));
      ("p50", p 50.0);
      ("p95", p 95.0);
      ("p99", p 99.0);
    ]

let run_experiments ctx fmt =
  List.map
    (fun e ->
      let t0 = now_ns () in
      let table = e.Experiments.Registry.e_run ctx in
      let wall_ms =
        Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6
      in
      Format.fprintf fmt "%a@.@." Experiments.Table.pp table;
      Sim.Json.Obj
        [
          ("id", Sim.Json.String e.Experiments.Registry.e_id);
          ("title", Sim.Json.String e.Experiments.Registry.e_title);
          ("wall_ms", Sim.Json.Float wall_ms);
        ])
    Experiments.Registry.all

(* ------------------------------------------------------------------ *)
(* Part 4: engine/metrics hot-path benchmark — BENCH_engine.json.      *)

(* The simulator event loop and metrics paths are the substrate every
   experiment runs on, so their throughput is tracked as its own
   machine-readable file with a committed baseline (CI fails on >30%
   schedule/fire regression; see .github/workflows/ci.yml). *)

(* Best-of-3 wall time for [fn ()], in ns.  Each repetition starts from
   a compacted heap so that garbage left over from earlier parts (or
   earlier repetitions) does not tax this one's collector. *)
let best_of_3 fn =
  let once () =
    Gc.compact ();
    let t0 = now_ns () in
    fn ();
    Int64.sub (now_ns ()) t0
  in
  let a = once () in
  let b = once () in
  let c = once () in
  Int64.to_float (Stdlib.min a (Stdlib.min b c))

(* Best-of-3 where [fn] times its own measured section and returns the
   elapsed ns, so per-repetition setup (e.g. prefilling a queue to the
   target depth) stays off the clock. *)
let best_of_3_timed fn =
  let once () =
    Gc.compact ();
    fn ()
  in
  let a = once () in
  let b = once () in
  let c = once () in
  Int64.to_float (Stdlib.min a (Stdlib.min b c))

let throughput_json ~ops total_ns =
  let ns_per_op = total_ns /. Float.of_int ops in
  [
    ("ops", Sim.Json.Int ops);
    ("ns_per_op", Sim.Json.Float ns_per_op);
    ("ops_per_sec", Sim.Json.Float (1e9 /. ns_per_op));
  ]

let engine_events = 1_000_000

(* Schedule [engine_events] one-shot events (fanned over 1000 distinct
   instants so the queue sees real depth) and run them all. *)
let bench_schedule_fire () =
  let nop () = () in
  let total =
    best_of_3 (fun () ->
        let e = Sim.Engine.create () in
        for i = 1 to engine_events do
          ignore (Sim.Engine.schedule e ~delay:(Sim.Time.us (i mod 1000)) nop)
        done;
        Sim.Engine.run e)
  in
  ("schedule_fire", Sim.Json.Obj (throughput_json ~ops:engine_events total))

(* Same, but every event is cancelled before the run: measures the
   tombstone path (cancel + skip on delivery). *)
let bench_schedule_cancel () =
  let nop () = () in
  let total =
    best_of_3 (fun () ->
        let e = Sim.Engine.create () in
        let ids =
          Array.init engine_events (fun i ->
              Sim.Engine.schedule e ~delay:(Sim.Time.us (i mod 1000)) nop)
        in
        Array.iter (fun id -> ignore (Sim.Engine.cancel e id)) ids;
        Sim.Engine.run e ~until:(Sim.Time.ms 2))
  in
  ( "schedule_cancel_fire",
    Sim.Json.Obj (throughput_json ~ops:engine_events total) )

let bench_dist_observe ~exact =
  let m = Sim.Metrics.create ~exact_dists:exact () in
  let d = Sim.Metrics.dist m ~sub:Sim.Subsystem.Rpc "bench.lat" in
  let ops = 1_000_000 in
  let total =
    best_of_3 (fun () ->
        for i = 1 to ops do
          Sim.Metrics.observe d ((i land 1023) * 1_000)
        done)
  in
  ( (if exact then "dist_observe_exact" else "dist_observe"),
    Sim.Json.Obj (throughput_json ~ops total) )

(* A link books a window's queue delays a run at a time
   ({!Sim.Metrics.observe_run}), not a cell at a time, so per-sample
   [observe] is not what a real run pays.  Ungated rows for the train
   path's two shapes: [vod_flash]'s 32 KB frames, 684 cells from delay 0
   at the 4 240 ns cell time, and [video_cells]' 20-cell tile packets on
   a host link, alternately. *)
let bench_dist_observe_run () =
  let m = Sim.Metrics.create () in
  let d = Sim.Metrics.dist m ~sub:Sim.Subsystem.Atm "bench.run" in
  let runs = 200_000 in
  let cell_ns = 4_240 in
  let total =
    best_of_3 (fun () ->
        for i = 1 to runs do
          let count = if i land 1 = 0 then 684 else 20 in
          Sim.Metrics.observe_run d ~first:0 ~step:cell_ns ~count
        done)
  in
  let cells = (runs / 2 * 684) + ((runs + 1) / 2 * 20) in
  ( "dist_observe_run",
    Sim.Json.Obj
      [
        ("runs", Sim.Json.Int runs);
        ("cells", Sim.Json.Int cells);
        ("ns_per_run", Sim.Json.Float (total /. Float.of_int runs));
        ("ns_per_cell", Sim.Json.Float (total /. Float.of_int cells));
      ] )

(* [live] events that reschedule themselves on firing, with
   nanosecond-granularity delays over a ~1ms window from a precomputed
   table (so the call sites hash nothing): a population that stays at
   [live] and dispersed in time, the way a simulation's timers are,
   rather than flooding a handful of instants. *)
let spread_delay i = Sim.Time.ns (1 + (i * 2654435761 land 0xFFFFF))

let self_rescheduling live =
  let e = Sim.Engine.create () in
  let delays = Array.init 1024 spread_delay in
  let k = ref 0 in
  let rec self () =
    k := (!k + 1) land 1023;
    ignore (Sim.Engine.schedule e ~delay:delays.(!k) self)
  in
  for i = 1 to live do
    ignore (Sim.Engine.schedule e ~delay:(spread_delay i) self)
  done;
  (* Settle: arena capacity and calendar geometry reach their fixed
     point before a measured window opens. *)
  Sim.Engine.run e ~max_events:300_000;
  e

(* Engine cost per event at the queue depths simulations run at: a
   few timers, the thousands of live events of the full-size
   experiments, and the city-scale regime. *)
let queue_depths = [ 16; 1_000; 100_000; 1_000_000 ]
let depth_events = 300_000

(* Timed over three consecutive windows of one engine (best of
   three): filling a fresh million-event engine per repetition churns
   hundreds of MB of large blocks, and that churn slowed the parts
   that run after this one. *)
let bench_depth_on e live =
  let window () =
    let t0 = now_ns () in
    Sim.Engine.run e ~max_events:depth_events;
    Int64.to_float (Int64.sub (now_ns ()) t0)
  in
  let a = window () in
  let b = window () in
  let c = window () in
  let total = Float.min a (Float.min b c) in
  let per_op = total /. Float.of_int depth_events in
  ( live,
    per_op,
    Sim.Json.Obj
      [
        ("live_events", Sim.Json.Int live);
        ("ops", Sim.Json.Int depth_events);
        ("ns_per_op", Sim.Json.Float per_op);
      ] )

(* Schedule+fire at one million live events with zero minor-heap
   allocation per event — the arena engine's acceptance test.  The
   measured window's [Gc.minor_words] delta must stay at the noise
   floor: one boxed word per event would read as minor_words_per_op
   >= 1, against a gate of 0.001. *)
let bench_steady_state e ~live =
  let measured = 2_000_000 in
  Gc.compact ();
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  Sim.Engine.run e ~max_events:measured;
  let total = Int64.to_float (Int64.sub (now_ns ()) t0) in
  let minor_per_op = (Gc.minor_words () -. w0) /. Float.of_int measured in
  if minor_per_op > 0.001 then
    failwith
      (Printf.sprintf "engine steady state allocates: %.6f minor words/event"
         minor_per_op);
  let per_op = total /. Float.of_int measured in
  ( "steady_state",
    Sim.Json.Obj
      [
        ("live_events", Sim.Json.Int live);
        ("ops", Sim.Json.Int measured);
        ("ns_per_op", Sim.Json.Float per_op);
        ("ops_per_sec", Sim.Json.Float (1e9 /. per_op));
        ("minor_words_per_op", Sim.Json.Float minor_per_op);
      ] )

let run_engine_bench path =
  Format.printf "@.Part 4: engine/metrics hot-path benchmark@.@.";
  let engine_parts = [ bench_schedule_fire (); bench_schedule_cancel () ] in
  let metric_parts =
    [
      bench_dist_observe ~exact:false;
      bench_dist_observe ~exact:true;
      bench_dist_observe_run ();
    ]
  in
  (* The million-event engine serves both the steady-state check and
     the deepest row, so the part fills it once. *)
  let deepest = List.fold_left Stdlib.max 0 queue_depths in
  let big = self_rescheduling deepest in
  let engine_parts = engine_parts @ [ bench_steady_state big ~live:deepest ] in
  let depth_rows =
    List.map
      (fun live ->
        let e = if live = deepest then big else self_rescheduling live in
        bench_depth_on e live)
      queue_depths
  in
  List.iter
    (fun (name, j) ->
      match j with
      | Sim.Json.Obj fields -> (
          let ns key =
            match List.assoc_opt key fields with
            | Some (Sim.Json.Float ns) -> Some ns
            | _ -> None
          in
          match (ns "ns_per_op", ns "ns_per_run", ns "ns_per_cell") with
          | Some op, _, _ -> Printf.printf "%-28s %10.1f ns/op\n" name op
          | None, Some run, Some cell ->
              Printf.printf "%-28s %10.1f ns/run %7.2f ns/cell\n" name run cell
          | _ -> ())
      | _ -> ())
    (engine_parts @ metric_parts);
  List.iter
    (fun (live, ns, _) ->
      Printf.printf "engine @ %-7d live events %10.1f ns/event\n" live ns)
    depth_rows;
  let json =
    Sim.Json.Obj
      [
        ("schema", Sim.Json.String "pegasus-engine-bench/3");
        ("engine", Sim.Json.Obj engine_parts);
        ("metrics", Sim.Json.Obj metric_parts);
        ("depth", Sim.Json.List (List.map (fun (_, _, j) -> j) depth_rows));
      ]
  in
  Sim.Json.to_file path json;
  Format.printf "@.Wrote engine benchmark results to %s@." path

(* ------------------------------------------------------------------ *)
(* Part 5: ATM cell-train fast-path benchmark — BENCH_atm.json.        *)

(* Bulk AAL5 frames across a two-switch path, once with the per-cell
   path and once with the cell-train fast path (same topology, same
   pacing).  The train path's claim is wall-clock: one scheduled event
   per hop per burst instead of per cell, identical simulated results.
   Tracked as its own machine-readable file with a committed baseline
   (CI fails on >30% train-path throughput regression and checks the
   64KB train speedup stays above 3x; see .github/workflows/ci.yml). *)

let atm_frame_sizes = [ 1_024; 8_192; 65_535 (* AAL5 max *) ]

let atm_run ~trains ~frame_bytes ~frames () =
  let e = Sim.Engine.create () in
  let net = Atm.Net.create e in
  Atm.Net.set_train_path net trains;
  let a = Atm.Net.add_host net ~name:"a" in
  let b = Atm.Net.add_host net ~name:"b" in
  let s1 = Atm.Net.add_switch net ~name:"s1" ~ports:4 in
  let s2 = Atm.Net.add_switch net ~name:"s2" ~ports:4 in
  (* Queues deep enough that a whole frame bursts in without drops:
     drops would make the comparison measure loss, not batching. *)
  let q = Atm.Aal5.frame_cells frame_bytes + 64 in
  Atm.Net.connect net ~queue_cells:q a s1;
  Atm.Net.connect net ~queue_cells:q s1 s2;
  Atm.Net.connect net ~queue_cells:q s2 b;
  let received = ref 0 in
  let cell_rx, train_rx =
    Atm.Net.frame_rx ~rx:(fun ~flow:_ _ _ _ -> incr received) ()
  in
  let vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx:cell_rx ~rx_train:train_rx in
  let payload = Bytes.make frame_bytes 'x' in
  let cells = Atm.Aal5.frame_cells frame_bytes in
  let cell_ns =
    Sim.Time.to_ns (Atm.Cell.tx_time ~bandwidth_bps:100_000_000)
  in
  (* One frame per transmit time plus slack: the wire stays busy, the
     queue stays shallow. *)
  let period = Sim.Time.ns ((cells * cell_ns) + 20_000) in
  let sent = ref 0 in
  let rec tick () =
    if !sent < frames then begin
      incr sent;
      Atm.Net.send_frame vc payload;
      ignore (Sim.Engine.schedule e ~delay:period tick)
    end
  in
  tick ();
  Sim.Engine.run e;
  if !received <> frames then
    failwith
      (Printf.sprintf "atm bench: sent %d frames but received %d" frames
         !received)

let atm_mode_json ~frames ~cells total_ns =
  let secs = total_ns /. 1e9 in
  Sim.Json.Obj
    [
      ("wall_ns", Sim.Json.Float total_ns);
      ("frames_per_sec", Sim.Json.Float (Float.of_int frames /. secs));
      ("cells_per_sec", Sim.Json.Float (Float.of_int cells /. secs));
    ]

let run_atm_bench ~smoke path =
  Format.printf
    "@.Part 5: ATM cell-train fast-path benchmark (CRC-32 kernel: %s)@.@."
    Atm.Crc32.kernel;
  let target_cells = if smoke then 60_000 else 400_000 in
  let rows =
    List.map
      (fun frame_bytes ->
        let per_frame = Atm.Aal5.frame_cells frame_bytes in
        let frames = Stdlib.max 20 (target_cells / per_frame) in
        let cells = frames * per_frame in
        let slow =
          best_of_3 (atm_run ~trains:false ~frame_bytes ~frames)
        in
        let fast = best_of_3 (atm_run ~trains:true ~frame_bytes ~frames) in
        let speedup = slow /. fast in
        Printf.printf
          "%3dKB frames: per-cell %8.1f ms, train %8.1f ms  (%.2fx, %d \
           frames, %d cells)\n"
          ((frame_bytes + 1023) / 1024)
          (slow /. 1e6) (fast /. 1e6) speedup frames
          cells;
        Sim.Json.Obj
          [
            ("frame_bytes", Sim.Json.Int frame_bytes);
            ("frames", Sim.Json.Int frames);
            ("cells", Sim.Json.Int cells);
            ("per_cell", atm_mode_json ~frames ~cells slow);
            ("train", atm_mode_json ~frames ~cells fast);
            ("speedup", Sim.Json.Float speedup);
          ])
      atm_frame_sizes
  in
  let json =
    Sim.Json.Obj
      [
        ("schema", Sim.Json.String "pegasus-atm-bench/1");
        ("mode", Sim.Json.String (if smoke then "smoke" else "full"));
        ("frames", Sim.Json.List rows);
      ]
  in
  Sim.Json.to_file path json;
  Format.printf "@.Wrote ATM benchmark results to %s@." path

(* ------------------------------------------------------------------ *)
(* Part 6: flow-trace record-site benchmark — BENCH_trace.json.        *)

(* Every hop of the causal-flow layer runs through the same site shape:
   a [flows_on] guard in front of a [flow_step].  The disabled-path
   number is the cost the instrumentation adds to every untraced run —
   the contract is "one branch per record site", and CI gates on it
   regressing >30% against the committed baseline (see
   .github/workflows/ci.yml).  The enabled numbers split the recording
   cost between the unbounded sink (audit capture) and the default
   bounded ring. *)

let trace_record_ops = 1_000_000

let trace_for mode =
  match mode with
  | `Disabled -> Sim.Trace.create ~enabled:false ()
  | `Unbounded ->
      let tr = Sim.Trace.create ~unbounded:true ~enabled:true () in
      Sim.Trace.set_flows tr true;
      tr
  | `Ring ->
      let tr = Sim.Trace.create ~capacity:65536 ~enabled:true () in
      Sim.Trace.set_flows tr true;
      tr

let bench_record_site mode =
  let name =
    match mode with
    | `Disabled -> "record_disabled"
    | `Unbounded -> "record_unbounded"
    | `Ring -> "record_ring"
  in
  let ts = Sim.Time.us 1 in
  let total =
    best_of_3 (fun () ->
        let tr = trace_for mode in
        for i = 1 to trace_record_ops do
          if Sim.Trace.flows_on tr then
            Sim.Trace.flow_step tr ~ts ~sub:Sim.Subsystem.Atm ~cat:"bench"
              ~flow:(i land 1023) "hop"
        done)
  in
  (name, Sim.Json.Obj (throughput_json ~ops:trace_record_ops total))

(* Audit-report construction over a synthetic 1e5-event capture:
   10k flows of start + 8 hops + end across 4 streams, the shape the
   [pegasus_cli audit] scenarios produce. *)
let bench_audit_build () =
  let tr = Sim.Trace.create ~unbounded:true ~enabled:true () in
  Sim.Trace.set_flows tr true;
  let flows = 10_000 and hops = 8 in
  let events = flows * (hops + 2) in
  for f = 1 to flows do
    let id = Sim.Trace.alloc_flow tr in
    let t0 = f * 1000 in
    Sim.Trace.flow_start tr ~ts:(Sim.Time.ns t0) ~sub:Sim.Subsystem.Atm
      ~cat:"bench"
      ~args:[ ("stream", Sim.Trace.Str (Printf.sprintf "s%d" (f mod 4))) ]
      ~flow:id "start";
    for h = 1 to hops do
      Sim.Trace.flow_step tr
        ~ts:(Sim.Time.ns (t0 + (h * 10)))
        ~sub:Sim.Subsystem.Atm ~cat:"bench" ~flow:id
        (Printf.sprintf "hop%d" h)
    done;
    Sim.Trace.flow_end tr
      ~ts:(Sim.Time.ns (t0 + 1000))
      ~sub:Sim.Subsystem.Atm ~cat:"bench" ~flow:id "end"
  done;
  let total = best_of_3 (fun () -> ignore (Sim.Audit.of_trace tr)) in
  ( "audit_build",
    Sim.Json.Obj
      (("events", Sim.Json.Int events)
       :: ("build_ms", Sim.Json.Float (total /. 1e6))
       :: throughput_json ~ops:events total) )

let run_trace_bench path =
  Format.printf "@.Part 6: flow-trace record-site benchmark@.@.";
  let sites =
    [
      bench_record_site `Disabled;
      bench_record_site `Unbounded;
      bench_record_site `Ring;
    ]
  in
  let audit = bench_audit_build () in
  List.iter
    (fun (name, j) ->
      match j with
      | Sim.Json.Obj fields -> (
          match List.assoc "ns_per_op" fields with
          | Sim.Json.Float ns -> Printf.printf "%-28s %10.2f ns/op\n" name ns
          | _ -> ())
      | _ -> ())
    (sites @ [ audit ]);
  let json =
    Sim.Json.Obj
      [
        ("schema", Sim.Json.String "pegasus-trace-bench/1");
        ("record_site", Sim.Json.Obj sites);
        ("audit", Sim.Json.Obj [ audit ]);
      ]
  in
  Sim.Json.to_file path json;
  Format.printf "@.Wrote trace benchmark results to %s@." path

(* ------------------------------------------------------------------ *)
(* Part 7: sharded parallel simulation benchmark — BENCH_parallel.json. *)

(* The multi-site fabric (Experiments.Fabric) timed at one domain and
   at [domains], with the determinism self-check that makes the speedup
   trustworthy: both runs must produce identical per-site digests.
   Between repetitions we run [Gc.full_major] rather than [Gc.compact]:
   compaction moves the shared major heap under domains that were just
   spawned, which taxes the very path being measured, while a full
   major still starts each repetition from a clean heap.  CI gates on
   the committed baseline: >=2x speedup at 4 domains (only on runners
   with >= 4 cores) and no >30% single-domain throughput regression
   (see bench/check_baseline.sh). *)

let best_of_3_par fn =
  let once () =
    Gc.full_major ();
    let t0 = now_ns () in
    fn ();
    Int64.sub (now_ns ()) t0
  in
  let a = once () in
  let b = once () in
  let c = once () in
  Int64.to_float (Stdlib.min a (Stdlib.min b c))

let run_parallel_bench ~domains path =
  Format.printf "@.Part 7: sharded parallel simulation benchmark@.@.";
  let p = Experiments.Fabric.default_params in
  let reference = ref None in
  let total_frames o =
    Array.fold_left ( + ) 0 o.Experiments.Fabric.local_frames
    + Array.fold_left ( + ) 0 o.Experiments.Fabric.remote_frames
  in
  let run_at domains =
    (* The timed closure keeps only the last outcome; every repetition
       simulates the identical world. *)
    let out = ref None in
    let wall_ns =
      best_of_3_par (fun () ->
          out :=
            Some (Experiments.Fabric.execute (Sim.Ctx.create ~domains ()) p))
    in
    let o = match !out with Some o -> o | None -> assert false in
    (match !reference with
    | None -> reference := Some o.Experiments.Fabric.digests
    | Some d ->
        if d <> o.Experiments.Fabric.digests then
          failwith
            (Printf.sprintf
               "parallel bench: digests at %d domains differ from 1 domain"
               domains));
    let frames = total_frames o in
    let fps = Float.of_int frames /. (wall_ns /. 1e9) in
    Printf.printf
      "%d domain%s: %8.1f ms wall, %9.0f frames/s  (%d frames, %d epochs, \
       %d messages)\n"
      domains
      (if domains = 1 then " " else "s")
      (wall_ns /. 1e6) fps frames o.Experiments.Fabric.epochs
      o.Experiments.Fabric.messages;
    ( wall_ns,
      Sim.Json.Obj
        [
          ("domains", Sim.Json.Int domains);
          ("wall_ns", Sim.Json.Float wall_ns);
          ("frames", Sim.Json.Int frames);
          ("frames_per_sec", Sim.Json.Float fps);
          ("epochs", Sim.Json.Int o.Experiments.Fabric.epochs);
          ("messages", Sim.Json.Int o.Experiments.Fabric.messages);
          ("overflows", Sim.Json.Int o.Experiments.Fabric.overflows);
        ] )
  in
  let base_ns, base_json = run_at 1 in
  let rows, speedup =
    if domains > 1 then begin
      let par_ns, par_json = run_at domains in
      ([ base_json; par_json ], base_ns /. par_ns)
    end
    else ([ base_json ], 1.0)
  in
  Printf.printf "speedup at %d domains: %.2fx (digests identical)\n" domains
    speedup;
  let json =
    Sim.Json.Obj
      [
        ("schema", Sim.Json.String "pegasus-parallel-bench/1");
        ("cores", Sim.Json.Int (Sim.Par.recommended_workers ()));
        ("domains", Sim.Json.Int domains);
        ("sites", Sim.Json.Int p.Experiments.Fabric.sites);
        ("runs", Sim.Json.List rows);
        ("speedup", Sim.Json.Float speedup);
      ]
  in
  Sim.Json.to_file path json;
  Format.printf "@.Wrote parallel benchmark results to %s@." path

(* ------------------------------------------------------------------ *)
(* Part 8: city-scale fabric benchmark — BENCH_cityscale.json.         *)

(* Two costs behind experiment E14, tracked with committed baselines:
   VC signalling throughput (open/close cycles over a Clos, exercising
   path search, admission and the VCI free lists) and admitted-stream
   cell throughput (paced frames from QoS-admitted contracts moving as
   cell trains across the fabric). *)

let cityscale_signalling ~cycles =
  let e = Sim.Engine.create () in
  let net = Atm.Net.create e in
  let cl = Atm.Net.clos net ~spines:2 ~leaves:4 ~hosts_per_leaf:4 in
  let hosts = cl.Atm.Net.cl_hosts in
  let nh = Array.length hosts in
  fun () ->
    for i = 0 to cycles - 1 do
      let src = hosts.(i mod nh) and dst = hosts.((i + 7) mod nh) in
      let vc =
        Atm.Net.open_vc net ~reserve_bps:1_000_000 ~path_sel:i ~src ~dst
          ~rx:(fun _ -> ())
      in
      Atm.Net.close_vc net vc
    done

let cityscale_traffic ~offered ~duration () =
  let e = Sim.Engine.create () in
  let net = Atm.Net.create e in
  let cl = Atm.Net.clos net ~spines:2 ~leaves:4 ~hosts_per_leaf:4 in
  let hosts = cl.Atm.Net.cl_hosts in
  let nh = Array.length hosts in
  let qm = Atm.Qos_mgr.create ~path_attempts:2 net () in
  let frame_bytes = 8192 in
  let payload = Bytes.create frame_bytes in
  for i = 0 to offered - 1 do
    let src = hosts.(i mod nh) and dst = hosts.((i + (nh / 2) + 1) mod nh) in
    let rx, rx_train = Atm.Net.frame_rx ~rx:(fun ~flow:_ _ _ _ -> ()) () in
    match
      Atm.Qos_mgr.request ~rx_train qm ~cls:Atm.Qos_mgr.Video ~bps:6_000_000
        ~src ~dst ~rx ()
    with
    | Atm.Qos_mgr.Rejected -> ()
    | Atm.Qos_mgr.Accepted c | Atm.Qos_mgr.Degraded c -> (
        match Atm.Qos_mgr.contract_vc c with
        | None -> ()
        | Some vc ->
            let period_ns =
              int_of_float
                (Float.of_int (frame_bytes * 8)
                 *. 1e9
                 /. Float.of_int (Atm.Qos_mgr.granted_bps c))
            in
            let k = ref 0 in
            let at () = Sim.Time.ns (!k * period_ns) in
            while Sim.Time.(at () < duration) do
              let when_ = at () in
              ignore
                (Sim.Engine.schedule_at e ~at:when_ (fun () ->
                     Atm.Net.send_frame vc payload));
              incr k
            done)
  done;
  Sim.Engine.run e;
  List.fold_left (fun acc l -> acc + Atm.Link.cells_sent l) 0 (Atm.Net.links net)

let run_cityscale_bench ~smoke path =
  Format.printf "@.Part 8: city-scale fabric benchmark@.@.";
  let cycles = if smoke then 2_000 else 20_000 in
  let signalling = cityscale_signalling ~cycles in
  let vc_ns = best_of_3 signalling in
  let cycles_per_sec = Float.of_int cycles /. (vc_ns /. 1e9) in
  Printf.printf "VC signalling: %7.1f ms for %d open/close cycles (%9.0f cycles/s)\n"
    (vc_ns /. 1e6) cycles cycles_per_sec;
  let offered = if smoke then 64 else 128 in
  let duration = Sim.Time.ms (if smoke then 50 else 200) in
  let cells = ref 0 in
  let traffic_ns =
    best_of_3 (fun () -> cells := cityscale_traffic ~offered ~duration ())
  in
  let cells_per_sec = Float.of_int !cells /. (traffic_ns /. 1e9) in
  Printf.printf
    "Admitted traffic: %7.1f ms wall for %d cells across the fabric (%9.0f \
     cells/s)\n"
    (traffic_ns /. 1e6) !cells cells_per_sec;
  let json =
    Sim.Json.Obj
      [
        ("schema", Sim.Json.String "pegasus-cityscale-bench/1");
        ("mode", Sim.Json.String (if smoke then "smoke" else "full"));
        ( "vc",
          Sim.Json.Obj
            [
              ("cycles", Sim.Json.Int cycles);
              ("wall_ns", Sim.Json.Float vc_ns);
              ("cycles_per_sec", Sim.Json.Float cycles_per_sec);
            ] );
        ( "traffic",
          Sim.Json.Obj
            [
              ("offered", Sim.Json.Int offered);
              ("cells", Sim.Json.Int !cells);
              ("wall_ns", Sim.Json.Float traffic_ns);
              ("cells_per_sec", Sim.Json.Float cells_per_sec);
            ] );
      ]
  in
  Sim.Json.to_file path json;
  Format.printf "@.Wrote city-scale benchmark results to %s@." path

(* ------------------------------------------------------------------ *)
(* Part 9: VOD replication benchmark — BENCH_vod.json.                 *)

(* The claim behind experiment E15, tracked with a committed baseline:
   at the flash-crowd peak, popularity-aware replication must beat
   static placement on both throughput (strictly, with a floor) and
   p99 read tail (>= 2x better).  Those two speedups are simulated
   metrics — exact and deterministic — while the sweep's wall-clock
   rows/s guards the host cost of the directory hot paths (routing,
   EWMA accounting, replica serves). *)

let run_vod_bench ~domains path =
  Format.printf "@.Part 9: VOD replication benchmark@.@.";
  let rows = ref [||] in
  let wall_ns =
    best_of_3 (fun () ->
        rows := Experiments.E15_vodscale.results (Sim.Ctx.create ~domains ()))
  in
  let rows = !rows in
  let rows_per_sec = Float.of_int (Array.length rows) /. (wall_ns /. 1e9) in
  Printf.printf "Sweep: %7.1f ms wall for %d rows (%5.2f rows/s)\n"
    (wall_ns /. 1e6) (Array.length rows) rows_per_sec;
  let mode_name = function
    | Experiments.E15_vodscale.Static -> "static"
    | Experiments.E15_vodscale.Cache_only -> "cache"
    | Experiments.E15_vodscale.Replicate -> "replicate"
  in
  let peak_clients =
    Array.fold_left
      (fun acc r -> Stdlib.max acc r.Experiments.E15_vodscale.rr_clients)
      0 rows
  in
  let peak mode =
    let r =
      Array.to_list rows
      |> List.find (fun r ->
             r.Experiments.E15_vodscale.rr_clients = peak_clients
             && r.Experiments.E15_vodscale.rr_mode = mode)
    in
    let p99 =
      match r.Experiments.E15_vodscale.rr_p99_flash_us with
      | Some v -> v
      | None -> Float.nan
    in
    (r.Experiments.E15_vodscale.rr_reads_s, p99)
  in
  let static_reads_s, static_p99 = peak Experiments.E15_vodscale.Static in
  let repl_reads_s, repl_p99 = peak Experiments.E15_vodscale.Replicate in
  let throughput_speedup = repl_reads_s /. static_reads_s in
  let p99_speedup = static_p99 /. repl_p99 in
  Printf.printf
    "Peak (%d clients): replicate %.0f reads/s p99 %.1f ms vs static %.0f \
     reads/s p99 %.1f ms (throughput x%.2f, p99 x%.2f)\n"
    peak_clients repl_reads_s (repl_p99 /. 1e3) static_reads_s
    (static_p99 /. 1e3) throughput_speedup p99_speedup;
  let row_json r =
    Sim.Json.Obj
      [
        ("clients", Sim.Json.Int r.Experiments.E15_vodscale.rr_clients);
        ( "placement",
          Sim.Json.String (mode_name r.Experiments.E15_vodscale.rr_mode) );
        ( "reads_per_sec",
          Sim.Json.Float r.Experiments.E15_vodscale.rr_reads_s );
        ( "p99_flash_us",
          match r.Experiments.E15_vodscale.rr_p99_flash_us with
          | Some v -> Sim.Json.Float v
          | None -> Sim.Json.Null );
      ]
  in
  let json =
    Sim.Json.Obj
      [
        ("schema", Sim.Json.String "pegasus-vod-bench/1");
        ( "sweep",
          Sim.Json.Obj
            [
              ("rows", Sim.Json.Int (Array.length rows));
              ("wall_ns", Sim.Json.Float wall_ns);
              ("rows_per_sec", Sim.Json.Float rows_per_sec);
            ] );
        ( "peak",
          Sim.Json.Obj
            [
              ("clients", Sim.Json.Int peak_clients);
              ("static_reads_per_sec", Sim.Json.Float static_reads_s);
              ("replicate_reads_per_sec", Sim.Json.Float repl_reads_s);
              ("throughput_speedup", Sim.Json.Float throughput_speedup);
              ("static_p99_flash_us", Sim.Json.Float static_p99);
              ("replicate_p99_flash_us", Sim.Json.Float repl_p99);
              ("p99_speedup", Sim.Json.Float p99_speedup);
            ] );
        ("rows", Sim.Json.List (Array.to_list rows |> List.map row_json));
      ]
  in
  Sim.Json.to_file path json;
  Format.printf "@.Wrote VOD replication benchmark results to %s@." path

(* ------------------------------------------------------------------ *)
(* Part 10: SLO monitor benchmark — BENCH_monitor.json.                *)

(* The health layer's hot-path contract is the observer sample site:
   with no monitor attached, [Metrics.sample] must cost one load and
   one branch, so instrumented components pay nothing in unmonitored
   runs — CI gates on the disabled-path throughput regressing >30%
   against the committed baseline (see .github/workflows/ci.yml).  The
   monitored number adds the sink fan-out into a live window buffer,
   and the roll benchmark prices the evaluation side: 1e5 armed
   windows rolled by the daemon chain, each closing a sub-window and
   running the burn-rate state machine. *)

let monitor_sample_ops = 1_000_000

let bench_sample_disabled () =
  let reg = Sim.Metrics.create () in
  let o = Sim.Metrics.observer reg ~sub:Sim.Subsystem.Atm "bench.win_us" in
  let total =
    best_of_3 (fun () ->
        for i = 1 to monitor_sample_ops do
          Sim.Metrics.sample o (Float.of_int (i land 1023))
        done)
  in
  ( "sample_disabled",
    Sim.Json.Obj (throughput_json ~ops:monitor_sample_ops total) )

(* The monitored number times only the fan-out into a live window
   buffer, bounded as a real run's is: the window rolls after every
   burst of [monitor_burst] samples, off the clock, so the buffers stay
   at the size one window's samples fill.  A window that never rolled
   would grow its buffer by doubling inside the timed loop, and the
   reading would move with whatever heap earlier parts left behind. *)
let monitor_burst = 10_000

let bench_sample_monitored () =
  let e = Sim.Engine.create () in
  let o =
    Sim.Metrics.observer (Sim.Engine.metrics e) ~sub:Sim.Subsystem.Atm
      "bench.win_us"
  in
  let m = Sim.Monitor.create e in
  let slo =
    Sim.Slo.make ~sub:Sim.Subsystem.Atm ~window:(Sim.Time.ms 10)
      ~threshold:1.0e9 "bench.p99"
  in
  Sim.Monitor.register m slo (Sim.Monitor.windowed o);
  let burst () =
    for i = 1 to monitor_burst do
      Sim.Metrics.sample o (Float.of_int (i land 1023))
    done
  in
  (* The engine fires the monitor's roll at the next window boundary. *)
  let roll () =
    Sim.Engine.run e ~until:(Sim.Time.add (Sim.Engine.now e) slo.Sim.Slo.window)
  in
  (* Every buffer of the window ring reaches its steady size first. *)
  for _ = 0 to slo.Sim.Slo.slow_windows do
    burst ();
    roll ()
  done;
  let total =
    best_of_3_timed (fun () ->
        let spent = ref 0L in
        for _ = 1 to monitor_sample_ops / monitor_burst do
          let t0 = now_ns () in
          burst ();
          spent := Int64.add !spent (Int64.sub (now_ns ()) t0);
          roll ()
        done;
        !spent)
  in
  ( "sample_monitored",
    Sim.Json.Obj (throughput_json ~ops:monitor_sample_ops total) )

let monitor_windows = 100_000

let bench_window_roll () =
  let rolls_seen = ref 0 in
  let total =
    best_of_3_timed (fun () ->
        let e = Sim.Engine.create () in
        let m = Sim.Monitor.create e in
        for i = 1 to monitor_windows do
          Sim.Monitor.register m
            (Sim.Slo.make ~sub:Sim.Subsystem.Sim ~window:(Sim.Time.ms 1)
               ~fast_windows:1 ~slow_windows:5 ~threshold:1.0e9
               (Printf.sprintf "w%d" i))
            (Sim.Monitor.Level (fun () -> 1.0))
        done;
        (* Rolls are daemon events: a no-op tick chain keeps the run
           alive across the measured span. *)
        let rec tick at =
          if Sim.Time.(at < Sim.Time.ms 10) then
            ignore
              (Sim.Engine.schedule_at e ~at (fun () ->
                   tick (Sim.Time.add at (Sim.Time.ms 1))))
        in
        tick (Sim.Time.ms 1);
        let t0 = now_ns () in
        Sim.Engine.run e ~until:(Sim.Time.ms 10);
        let dt = Int64.sub (now_ns ()) t0 in
        (match (Sim.Monitor.report [ m ]).Sim.Monitor.rep_alerts with
        | a :: _ -> rolls_seen := a.Sim.Monitor.r_rolls
        | [] -> ());
        dt)
  in
  let ops = monitor_windows * Stdlib.max 1 !rolls_seen in
  ( "window_roll",
    Sim.Json.Obj
      (("windows", Sim.Json.Int monitor_windows)
       :: ("rolls", Sim.Json.Int !rolls_seen)
       :: throughput_json ~ops total) )

let run_monitor_bench path =
  Format.printf "@.Part 10: SLO monitor benchmark@.@.";
  let observes = [ bench_sample_disabled (); bench_sample_monitored () ] in
  let roll = bench_window_roll () in
  List.iter
    (fun (name, j) ->
      match j with
      | Sim.Json.Obj fields -> (
          match List.assoc "ns_per_op" fields with
          | Sim.Json.Float ns -> Printf.printf "%-28s %10.2f ns/op\n" name ns
          | _ -> ())
      | _ -> ())
    (observes @ [ roll ]);
  let json =
    Sim.Json.Obj
      [
        ("schema", Sim.Json.String "pegasus-monitor-bench/1");
        ("observe", Sim.Json.Obj observes);
        ("roll", Sim.Json.Obj [ roll ]);
      ]
  in
  Sim.Json.to_file path json;
  Format.printf "@.Wrote monitor benchmark results to %s@." path

let find_arg_value flag =
  let result = ref None in
  Array.iteri
    (fun i a ->
      if a = flag && i + 1 < Array.length Sys.argv then
        result := Some Sys.argv.(i + 1))
    Sys.argv;
  !result

let () =
  let has f = Array.exists (fun a -> a = f) Sys.argv in
  let smoke = has "--smoke" in
  let json_out =
    match find_arg_value "--json-out" with
    | Some p -> p
    | None -> "BENCH_results.json"
  in
  let engine_json_out =
    match find_arg_value "--engine-json-out" with
    | Some p -> p
    | None -> "BENCH_engine.json"
  in
  let atm_json_out =
    match find_arg_value "--atm-json-out" with
    | Some p -> p
    | None -> "BENCH_atm.json"
  in
  let trace_json_out =
    match find_arg_value "--trace-json-out" with
    | Some p -> p
    | None -> "BENCH_trace.json"
  in
  let parallel_json_out =
    match find_arg_value "--parallel-json-out" with
    | Some p -> p
    | None -> "BENCH_parallel.json"
  in
  let cityscale_json_out =
    match find_arg_value "--cityscale-json-out" with
    | Some p -> p
    | None -> "BENCH_cityscale.json"
  in
  let vod_json_out =
    match find_arg_value "--vod-json-out" with
    | Some p -> p
    | None -> "BENCH_vod.json"
  in
  let monitor_json_out =
    match find_arg_value "--monitor-json-out" with
    | Some p -> p
    | None -> "BENCH_monitor.json"
  in
  (* Domain count for the parallel bench, pinned from the CLI so CI
     measures a known width rather than whatever the runner reports. *)
  let domains =
    match find_arg_value "--domains" with
    | Some s -> int_of_string s
    | None -> Stdlib.min 4 (Sim.Par.recommended_workers ())
  in
  Format.printf "Pegasus/Nemesis reproduction — benchmark harness@.";
  Format.printf "Part 1: paper-claim tables@.@.";
  let ctx = Sim.Ctx.create ~domains () in
  let experiments = run_experiments ctx Format.std_formatter in
  if not smoke then begin
    Format.printf "@.Part 2: substrate microbenchmarks (host CPU time)@.@.";
    run_microbenches ()
  end;
  let samples = if smoke then 10 else 50 in
  let micro =
    List.map (fun (name, fn) -> json_of_samples name (sample_op ~samples fn)) ops
  in
  let results =
    Sim.Json.Obj
      [
        ("schema", Sim.Json.String "pegasus-bench/1");
        ("mode", Sim.Json.String (if smoke then "smoke" else "full"));
        ("crc32_kernel", Sim.Json.String Atm.Crc32.kernel);
        ("experiments", Sim.Json.List experiments);
        ("microbenchmarks", Sim.Json.List micro);
        ("metrics", Sim.Metrics.snapshot (Sim.Ctx.metrics ctx));
      ]
  in
  Sim.Json.to_file json_out results;
  Format.printf "@.Wrote machine-readable results to %s@." json_out;
  run_engine_bench engine_json_out;
  run_atm_bench ~smoke atm_json_out;
  run_trace_bench trace_json_out;
  run_parallel_bench ~domains parallel_json_out;
  run_cityscale_bench ~smoke cityscale_json_out;
  run_vod_bench ~domains vod_json_out;
  run_monitor_bench monitor_json_out
