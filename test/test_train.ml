(* The cell-train fast path: zero-copy plumbing and, above all, the
   differential property the whole design rests on — a network driven
   through [send_frame] produces byte-identical results whether frames
   move as trains (one event per hop) or cell by cell. *)

let us = Sim.Time.us
let ms = Sim.Time.ms

(* {1 Zero-copy segmentation / reassembly} *)

let train_aal5_tests =
  [
    Alcotest.test_case "segment_train round-trips through push_train" `Quick
      (fun () ->
        let payload = Bytes.init 1000 (fun i -> Char.chr (i land 0xff)) in
        let train = Atm.Aal5.segment_train ~vci:7 payload in
        let r = Atm.Aal5.Reassembler.create () in
        match Atm.Aal5.Reassembler.push_train r train with
        | [ Ok b ] -> Alcotest.(check bytes) "payload" payload b
        | _ -> Alcotest.fail "expected exactly one completed frame");
    Alcotest.test_case "cells are views into one PDU buffer" `Quick (fun () ->
        let payload = Bytes.of_string "zero copy" in
        let train = Atm.Aal5.segment_train ~vci:1 payload in
        let cells = Atm.Aal5.segment ~vci:1 payload in
        List.iteri
          (fun i (c : Atm.Cell.t) ->
            Alcotest.(check int) "offset" (i * Atm.Cell.payload_bytes) c.off)
          cells;
        Alcotest.(check int)
          "train covers the PDU"
          (List.length cells)
          (Atm.Train.count train);
        (* Mutating the train's buffer is visible through a cell view:
           same backing store. *)
        let c = Atm.Train.cell train 0 in
        Bytes.set c.buf c.off 'Z';
        Alcotest.(check char) "shared" 'Z' (Bytes.get (Atm.Train.buf train) 0));
    Alcotest.test_case "push_train equals per-cell push at any split" `Quick
      (fun () ->
        let payload = Bytes.init 700 (fun i -> Char.chr ((i * 7) land 0xff)) in
        let n = Atm.Aal5.frame_cells (Bytes.length payload) in
        for split = 1 to n - 1 do
          let train = Atm.Aal5.segment_train ~vci:3 payload in
          let head = Atm.Train.sub train ~first:0 ~count:split in
          let tail = Atm.Train.sub train ~first:split ~count:(n - split) in
          let r = Atm.Aal5.Reassembler.create () in
          let r1 = Atm.Aal5.Reassembler.push_train r head in
          let r2 = Atm.Aal5.Reassembler.push_train r tail in
          let results = r1 @ r2 in
          match results with
          | [ Ok b ] -> Alcotest.(check bytes) "payload" payload b
          | _ -> Alcotest.fail "expected one frame"
        done);
    Alcotest.test_case "corrupted train reports Crc_mismatch" `Quick (fun () ->
        let train = Atm.Aal5.segment_train ~vci:1 (Bytes.of_string "corrupt me") in
        Bytes.set (Atm.Train.buf train) 3 'X';
        let r = Atm.Aal5.Reassembler.create () in
        match Atm.Aal5.Reassembler.push_train r train with
        | [ Error Atm.Aal5.Crc_mismatch ] -> ()
        | _ -> Alcotest.fail "expected Crc_mismatch");
    Alcotest.test_case "oversized train reports Too_long like per-cell" `Quick
      (fun () ->
        (* max_frame of two cells; a five-cell train overflows partway:
           push_train must produce exactly what per-cell pushes do. *)
        let pdu = Bytes.create (5 * Atm.Cell.payload_bytes) in
        let mk () = Atm.Train.make ~vci:1 (Bytes.copy pdu) in
        let by_train =
          Atm.Aal5.Reassembler.push_train
            (Atm.Aal5.Reassembler.create ~max_frame:96 ())
            (mk ())
        in
        let by_cell =
          let r = Atm.Aal5.Reassembler.create ~max_frame:96 () in
          let train = mk () in
          List.concat
            (List.init (Atm.Train.count train) (fun i ->
                 match Atm.Aal5.Reassembler.push r (Atm.Train.cell train i) with
                 | None -> []
                 | Some res -> [ res ]))
        in
        Alcotest.(check int) "same result count" (List.length by_cell)
          (List.length by_train);
        Alcotest.(check bool) "same results" true (by_train = by_cell);
        Alcotest.(check bool) "Too_long seen" true
          (List.exists (function Error Atm.Aal5.Too_long -> true | _ -> false)
             by_train));
  ]

let crc_tests =
  [
    Alcotest.test_case "second known-answer vector" `Quick (fun () ->
        (* CRC-32("The quick brown fox jumps over the lazy dog") *)
        Alcotest.(check int) "check value" 0x414FA339
          (Atm.Crc32.digest_bytes
             (Bytes.of_string "The quick brown fox jumps over the lazy dog")));
  ]

(* {1 Link-level train behaviour} *)

let link_tests =
  [
    Alcotest.test_case "train delivery matches per-cell last arrival" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let got = ref [] in
        let link =
          Atm.Link.create e ~rx:(fun c -> got := (Sim.Engine.now e, c) :: !got) ()
        in
        let train = Atm.Aal5.segment_train ~vci:1 (Bytes.create 100) in
        let n = Atm.Train.count train in
        Atm.Link.send_train link train;
        Sim.Engine.run e;
        (* Fan-out without a train receiver happens at the window's
           completion instant: last cell's serialisation end + prop. *)
        let expect = Sim.Time.add (Sim.Time.ns (n * 4240)) (us 5) in
        Alcotest.(check int) "all cells" n (List.length !got);
        List.iter
          (fun (at, _) -> Alcotest.(check int64) "arrival" expect at)
          !got);
    Alcotest.test_case "queue_depth integer math at slot boundaries" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let link = Atm.Link.create e ~rx:(fun _ -> ()) () in
        for _ = 1 to 10 do
          Atm.Link.send link (Atm.Cell.make_blank ~vci:1 ~last:true)
        done;
        (* 10 cells of 4240 ns committed at t=0. *)
        Alcotest.(check int) "all queued" 10 (Atm.Link.queue_depth link);
        Sim.Engine.run e ~until:(Sim.Time.ns 4240);
        Alcotest.(check int) "one slot gone" 9 (Atm.Link.queue_depth link);
        Sim.Engine.run e ~until:(Sim.Time.ns 4241);
        Alcotest.(check int) "mid-slot rounds up" 9 (Atm.Link.queue_depth link);
        Sim.Engine.run e ~until:(Sim.Time.ns (10 * 4240));
        Alcotest.(check int) "line idle" 0 (Atm.Link.queue_depth link));
    Alcotest.test_case "open-window accessors match per-cell counters" `Quick
      (fun () ->
        let per_cell_sent = ref (-1) in
        let counted path =
          let e = Sim.Engine.create () in
          let link = Atm.Link.create e ~rx:(fun _ -> ()) ~queue_cells:4 () in
          let snap = ref (-1) in
          (* Sample the counters mid-window, before delivery events. *)
          ignore
            (Sim.Engine.schedule_at e ~at:(Sim.Time.ns 1) (fun () ->
                 snap := Atm.Link.cells_sent link));
          let frame = Bytes.create 480 in
          if path then Atm.Link.send_train link (Atm.Aal5.segment_train ~vci:1 frame)
          else
            List.iter (Atm.Link.send link) (Atm.Aal5.segment ~vci:1 frame);
          Sim.Engine.run e;
          (!snap, Atm.Link.cells_sent link, Atm.Link.cells_dropped link)
        in
        let a = counted false and b = counted true in
        per_cell_sent := (fun (_, s, _) -> s) a;
        Alcotest.(check bool) "identical" true (a = b);
        Alcotest.(check int) "overflow happened" 4 !per_cell_sent);
    Alcotest.test_case "a cell-hop costs at most 6 minor words" `Quick
      (fun () ->
        (* Fifty 32 KB frames host -> switch -> host.  The train path
           books every cell's counters and queue-delay sample, so a
           boxed value per cell (a float, an int64, a closure) shows up
           here at once; the PDU buffers themselves are major-heap
           allocations and do not count. *)
        let e = Sim.Engine.create ~metrics:(Sim.Metrics.create ()) () in
        let net = Atm.Net.create e in
        Atm.Net.set_train_path net true;
        let a = Atm.Net.add_host net ~name:"a" in
        let b = Atm.Net.add_host net ~name:"b" in
        let s = Atm.Net.add_switch net ~name:"s" ~ports:2 in
        let frame_bytes = 32 * 1024 and frames = 50 in
        let cells = Atm.Aal5.frame_cells frame_bytes in
        Atm.Net.connect net ~queue_cells:(cells + 64) a s;
        Atm.Net.connect net ~queue_cells:(cells + 64) s b;
        let received = ref 0 in
        let rx, rx_train =
          Atm.Net.frame_rx_pair ~rx:(fun _ -> incr received) ()
        in
        let vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx ~rx_train in
        let payload = Bytes.make frame_bytes 'x' in
        let period = Sim.Time.ns ((cells * 4240) + 20_000) in
        let w0 = Gc.minor_words () in
        for i = 0 to frames - 1 do
          ignore
            (Sim.Engine.schedule e ~delay:(Sim.Time.mul period i) (fun () ->
                 Atm.Net.send_frame vc payload))
        done;
        Sim.Engine.run e;
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check int) "every frame arrived" frames !received;
        let per_hop = words /. Float.of_int (frames * cells * 2) in
        Alcotest.(check bool)
          (Printf.sprintf "%.1f minor words per cell-hop" per_hop)
          true (per_hop <= 6.0));
  ]

(* {1 The differential property}

   A two-switch network with a best-effort video-like flow, a reserved
   (priority) flow and bursty cross traffic over a shared bottleneck,
   plus an outage window and a wire-loss window injected mid-run.  The
   run is executed twice from identical seeds — train path on and off —
   and every externally visible outcome must be byte-identical:
   per-frame completion instants and payloads at every sink, and every
   link/switch counter. *)

type outcome = {
  frames : (string * int * int * int) list;  (* sink, t_ns, len, digest *)
  counters : (int * int * int) list;  (* per link: sent, dropped, lost *)
  switched : int list;
  errors : int;
  flow_events : (int * string * int) list;  (* ts_ns, name, flow; sorted *)
}

(* With [flows] set, the run records causal flow events (flow-only
   mode: no cell detail, so the train path stays engaged) — every sent
   frame gets a flow id, switches record per-hop steps, sinks record
   the end.  The differential property must keep holding, and both
   paths must record the same flow events. *)
let run_differential ?(flows = false) ~trains ~seed () =
  let trace = Sim.Trace.create ~unbounded:true ~enabled:flows () in
  if flows then begin
    Sim.Trace.set_flows trace true;
    Sim.Trace.set_cell_detail trace false
  end;
  let e = Sim.Engine.create ~trace () in
  let net = Atm.Net.create e in
  Atm.Net.set_train_path net trains;
  let a = Atm.Net.add_host net ~name:"a" in
  let c = Atm.Net.add_host net ~name:"c" in
  let b = Atm.Net.add_host net ~name:"b" in
  let d = Atm.Net.add_host net ~name:"d" in
  let s1 = Atm.Net.add_switch net ~name:"s1" ~ports:4 in
  let s2 = Atm.Net.add_switch net ~name:"s2" ~ports:4 in
  Atm.Net.connect net a s1;
  Atm.Net.connect net c s1;
  (* The shared bottleneck: a shallow queue so bursts overflow partway
     through a train. *)
  Atm.Net.connect net ~queue_cells:24 s1 s2;
  Atm.Net.connect net s2 b;
  Atm.Net.connect net s2 d;
  let frames = ref [] and errors = ref 0 in
  let sink name =
    Atm.Net.frame_rx_pair_flow
      ~rx:(fun ~flow p ->
        if flow >= 0 && Sim.Trace.flows_on trace then
          Sim.Trace.flow_end trace
            ~ts:(Sim.Engine.now e)
            ~sub:Sim.Subsystem.Atm ~cat:"hop" ~flow "sink";
        frames :=
          ( name,
            Sim.Time.to_ns (Sim.Engine.now e),
            Bytes.length p,
            Atm.Crc32.digest_bytes p )
          :: !frames)
      ~on_error:(fun err ->
        incr errors;
        let code = match err with
          | Atm.Aal5.Crc_mismatch -> -1
          | Atm.Aal5.Length_mismatch -> -2
          | Atm.Aal5.Too_long -> -3
        in
        frames :=
          (name, Sim.Time.to_ns (Sim.Engine.now e), code, 0) :: !frames)
      ()
  in
  let vc_of name ?reserve_bps ~src ~dst () =
    let rx, rx_train = sink name in
    Atm.Net.open_vc ?reserve_bps net ~src ~dst ~rx ~rx_train
  in
  let main_vc = vc_of "main" ~src:a ~dst:b () in
  let prio_vc = vc_of "prio" ~reserve_bps:10_000_000 ~src:c ~dst:b () in
  let cross_vc = vc_of "cross" ~src:c ~dst:d () in
  let rng = Sim.Rng.create ~seed () in
  let payload rng len = Bytes.init len (fun _ -> Char.chr (Sim.Rng.int rng 256)) in
  let send stream vc p =
    let flow =
      if not (Sim.Trace.flows_on trace) then Sim.Trace.no_flow
      else begin
        let f = Sim.Trace.alloc_flow trace in
        Sim.Trace.flow_start trace
          ~ts:(Sim.Engine.now e)
          ~sub:Sim.Subsystem.Atm ~cat:"hop"
          ~args:[ ("stream", Sim.Trace.Str stream) ]
          ~flow:f "send";
        f
      end
    in
    Atm.Net.send_frame ~flow vc p
  in
  (* Best-effort frames of random size at a jittered period. *)
  let wl_rng = Sim.Rng.split rng in
  let rec main_tick () =
    send "main" main_vc (payload wl_rng (1 + Sim.Rng.int wl_rng 6000));
    ignore
      (Sim.Engine.schedule e
         ~delay:(Sim.Time.us (100 + Sim.Rng.int wl_rng 400))
         main_tick)
  in
  main_tick ();
  (* A reserved flow that lands mid-window on the shared links. *)
  let prio_rng = Sim.Rng.split rng in
  let rec prio_tick () =
    send "prio" prio_vc (payload prio_rng (1 + Sim.Rng.int prio_rng 400));
    ignore (Sim.Engine.schedule e ~delay:(Sim.Time.us 531) prio_tick)
  in
  prio_tick ();
  (* Bursty cross traffic: several frames back to back, enough to
     overflow the bottleneck queue partway through a burst. *)
  let cross_rng = Sim.Rng.split rng in
  let rec cross_tick () =
    for _ = 1 to 1 + Sim.Rng.int cross_rng 4 do
      send "cross" cross_vc (payload cross_rng (1 + Sim.Rng.int cross_rng 12_000))
    done;
    ignore
      (Sim.Engine.schedule e
         ~delay:(Sim.Time.us (200 + Sim.Rng.int cross_rng 700))
         cross_tick)
  in
  cross_tick ();
  (* Fault windows: an outage on the bottleneck, then Bernoulli wire
     loss everywhere (which forces the per-cell fallback), then clean. *)
  let fault_rng = Sim.Rng.split rng in
  ignore
    (Sim.Engine.schedule_at e ~at:(ms 8) (fun () ->
         Atm.Net.set_link_down net s1 s2 true));
  ignore
    (Sim.Engine.schedule_at e ~at:(ms 10) (fun () ->
         Atm.Net.set_link_down net s1 s2 false));
  ignore
    (Sim.Engine.schedule_at e ~at:(ms 14) (fun () ->
         Atm.Net.inject_loss net ~rng:fault_rng 0.02));
  ignore
    (Sim.Engine.schedule_at e ~at:(ms 18) (fun () -> Atm.Net.clear_faults net));
  Sim.Engine.run e ~until:(ms 25);
  {
    frames = List.rev !frames;
    counters =
      List.map
        (fun l ->
          (Atm.Link.cells_sent l, Atm.Link.cells_dropped l, Atm.Link.cells_lost l))
        (Atm.Net.links net);
    switched = List.map Atm.Switch.cells_switched (Atm.Net.switches net);
    errors = !errors;
    flow_events =
      (* The train path commits hop steps ahead of time: record order
         differs between the two paths, and a truncated run retains a
         few steps timed past the horizon that the per-cell path never
         executes.  The equivalence claim is over events within the
         simulated horizon, as a sorted set. *)
      (let horizon = Sim.Time.to_ns (Sim.Engine.now e) in
       List.sort compare
         (List.filter_map
            (fun (ev : Sim.Trace.event) ->
              match ev.Sim.Trace.ev_phase with
              | Sim.Trace.Flow_start | Sim.Trace.Flow_step | Sim.Trace.Flow_end
                ->
                  let ts = Sim.Time.to_ns ev.Sim.Trace.ev_ts in
                  if ts > horizon then None
                  else Some (ts, ev.Sim.Trace.ev_name, ev.Sim.Trace.ev_flow)
              | Sim.Trace.Instant | Sim.Trace.Complete -> None)
            (Sim.Trace.events trace)));
  }

let differential_tests =
  [
    Alcotest.test_case "train and per-cell runs are byte-identical" `Quick
      (fun () ->
        List.iter
          (fun seed ->
            let fast = run_differential ~trains:true ~seed () in
            let slow = run_differential ~trains:false ~seed () in
            Alcotest.(check int)
              (Printf.sprintf "seed %Ld: frame count" seed)
              (List.length slow.frames) (List.length fast.frames);
            List.iter2
              (fun sf ff ->
                if sf <> ff then
                  let name, t, len, _ = sf and name', t', len', _ = ff in
                  Alcotest.failf
                    "seed %Ld: frame diverged: %s@%dns len=%d vs %s@%dns len=%d"
                    seed name t len name' t' len')
              slow.frames fast.frames;
            Alcotest.(check bool)
              (Printf.sprintf "seed %Ld: counters" seed)
              true (slow = fast);
            (* The scenario must actually exercise drops and losses,
               or the property is vacuous. *)
            let dropped = List.fold_left (fun acc (_, d, _) -> acc + d) 0 slow.counters in
            let lost = List.fold_left (fun acc (_, _, l) -> acc + l) 0 slow.counters in
            Alcotest.(check bool) "queue pressure exercised" true (dropped > 0);
            Alcotest.(check bool) "faults exercised" true (lost > 0))
          [ 1L; 42L; 1994L ]);
    Alcotest.test_case
      "flow tracing on: still byte-identical, and both paths record the \
       same flow events"
      `Quick
      (fun () ->
        List.iter
          (fun seed ->
            let fast = run_differential ~flows:true ~trains:true ~seed () in
            let slow = run_differential ~flows:true ~trains:false ~seed () in
            (* The differential property holds with flow tracing on... *)
            Alcotest.(check bool)
              (Printf.sprintf "seed %Ld: outcomes identical" seed)
              true
              (slow.frames = fast.frames
              && slow.counters = fast.counters
              && slow.switched = fast.switched
              && slow.errors = fast.errors);
            (* ...the recorded flow events agree between the paths... *)
            Alcotest.(check int)
              (Printf.sprintf "seed %Ld: flow event count" seed)
              (List.length slow.flow_events)
              (List.length fast.flow_events);
            Alcotest.(check bool)
              (Printf.sprintf "seed %Ld: flow events identical" seed)
              true
              (slow.flow_events = fast.flow_events);
            (* ...and the capture is not vacuous: sends, per-switch hop
               steps and sink ends all appear. *)
            let count name =
              List.length
                (List.filter (fun (_, n, _) -> n = name) fast.flow_events)
            in
            List.iter
              (fun name ->
                Alcotest.(check bool)
                  (Printf.sprintf "seed %Ld: has %s events" seed name)
                  true
                  (count name > 0))
              [ "send"; "sw:s1"; "sw:s2"; "sink" ];
            (* Tracing must not perturb the simulation: the traced run's
               outcome equals the untraced one's. *)
            let untraced = run_differential ~trains:true ~seed () in
            Alcotest.(check bool)
              (Printf.sprintf "seed %Ld: tracing is outcome-neutral" seed)
              true
              (untraced.frames = fast.frames
              && untraced.counters = fast.counters
              && untraced.switched = fast.switched))
          [ 1L; 42L; 1994L ]);
  ]

let () =
  Alcotest.run "train"
    [
      ("aal5-train", train_aal5_tests);
      ("crc32-kat", crc_tests);
      ("link-train", link_tests);
      ("differential", differential_tests);
    ]
