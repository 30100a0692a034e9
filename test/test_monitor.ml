(* The SLO monitor: spec validation, the burn-rate state machine
   (pending -> firing -> resolved, silent pending clears, hysteresis
   against flapping), windowed percentile sources, roll alignment at
   shard barriers (byte-identical reports across domain counts), and
   the sorted-dump guarantee of the metrics registry. *)

let ms = Sim.Time.ms

let fresh_engine () =
  Sim.Engine.create
    ~trace:(Sim.Trace.create ~enabled:false ())
    ~metrics:(Sim.Metrics.create ()) ()

(* Keep the engine alive (monitor rolls are daemon events) with a
   no-op tick chain every millisecond up to [until]. *)
let keep_alive e ~until =
  let rec tick at =
    if Sim.Time.(at < until) then
      ignore
        (Sim.Engine.schedule_at e ~at (fun () ->
             tick (Sim.Time.add at (ms 1))))
  in
  tick (ms 1)

let level_slo ?(threshold = 10.0) () =
  Sim.Slo.make ~sub:Sim.Subsystem.Sim ~window:(ms 10) ~fast_windows:1
    ~slow_windows:2 ~hysteresis:0.5 ~threshold "test.level"

let the_alert report =
  match report.Sim.Monitor.rep_alerts with
  | [ a ] -> a
  | l -> Alcotest.failf "expected 1 alert, got %d" (List.length l)

let transition_summary a =
  List.map
    (fun tr ->
      (Sim.Time.to_ms_f tr.Sim.Monitor.tr_at, tr.Sim.Monitor.tr_event))
    a.Sim.Monitor.r_transitions

let slo_tests =
  [
    Alcotest.test_case "spec validation" `Quick (fun () ->
        let bad f = Alcotest.check_raises "rejects" (Invalid_argument "") f in
        let bad f =
          ignore bad;
          match f () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument"
        in
        bad (fun () -> Sim.Slo.make ~sub:Sim.Subsystem.Sim ~threshold:1.0 "");
        bad (fun () ->
            Sim.Slo.make ~sub:Sim.Subsystem.Sim ~window:Sim.Time.zero
              ~threshold:1.0 "w");
        bad (fun () ->
            Sim.Slo.make ~sub:Sim.Subsystem.Sim ~fast_windows:3 ~slow_windows:2
              ~threshold:1.0 "w");
        bad (fun () ->
            (* resolve threshold on the unhealthy side of the fire one *)
            Sim.Slo.make ~sub:Sim.Subsystem.Sim ~hysteresis:1.5 ~threshold:1.0
              "w");
        let s =
          Sim.Slo.make ~sub:Sim.Subsystem.Sim ~hysteresis:0.5 ~threshold:10.0
            "ok"
        in
        Alcotest.(check (float 1e-9))
          "resolve" 5.0
          (Sim.Slo.resolve_threshold s));
    Alcotest.test_case "strict breach: the boundary is healthy" `Quick
      (fun () ->
        let s = Sim.Slo.make ~sub:Sim.Subsystem.Sim ~threshold:10.0 "b" in
        Alcotest.(check bool) "at threshold" false (Sim.Slo.violates s 10.0);
        Alcotest.(check bool) "above" true (Sim.Slo.violates s 10.001));
  ]

(* Drive a Level source through a scripted signal and check the alert
   lifecycle against the exact roll instants. *)
let lifecycle_tests =
  [
    Alcotest.test_case "pending -> firing -> resolved" `Quick (fun () ->
        let e = fresh_engine () in
        let signal = ref 0.0 in
        let m = Sim.Monitor.create e in
        Sim.Monitor.register m (level_slo ())
          (Sim.Monitor.Level (fun () -> !signal));
        ignore
          (Sim.Engine.schedule_at e ~at:(ms 15) (fun () -> signal := 100.0));
        ignore (Sim.Engine.schedule_at e ~at:(ms 55) (fun () -> signal := 0.0));
        keep_alive e ~until:(ms 95);
        Sim.Engine.run e ~until:(ms 95);
        let a = the_alert (Sim.Monitor.report [ m ]) in
        Alcotest.(check string)
          "final state" "ok"
          (Sim.Monitor.state_string a.Sim.Monitor.r_state);
        Alcotest.(check int) "fired" 1 a.Sim.Monitor.r_fired;
        Alcotest.(check int) "resolved" 1 a.Sim.Monitor.r_resolved;
        (* Breaches at rolls 20..50; slow (2-window) worst drains by 70,
           and a streak of 2 recovered rolls lands the resolution at the
           80 ms roll. *)
        Alcotest.(check (list (pair (float 1e-6) string)))
          "transitions"
          [ (20.0, "pending"); (30.0, "firing"); (80.0, "resolved") ]
          (transition_summary a);
        (* The lifecycle counters live in the engine's registry. *)
        let reg = Sim.Engine.metrics e in
        let c n =
          Sim.Metrics.value (Sim.Metrics.counter reg ~sub:Sim.Subsystem.Sim n)
        in
        Alcotest.(check int) "pending ctr" 1 (c "monitor.pending");
        Alcotest.(check int) "firing ctr" 1 (c "monitor.firing");
        Alcotest.(check int) "resolved ctr" 1 (c "monitor.resolved"));
    Alcotest.test_case "one-roll blip: pending clears silently" `Quick
      (fun () ->
        let e = fresh_engine () in
        let signal = ref 0.0 in
        let m = Sim.Monitor.create e in
        Sim.Monitor.register m (level_slo ())
          (Sim.Monitor.Level (fun () -> !signal));
        ignore
          (Sim.Engine.schedule_at e ~at:(ms 15) (fun () -> signal := 100.0));
        ignore (Sim.Engine.schedule_at e ~at:(ms 25) (fun () -> signal := 0.0));
        keep_alive e ~until:(ms 60);
        Sim.Engine.run e ~until:(ms 60);
        let a = the_alert (Sim.Monitor.report [ m ]) in
        Alcotest.(check string)
          "state" "ok"
          (Sim.Monitor.state_string a.Sim.Monitor.r_state);
        Alcotest.(check int) "never fired" 0 a.Sim.Monitor.r_fired;
        Alcotest.(check (list (pair (float 1e-6) string)))
          "only the pending edge" [ (20.0, "pending") ]
          (transition_summary a));
    Alcotest.test_case "boundary-riding signal never fires" `Quick (fun () ->
        let e = fresh_engine () in
        let m = Sim.Monitor.create e in
        (* Exactly at the threshold, forever: strict violation keeps it
           healthy, so no flapping on a signal that rides the line. *)
        Sim.Monitor.register m (level_slo ())
          (Sim.Monitor.Level (fun () -> 10.0));
        keep_alive e ~until:(ms 100);
        Sim.Engine.run e ~until:(ms 100);
        let a = the_alert (Sim.Monitor.report [ m ]) in
        Alcotest.(check int) "no breaches" 0 a.Sim.Monitor.r_breaches;
        Alcotest.(check (list (pair (float 1e-6) string)))
          "no transitions" [] (transition_summary a));
    Alcotest.test_case "hysteresis holds a half-recovered alert" `Quick
      (fun () ->
        let e = fresh_engine () in
        let signal = ref 100.0 in
        let m = Sim.Monitor.create e in
        Sim.Monitor.register m (level_slo ())
          (Sim.Monitor.Level (fun () -> !signal));
        (* Recover only into the hysteresis band (5 < 8 <= 10): the fast
           aggregate stops breaching but the slow aggregate never
           reaches the resolve threshold, so the alert stays firing
           instead of flapping. *)
        ignore (Sim.Engine.schedule_at e ~at:(ms 45) (fun () -> signal := 8.0));
        keep_alive e ~until:(ms 120);
        Sim.Engine.run e ~until:(ms 120);
        let a = the_alert (Sim.Monitor.report [ m ]) in
        Alcotest.(check string)
          "still firing" "firing"
          (Sim.Monitor.state_string a.Sim.Monitor.r_state);
        Alcotest.(check int) "no resolution" 0 a.Sim.Monitor.r_resolved);
    Alcotest.test_case "ratio with an idle denominator is healthy" `Quick
      (fun () ->
        let e = fresh_engine () in
        let reg = Sim.Engine.metrics e in
        let num = Sim.Metrics.counter reg ~sub:Sim.Subsystem.Sim "t.num" in
        let den = Sim.Metrics.counter reg ~sub:Sim.Subsystem.Sim "t.den" in
        let m = Sim.Monitor.create e in
        Sim.Monitor.register m
          (Sim.Slo.make ~sub:Sim.Subsystem.Sim ~window:(ms 10) ~threshold:0.01
             "test.ratio")
          (Sim.Monitor.counter_ratio ~num ~den);
        keep_alive e ~until:(ms 50);
        Sim.Engine.run e ~until:(ms 50);
        let a = the_alert (Sim.Monitor.report [ m ]) in
        Alcotest.(check int) "no breaches" 0 a.Sim.Monitor.r_breaches;
        Alcotest.(check bool) "no data" true (a.Sim.Monitor.r_last = None));
    Alcotest.test_case "windowed source evaluates the span percentile" `Quick
      (fun () ->
        let e = fresh_engine () in
        let reg = Sim.Engine.metrics e in
        let obs = Sim.Metrics.observer reg ~sub:Sim.Subsystem.Sim "t.win" in
        let m = Sim.Monitor.create e in
        Sim.Monitor.register m
          (level_slo ~threshold:1000.0 ())
          (Sim.Monitor.windowed obs);
        ignore
          (Sim.Engine.schedule_at e ~at:(ms 5) (fun () ->
               for v = 1 to 100 do
                 Sim.Metrics.sample obs (float_of_int v)
               done));
        keep_alive e ~until:(ms 15);
        Sim.Engine.run e ~until:(ms 15);
        let a = the_alert (Sim.Monitor.report [ m ]) in
        (* p99 of 1..100 with linear interpolation: rank 98.01. *)
        match a.Sim.Monitor.r_last with
        | Some v -> Alcotest.(check (float 1e-6)) "p99" 99.01 v
        | None -> Alcotest.fail "no data at the first roll");
  ]

(* {1 Shard alignment} *)

(* Two shards, each with its own monitor on its own engine: rolls are
   pinned to absolute multiples of the window, so they land identically
   however epochs are spread over domains.  Each shard counts pings the
   other shard posts across the barrier. *)
let shard_rig ~domains =
  let shard =
    Sim.Shard.create ~lookahead:(ms 5) ~shards:2 (Sim.Ctx.create ~domains ())
  in
  let monitors =
    Array.init 2 (fun i ->
        let e = Sim.Shard.engine shard i in
        let reg = Sim.Engine.metrics e in
        let pings = Sim.Metrics.counter reg ~sub:Sim.Subsystem.Sim "t.pings" in
        let m = Sim.Monitor.create e in
        Sim.Monitor.register m
          (Sim.Slo.make ~sub:Sim.Subsystem.Sim ~window:(ms 10)
             ~fast_windows:1 ~slow_windows:2 ~threshold:2000.0
             (Printf.sprintf "shard%d.ping_rate" i))
          (Sim.Monitor.counter_rate pings);
        Sim.Monitor.register m
          (Sim.Slo.make ~sub:Sim.Subsystem.Sim ~window:(ms 10)
             ~fast_windows:1 ~slow_windows:2 ~threshold:1.0e6
             (Printf.sprintf "shard%d.queue_depth" i))
          (Sim.Monitor.gauge_level
             (Sim.Metrics.gauge reg ~sub:Sim.Subsystem.Sim
                "engine.queue_depth"));
        (m, pings))
  in
  Array.iteri
    (fun i (_, pings) ->
      let e = Sim.Shard.engine shard i in
      let rec tick at =
        if Sim.Time.(at < ms 60) then
          ignore
            (Sim.Engine.schedule_at e ~at (fun () ->
                 Sim.Metrics.incr pings;
                 let peer = 1 - i in
                 Sim.Shard.post shard ~src:i ~dst:peer
                   ~at:(Sim.Time.add (Sim.Engine.now e) (ms 5))
                   (fun () ->
                     let _, (peer_pings : Sim.Metrics.counter) =
                       monitors.(peer)
                     in
                     Sim.Metrics.incr peer_pings);
                 tick (Sim.Time.add at (ms 1))))
      in
      tick (ms 1))
    monitors;
  Sim.Shard.run ~until:(ms 60) shard;
  Sim.Monitor.report ~name:"shards"
    (Array.to_list (Array.map fst monitors))

let render report = Format.asprintf "%a" Sim.Monitor.pp report
let snapshot reg = Sim.Json.to_string (Sim.Metrics.snapshot reg)

let shard_tests =
  [
    Alcotest.test_case "rolls align at barriers across domain counts"
      `Quick (fun () ->
        let r1 = render (shard_rig ~domains:1) in
        let r2 = render (shard_rig ~domains:2) in
        Alcotest.(check string) "domains 1 = 2" r1 r2;
        (* And the JSON export is byte-identical too. *)
        let j1 =
          Sim.Json.to_string (Sim.Monitor.to_json (shard_rig ~domains:1))
        in
        let j2 =
          Sim.Json.to_string (Sim.Monitor.to_json (shard_rig ~domains:2))
        in
        Alcotest.(check string) "json" j1 j2);
    Alcotest.test_case "fabric health scenario is domain-independent"
      `Quick (fun () ->
        let at domains =
          let ctx = Sim.Ctx.create ~domains () in
          let report =
            render (Experiments.Health_scenarios.run ctx "fabric")
          in
          (report, snapshot (Sim.Ctx.metrics ctx))
        in
        let r1, m1 = at 1 and r2, m2 = at 2 in
        Alcotest.(check string) "domains 1 = 2" r1 r2;
        Alcotest.(check bool) "metrics recorded" true
          (m1 <> snapshot (Sim.Metrics.create ()));
        Alcotest.(check string) "metrics, domains 1 = 2" m1 m2);
  ]

(* {1 Registry dump order} *)

let order_tests =
  [
    Alcotest.test_case "snapshot and pp are sorted, not insertion order"
      `Quick (fun () ->
        let reg = Sim.Metrics.create () in
        (* Register in an order that disagrees with the sorted one, and
           across enough entries that hashtable iteration order would
           almost surely differ. *)
        ignore (Sim.Metrics.counter reg ~sub:Sim.Subsystem.Rpc "zz.last");
        ignore (Sim.Metrics.gauge reg ~sub:Sim.Subsystem.Atm "mm.mid");
        ignore (Sim.Metrics.observer reg ~sub:Sim.Subsystem.Atm "aa.first");
        ignore (Sim.Metrics.dist reg ~sub:Sim.Subsystem.Nemesis "qq.dist");
        ignore (Sim.Metrics.counter reg ~sub:Sim.Subsystem.Atm "zz.atm");
        let dump = Sim.Json.to_string (Sim.Metrics.snapshot reg) in
        let pos name =
          let rec find i =
            if i + String.length name > String.length dump then
              Alcotest.failf "%s not in dump" name
            else if String.sub dump i (String.length name) = name then i
            else find (i + 1)
          in
          find 0
        in
        (* Subsystems sort alphabetically, names within a subsystem. *)
        let order =
          [ "aa.first"; "mm.mid"; "zz.atm"; "qq.dist"; "zz.last" ]
        in
        let positions = List.map pos order in
        let rec ascending = function
          | a :: (b :: _ as rest) -> a < b && ascending rest
          | _ -> true
        in
        Alcotest.(check bool) "ascending" true (ascending positions);
        (* Same dump twice: byte-identical. *)
        Alcotest.(check string)
          "stable" dump
          (Sim.Json.to_string (Sim.Metrics.snapshot reg)));
  ]

let () =
  Alcotest.run "monitor"
    [
      ("slo", slo_tests);
      ("lifecycle", lifecycle_tests);
      ("shards", shard_tests);
      ("registry order", order_tests);
    ]
