(* The sharded parallel runner: mailbox FIFO across the spill path,
   epoch-barrier lookahead arithmetic (the event exactly at the horizon
   is the interesting one), the conservative [post] contract, and the
   differential property the whole design exists for — multi-seed
   scenarios are byte-identical at every domain count. *)

let us = Sim.Time.us
let ms = Sim.Time.ms

(* {1 Mailbox} *)

let mailbox_tests =
  [
    Alcotest.test_case "FIFO within the ring" `Quick (fun () ->
        let m = Sim.Mailbox.create ~capacity:8 () in
        for i = 0 to 5 do
          Sim.Mailbox.push m i
        done;
        Alcotest.(check int) "length" 6 (Sim.Mailbox.length m);
        for i = 0 to 5 do
          Alcotest.(check (option int)) "pop" (Some i) (Sim.Mailbox.pop m)
        done;
        Alcotest.(check bool) "empty" true (Sim.Mailbox.is_empty m);
        Alcotest.(check (option int)) "drained" None (Sim.Mailbox.pop m));
    Alcotest.test_case "wraparound keeps order" `Quick (fun () ->
        let m = Sim.Mailbox.create ~capacity:4 () in
        (* Interleave pushes and pops so head/tail lap the ring. *)
        let next = ref 0 and expect = ref 0 in
        for _round = 1 to 10 do
          for _ = 1 to 3 do
            Sim.Mailbox.push m !next;
            incr next
          done;
          for _ = 1 to 3 do
            Alcotest.(check (option int)) "pop" (Some !expect)
              (Sim.Mailbox.pop m);
            incr expect
          done
        done;
        Alcotest.(check int) "no spill needed" 0 (Sim.Mailbox.overflows m));
    Alcotest.test_case "overflow spills without losing order" `Quick (fun () ->
        let m = Sim.Mailbox.create ~capacity:4 () in
        for i = 0 to 19 do
          Sim.Mailbox.push m i
        done;
        Alcotest.(check int) "length counts spill" 20 (Sim.Mailbox.length m);
        Alcotest.(check bool) "spilled" true (Sim.Mailbox.overflows m > 0);
        (* Drain below ring capacity, push more (these must queue behind
           the spill, not jump into the freed ring slots), drain all. *)
        for i = 0 to 9 do
          Alcotest.(check (option int)) "pop" (Some i) (Sim.Mailbox.pop m)
        done;
        for i = 20 to 24 do
          Sim.Mailbox.push m i
        done;
        for i = 10 to 24 do
          Alcotest.(check (option int)) "pop after refill" (Some i)
            (Sim.Mailbox.pop m)
        done;
        Alcotest.(check bool) "empty" true (Sim.Mailbox.is_empty m));
    Alcotest.test_case "capacity rounds up to a power of two" `Quick (fun () ->
        let m = Sim.Mailbox.create ~capacity:5 () in
        Alcotest.(check int) "capacity" 8 (Sim.Mailbox.capacity m));
  ]

(* {1 Par} *)

let par_tests =
  [
    Alcotest.test_case "map returns results in input order" `Quick (fun () ->
        let tasks = Array.init 13 (fun i () -> i * i) in
        let workers = 4 in
        let out = Sim.Par.map ~workers tasks in
        Array.iteri
          (fun i v -> Alcotest.(check int) "slot" (i * i) v)
          out);
    Alcotest.test_case "map with more workers than tasks" `Quick (fun () ->
        let workers = 8 in
        let out = Sim.Par.map ~workers [| (fun () -> "a"); (fun () -> "b") |] in
        Alcotest.(check (array string)) "results" [| "a"; "b" |] out);
    Alcotest.test_case "map re-raises the lowest failing task" `Quick (fun () ->
        let tasks =
          [|
            (fun () -> 0);
            (fun () -> failwith "task-1");
            (fun () -> failwith "task-2");
          |]
        in
        let workers = 2 in
        match Sim.Par.map ~workers tasks with
        | _ -> Alcotest.fail "expected an exception"
        | exception Failure m -> Alcotest.(check string) "which" "task-1" m);
  ]

(* {1 Shard: the conservative contract} *)

let shard_unit_tests =
  [
    Alcotest.test_case "post below the lookahead horizon is refused" `Quick
      (fun () ->
        let t =
          Sim.Shard.create ~lookahead:(ms 1) ~shards:2 (Sim.Ctx.create ())
        in
        match Sim.Shard.post t ~src:0 ~dst:1 ~at:(us 999) (fun () -> ()) with
        | () -> Alcotest.fail "post under the horizon must raise"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "message exactly at the epoch horizon is on time" `Quick
      (fun () ->
        (* Epoch 1 runs both shards to horizon - 1 = lookahead - 1; the
           message posted at exactly [lookahead] must arrive in a later
           epoch at exactly that instant — neither early (conservatism)
           nor lost (the off-by-one this test pins down). *)
        let lookahead = ms 1 in
        let t = Sim.Shard.create ~lookahead ~shards:2 (Sim.Ctx.create ()) in
        let log = ref [] in
        let e0 = Sim.Shard.engine t 0 and e1 = Sim.Shard.engine t 1 in
        ignore
          (Sim.Engine.schedule e0 ~delay:Sim.Time.zero (fun () ->
               Sim.Shard.post t ~src:0 ~dst:1 ~at:lookahead (fun () ->
                   log :=
                     ("msg", Sim.Time.to_ns (Sim.Engine.now e1)) :: !log)));
        (* A local event at the very same instant, queued at setup: the
           tie must break local-before-message. *)
        ignore
          (Sim.Engine.schedule e1 ~delay:lookahead (fun () ->
               log := ("local", Sim.Time.to_ns (Sim.Engine.now e1)) :: !log));
        Sim.Shard.run t;
        let expected_ns = Sim.Time.to_ns lookahead in
        Alcotest.(check (list (pair string int)))
          "both fire at the horizon, local first"
          [ ("local", expected_ns); ("msg", expected_ns) ]
          (List.rev !log);
        Alcotest.(check bool) "took more than one epoch" true
          (Sim.Shard.epochs t >= 2);
        Alcotest.(check int) "one message" 1 (Sim.Shard.messages t));
    Alcotest.test_case "same-instant messages order by (src, seq)" `Quick
      (fun () ->
        let lookahead = ms 1 in
        let t = Sim.Shard.create ~lookahead ~shards:3 (Sim.Ctx.create ()) in
        let log = ref [] in
        let arrive tag () = log := tag :: !log in
        (* Shards 1 and 2 each post two messages to shard 0 for the same
           instant.  Whatever order the workers run in, delivery must
           sort (src shard, then posting sequence). *)
        let at = ms 2 in
        let sender src tag1 tag2 () =
          Sim.Shard.post t ~src ~dst:0 ~at (arrive tag1);
          Sim.Shard.post t ~src ~dst:0 ~at (arrive tag2)
        in
        ignore
          (Sim.Engine.schedule (Sim.Shard.engine t 2) ~delay:Sim.Time.zero
             (sender 2 "2a" "2b"));
        ignore
          (Sim.Engine.schedule (Sim.Shard.engine t 1) ~delay:Sim.Time.zero
             (sender 1 "1a" "1b"));
        Sim.Shard.run t;
        Alcotest.(check (list string))
          "delivery order" [ "1a"; "1b"; "2a"; "2b" ] (List.rev !log));
    Alcotest.test_case "until is inclusive and aligns every clock" `Quick
      (fun () ->
        let t =
          Sim.Shard.create ~lookahead:(us 10) ~shards:2 (Sim.Ctx.create ())
        in
        let hits = ref 0 in
        let e0 = Sim.Shard.engine t 0 in
        ignore (Sim.Engine.schedule e0 ~delay:(ms 5) (fun () -> incr hits));
        ignore (Sim.Engine.schedule e0 ~delay:(ms 7) (fun () -> incr hits));
        Sim.Shard.run ~until:(ms 5) t;
        Alcotest.(check int) "event at until ran" 1 !hits;
        Alcotest.(check (list int))
          "clocks at until"
          [ Sim.Time.to_ns (ms 5); Sim.Time.to_ns (ms 5) ]
          [
            Sim.Time.to_ns (Sim.Engine.now (Sim.Shard.engine t 0));
            Sim.Time.to_ns (Sim.Engine.now (Sim.Shard.engine t 1));
          ]);
    Alcotest.test_case "single shard delegates to the plain engine" `Quick
      (fun () ->
        (* Same workload on a 1-shard runner and on a bare engine: the
           event log must match exactly (this is the --domains 1
           byte-identity discipline in miniature). *)
        let workload e log =
          let rec tick n () =
            log := (n, Sim.Time.to_ns (Sim.Engine.now e)) :: !log;
            if n < 20 then
              ignore (Sim.Engine.schedule e ~delay:(us (7 + (n mod 3))) (tick (n + 1)))
          in
          ignore (Sim.Engine.schedule e ~delay:(us 1) (tick 0))
        in
        let log_plain = ref [] in
        let plain =
          Sim.Engine.create
            ~trace:(Sim.Trace.create ~enabled:false ())
            ~metrics:(Sim.Metrics.create ()) ()
        in
        workload plain log_plain;
        Sim.Engine.run plain;
        let t = Sim.Shard.create ~shards:1 (Sim.Ctx.create ()) in
        let log_shard = ref [] in
        workload (Sim.Shard.engine t 0) log_shard;
        Sim.Shard.run t;
        Alcotest.(check (list (pair int int)))
          "identical logs" (List.rev !log_plain) (List.rev !log_shard);
        Alcotest.(check int) "no barrier epochs" 0 (Sim.Shard.epochs t));
    Alcotest.test_case "self-post on a single shard still works" `Quick
      (fun () ->
        let t =
          Sim.Shard.create ~lookahead:(us 5) ~shards:1 (Sim.Ctx.create ())
        in
        let got = ref (-1) in
        let e = Sim.Shard.engine t 0 in
        ignore
          (Sim.Engine.schedule e ~delay:(us 1) (fun () ->
               Sim.Shard.post t ~src:0 ~dst:0 ~at:(us 6) (fun () ->
                   got := Sim.Time.to_ns (Sim.Engine.now e))));
        Sim.Shard.run t;
        Alcotest.(check int) "delivered at its instant" 6_000 !got);
  ]

(* {1 The differential property: domain count never shows} *)

let render t = Format.asprintf "%a" Experiments.Table.pp t
let snapshot reg = Sim.Json.to_string (Sim.Metrics.snapshot reg)

let differential_tests =
  let domain_counts = [ 1; 2; 4 ] in
  [
    Alcotest.test_case "fabric is byte-identical across domain counts"
      `Quick (fun () ->
        List.iter
          (fun seed ->
            let runs =
              List.map
                (fun domains ->
                  let ctx = Sim.Ctx.create ~domains () in
                  let table =
                    render (Experiments.Fabric.run ~quick:true ~seed ctx)
                  in
                  let snap = snapshot (Sim.Ctx.metrics ctx) in
                  Alcotest.(check bool) "metrics recorded" true
                    (snap <> snapshot (Sim.Metrics.create ()));
                  (table, snap))
                domain_counts
            in
            match runs with
            | [] -> assert false
            | reference :: rest ->
                List.iteri
                  (fun i t ->
                    Alcotest.(check (pair string string))
                      (Printf.sprintf "seed %d, domains %d vs 1" seed
                         (List.nth domain_counts (i + 1)))
                      reference t)
                  rest)
          [ 1; 2; 3 ]);
    Alcotest.test_case "fabric actually crossed shards" `Quick (fun () ->
        let o =
          Experiments.Fabric.execute (Sim.Ctx.create ())
            (Experiments.Fabric.default_params ~quick:true)
        in
        Alcotest.(check bool) "epochs" true (o.epochs > 1);
        Alcotest.(check bool) "messages" true (o.messages > 0);
        Alcotest.(check bool)
          "remote frames landed" true
          (Array.fold_left ( + ) 0 o.remote_frames > 0));
  ]

let () =
  Alcotest.run "shard"
    [
      ("mailbox", mailbox_tests);
      ("par", par_tests);
      ("shard", shard_unit_tests);
      ("differential", differential_tests);
    ]
