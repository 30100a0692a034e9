(* Tests for the Nemesis kernel: domains, scheduling, events, KPS, VM. *)

let ms = Sim.Time.ms
let us = Sim.Time.us
let time = Alcotest.testable Sim.Time.pp ( = )

let rig ?(policy = Nemesis.Policy.atropos ()) ?(ctx = us 10) () =
  let e = Sim.Engine.create () in
  let k = Nemesis.Kernel.create e ~policy ~ctx_switch_cost:ctx () in
  (e, k)

let job ?label ?deadline ?on_complete e ~work =
  Nemesis.Job.make ?label ?deadline ?on_complete ~work
    ~created:(Sim.Engine.now e) ()

let kernel_tests =
  [
    Alcotest.test_case "a job completes after work + switch cost" `Quick
      (fun () ->
        let e, k = rig () in
        let d = Nemesis.Domain.create ~name:"d" () in
        Nemesis.Kernel.add_domain k d;
        let done_at = ref Sim.Time.zero in
        Nemesis.Kernel.submit k d
          (job e ~work:(ms 1) ~on_complete:(fun () -> done_at := Sim.Engine.now e));
        Sim.Engine.run e ~until:(ms 100);
        Alcotest.check time "completion" (Sim.Time.add (ms 1) (us 10)) !done_at;
        Alcotest.(check int) "completed" 1 (Nemesis.Domain.jobs_completed d);
        Alcotest.check time "charged" (Sim.Time.add (ms 1) (us 10))
          (Nemesis.Domain.cpu_used d));
    Alcotest.test_case "sequential jobs in one domain do not re-pay the switch"
      `Quick (fun () ->
        let e, k = rig () in
        let d =
          Nemesis.Domain.create ~name:"d" ~period:(ms 100) ~slice:(ms 50) ()
        in
        Nemesis.Kernel.add_domain k d;
        let done_at = ref Sim.Time.zero in
        Nemesis.Kernel.submit k d (job e ~work:(ms 1));
        Nemesis.Kernel.submit k d
          (job e ~work:(ms 1) ~on_complete:(fun () -> done_at := Sim.Engine.now e));
        Sim.Engine.run e ~until:(ms 100);
        Alcotest.check time "second completion" (Sim.Time.add (ms 2) (us 10))
          !done_at;
        Alcotest.(check int) "switches" 1 (Nemesis.Kernel.context_switches k));
    Alcotest.test_case "idle time is accounted" `Quick (fun () ->
        let e, k = rig () in
        let d = Nemesis.Domain.create ~name:"d" () in
        Nemesis.Kernel.add_domain k d;
        Nemesis.Kernel.submit k d (job e ~work:(ms 2));
        Sim.Engine.run e ~until:(ms 10);
        let idle = Nemesis.Kernel.idle_time k in
        (* ~8ms of the 10ms window is idle (minus the 10us switch) *)
        Alcotest.(check bool) "about 8ms idle" true
          (Sim.Time.to_ms_f idle > 7.9 && Sim.Time.to_ms_f idle < 8.1));
    Alcotest.test_case "domain runs within its guaranteed slice only" `Quick
      (fun () ->
        let e, k = rig () in
        (* 2ms per 10ms period, no extra time; one big job. *)
        let d =
          Nemesis.Domain.create ~name:"d" ~period:(ms 10) ~slice:(ms 2)
            ~extra:false ()
        in
        Nemesis.Kernel.add_domain k d;
        Nemesis.Kernel.submit k d (job e ~work:(ms 20));
        Sim.Engine.run e ~until:(ms 100);
        (* 10 periods x 2ms = 20ms of guarantee: the job (20ms + overhead)
           cannot quite finish, and usage must not exceed the guarantee. *)
        let used = Sim.Time.to_ms_f (Nemesis.Domain.cpu_used d) in
        Alcotest.(check bool)
          (Printf.sprintf "used %.2fms <= 20ms" used)
          true (used <= 20.0 +. 0.01);
        Alcotest.(check bool) "ran at all" true (used > 15.0));
    Alcotest.test_case "overloaded domains split CPU by their shares" `Quick
      (fun () ->
        let e, k = rig () in
        let a =
          Nemesis.Domain.create ~name:"a" ~period:(ms 10) ~slice:(ms 6)
            ~extra:false ()
        in
        let b =
          Nemesis.Domain.create ~name:"b" ~period:(ms 10) ~slice:(ms 3)
            ~extra:false ()
        in
        Nemesis.Kernel.add_domain k a;
        Nemesis.Kernel.add_domain k b;
        Nemesis.Kernel.submit k a (job e ~work:(Sim.Time.sec 1));
        Nemesis.Kernel.submit k b (job e ~work:(Sim.Time.sec 1));
        Sim.Engine.run e ~until:(Sim.Time.ms 500);
        let ua = Sim.Time.to_ms_f (Nemesis.Domain.cpu_used a)
        and ub = Sim.Time.to_ms_f (Nemesis.Domain.cpu_used b) in
        Alcotest.(check bool)
          (Printf.sprintf "a=%.1f b=%.1f ratio 2:1" ua ub)
          true
          (ua /. ub > 1.8 && ua /. ub < 2.2));
    Alcotest.test_case "slack goes to extra-time domains" `Quick (fun () ->
        let e, k = rig () in
        let a =
          Nemesis.Domain.create ~name:"a" ~period:(ms 10) ~slice:(ms 2)
            ~extra:true ()
        in
        Nemesis.Kernel.add_domain k a;
        Nemesis.Kernel.submit k a (job e ~work:(ms 80));
        Sim.Engine.run e ~until:(ms 100);
        (* Guarantee alone is 20ms; with slack it should finish all 80ms. *)
        Alcotest.(check int) "completed" 1 (Nemesis.Domain.jobs_completed a));
    Alcotest.test_case "earliest deadline runs first within guarantees" `Quick
      (fun () ->
        let e, k = rig ~ctx:Sim.Time.zero () in
        let fast =
          Nemesis.Domain.create ~name:"fast" ~period:(ms 5) ~slice:(ms 1) ()
        in
        let slow =
          Nemesis.Domain.create ~name:"slow" ~period:(ms 50) ~slice:(ms 10) ()
        in
        Nemesis.Kernel.add_domain k fast;
        Nemesis.Kernel.add_domain k slow;
        let order = ref [] in
        Nemesis.Kernel.submit k slow
          (job e ~work:(ms 1) ~on_complete:(fun () -> order := "slow" :: !order));
        Nemesis.Kernel.submit k fast
          (job e ~work:(ms 1) ~on_complete:(fun () -> order := "fast" :: !order));
        Sim.Engine.run e ~until:(ms 100);
        Alcotest.(check (list string)) "fast first" [ "fast"; "slow" ]
          (List.rev !order));
  ]

let baseline_tests =
  [
    Alcotest.test_case "fixed priority starves the low side under load" `Quick
      (fun () ->
        let e, k = rig ~policy:(Nemesis.Policy.fixed_priority ()) () in
        let hi = Nemesis.Domain.create ~name:"hi" ~priority:10 () in
        let lo = Nemesis.Domain.create ~name:"lo" ~priority:1 () in
        Nemesis.Kernel.add_domain k hi;
        Nemesis.Kernel.add_domain k lo;
        Nemesis.Kernel.submit k hi (job e ~work:(Sim.Time.sec 1));
        Nemesis.Kernel.submit k lo (job e ~work:(Sim.Time.sec 1));
        Sim.Engine.run e ~until:(ms 200);
        Alcotest.check time "low got nothing" Sim.Time.zero
          (Nemesis.Domain.cpu_used lo);
        Alcotest.(check bool) "high got everything" true
          (Sim.Time.to_ms_f (Nemesis.Domain.cpu_used hi) > 199.0));
    Alcotest.test_case "round robin shares equally regardless of need" `Quick
      (fun () ->
        let e, k = rig ~policy:(Nemesis.Policy.round_robin ()) () in
        let a = Nemesis.Domain.create ~name:"a" () in
        let b = Nemesis.Domain.create ~name:"b" () in
        Nemesis.Kernel.add_domain k a;
        Nemesis.Kernel.add_domain k b;
        Nemesis.Kernel.submit k a (job e ~work:(Sim.Time.sec 1));
        Nemesis.Kernel.submit k b (job e ~work:(Sim.Time.sec 1));
        Sim.Engine.run e ~until:(ms 200);
        let ua = Sim.Time.to_ms_f (Nemesis.Domain.cpu_used a)
        and ub = Sim.Time.to_ms_f (Nemesis.Domain.cpu_used b) in
        Alcotest.(check bool)
          (Printf.sprintf "a=%.1f b=%.1f equal" ua ub)
          true
          (Float.abs (ua -. ub) < 11.0));
    Alcotest.test_case "plain EDF honours job deadlines when feasible" `Quick
      (fun () ->
        let e, k = rig ~policy:(Nemesis.Policy.edf ()) ~ctx:Sim.Time.zero () in
        let a = Nemesis.Domain.create ~name:"a" () in
        let b = Nemesis.Domain.create ~name:"b" () in
        Nemesis.Kernel.add_domain k a;
        Nemesis.Kernel.add_domain k b;
        let order = ref [] in
        Nemesis.Kernel.submit k a
          (job e ~work:(ms 2) ~deadline:(ms 50)
             ~on_complete:(fun () -> order := "late" :: !order));
        Nemesis.Kernel.submit k b
          (job e ~work:(ms 2) ~deadline:(ms 10)
             ~on_complete:(fun () -> order := "urgent" :: !order));
        Sim.Engine.run e ~until:(ms 100);
        Alcotest.(check (list string)) "urgent first" [ "urgent"; "late" ]
          (List.rev !order);
        Alcotest.(check int) "no misses"
          0
          (Nemesis.Domain.deadline_misses a + Nemesis.Domain.deadline_misses b));
    Alcotest.test_case
      "every miss accounting surface agrees on exactly k misses" `Quick
      (fun () ->
        (* Five sequential 2ms jobs in one domain complete no earlier
           than 2ms, 4ms, ..., 10ms apart.  Two carry deadlines no
           execution order can meet (1ms and 3ms, versus at least 2ms
           and 4ms of preceding work), so the workload misses exactly
           2 — and the domain counter, the kernel metrics counter and
           the trace instants must all say so. *)
        let metrics = Sim.Metrics.create () in
        let trace = Sim.Trace.create ~unbounded:true () in
        Sim.Trace.set_flows trace true;
        let e = Sim.Engine.create ~metrics ~trace () in
        let k = Nemesis.Kernel.create e ~policy:(Nemesis.Policy.atropos ()) () in
        let d = Nemesis.Domain.create ~name:"d" () in
        Nemesis.Kernel.add_domain k d;
        let deadlines = [ ms 50; ms 1; ms 50; ms 3; ms 50 ] in
        List.iter
          (fun deadline ->
            let flow = Sim.Trace.alloc_flow trace in
            Nemesis.Kernel.submit k d
              (Nemesis.Job.make ~deadline ~flow ~work:(ms 2)
                 ~created:(Sim.Engine.now e) ()))
          deadlines;
        Sim.Engine.run e ~until:(ms 100);
        let k_misses = 2 in
        Alcotest.(check int) "domain counter" k_misses
          (Nemesis.Domain.deadline_misses d);
        let counter =
          Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Nemesis
            "kernel.deadline_misses"
        in
        Alcotest.(check int) "metrics counter" k_misses
          (Sim.Metrics.value counter);
        let miss_events =
          List.filter
            (fun ev -> ev.Sim.Trace.ev_name = "deadline_miss")
            (Sim.Trace.events trace)
        in
        Alcotest.(check int) "trace instants" k_misses
          (List.length miss_events);
        (* The instants identify the guilty jobs: flows 2 and 4. *)
        Alcotest.(check (list int)) "flows on the instants" [ 2; 4 ]
          (List.sort compare
             (List.map (fun ev -> ev.Sim.Trace.ev_flow) miss_events));
        (* And with flow recording on, each job's completion left a
           cpu.run step bound to its flow. *)
        Alcotest.(check int) "cpu.run steps" (List.length deadlines)
          (List.length
             (List.filter
                (fun ev -> ev.Sim.Trace.ev_name = "cpu.run")
                (Sim.Trace.events trace))));
    Alcotest.test_case "fixed priority breaks ties by list order" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let policy = Nemesis.Policy.fixed_priority () in
        let ready name =
          let d = Nemesis.Domain.create ~name ~priority:5 () in
          Nemesis.Domain.add_job d (job e ~work:(ms 1));
          d
        in
        let a = ready "a" and b = ready "b" in
        let pick domains =
          match policy.Nemesis.Policy.select ~domains ~now:Sim.Time.zero with
          | Some d -> Nemesis.Domain.name d.Nemesis.Policy.domain
          | None -> Alcotest.fail "nothing selected"
        in
        Alcotest.(check string) "a listed first" "a" (pick [ a; b ]);
        Alcotest.(check string) "b listed first" "b" (pick [ b; a ]));
  ]

let event_tests =
  [
    Alcotest.test_case "event closures turn notifications into jobs" `Quick
      (fun () ->
        let e, k = rig () in
        let d = Nemesis.Domain.create ~name:"server" () in
        Nemesis.Kernel.add_domain k d;
        let handled = ref 0 in
        let ch =
          Nemesis.Kernel.channel k ~dst:d ~mode:`Async
            ~closure:(fun () ->
              Some
                (job e ~work:(us 100) ~on_complete:(fun () -> incr handled)))
            ()
        in
        for _ = 1 to 5 do
          Nemesis.Kernel.send k ch
        done;
        Sim.Engine.run e ~until:(ms 50);
        Alcotest.(check int) "handled all" 5 !handled;
        Alcotest.(check int) "sent" 5 (Nemesis.Kernel.sent ch);
        Alcotest.(check int) "delivered" 5 (Nemesis.Kernel.delivered ch);
        Alcotest.(check int) "none pending" 0 (Nemesis.Kernel.pending ch));
    Alcotest.test_case "sync signalling beats async on latency" `Quick (fun () ->
        (* Client sends to server; measure time until the server job runs.
           Sync: the sender yields, the server runs immediately.  Async:
           the sender keeps its window (it has a long job), the server
           waits. *)
        let run mode =
          let e, k = rig ~ctx:Sim.Time.zero () in
          let client =
            Nemesis.Domain.create ~name:"client" ~period:(ms 100)
              ~slice:(ms 50) ()
          in
          let server =
            Nemesis.Domain.create ~name:"server" ~period:(ms 100)
              ~slice:(ms 50) ()
          in
          Nemesis.Kernel.add_domain k client;
          Nemesis.Kernel.add_domain k server;
          let served_at = ref None in
          let ch =
            Nemesis.Kernel.channel k ~dst:server ~mode
              ~closure:(fun () ->
                Some
                  (job e ~work:(us 10)
                     ~on_complete:(fun () ->
                       if !served_at = None then
                         served_at := Some (Sim.Engine.now e))))
              ()
          in
          let sent_at = ref Sim.Time.zero in
          (* Client: a tiny job that signals, then a long compute job
             that keeps its window busy. *)
          Nemesis.Kernel.submit k client
            (job e ~work:(us 10)
               ~on_complete:(fun () ->
                 sent_at := Sim.Engine.now e;
                 Nemesis.Kernel.send k ch));
          Nemesis.Kernel.submit k client (job e ~work:(ms 40));
          Sim.Engine.run e ~until:(ms 200);
          match !served_at with
          | Some at -> Sim.Time.to_us_f (Sim.Time.sub at !sent_at)
          | None -> Alcotest.fail "server never ran"
        in
        let sync = run `Sync and async = run `Async in
        Alcotest.(check bool)
          (Printf.sprintf "sync %.0fus << async %.0fus" sync async)
          true
          (sync *. 10.0 < async));
    Alcotest.test_case "events to an idle system wake it" `Quick (fun () ->
        let e, k = rig () in
        let d = Nemesis.Domain.create ~name:"d" () in
        Nemesis.Kernel.add_domain k d;
        let ran = ref false in
        let ch =
          Nemesis.Kernel.channel k ~dst:d ~mode:`Async
            ~closure:(fun () ->
              Some (job e ~work:(us 1) ~on_complete:(fun () -> ran := true)))
            ()
        in
        ignore
          (Sim.Engine.schedule e ~delay:(ms 30) (fun () ->
               Nemesis.Kernel.send k ch));
        Sim.Engine.run e ~until:(ms 60);
        Alcotest.(check bool) "woke up" true !ran);
    Alcotest.test_case "timer delivers an interrupt at the right time" `Quick
      (fun () ->
        let e, k = rig () in
        let d = Nemesis.Domain.create ~name:"driver" () in
        Nemesis.Kernel.add_domain k d;
        let fired_at = ref Sim.Time.zero in
        let ch =
          Nemesis.Kernel.channel k ~dst:d ~mode:`Async
            ~closure:(fun () ->
              Some
                (job e ~work:(us 1)
                   ~on_complete:(fun () -> fired_at := Sim.Engine.now e)))
            ()
        in
        Nemesis.Kernel.timer k ~at:(ms 25) ch;
        Sim.Engine.run e ~until:(ms 60);
        Alcotest.(check bool) "about 25ms" true
          (Sim.Time.to_ms_f !fired_at >= 25.0 && Sim.Time.to_ms_f !fired_at < 25.2));
  ]

let kps_tests =
  [
    Alcotest.test_case "interrupts are deferred inside a KPS" `Quick (fun () ->
        let e, k = rig () in
        let d = Nemesis.Domain.create ~name:"driver" () in
        Nemesis.Kernel.add_domain k d;
        let ch = Nemesis.Kernel.channel k ~dst:d ~mode:`Async () in
        Nemesis.Kernel.with_kps k (fun () ->
            Nemesis.Kernel.interrupt k ch;
            Alcotest.(check int) "not yet raised" 0 (Nemesis.Kernel.sent ch));
        Alcotest.(check int) "raised on exit" 1 (Nemesis.Kernel.sent ch);
        Sim.Engine.run e);
    Alcotest.test_case "KPS exits even when the body raises (TRY..FINALLY)"
      `Quick (fun () ->
        let _, k = rig () in
        (try
           Nemesis.Kernel.with_kps k (fun () -> failwith "trap!")
         with Failure _ -> ());
        Alcotest.(check bool) "left kernel mode" false
          (Nemesis.Kernel.kps_active k));
    Alcotest.test_case "KPS nests" `Quick (fun () ->
        let e, k = rig () in
        let d = Nemesis.Domain.create ~name:"driver" () in
        Nemesis.Kernel.add_domain k d;
        let ch = Nemesis.Kernel.channel k ~dst:d ~mode:`Async () in
        Nemesis.Kernel.enter_kps k;
        Nemesis.Kernel.with_kps k (fun () -> Nemesis.Kernel.interrupt k ch);
        Alcotest.(check bool) "still privileged" true
          (Nemesis.Kernel.kps_active k);
        Alcotest.(check int) "still deferred" 0 (Nemesis.Kernel.sent ch);
        Nemesis.Kernel.exit_kps k;
        Alcotest.(check bool) "left kernel mode" false
          (Nemesis.Kernel.kps_active k);
        Alcotest.(check int) "delivered at outermost exit" 1
          (Nemesis.Kernel.sent ch);
        Sim.Engine.run e);
    Alcotest.test_case "exit without enter is rejected" `Quick (fun () ->
        let _, k = rig () in
        Alcotest.check_raises "unbalanced"
          (Invalid_argument "Kernel.exit_kps: not in a section") (fun () ->
            Nemesis.Kernel.exit_kps k));
  ]

let activation_tests =
  [
    Alcotest.test_case "informed domains run urgent work first after preemption"
      `Quick (fun () ->
        (* One long best-effort job is in progress; an urgent deadline
           job arrives.  The informed user-level scheduler picks it on
           reactivation; the opaque one finishes the long job first. *)
        let run mode =
          let e, k = rig ~ctx:Sim.Time.zero () in
          let d =
            Nemesis.Domain.create ~name:"app" ~mode ~period:(ms 10)
              ~slice:(ms 5) ()
          in
          Nemesis.Kernel.add_domain k d;
          let urgent_done = ref None in
          Nemesis.Kernel.submit k d (job e ~work:(ms 30) ~label:"long");
          ignore
            (Sim.Engine.schedule e ~delay:(ms 7) (fun () ->
                 Nemesis.Kernel.submit k d
                   (Nemesis.Job.make ~label:"urgent" ~work:(ms 1)
                      ~deadline:(ms 12) ~created:(Sim.Engine.now e)
                      ~on_complete:(fun () ->
                        urgent_done := Some (Sim.Engine.now e))
                      ())));
          Sim.Engine.run e ~until:(ms 100);
          (!urgent_done, Nemesis.Domain.deadline_misses d)
        in
        let informed, informed_misses = run Nemesis.Domain.Informed in
        let opaque, opaque_misses = run Nemesis.Domain.Opaque in
        (match (informed, opaque) with
        | Some i, Some o ->
            Alcotest.(check bool)
              (Format.asprintf "informed %a < opaque %a" Sim.Time.pp i
                 Sim.Time.pp o)
              true
              Sim.Time.(i < o)
        | _ -> Alcotest.fail "urgent job did not finish");
        Alcotest.(check int) "informed meets deadline" 0 informed_misses;
        Alcotest.(check int) "opaque misses it" 1 opaque_misses);
    Alcotest.test_case "activation handler sees event counts" `Quick (fun () ->
        let e, k = rig () in
        let d = Nemesis.Domain.create ~name:"d" () in
        let seen = ref [] in
        Nemesis.Domain.set_activation_handler d (fun ~now:_ ~events ->
            seen := events :: !seen);
        Nemesis.Kernel.add_domain k d;
        let ch = Nemesis.Kernel.channel k ~dst:d ~mode:`Async () in
        Nemesis.Kernel.send k ch;
        Nemesis.Kernel.send k ch;
        Sim.Engine.run e ~until:(ms 10);
        Alcotest.(check bool) "one activation with 2 events" true
          (List.mem 2 !seen));
    Alcotest.test_case "activation latency is recorded" `Quick (fun () ->
        let e, k = rig () in
        let d = Nemesis.Domain.create ~name:"d" () in
        Nemesis.Kernel.add_domain k d;
        Nemesis.Kernel.submit k d (job e ~work:(ms 1));
        Sim.Engine.run e ~until:(ms 10);
        Alcotest.(check bool) "has a sample" true
          (Sim.Stats.Samples.count (Nemesis.Domain.activation_latency_us d) >= 1));
  ]

let vm_tests =
  [
    Alcotest.test_case "segments share one translation, rights differ" `Quick
      (fun () ->
        let space = Nemesis.Vm.create_space () in
        let seg = Nemesis.Vm.alloc_segment space ~name:"buf" ~size:4096 in
        Nemesis.Vm.map space ~domain:1 seg Nemesis.Vm.rw;
        Nemesis.Vm.map space ~domain:2 seg Nemesis.Vm.r;
        let addr = Nemesis.Vm.segment_base seg in
        Alcotest.(check bool) "d1 writes" true
          (Nemesis.Vm.access space ~domain:1 ~addr `Write = Ok seg);
        Alcotest.(check bool) "d2 reads" true
          (Nemesis.Vm.access space ~domain:2 ~addr `Read = Ok seg);
        Alcotest.(check bool) "d2 cannot write" true
          (Nemesis.Vm.access space ~domain:2 ~addr `Write = Error `Protection);
        Alcotest.(check bool) "d3 unmapped" true
          (Nemesis.Vm.access space ~domain:3 ~addr `Read = Error `Unmapped);
        Alcotest.(check int) "shared by two" 2
          (Nemesis.Vm.shared_mappings space seg));
    Alcotest.test_case "unmap revokes access" `Quick (fun () ->
        let space = Nemesis.Vm.create_space () in
        let seg = Nemesis.Vm.alloc_segment space ~name:"s" ~size:100 in
        Nemesis.Vm.map space ~domain:1 seg Nemesis.Vm.r;
        Nemesis.Vm.unmap space ~domain:1 seg;
        Alcotest.(check bool) "revoked" true
          (Nemesis.Vm.access space ~domain:1
             ~addr:(Nemesis.Vm.segment_base seg) `Read
          = Error `Unmapped));
    Alcotest.test_case "segments never overlap" `Quick (fun () ->
        let space = Nemesis.Vm.create_space () in
        let a = Nemesis.Vm.alloc_segment space ~name:"a" ~size:5000 in
        let b = Nemesis.Vm.alloc_segment space ~name:"b" ~size:5000 in
        let a_end =
          Int64.add (Nemesis.Vm.segment_base a)
            (Int64.of_int (Nemesis.Vm.segment_size a))
        in
        Alcotest.(check bool) "disjoint" true
          (Nemesis.Vm.segment_base b >= a_end));
    Alcotest.test_case "alias flush dominates the context-switch cost" `Quick
      (fun () ->
        let with_aliases = Nemesis.Vm.switch_cost ~aliases:true in
        let without = Nemesis.Vm.switch_cost ~aliases:false in
        Alcotest.(check bool)
          (Format.asprintf "%a vs %a" Sim.Time.pp with_aliases Sim.Time.pp without)
          true
          Sim.Time.(Sim.Time.mul without 10 < with_aliases));
    Alcotest.test_case "hashed bases rarely collide" `Quick (fun () ->
        let rng = Sim.Rng.create ~seed:5L () in
        let collisions = Nemesis.Vm.reuse_collisions rng ~images:1000 in
        (* Birthday bound: expect ~ n^2 / 2^33 ~ 0.0001 collisions. *)
        Alcotest.(check int) "none in 1000 images" 0 collisions);
    Alcotest.test_case "relocation cache hit avoids relocation cost" `Quick
      (fun () ->
        let hit = Nemesis.Vm.load_cost ~relocs:10_000 ~cache_hit:true in
        let miss = Nemesis.Vm.load_cost ~relocs:10_000 ~cache_hit:false in
        Alcotest.check time "hit is the map cost" (us 50) hit;
        Alcotest.check time "miss adds relocs" (Sim.Time.add (us 50) (ms 1))
          miss);
  ]

let qos_tests =
  [
    Alcotest.test_case "requests within capacity are granted in full" `Quick
      (fun () ->
        let e, k = rig () in
        let d = Nemesis.Domain.create ~name:"app" ~period:(ms 10) () in
        Nemesis.Kernel.add_domain k d;
        let q = Nemesis.Qos.create k in
        Nemesis.Qos.register q ~domain:d ~want:0.4 ();
        Sim.Engine.run e ~until:(ms 50);
        Alcotest.(check (float 0.01)) "granted" 0.4 (Nemesis.Qos.granted q ~domain:d);
        (* slice = 40% of 10ms period *)
        Alcotest.check time "slice applied" (ms 4)
          (Nemesis.Domain.params d).Nemesis.Domain.slice);
    Alcotest.test_case "overload scales grants proportionally" `Quick (fun () ->
        let e, k = rig () in
        let a = Nemesis.Domain.create ~name:"a" ~period:(ms 10) () in
        let b = Nemesis.Domain.create ~name:"b" ~period:(ms 10) () in
        Nemesis.Kernel.add_domain k a;
        Nemesis.Kernel.add_domain k b;
        (* Keep both busy so utilisation stays high. *)
        Nemesis.Kernel.submit k a (job e ~work:(Sim.Time.sec 10));
        Nemesis.Kernel.submit k b (job e ~work:(Sim.Time.sec 10));
        let q = Nemesis.Qos.create k in
        Nemesis.Qos.register q ~domain:a ~want:0.8 ();
        Nemesis.Qos.register q ~domain:b ~want:0.4 ();
        Sim.Engine.run e ~until:(Sim.Time.sec 1);
        let ga = Nemesis.Qos.granted q ~domain:a
        and gb = Nemesis.Qos.granted q ~domain:b in
        Alcotest.(check (float 0.02)) "a scaled" 0.6 ga;
        Alcotest.(check (float 0.02)) "b scaled" 0.3 gb);
    Alcotest.test_case "unused allocation is reclaimed over time" `Quick
      (fun () ->
        let e, k = rig () in
        let idle_dom = Nemesis.Domain.create ~name:"idle" ~period:(ms 10) () in
        Nemesis.Kernel.add_domain k idle_dom;
        let q = Nemesis.Qos.create k in
        Nemesis.Qos.register q ~domain:idle_dom ~want:0.8 ();
        (* The domain never submits work, so its utilisation decays and
           the manager shrinks its grant. *)
        Sim.Engine.run e ~until:(Sim.Time.sec 2);
        Alcotest.(check bool) "grant shrank" true
          (Nemesis.Qos.granted q ~domain:idle_dom < 0.3);
        Alcotest.(check bool) "reviews happened" true (Nemesis.Qos.reviews q > 10));
    Alcotest.test_case "adapt callback reports grant changes" `Quick (fun () ->
        let e, k = rig () in
        let a = Nemesis.Domain.create ~name:"a" ~period:(ms 10) () in
        let b = Nemesis.Domain.create ~name:"b" ~period:(ms 10) () in
        Nemesis.Kernel.add_domain k a;
        Nemesis.Kernel.add_domain k b;
        Nemesis.Kernel.submit k a (job e ~work:(Sim.Time.sec 10));
        Nemesis.Kernel.submit k b (job e ~work:(Sim.Time.sec 10));
        let q = Nemesis.Qos.create k in
        let grants = ref [] in
        Nemesis.Qos.register q ~domain:a ~want:0.8
          ~adapt:(fun ~granted -> grants := granted :: !grants)
          ();
        Sim.Engine.run e ~until:(ms 300);
        (* Competitor arrives: a's grant must shrink, invoking adapt. *)
        Nemesis.Qos.register q ~domain:b ~want:0.8 ();
        Sim.Engine.run e ~until:(ms 600);
        Alcotest.(check bool) "adapted down" true
          (List.exists (fun g -> g < 0.5) !grants));
    Alcotest.test_case "unregister returns capacity" `Quick (fun () ->
        let e, k = rig () in
        let a = Nemesis.Domain.create ~name:"a" ~period:(ms 10) () in
        let b = Nemesis.Domain.create ~name:"b" ~period:(ms 10) () in
        Nemesis.Kernel.add_domain k a;
        Nemesis.Kernel.add_domain k b;
        Nemesis.Kernel.submit k a (job e ~work:(Sim.Time.sec 10));
        Nemesis.Kernel.submit k b (job e ~work:(Sim.Time.sec 10));
        let q = Nemesis.Qos.create k in
        Nemesis.Qos.register q ~domain:a ~want:0.8 ();
        Nemesis.Qos.register q ~domain:b ~want:0.8 ();
        Sim.Engine.run e ~until:(ms 300);
        Alcotest.(check bool) "squeezed" true (Nemesis.Qos.granted q ~domain:a < 0.5);
        Nemesis.Qos.unregister q ~domain:b;
        Sim.Engine.run e ~until:(ms 600);
        Alcotest.(check (float 0.02)) "restored" 0.8
          (Nemesis.Qos.granted q ~domain:a));
  ]

let slack_tests =
  [
    Alcotest.test_case "no-slack policy idles after guarantees" `Quick
      (fun () ->
        let e, k =
          rig ~policy:(Nemesis.Policy.atropos ~slack:`None ()) ()
        in
        let d =
          Nemesis.Domain.create ~name:"d" ~period:(ms 10) ~slice:(ms 2)
            ~extra:true ()
        in
        Nemesis.Kernel.add_domain k d;
        Nemesis.Kernel.submit k d (job e ~work:(Sim.Time.sec 1));
        Sim.Engine.run e ~until:(ms 100);
        (* 10 periods x 2ms: the guarantee only, despite extra=true. *)
        let used = Sim.Time.to_ms_f (Nemesis.Domain.cpu_used d) in
        Alcotest.(check bool)
          (Printf.sprintf "used %.1fms" used)
          true
          (used <= 20.01));
    Alcotest.test_case "proportional slack follows the shares" `Quick
      (fun () ->
        let e, k =
          rig ~policy:(Nemesis.Policy.atropos ~slack:`Proportional ())
            ~ctx:Sim.Time.zero ()
        in
        let mk name slice =
          let d =
            Nemesis.Domain.create ~name ~period:(ms 100) ~slice:(ms slice)
              ~extra:true ()
          in
          Nemesis.Kernel.add_domain k d;
          Nemesis.Kernel.submit k d (job e ~work:(Sim.Time.sec 10));
          d
        in
        let small = mk "small" 1 in
        let big = mk "big" 3 in
        Sim.Engine.run e ~until:(Sim.Time.sec 1);
        let us_ d = Sim.Time.to_ms_f (Nemesis.Domain.cpu_used d) in
        let ratio = us_ big /. us_ small in
        Alcotest.(check bool)
          (Printf.sprintf "big/small = %.2f (want ~3)" ratio)
          true
          (ratio > 2.5 && ratio < 3.5));
  ]

let handoff_tests =
  [
    Alcotest.test_case "sync send runs the receiver immediately" `Quick
      (fun () ->
        let e, k = rig ~ctx:Sim.Time.zero () in
        let sender =
          Nemesis.Domain.create ~name:"sender" ~period:(ms 10) ~slice:(ms 5) ()
        in
        let receiver =
          Nemesis.Domain.create ~name:"receiver" ~period:(ms 10) ~slice:(ms 5) ()
        in
        Nemesis.Kernel.add_domain k sender;
        Nemesis.Kernel.add_domain k receiver;
        let served_at = ref None in
        let ch =
          Nemesis.Kernel.channel k ~dst:receiver ~mode:`Sync
            ~closure:(fun () ->
              Some
                (job e ~work:(Sim.Time.us 10)
                   ~on_complete:(fun () ->
                     served_at := Some (Sim.Engine.now e))))
            ()
        in
        (* The sender signals, then still has plenty of its own work. *)
        Nemesis.Kernel.submit k sender
          (job e ~work:(Sim.Time.us 10)
             ~on_complete:(fun () -> Nemesis.Kernel.send k ch));
        Nemesis.Kernel.submit k sender (job e ~work:(ms 4));
        Sim.Engine.run e ~until:(ms 50);
        match !served_at with
        | Some at ->
            Alcotest.(check bool)
              (Format.asprintf "served at %a" Sim.Time.pp at)
              true
              Sim.Time.(at < Sim.Time.us 100)
        | None -> Alcotest.fail "receiver never ran");
    Alcotest.test_case "submitting to the running domain does not preempt"
      `Quick (fun () ->
        let e, k = rig () in
        let d = Nemesis.Domain.create ~name:"d" ~period:(ms 100) ~slice:(ms 50) () in
        Nemesis.Kernel.add_domain k d;
        Nemesis.Kernel.submit k d
          (job e ~work:(ms 1)
             ~on_complete:(fun () ->
               (* adding a job to ourselves must not cost a context
                  switch or reschedule *)
               Nemesis.Kernel.submit k d (job e ~work:(ms 1))));
        Sim.Engine.run e ~until:(ms 50);
        Alcotest.(check int) "both jobs done" 2 (Nemesis.Domain.jobs_completed d);
        Alcotest.(check int) "single switch" 1 (Nemesis.Kernel.context_switches k));
  ]

let ipc_tests =
  [
    Alcotest.test_case "a protected call round-trips between domains" `Quick
      (fun () ->
        let e, k = rig () in
        let client = Nemesis.Domain.create ~name:"client" ~period:(ms 10) ~slice:(ms 4) () in
        let srv_dom = Nemesis.Domain.create ~name:"server" ~period:(ms 10) ~slice:(ms 4) () in
        Nemesis.Kernel.add_domain k client;
        Nemesis.Kernel.add_domain k srv_dom;
        let server =
          Nemesis.Ipc.serve k ~domain:srv_dom (fun ~meth payload ->
              Alcotest.(check string) "method" "upper" meth;
              Bytes.of_string (String.uppercase_ascii (Bytes.to_string payload)))
        in
        let conn = Nemesis.Ipc.connect k ~client server in
        let got = ref None in
        let done_at = ref Sim.Time.zero in
        Nemesis.Kernel.submit k client
          (job e ~work:(us 10)
             ~on_complete:(fun () ->
               Nemesis.Ipc.call conn ~meth:"upper" (Bytes.of_string "nemesis")
                 ~reply:(fun r ->
                   done_at := Sim.Engine.now e;
                   got := Some r)));
        Sim.Engine.run e ~until:(ms 100);
        (match !got with
        | Some (Ok b) -> Alcotest.(check string) "reply" "NEMESIS" (Bytes.to_string b)
        | _ -> Alcotest.fail "no reply");
        Alcotest.(check int) "served once" 1 (Nemesis.Ipc.calls_served server);
        (* protected-call latency: two sync handoffs + handler cost *)
        Alcotest.(check bool)
          (Format.asprintf "RTT %a" Sim.Time.pp !done_at)
          true
          Sim.Time.(!done_at < ms 1));
    Alcotest.test_case "pipelined calls are all served in order" `Quick
      (fun () ->
        let e, k = rig () in
        let client = Nemesis.Domain.create ~name:"client" ~period:(ms 10) ~slice:(ms 4) () in
        let srv_dom = Nemesis.Domain.create ~name:"server" ~period:(ms 10) ~slice:(ms 4) () in
        Nemesis.Kernel.add_domain k client;
        Nemesis.Kernel.add_domain k srv_dom;
        let server = Nemesis.Ipc.serve k ~domain:srv_dom (fun ~meth:_ p -> p) in
        let conn = Nemesis.Ipc.connect k ~client server in
        let replies = ref [] in
        Nemesis.Kernel.submit k client
          (job e ~work:(us 10)
             ~on_complete:(fun () ->
               for i = 0 to 9 do
                 Nemesis.Ipc.call conn ~meth:"echo"
                   (Bytes.of_string (string_of_int i))
                   ~reply:(fun r ->
                     match r with
                     | Ok b -> replies := Bytes.to_string b :: !replies
                     | Error `Queue_full -> Alcotest.fail "queue full")
               done));
        Sim.Engine.run e ~until:(ms 100);
        Alcotest.(check (list string)) "in order"
          [ "0"; "1"; "2"; "3"; "4"; "5"; "6"; "7"; "8"; "9" ]
          (List.rev !replies));
    Alcotest.test_case "the shared queue pushes back when full" `Quick
      (fun () ->
        let e, k = rig () in
        let client = Nemesis.Domain.create ~name:"client" () in
        let srv_dom = Nemesis.Domain.create ~name:"server" () in
        Nemesis.Kernel.add_domain k client;
        Nemesis.Kernel.add_domain k srv_dom;
        let server =
          Nemesis.Ipc.serve k ~domain:srv_dom ~queue_depth:4 (fun ~meth:_ p -> p)
        in
        let conn = Nemesis.Ipc.connect k ~client server in
        let full = ref 0 in
        Nemesis.Kernel.submit k client
          (job e ~work:(us 10)
             ~on_complete:(fun () ->
               for _ = 0 to 9 do
                 Nemesis.Ipc.call conn ~meth:"x" Bytes.empty ~reply:(fun r ->
                     match r with Error `Queue_full -> incr full | Ok _ -> ())
               done));
        Sim.Engine.run e ~until:(ms 100);
        Alcotest.(check int) "six rejected" 6 !full;
        Alcotest.(check int) "four served" 4 (Nemesis.Ipc.calls_served server));
  ]

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"a non-extra domain never exceeds its guarantee" ~count:50
         QCheck2.Gen.(pair (int_range 1 5) (int_range 10 20))
         (fun (slice_ms, period_ms) ->
           let e = Sim.Engine.create () in
           let k =
             Nemesis.Kernel.create e ~policy:(Nemesis.Policy.atropos ()) ()
           in
           let d =
             Nemesis.Domain.create ~name:"d" ~period:(ms period_ms)
               ~slice:(ms slice_ms) ~extra:false ()
           in
           Nemesis.Kernel.add_domain k d;
           Nemesis.Kernel.submit k d
             (Nemesis.Job.make ~work:(Sim.Time.sec 10) ~created:Sim.Time.zero ());
           let horizon = 200 in
           Sim.Engine.run e ~until:(ms horizon);
           let allowed =
             (* ceil(horizon/period) periods of slice each *)
             ((horizon + period_ms - 1) / period_ms) * slice_ms
           in
           Sim.Time.to_ms_f (Nemesis.Domain.cpu_used d)
           <= Float.of_int allowed +. 0.001));
  ]

let () =
  Alcotest.run "nemesis"
    [
      ("kernel", kernel_tests);
      ("baselines", baseline_tests);
      ("events", event_tests);
      ("kps", kps_tests);
      ("activations", activation_tests);
      ("vm", vm_tests);
      ("qos", qos_tests);
      ("slack", slack_tests);
      ("handoff", handoff_tests);
      ("ipc", ipc_tests);
      ("properties", property_tests);
    ]
