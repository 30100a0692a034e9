(* Integration tests over the experiment harness: every table builds,
   and the headline shape of each claim holds at the size EXPERIMENTS.md
   reports. *)

let tables =
  lazy
    (List.map
       (fun e ->
         ( e.Experiments.Registry.e_id,
           e.Experiments.Registry.e_run (Sim.Ctx.create ()) ))
       Experiments.Registry.all)

let table id =
  match List.assoc_opt id (Lazy.force tables) with
  | Some t -> t
  | None -> Alcotest.failf "experiment %s missing" id

(* Parse helpers for table cells. *)
let cell t ~row ~col = List.nth (List.nth t.Experiments.Table.rows row) col

let number s =
  (* first numeric token in the cell, ignoring units *)
  let b = Buffer.create 8 in
  (try
     String.iter
       (fun c ->
         if (c >= '0' && c <= '9') || c = '.' then Buffer.add_char b c
         else if Buffer.length b > 0 then raise Exit)
       s
   with Exit -> ());
  float_of_string (Buffer.contents b)

let time_us s =
  let v = number s in
  if String.length s > 2 && String.sub s (String.length s - 2) 2 = "ms" then
    v *. 1000.0
  else if String.ends_with ~suffix:"s" s && not (String.ends_with ~suffix:"us" s)
  then v *. 1.0e6
  else v

(* What a run leaves behind on its context: the rendered table, the
   registry snapshot, and the number of trace events. *)
let observe run ctx =
  let table = Format.asprintf "%a" Experiments.Table.pp (run ctx) in
  ( table,
    Sim.Json.to_string (Sim.Metrics.snapshot (Sim.Ctx.metrics ctx)),
    Sim.Trace.length (Sim.Ctx.trace ctx) )

let snapshot_entries ctx =
  match Sim.Metrics.snapshot (Sim.Ctx.metrics ctx) with
  | Sim.Json.Obj [ ("metrics", Sim.Json.List l) ] -> List.length l
  | _ -> Alcotest.fail "unexpected snapshot shape"

let structure_tests =
  [
    Alcotest.test_case "every experiment produces a well-formed table" `Quick
      (fun () ->
        List.iter
          (fun (id, t) ->
            Alcotest.(check string) "id matches" id t.Experiments.Table.id;
            let ncols = List.length t.Experiments.Table.columns in
            Alcotest.(check bool) (id ^ " has columns") true (ncols >= 2);
            Alcotest.(check bool) (id ^ " has rows") true
              (t.Experiments.Table.rows <> []);
            List.iter
              (fun row ->
                Alcotest.(check int) (id ^ " row width") ncols (List.length row))
              t.Experiments.Table.rows;
            Alcotest.(check bool) (id ^ " states its claim") true
              (String.length t.Experiments.Table.claim > 20))
          (Lazy.force tables));
  ]

let shape_tests =
  [
    Alcotest.test_case "E1: tiles beat whole frames by >100x" `Quick (fun () ->
        let t = table "E1" in
        let tile = time_us (cell t ~row:0 ~col:1) in
        let frame = time_us (cell t ~row:3 ~col:1) in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f vs %.0f" tile frame)
          true
          (tile *. 100.0 < frame));
    Alcotest.test_case "E2: JPEG fits in a megabyte per second" `Quick
      (fun () ->
        let t = table "E2" in
        Alcotest.(check bool) "<= 1 MB/s" true (number (cell t ~row:1 ~col:1) <= 1.0));
    Alcotest.test_case "E2: the reserved VC has no late cells" `Quick (fun () ->
        let t = table "E2" in
        let late_unreserved = number (cell t ~row:3 ~col:3) in
        let late_reserved = number (cell t ~row:5 ~col:3) in
        Alcotest.(check bool) "unreserved suffers" true (late_unreserved > 0.0);
        Alcotest.(check (float 0.0)) "reserved clean" 0.0 late_reserved);
    Alcotest.test_case "E3: only atropos protects the admitted domains" `Quick
      (fun () ->
        let t = table "E3" in
        let atropos_video = number (cell t ~row:0 ~col:1) in
        Alcotest.(check bool) "atropos low" true (atropos_video < 5.0);
        List.iter
          (fun row ->
            Alcotest.(check bool) "baseline high" true
              (number (cell t ~row ~col:1) > 50.0))
          [ 1; 2; 3 ]);
    Alcotest.test_case "E4: informed misses none, opaque misses most" `Quick
      (fun () ->
        let t = table "E4" in
        Alcotest.(check (float 0.0)) "informed" 0.0 (number (cell t ~row:0 ~col:1));
        Alcotest.(check bool) "opaque" true (number (cell t ~row:1 ~col:1) > 10.0));
    Alcotest.test_case "E5: sync is faster; async switches less" `Quick
      (fun () ->
        let t = table "E5" in
        let sync = time_us (cell t ~row:0 ~col:1) in
        let async = time_us (cell t ~row:1 ~col:1) in
        Alcotest.(check bool) "sync lower" true (sync *. 5.0 < async);
        let sw_sync = number (cell t ~row:2 ~col:3) in
        let sw_async = number (cell t ~row:3 ~col:3) in
        Alcotest.(check bool) "async batches" true (sw_async *. 10.0 < sw_sync));
    Alcotest.test_case "E8: >=5MB/s per disk at 1MB units; ~10MB/s over ATM"
      `Quick (fun () ->
        let t = table "E8" in
        Alcotest.(check bool) "1MB row" true (number (cell t ~row:2 ~col:1) >= 5.0);
        let atm = number (cell t ~row:7 ~col:1) in
        Alcotest.(check bool)
          (Printf.sprintf "net-capped %.2f" atm)
          true
          (atm > 9.0 && atm < 12.0));
    Alcotest.test_case "E9: sprite examines the whole table, pegasus does not"
      `Quick (fun () ->
        let t = table "E9" in
        (* rows alternate pegasus/sprite, growing fs size: compare the
           smallest file system with the largest *)
        let last = List.length t.Experiments.Table.rows - 2 in
        let pegasus_small = number (cell t ~row:0 ~col:2) in
        let pegasus_big = number (cell t ~row:last ~col:2) in
        let sprite_small = number (cell t ~row:1 ~col:2) in
        let sprite_big = number (cell t ~row:(last + 1) ~col:2) in
        Alcotest.(check bool) "pegasus flat" true
          (pegasus_big < pegasus_small *. 2.0);
        Alcotest.(check bool) "sprite grows" true
          (sprite_big > sprite_small *. 3.0));
    Alcotest.test_case "E10: write-behind halves disk writes" `Quick (fun () ->
        let t = table "E10" in
        let through = number (cell t ~row:0 ~col:2) in
        let behind = number (cell t ~row:1 ~col:2) in
        Alcotest.(check bool) "saved" true (behind *. 2.0 < through));
    Alcotest.test_case "E11: the video's replay hit rate is zero" `Quick
      (fun () ->
        let t = table "E11" in
        Alcotest.(check (float 0.01)) "video" 0.0 (number (cell t ~row:1 ~col:1));
        Alcotest.(check bool) "files cache well" true
          (number (cell t ~row:0 ~col:1) > 50.0));
    Alcotest.test_case "E12: losses exactly where the paper says" `Quick
      (fun () ->
        let t = table "E12" in
        let lost row = number (cell t ~row ~col:4) in
        List.iter
          (fun row -> Alcotest.(check (float 0.0)) "no loss" 0.0 (lost row))
          [ 0; 1; 2; 4; 5 ];
        Alcotest.(check bool) "uncovered double failure loses" true
          (lost 3 > 0.0));
    Alcotest.test_case "E13: delivery degrades monotonically with loss" `Quick
      (fun () ->
        let t = table "E13" in
        let r row = number (cell t ~row ~col:3) in
        (* Video rows 0-3 sweep the cell-loss rate upward under a fixed
           seed: the delivered-frame ratio must never rise. *)
        Alcotest.(check (float 0.0)) "no loss delivers everything" 1.0 (r 0);
        Alcotest.(check bool) "monotone in the loss rate" true
          (r 0 >= r 1 && r 1 >= r 2 && r 2 >= r 3);
        Alcotest.(check bool) "loss really bites" true (r 3 < r 0);
        (* RPC retransmission holds goodput through loss and outage. *)
        Alcotest.(check (float 0.0)) "rpc goodput under loss" 1.0 (r 5);
        Alcotest.(check (float 0.0)) "rpc goodput through outage" 1.0 (r 6);
        (* RAID: one disk down is survived via parity, two lose data. *)
        Alcotest.(check (float 0.0)) "raid one disk down" 1.0 (r 8);
        Alcotest.(check bool) "degraded reads were served" true
          (number (cell t ~row:8 ~col:4) > 0.0);
        Alcotest.(check bool) "two disks down lose segments" true (r 9 < 1.0));
    Alcotest.test_case "E13: two runs are byte-identical" `Quick (fun () ->
        let t = table "E13" in
        let again = Experiments.E13_faults.run (Sim.Ctx.create ()) in
        Alcotest.(check bool) "identical rows" true
          (t.Experiments.Table.rows = again.Experiments.Table.rows));
    Alcotest.test_case "A1: guarantees hold under every slack policy" `Quick
      (fun () ->
        let t = table "A1" in
        List.iteri
          (fun row _ ->
            Alcotest.(check (float 0.0)) "no RT misses" 0.0
              (number (cell t ~row ~col:3)))
          t.Experiments.Table.rows;
        (* no-slack idles; the others do not *)
        Alcotest.(check bool) "none idles" true (number (cell t ~row:2 ~col:4) > 30.0);
        Alcotest.(check bool) "rr busy" true (number (cell t ~row:0 ~col:4) < 5.0));
    Alcotest.test_case "E7 and E13 at once on two domains" `Quick (fun () ->
        (* Two different experiments in one process at the same time,
           each on its own context: any state they shared — a global
           registry, an id counter — would make them differ from the
           same runs made one after the other. *)
        let runs =
          [| Experiments.E07_naming.run; Experiments.E13_faults.run |]
        in
        let on_own_ctx run () =
          let ctx = Sim.Ctx.create () in
          (observe run ctx, ctx)
        in
        let one_by_one = Array.map (fun run -> on_own_ctx run ()) runs in
        let at_once = Sim.Par.map ~workers:2 (Array.map on_own_ctx runs) in
        Array.iteri
          (fun i ((table, snap, _), _) ->
            let (table', snap', _), _ = at_once.(i) in
            Alcotest.(check string) "same table" table table';
            Alcotest.(check string) "same metrics snapshot" snap snap')
          one_by_one;
        let _, e7_ctx = at_once.(0) in
        Alcotest.(check int) "E7 counts its resolutions" 5
          (Sim.Metrics.value
             (Sim.Metrics.counter (Sim.Ctx.metrics e7_ctx)
                ~sub:Sim.Subsystem.Naming "namespace.resolutions")));
    Alcotest.test_case "E13, E14 record the same at domains 1/2/4" `Quick
      (fun () ->
        List.iter
          (fun (id, run) ->
            let at domains =
              let ctx =
                Sim.Ctx.create ~domains
                  ~trace:(Sim.Trace.create ~unbounded:true ())
                  ()
              in
              let seen = observe run ctx in
              Alcotest.(check bool)
                (Printf.sprintf "%s snapshot non-empty at %d" id domains)
                true
                (snapshot_entries ctx > 0);
              seen
            in
            let table, snap, events = at 1 in
            List.iter
              (fun domains ->
                let table', snap', events' = at domains in
                let what = Printf.sprintf "%s at domains %d" id domains in
                Alcotest.(check string) (what ^ ": table") table table';
                Alcotest.(check string) (what ^ ": metrics") snap snap';
                Alcotest.(check int) (what ^ ": trace events") events events')
              [ 2; 4 ])
          [
            ("E13", Experiments.E13_faults.run);
            ("E14", Experiments.E14_cityscale.run);
          ]);
    Alcotest.test_case "E15: at the peak, replication wins reads and tail"
      `Quick (fun () ->
        let t = table "E15" in
        let rows = t.Experiments.Table.rows in
        let peak =
          List.fold_left
            (fun acc r -> Float.max acc (number (List.hd r)))
            0.0 rows
        in
        let at placement =
          match
            List.find_opt
              (fun r -> number (List.hd r) = peak && List.nth r 1 = placement)
              rows
          with
          | Some r -> (number (List.nth r 2), time_us (List.nth r 5))
          | None -> Alcotest.failf "no %s row at %.0f clients" placement peak
        in
        let static_reads, static_p99 = at "static"
        and repl_reads, repl_p99 = at "replicate" in
        Alcotest.(check bool)
          (Printf.sprintf "reads/s %.0f >= 1.2 x %.0f" repl_reads static_reads)
          true
          (repl_reads >= 1.2 *. static_reads);
        Alcotest.(check bool)
          (Printf.sprintf "p99 %.0f us >= 2 x %.0f us" static_p99 repl_p99)
          true
          (static_p99 >= 2.0 *. repl_p99));
  ]

let () =
  Alcotest.run "experiments"
    [ ("structure", structure_tests); ("shapes", shape_tests) ]
