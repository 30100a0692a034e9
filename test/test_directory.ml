(* Tests for Pfs.Directory: popularity-aware replication and read
   load balancing over a fleet of log-structured file servers. *)

let ms = Sim.Time.ms

let seg_64k = 65536

let pattern n tag = Bytes.init n (fun i -> Char.chr ((i + tag) land 0xff))

(* A fleet of [n] data-storing shards wired through a loopback
   transport. *)
let fleet ?(n = 4) ?(segment_bytes = seg_64k) ?delay ?config e =
  let logs =
    Array.init n (fun _ ->
        let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes () in
        Pfs.Log.create e ~raid ())
  in
  Pfs.Directory.create e ~logs
    ~transport:(Pfs.Directory.loopback ?delay e)
    ?config ()

let dir_write e dir fid ~off data =
  let done_ = ref false in
  Pfs.Directory.write dir fid ~off ~data ~len:(Bytes.length data) (fun r ->
      (match r with Ok () -> () | Error _ -> Alcotest.fail "write failed");
      done_ := true);
  Sim.Engine.run e;
  Alcotest.(check bool) "write completed" true !done_

let dir_sync e dir =
  let done_ = ref false in
  Pfs.Directory.sync dir ~k:(fun r ->
      (match r with Ok () -> () | Error _ -> Alcotest.fail "sync failed");
      done_ := true);
  Sim.Engine.run e;
  Alcotest.(check bool) "sync completed" true !done_

(* Drive one hot file through a read storm and a cool-down, checking
   bytes on every read, and return a fingerprint of everything
   observable.  Used once for the behaviour assertions and twice for
   the determinism check. *)
let grow_shrink_scenario () =
  let e = Sim.Engine.create () in
  let config =
    {
      Pfs.Directory.default_config with
      per_replica_rate = 25.0;
      max_replicas = 3;
      ewma_tau = ms 100;
      review_period = ms 5;
    }
  in
  let dir = fleet ~n:4 ~config e in
  let data = Array.init 4 (fun tag -> pattern seg_64k (7 * (tag + 1))) in
  let fids = Array.init 4 (fun _ -> Pfs.Directory.create_file dir ()) in
  Array.iteri (fun i fid -> dir_write e dir fid ~off:0 data.(i)) fids;
  dir_sync e dir;
  let hot = fids.(1) in
  let t0 = Sim.Engine.now e in
  let reads_done = ref 0 and mismatches = ref 0 in
  (* 300 reads at 10 ms spacing: a 100 reads/s EWMA against a 25
     reads/s per-replica budget wants more than the 3-replica cap,
     and one shard's disks (~58 64KB-reads/s) cannot keep up alone —
     the replica set both forms and carries real load. *)
  for i = 0 to 299 do
    ignore
      (Sim.Engine.schedule_at e
         ~at:(Sim.Time.add t0 (ms (10 * i)))
         (fun () ->
           Pfs.Directory.read dir ~client:(i mod 8) hot ~off:0 ~len:seg_64k
             ~k:(fun r ->
               incr reads_done;
               match r with
               | Ok (Some b) ->
                   if not (Bytes.equal b data.(1)) then incr mismatches
               | _ -> incr mismatches)))
  done;
  (* Probe at the height of the storm, long after growth settles. *)
  let peak_replicas = ref [] and peak_rate = ref 0.0 in
  ignore
    (Sim.Engine.schedule_at e
       ~at:(Sim.Time.add t0 (ms 1500))
       (fun () ->
         peak_replicas := Pfs.Directory.replicas_of dir hot;
         peak_rate := Pfs.Directory.rate_of dir hot));
  (* The review tick is a daemon, so the cool-down needs a time bound
     to keep firing after the last read drains. *)
  Sim.Engine.run e ~until:(Sim.Time.add t0 (ms 4500));
  let ints l = String.concat "," (List.map string_of_int l) in
  let srv = List.init 4 (Pfs.Directory.server_reads dir) in
  let rbytes = List.init 4 (Pfs.Directory.server_replica_bytes dir) in
  let fingerprint =
    Printf.sprintf
      "done=%d mism=%d peak=[%s] prate=%.6f final=[%s] total=%d home=%d \
       rep=%d started=%d completed=%d discarded=%d dropped=%d srv=[%s] \
       rbytes=[%s] erate=%.6f"
      !reads_done !mismatches (ints !peak_replicas) !peak_rate
      (ints (Pfs.Directory.replicas_of dir hot))
      (Pfs.Directory.reads_total dir)
      (Pfs.Directory.reads_home dir)
      (Pfs.Directory.reads_replica dir)
      (Pfs.Directory.replications_started dir)
      (Pfs.Directory.replications_completed dir)
      (Pfs.Directory.replications_discarded dir)
      (Pfs.Directory.replicas_dropped dir)
      (ints srv) (ints rbytes)
      (Pfs.Directory.rate_of dir hot)
  in
  (dir, !reads_done, !mismatches, !peak_replicas, srv, fingerprint)

let replication_tests =
  [
    Alcotest.test_case "static config never replicates" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let config =
          {
            Pfs.Directory.default_config with
            replicate = false;
            max_replicas = 1;
          }
        in
        let dir = fleet ~n:2 ~config e in
        let data = pattern seg_64k 5 in
        let fid = Pfs.Directory.create_file dir () in
        dir_write e dir fid ~off:0 data;
        dir_sync e dir;
        let t0 = Sim.Engine.now e in
        for i = 0 to 99 do
          ignore
            (Sim.Engine.schedule_at e
               ~at:(Sim.Time.add t0 (ms i))
               (fun () ->
                 Pfs.Directory.read dir fid ~off:0 ~len:512 ~k:(fun _ -> ())))
        done;
        Sim.Engine.run e ~until:(Sim.Time.add t0 (ms 1500));
        Alcotest.(check int) "no copies" 0
          (Pfs.Directory.replications_started dir);
        Alcotest.(check (list int)) "no replicas" []
          (Pfs.Directory.replicas_of dir fid);
        Alcotest.(check int) "all reads at home" 100
          (Pfs.Directory.server_reads dir (Pfs.Directory.home_of dir fid)));
    Alcotest.test_case "hot file grows to the replica cap, then shrinks away"
      `Quick (fun () ->
        let dir, reads_done, mismatches, peak, srv, _ =
          grow_shrink_scenario ()
        in
        Alcotest.(check int) "every read completed" 300 reads_done;
        Alcotest.(check int) "every read byte-exact" 0 mismatches;
        Alcotest.(check int) "grew to max_replicas" 3 (List.length peak);
        Alcotest.(check (list int)) "cooled back to none" []
          (Pfs.Directory.replicas_of dir 1);
        Alcotest.(check bool) "replica serves happened" true
          (Pfs.Directory.reads_replica dir > 0);
        Alcotest.(check bool) "home still serves" true
          (Pfs.Directory.reads_home dir > 0);
        Alcotest.(check bool) "3+ copies built" true
          (Pfs.Directory.replications_completed dir >= 3);
        Alcotest.(check bool) "3+ replicas dropped on cooling" true
          (Pfs.Directory.replicas_dropped dir >= 3);
        (* Rotation + load bias actually spreads the storm: every
           shard in the replica set took a share. *)
        Alcotest.(check int) "reads conserved" 300
          (List.fold_left ( + ) 0 srv);
        Alcotest.(check bool) "load spread over 3+ shards" true
          (List.length (List.filter (fun r -> r > 0) srv) >= 3);
        (* Replica segment bytes are recycled when the set shrinks. *)
        Alcotest.(check (list int)) "replica bytes returned" [ 0; 0; 0; 0 ]
          (List.init 4 (Pfs.Directory.server_replica_bytes dir));
        Alcotest.(check bool) "rate decayed" true
          (Pfs.Directory.rate_of dir 1 < 1.0));
    Alcotest.test_case "grow/shrink runs are byte-deterministic" `Quick
      (fun () ->
        let _, _, _, _, _, fp1 = grow_shrink_scenario () in
        let _, _, _, _, _, fp2 = grow_shrink_scenario () in
        Alcotest.(check string) "identical fingerprints" fp1 fp2);
    Alcotest.test_case
      "a reseal mid-copy discards the copy and never serves stale bytes"
      `Quick (fun () ->
        let e = Sim.Engine.create () in
        let config =
          {
            Pfs.Directory.default_config with
            per_replica_rate = 5.0;
            max_replicas = 2;
            ewma_tau = ms 100;
            review_period = ms 5;
          }
        in
        (* A 10 ms transport keeps the first copy airborne across the
           rewrite below. *)
        let dir = fleet ~n:3 ~delay:(ms 10) ~config e in
        let a = pattern seg_64k 3 in
        let b = pattern 8192 91 in
        let fresh = Bytes.copy a in
        Bytes.blit b 0 fresh 0 8192;
        let fid = Pfs.Directory.create_file dir () in
        dir_write e dir fid ~off:0 a;
        dir_sync e dir;
        let t0 = Sim.Engine.now e in
        let b_done = ref false and failures = ref 0 in
        let checked = ref 0 and stale = ref 0 in
        (* Reads from 2 ms push the rate over threshold; the 5 ms
           review tick launches a copy of version 1. *)
        for i = 1 to 60 do
          ignore
            (Sim.Engine.schedule_at e
               ~at:(Sim.Time.add t0 (ms (2 * i)))
               (fun () ->
                 let after_reseal = !b_done in
                 Pfs.Directory.read dir fid ~off:0 ~len:seg_64k ~k:(fun r ->
                     incr checked;
                     match r with
                     | Ok (Some got) ->
                         let old_ok = Bytes.equal got a in
                         let new_ok = Bytes.equal got fresh in
                         if not (old_ok || new_ok) then incr failures;
                         if after_reseal && not new_ok then incr stale
                     | _ -> incr failures)))
        done;
        (* Rewrite the head of the file at 7 ms — while the version-1
           copy is still in flight — then reseal. *)
        ignore
          (Sim.Engine.schedule_at e
             ~at:(Sim.Time.add t0 (ms 7))
             (fun () ->
               Pfs.Directory.write dir fid ~off:0 ~data:b ~len:8192 (fun r ->
                   (match r with Ok () -> () | Error _ -> incr failures);
                   Pfs.Directory.sync dir ~k:(fun r ->
                       (match r with Ok () -> () | Error _ -> incr failures);
                       b_done := true))));
        (* 60 64KB reads take ~1 s on one shard's disks; leave room
           for the tail to drain. *)
        Sim.Engine.run e ~until:(Sim.Time.add t0 (ms 2500));
        Alcotest.(check int) "every read completed" 60 !checked;
        Alcotest.(check int) "no op failed or returned garbage" 0 !failures;
        Alcotest.(check int) "no stale replica serve after the reseal" 0
          !stale;
        Alcotest.(check bool) "the in-flight copy was discarded" true
          (Pfs.Directory.replications_discarded dir >= 1);
        Alcotest.(check bool) "the new version replicated afterwards" true
          (Pfs.Directory.replications_completed dir >= 1));
  ]

(* Model-based property: arbitrary write/read/sync/advance sequences
   against a replicating fleet must return exactly the home shard's
   bytes on every read — replicas, caches and routing never change
   what a client sees. *)

type dir_op =
  | D_write of int * int * int  (* file slot, offset, length *)
  | D_read of int * int * int
  | D_sync
  | D_advance  (* let review ticks and copies run for 25 ms *)

let dir_op_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun f off len -> D_write (f, off, len))
            (int_range 0 2) (int_range 0 24_000) (int_range 1 8_000) );
        ( 6,
          map3
            (fun f off len -> D_read (f, off, len))
            (int_range 0 2) (int_range 0 24_000) (int_range 1 8_000) );
        (1, return D_sync);
        (2, return D_advance);
      ])

let run_dir_ops ops =
  let e = Sim.Engine.create () in
  let config =
    {
      Pfs.Directory.default_config with
      (* One read is enough to trigger replication, so the op mix
         constantly builds, invalidates and rebuilds replicas. *)
      per_replica_rate = 1.0;
      max_replicas = 2;
      ewma_tau = ms 50;
      review_period = ms 2;
    }
  in
  let dir = fleet ~n:3 ~segment_bytes:16_384 ~config e in
  let file_bytes = 32_768 in
  let fids = Array.init 3 (fun _ -> Pfs.Directory.create_file dir ()) in
  let model = Array.init 3 (fun i -> pattern file_bytes (40 + i)) in
  let ok = ref true in
  Array.iteri
    (fun i fid ->
      Pfs.Directory.write dir fid ~off:0 ~data:model.(i) ~len:file_bytes
        (fun r -> if r <> Ok () then ok := false))
    fids;
  Sim.Engine.run e;
  Pfs.Directory.sync dir ~k:(fun r -> if r <> Ok () then ok := false);
  Sim.Engine.run e;
  let tag = ref 100 in
  let apply = function
    | D_write (f, off, len) ->
        incr tag;
        let data = pattern len !tag in
        Bytes.blit data 0 model.(f) off len;
        Pfs.Directory.write dir fids.(f) ~off ~data ~len (fun r ->
            if r <> Ok () then ok := false)
    | D_read (f, off, len) ->
        let expect = Bytes.sub model.(f) off len in
        Pfs.Directory.read dir fids.(f) ~off ~len ~k:(fun r ->
            match r with
            | Ok (Some got) -> if not (Bytes.equal got expect) then ok := false
            | _ -> ok := false)
    | D_sync ->
        Pfs.Directory.sync dir ~k:(fun r -> if r <> Ok () then ok := false)
    | D_advance ->
        Sim.Engine.run e ~until:(Sim.Time.add (Sim.Engine.now e) (ms 25))
  in
  List.iter
    (fun op ->
      apply op;
      Sim.Engine.run e)
    ops;
  (* Let any copy still in flight land, then audit every byte of every
     file once more through the directory. *)
  Sim.Engine.run e ~until:(Sim.Time.add (Sim.Engine.now e) (ms 100));
  Array.iteri
    (fun f fid ->
      Pfs.Directory.read dir fid ~off:0 ~len:file_bytes ~k:(fun r ->
          match r with
          | Ok (Some got) -> if not (Bytes.equal got model.(f)) then ok := false
          | _ -> ok := false))
    fids;
  Sim.Engine.run e;
  !ok

let model_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"directory reads equal home-shard bytes under churn" ~count:30
         QCheck2.Gen.(list_size (int_range 5 40) dir_op_gen)
         run_dir_ops);
  ]

(* The E15 rows are independent worlds fanned over domains; any domain
   count must produce the same numbers, and record the same metrics
   into the run's context. *)
let e15_tests =
  [
    Alcotest.test_case "E15 results identical across domains 1/2/4" `Slow
      (fun () ->
        let snapshot reg = Sim.Json.to_string (Sim.Metrics.snapshot reg) in
        let at domains =
          let ctx = Sim.Ctx.create ~domains () in
          let rows = Experiments.E15_vodscale.results ~quick:true ctx in
          (rows, snapshot (Sim.Ctx.metrics ctx))
        in
        let r1, m1 = at 1 and r2, m2 = at 2 and r4, m4 = at 4 in
        Alcotest.(check bool) "domains 1 = 2" true (r1 = r2);
        Alcotest.(check bool) "domains 1 = 4" true (r1 = r4);
        Alcotest.(check bool) "metrics recorded" true
          (m1 <> snapshot (Sim.Metrics.create ()));
        Alcotest.(check string) "metrics, domains 1 = 2" m1 m2;
        Alcotest.(check string) "metrics, domains 1 = 4" m1 m4);
  ]

let () =
  Alcotest.run "directory"
    [
      ("replication", replication_tests);
      ("model", model_tests);
      ("e15", e15_tests);
    ]
