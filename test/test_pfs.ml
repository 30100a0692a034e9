(* Tests for the Pegasus file server: disks, RAID, log, cleaners,
   cache, client agent, continuous-media stack. *)

let ms = Sim.Time.ms
let time = Alcotest.testable Sim.Time.pp ( = )

let seg_64k = 65536

let rig ?(store_data = true) ?(segment_bytes = seg_64k) () =
  let e = Sim.Engine.create () in
  let raid = Pfs.Raid.create e ~store_data ~segment_bytes () in
  let log = Pfs.Log.create e ~raid () in
  (e, raid, log)

(* Write a deterministic pattern and return it. *)
let pattern n tag = Bytes.init n (fun i -> Char.chr ((i + tag) land 0xff))

let write_ok e log fid ~off data =
  let done_ = ref false in
  Pfs.Log.write log fid ~off ~data ~len:(Bytes.length data) (fun r ->
      (match r with Ok () -> () | Error _ -> Alcotest.fail "write failed");
      done_ := true);
  Sim.Engine.run e;
  Alcotest.(check bool) "write completed" true !done_

let read_back e log fid ~off ~len =
  let result = ref None in
  Pfs.Log.read log fid ~off ~len ~k:(fun r -> result := Some r);
  Sim.Engine.run e;
  match !result with
  | Some (Ok (Some b)) -> b
  | Some (Ok None) -> Alcotest.fail "no data stored"
  | Some (Error _) -> Alcotest.fail "read failed"
  | None -> Alcotest.fail "read never completed"

let disk_tests =
  [
    Alcotest.test_case "sequential I/O avoids seeks" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let d = Pfs.Disk.create e ~name:"d" in
        let n = 16 in
        for i = 0 to n - 1 do
          Pfs.Disk.write d ~off:(i * 65536) ~len:65536 ~k:(fun _ -> ())
        done;
        Sim.Engine.run e;
        (* Only the first op positions the head. *)
        Alcotest.(check bool) "one seek's worth" true
          Sim.Time.(Pfs.Disk.seek_time d < Sim.Time.ms 20);
        Alcotest.(check int) "ops" n (Pfs.Disk.writes d));
    Alcotest.test_case "random I/O pays positioning" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let d = Pfs.Disk.create e ~name:"d" in
        for i = 0 to 15 do
          let off = (i * 7919 * 65536) mod 1_000_000_000 in
          Pfs.Disk.read_flow d ~flow:Sim.Trace.no_flow ~off ~len:4096
            ~k:(fun _ -> ())
        done;
        Sim.Engine.run e;
        Alcotest.(check bool) "seeks dominate" true
          Sim.Time.(Pfs.Disk.seek_time d > Sim.Time.ms 50));
    Alcotest.test_case "megabyte extents keep seek overhead under 10%" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let d = Pfs.Disk.create e ~name:"d" in
        (* Alternate between two distant regions, 1MB at a time: every
           op seeks, as when the log head and a read stream compete. *)
        for i = 0 to 19 do
          let off = if i mod 2 = 0 then i * 1_048_576 else 1_500_000_000 + (i * 1_048_576) in
          Pfs.Disk.write d ~off ~len:1_048_576 ~k:(fun _ -> ())
        done;
        Sim.Engine.run e;
        let overhead =
          Sim.Time.to_sec_f (Pfs.Disk.seek_time d)
          /. Sim.Time.to_sec_f (Pfs.Disk.busy_time d)
        in
        Alcotest.(check bool)
          (Printf.sprintf "overhead %.1f%%" (overhead *. 100.))
          true (overhead < 0.10);
        (* ...which sustains at least the paper's 5 MB/s per disk. *)
        let rate =
          Float.of_int (Pfs.Disk.bytes_written d)
          /. Sim.Time.to_sec_f (Pfs.Disk.busy_time d)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%.2f MB/s" (rate /. 1e6))
          true
          (rate >= 5.0e6));
    Alcotest.test_case "failed disks answer with errors" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let d = Pfs.Disk.create e ~name:"d" in
        Pfs.Disk.fail d;
        let got = ref None in
        Pfs.Disk.read_flow d ~flow:Sim.Trace.no_flow ~off:0 ~len:100
          ~k:(fun r -> got := Some r);
        Sim.Engine.run e;
        Alcotest.(check bool) "error" true (!got = Some (Error `Failed));
        Pfs.Disk.repair d;
        Pfs.Disk.read_flow d ~flow:Sim.Trace.no_flow ~off:0 ~len:100
          ~k:(fun r -> got := Some r);
        Sim.Engine.run e;
        Alcotest.(check bool) "ok after repair" true (!got = Some (Ok ())));
  ]

let raid_tests =
  [
    Alcotest.test_case "write/read round-trips through striping" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:4096 () in
        let data = pattern 4096 7 in
        Pfs.Raid.write_segment raid ~seg:3 ~data (fun r ->
            Alcotest.(check bool) "write ok" true (r = Ok ()));
        Sim.Engine.run e;
        let got = ref None in
        Pfs.Raid.read_segment raid ~seg:3 ~k:(fun r -> got := Some r);
        Sim.Engine.run e;
        match !got with
        | Some (Ok (Some b)) -> Alcotest.(check bytes) "data" data b
        | _ -> Alcotest.fail "read failed");
    Alcotest.test_case "a single failed data disk is reconstructed from parity"
      `Quick (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:4096 () in
        let data = pattern 4096 11 in
        Pfs.Raid.write_segment raid ~seg:0 ~data (fun _ -> ());
        Sim.Engine.run e;
        Pfs.Raid.fail_disk raid 2;
        let got = ref None in
        Pfs.Raid.read_segment raid ~seg:0 ~k:(fun r -> got := Some r);
        Sim.Engine.run e;
        (match !got with
        | Some (Ok (Some b)) -> Alcotest.(check bytes) "reconstructed" data b
        | _ -> Alcotest.fail "degraded read failed");
        Alcotest.(check (list int)) "failed list" [ 2 ]
          (Pfs.Raid.failed_disks raid);
        (* Repaired, the disk serves its chunk again: no parity needed. *)
        Pfs.Raid.repair_disk raid 2;
        Alcotest.(check (list int)) "none failed" []
          (Pfs.Raid.failed_disks raid);
        let degraded = Pfs.Raid.degraded_reads raid in
        Pfs.Raid.read_segment raid ~seg:0 ~k:(fun r -> got := Some r);
        Sim.Engine.run e;
        (match !got with
        | Some (Ok (Some b)) -> Alcotest.(check bytes) "after repair" data b
        | _ -> Alcotest.fail "read after repair failed");
        Alcotest.(check int) "not degraded" degraded
          (Pfs.Raid.degraded_reads raid));
    Alcotest.test_case "a failed parity disk does not block reads" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:4096 () in
        let data = pattern 4096 13 in
        Pfs.Raid.write_segment raid ~seg:0 ~data (fun _ -> ());
        Sim.Engine.run e;
        Pfs.Raid.fail_disk raid (Pfs.Raid.data_disks raid);
        let got = ref None in
        Pfs.Raid.read_segment raid ~seg:0 ~k:(fun r -> got := Some r);
        Sim.Engine.run e;
        match !got with
        | Some (Ok (Some b)) -> Alcotest.(check bytes) "data intact" data b
        | _ -> Alcotest.fail "read failed");
    Alcotest.test_case "two failures lose data" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:4096 () in
        Pfs.Raid.write_segment raid ~seg:0 ~data:(pattern 4096 1) (fun _ -> ());
        Sim.Engine.run e;
        Pfs.Raid.fail_disk raid 0;
        Pfs.Raid.fail_disk raid 1;
        let got = ref None in
        Pfs.Raid.read_segment raid ~seg:0 ~k:(fun r -> got := Some r);
        Sim.Engine.run e;
        Alcotest.(check bool) "lost" true (!got = Some (Error `Lost)));
    Alcotest.test_case "striping multiplies single-disk bandwidth by ~4" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let seg = 1_048_576 in
        let raid = Pfs.Raid.create e ~segment_bytes:seg () in
        let t0 = Sim.Engine.now e in
        let done_at = ref Sim.Time.zero in
        let rec write n =
          if n < 20 then
            Pfs.Raid.write_segment raid ~seg:n (fun _ ->
                done_at := Sim.Engine.now e;
                write (n + 1))
        in
        write 0;
        Sim.Engine.run e;
        let rate =
          Float.of_int (20 * seg) /. Sim.Time.to_sec_f (Sim.Time.sub !done_at t0)
        in
        (* The paper: four striped disks make 20 MB/s possible. *)
        Alcotest.(check bool)
          (Printf.sprintf "%.1f MB/s" (rate /. 1e6))
          true
          (rate > 18.0e6));
    Alcotest.test_case "partial reads touch only the stripes they cover" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~segment_bytes:1_048_576 () in
        Pfs.Raid.write_segment raid ~seg:0 (fun _ -> ());
        Sim.Engine.run e;
        (* 10 KB within the first 256 KB chunk: only disk 0 reads. *)
        Pfs.Raid.read_extent raid ~seg:0 ~off:1000 ~len:10_000 ~k:(fun _ -> ());
        Sim.Engine.run e;
        let reads_per_disk =
          List.map (fun d -> Pfs.Disk.reads d) (Pfs.Raid.disks raid)
        in
        Alcotest.(check (list int)) "one disk" [ 1; 0; 0; 0; 0 ] reads_per_disk);
    Alcotest.test_case "multi-chunk extents read later chunks from their start"
      `Quick (fun () ->
        let e = Sim.Engine.create () in
        (* chunk = 1024 *)
        let raid = Pfs.Raid.create e ~segment_bytes:4096 () in
        Pfs.Raid.write_segment raid ~seg:1 (fun _ -> ());
        Sim.Engine.run e;
        (* Extent [1000, 2048) of segment 1: disk 0 serves the last 24
           bytes of its chunk, disk 1 the first 1024 of its own.  The
           head position after the read exposes the per-disk offset
           actually used — disk 1 must start at its chunk's beginning,
           not repeat disk 0's intra-chunk offset. *)
        Pfs.Raid.read_extent raid ~seg:1 ~off:1000 ~len:1048 ~k:(fun _ -> ());
        Sim.Engine.run e;
        let disks = Array.of_list (Pfs.Raid.disks raid) in
        Alcotest.(check int) "disk0 head" (1024 + 1000 + 24)
          (Pfs.Disk.head disks.(0));
        Alcotest.(check int) "disk1 head" (1024 + 0 + 1024)
          (Pfs.Disk.head disks.(1)));
    Alcotest.test_case "a disk failing mid-read falls back to parity" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:4096 () in
        let data = pattern 4096 17 in
        Pfs.Raid.write_segment raid ~seg:0 ~data (fun _ -> ());
        Sim.Engine.run e;
        (* The disk dies a microsecond after the chunk reads are
           issued: its in-flight read completes with an error after the
           targets were chosen, which must trigger a retry over the
           survivors plus parity, not a lost segment. *)
        let got = ref None in
        Pfs.Raid.read_segment raid ~seg:0 ~k:(fun r -> got := Some r);
        Pfs.Raid.fail_disk_at raid 1
          ~at:(Sim.Time.add (Sim.Engine.now e) (Sim.Time.us 1));
        Sim.Engine.run e;
        (match !got with
        | Some (Ok (Some b)) -> Alcotest.(check bytes) "reconstructed" data b
        | _ -> Alcotest.fail "mid-read failure was not survived");
        Alcotest.(check bool) "served degraded" true
          (Pfs.Raid.degraded_reads raid > 0));
    Alcotest.test_case "every single-disk failure in turn is survived" `Quick
      (fun () ->
        for victim = 0 to 4 do
          let e = Sim.Engine.create () in
          let raid =
            Pfs.Raid.create e ~store_data:true ~segment_bytes:4096 ()
          in
          let data = pattern 4096 (19 + victim) in
          Pfs.Raid.write_segment raid ~seg:0 ~data (fun _ -> ());
          Sim.Engine.run e;
          Pfs.Raid.fail_disk raid victim;
          let got = ref None in
          Pfs.Raid.read_segment raid ~seg:0 ~k:(fun r -> got := Some r);
          Sim.Engine.run e;
          match !got with
          | Some (Ok (Some b)) ->
              Alcotest.(check bytes)
                (Printf.sprintf "disk %d down, data intact" victim)
                data b
          | _ -> Alcotest.failf "read failed with disk %d down" victim
        done);
    Alcotest.test_case "a transient failure window heals" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:4096 () in
        let data = pattern 4096 23 in
        Pfs.Raid.write_segment raid ~seg:0 ~data (fun _ -> ());
        Sim.Engine.run e;
        Pfs.Raid.fail_disk_for raid 0
          ~at:(Sim.Engine.now e)
          ~duration:(Sim.Time.ms 1);
        let got = ref None in
        ignore
          (Sim.Engine.schedule e ~delay:(Sim.Time.ms 5) (fun () ->
               Alcotest.(check (list int)) "window over" []
                 (Pfs.Raid.failed_disks raid);
               Pfs.Raid.read_segment raid ~seg:0 ~k:(fun r -> got := Some r)));
        Sim.Engine.run e;
        match !got with
        | Some (Ok (Some b)) -> Alcotest.(check bytes) "data intact" data b
        | _ -> Alcotest.fail "read after the window failed");
  ]

let log_tests =
  [
    Alcotest.test_case "write then read returns the same bytes" `Quick
      (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        let data = pattern 10_000 3 in
        write_ok e log fid ~off:0 data;
        Alcotest.(check bytes) "round trip" data (read_back e log fid ~off:0 ~len:10_000);
        Alcotest.(check int) "size" 10_000 (Pfs.Log.file_size log fid));
    Alcotest.test_case "files spanning many segments read back intact" `Quick
      (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        let data = pattern 300_000 5 in
        (* 300KB across 64KB segments *)
        write_ok e log fid ~off:0 data;
        Alcotest.(check bytes) "all bytes" data
          (read_back e log fid ~off:0 ~len:300_000);
        Alcotest.(check bool) "several segments" true
          (Pfs.Log.total_segments log >= 5));
    Alcotest.test_case "partial overwrite keeps both old and new ranges right"
      `Quick (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        write_ok e log fid ~off:0 (Bytes.make 9000 'a');
        write_ok e log fid ~off:3000 (Bytes.make 3000 'b');
        let b = read_back e log fid ~off:0 ~len:9000 in
        Alcotest.(check char) "head" 'a' (Bytes.get b 0);
        Alcotest.(check char) "edge before" 'a' (Bytes.get b 2999);
        Alcotest.(check char) "overwritten" 'b' (Bytes.get b 3000);
        Alcotest.(check char) "edge inside" 'b' (Bytes.get b 5999);
        Alcotest.(check char) "tail" 'a' (Bytes.get b 6000));
    Alcotest.test_case "overwrites record garbage" `Quick (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        write_ok e log fid ~off:0 (pattern 5000 1);
        let before = Pfs.Garbage.count (Pfs.Log.garbage log) in
        write_ok e log fid ~off:0 (pattern 5000 2);
        Alcotest.(check bool) "entries appended" true (Pfs.Garbage.count (Pfs.Log.garbage log) > before);
        Alcotest.(check bool) "at least the data range" true
          (Pfs.Garbage.total_bytes (Pfs.Log.garbage log) >= 5000));
    Alcotest.test_case "delete turns the whole file into garbage" `Quick
      (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        write_ok e log fid ~off:0 (pattern 5000 1);
        let live0 = Pfs.Log.live_bytes log in
        Pfs.Log.delete log fid ~k:(fun r ->
            Alcotest.(check bool) "ok" true (r = Ok ()));
        Sim.Engine.run e;
        Alcotest.(check bool) "gone" false (Pfs.Log.file_exists log fid);
        Alcotest.(check bool) "live dropped" true (Pfs.Log.live_bytes log < live0));
    Alcotest.test_case "holes read as zeros" `Quick (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        write_ok e log fid ~off:8000 (Bytes.make 100 'x');
        let b = read_back e log fid ~off:0 ~len:8100 in
        Alcotest.(check char) "hole" '\000' (Bytes.get b 0);
        Alcotest.(check char) "data" 'x' (Bytes.get b 8000));
    Alcotest.test_case "sync seals open segments (tails become garbage)" `Quick
      (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        write_ok e log fid ~off:0 (pattern 1000 1);
        let g0 = Pfs.Garbage.total_bytes (Pfs.Log.garbage log) in
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Alcotest.(check bool) "tail recorded" true
          (Pfs.Garbage.total_bytes (Pfs.Log.garbage log) > g0);
        (* Data still readable after sealing. *)
        Alcotest.(check bytes) "after sync" (pattern 1000 1)
          (read_back e log fid ~off:0 ~len:1000));
    Alcotest.test_case "metadata updates append to the normal log" `Quick
      (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        let m0 = Pfs.Log.metadata_writes log in
        write_ok e log fid ~off:0 (pattern 100 1);
        write_ok e log fid ~off:100 (pattern 100 2);
        Alcotest.(check int) "one pnode write per update" (m0 + 2)
          (Pfs.Log.metadata_writes log));
    Alcotest.test_case "cleaning preserves every live byte" `Quick (fun () ->
        let e, _, log = rig () in
        let keep = Pfs.Log.create_file log () in
        let doomed = Pfs.Log.create_file log () in
        let kept_data = pattern 40_000 9 in
        write_ok e log keep ~off:0 kept_data;
        write_ok e log doomed ~off:0 (pattern 40_000 4);
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Log.delete log doomed ~k:(fun _ -> ());
        Sim.Engine.run e;
        (* Clean every sealed segment that has garbage. *)
        let cleaned = ref (-1) in
        Pfs.Cleaner.run log (fun stats ->
            cleaned := stats.Pfs.Cleaner.segments_cleaned);
        Sim.Engine.run e;
        Alcotest.(check bool) "cleaned some" true (!cleaned > 0);
        Alcotest.(check bytes) "live data intact" kept_data
          (read_back e log keep ~off:0 ~len:40_000);
        Alcotest.(check bool) "segments freed" true (Pfs.Log.free_segments log > 0));
    Alcotest.test_case "freed segments are reused" `Quick (fun () ->
        let e, _, log = rig () in
        let doomed = Pfs.Log.create_file log () in
        write_ok e log doomed ~off:0 (pattern 100_000 4);
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Log.delete log doomed ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Cleaner.run log (fun _ -> ());
        Sim.Engine.run e;
        let segs_before = Pfs.Log.total_segments log in
        let f = Pfs.Log.create_file log () in
        write_ok e log f ~off:0 (pattern 100_000 6);
        (* Reuse means the table barely grows. *)
        Alcotest.(check bool) "reused free segments" true
          (Pfs.Log.total_segments log <= segs_before + 1));
    Alcotest.test_case "write+sync cost per file stays flat as files grow"
      `Quick (fun () ->
        (* Minor-heap words per file to create [n] files, write 16 KB to
           each and sync: a cost that grows with the file system (a copy
           of the mapping at every seal) shows up as growth here. *)
        let words_per_file n =
          let e, _, log = rig ~store_data:false () in
          let w0 = Gc.minor_words () in
          for _ = 1 to n do
            let fid = Pfs.Log.create_file log () in
            Pfs.Log.write log fid ~off:0 ~len:16_384 (fun _ -> ())
          done;
          Pfs.Log.sync log ~k:(fun _ -> ());
          Sim.Engine.run e;
          (Gc.minor_words () -. w0) /. Float.of_int n
        in
        let small = words_per_file 256 and big = words_per_file 4096 in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f -> %.0f words per file" small big)
          true
          (big <= 1.25 *. small));
    Alcotest.test_case "a sealed segment reads zero past its written bytes"
      `Quick (fun () ->
        let e, raid, log = rig () in
        let sync () =
          Pfs.Log.sync log ~k:(fun _ -> ());
          Sim.Engine.run e
        in
        (* [fid]'s one extent and zeros everywhere else: the pnode
           records around it carry no data. *)
        let check_segment what fid data =
          let seg, soff =
            match Pfs.Log.file_extents log fid with
            | [ (_, seg, soff, _) ] -> (seg, soff)
            | _ -> Alcotest.fail "one extent expected"
          in
          let expected = Bytes.make seg_64k '\000' in
          Bytes.blit data 0 expected soff (Bytes.length data);
          let check how =
            match Pfs.Raid.peek_segment raid ~seg with
            | None -> Alcotest.failf "%s, %s: segment unreadable" what how
            | Some got ->
                let first_diff = ref (-1) in
                Bytes.iteri
                  (fun i c ->
                    if !first_diff < 0 && c <> Bytes.get expected i then
                      first_diff := i)
                  got;
                Alcotest.(check int)
                  (Printf.sprintf "%s, %s: first wrong byte" what how)
                  (-1) !first_diff
          in
          check "intact";
          Pfs.Raid.fail_disk raid 0;
          check "rebuilt from parity";
          Pfs.Raid.repair_disk raid 0
        in
        let short = pattern 100 7 in
        (* Seal a segment full of non-zero bytes (after the 64-byte
           pnode record of the create), then seal a short extent into
           the next one. *)
        let full = Pfs.Log.create_file log () in
        write_ok e log full ~off:0 (Bytes.make (seg_64k - 64) '\xff');
        let a = Pfs.Log.create_file log () in
        write_ok e log a ~off:0 short;
        sync ();
        check_segment "after a seal" a short;
        (* Lose a partly filled open segment, then seal a short extent
           into the buffer it used. *)
        let lost = Pfs.Log.create_file log () in
        write_ok e log lost ~off:0 (Bytes.make 30_000 '\xff');
        Pfs.Log.crash_and_recover log ~k:(fun ~lost_bytes:_ -> ());
        Sim.Engine.run e;
        let b = Pfs.Log.create_file log () in
        write_ok e log b ~off:0 short;
        sync ();
        check_segment "after a crash" b short);
    Alcotest.test_case "write+sync cost stays flat as segments grow" `Quick
      (fun () ->
        (* Host time (best of 5) and minor words per 1 KB write and
           sync on an array that stores no data.  A seal that clears
           the whole segment buffer costs 16x more at 4 MB than at
           256 KB. *)
        let ops = 64 in
        let cost segment_bytes =
          let best = ref infinity and words = ref 0.0 in
          for _ = 1 to 5 do
            let e, _, log = rig ~store_data:false ~segment_bytes () in
            let fid = Pfs.Log.create_file log () in
            let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
            for _ = 1 to ops do
              Pfs.Log.write log fid ~off:0 ~len:1000 (fun _ -> ());
              Pfs.Log.sync log ~k:(fun _ -> ());
              Sim.Engine.run e
            done;
            let dt = Unix.gettimeofday () -. t0 in
            words := (Gc.minor_words () -. w0) /. Float.of_int ops;
            best := Float.min !best (dt /. Float.of_int ops)
          done;
          (!best, !words)
        in
        let t_small, w_small = cost 262_144 and t_big, w_big = cost 4_194_304 in
        Alcotest.(check bool)
          (Printf.sprintf "%.1f -> %.1f us per write+sync" (t_small *. 1e6)
             (t_big *. 1e6))
          true
          (t_big <= 2.0 *. t_small);
        Alcotest.(check bool)
          (Printf.sprintf "%.0f -> %.0f minor words per write+sync" w_small
             w_big)
          true
          (w_big <= 1.25 *. w_small));
  ]

let garbage_tests =
  [
    Alcotest.test_case "marker freezes the cleanable prefix" `Quick (fun () ->
        let g = Pfs.Garbage.create () in
        Pfs.Garbage.append g ~seg:1 ~off:0 ~len:10;
        Pfs.Garbage.append g ~seg:2 ~off:0 ~len:20;
        Pfs.Garbage.set_marker g;
        Pfs.Garbage.append g ~seg:3 ~off:0 ~len:30;
        let before = ref 0 in
        Pfs.Garbage.iter_before_marker g (fun _ -> incr before);
        Alcotest.(check int) "two entries" 2 !before;
        Pfs.Garbage.truncate_to_marker g ~keep:(fun _ -> false);
        Alcotest.(check int) "one survives" 1 (Pfs.Garbage.count g);
        Alcotest.(check int) "its bytes" 30 (Pfs.Garbage.total_bytes g));
    Alcotest.test_case "file size reflects entry count" `Quick (fun () ->
        let g = Pfs.Garbage.create () in
        for i = 1 to 100 do
          Pfs.Garbage.append g ~seg:i ~off:0 ~len:1
        done;
        Alcotest.(check int) "16 bytes per entry" 1600 (Pfs.Garbage.file_bytes g));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"truncation keeps new entries, then the uncleaned ones"
         ~count:300
         ~print:(fun (pre, post, keep) ->
           let show l =
             String.concat ";"
               (List.map (fun (s, o, l) -> Printf.sprintf "%d/%d/%d" s o l) l)
           in
           Printf.sprintf "pre [%s] post [%s] keep %x" (show pre) (show post)
             keep)
         QCheck2.Gen.(
           let entry =
             triple (int_range 0 31) (int_range 0 65_535) (int_range 0 4096)
           in
           triple
             (list_size (int_range 0 200) entry)
             (list_size (int_range 0 40) entry)
             (int_bound 0xffff_ffff))
         (fun (pre, post, keep) ->
           let kept seg = (keep lsr seg) land 1 = 1 in
           let g = Pfs.Garbage.create () in
           let append (seg, off, len) = Pfs.Garbage.append g ~seg ~off ~len in
           List.iter append pre;
           Pfs.Garbage.set_marker g;
           List.iter append post;
           Pfs.Garbage.truncate_to_marker g ~keep:kept;
           let expected =
             post @ List.filter (fun (seg, _, _) -> kept seg) pre
           in
           let got = ref [] in
           Pfs.Garbage.set_marker g;
           Pfs.Garbage.iter_before_marker g (fun e ->
               got :=
                 (e.Pfs.Garbage.g_seg, e.Pfs.Garbage.g_off, e.Pfs.Garbage.g_len)
                 :: !got);
           List.rev !got = expected
           && Pfs.Garbage.count g = List.length expected
           && Pfs.Garbage.total_bytes g
              = List.fold_left (fun acc (_, _, len) -> acc + len) 0 expected));
  ]

(* Build a steady-state log: populate [files] files of [file_bytes],
   clean away the population garbage, then delete a fixed number of
   files — so the remaining garbage reflects churn, not file-system
   size. *)
let aged_log e ~segment_bytes ~files ~file_bytes ~delete_count =
  let raid = Pfs.Raid.create e ~segment_bytes () in
  let log = Pfs.Log.create e ~raid () in
  let fids = Array.init files (fun _ -> Pfs.Log.create_file log ()) in
  Array.iter
    (fun fid -> Pfs.Log.write log fid ~off:0 ~len:file_bytes (fun _ -> ()))
    fids;
  Pfs.Log.sync log ~k:(fun _ -> ());
  Sim.Engine.run e;
  (* Absorb the garbage created while populating. *)
  Pfs.Cleaner.run log (fun _ -> ());
  Sim.Engine.run e;
  Pfs.Log.sync log ~k:(fun _ -> ());
  Sim.Engine.run e;
  for i = 0 to delete_count - 1 do
    Pfs.Log.delete log fids.(i * (files / delete_count)) ~k:(fun _ -> ())
  done;
  Sim.Engine.run e;
  log

let cleaner_tests =
  [
    Alcotest.test_case "both cleaners reclaim the same garbage" `Quick
      (fun () ->
        let run which =
          let e = Sim.Engine.create () in
          let log =
            aged_log e ~segment_bytes:seg_64k ~files:40 ~file_bytes:32_000
              ~delete_count:10
          in
          let out = ref None in
          (match which with
          | `Pegasus -> Pfs.Cleaner.run log (fun s -> out := Some s)
          | `Sprite -> Pfs.Cleaner_sprite.run log (fun s -> out := Some s));
          Sim.Engine.run e;
          match !out with Some s -> s | None -> Alcotest.fail "no stats"
        in
        let p = run `Pegasus and s = run `Sprite in
        (* Ten files of 32 KB died; both cleaners must recover at least
           90 % of those bytes (they differ slightly on pnode slivers). *)
        let deleted = 10 * 32_000 in
        Alcotest.(check bool)
          (Printf.sprintf "pegasus reclaims %d" p.Pfs.Cleaner.bytes_reclaimed)
          true
          (p.Pfs.Cleaner.bytes_reclaimed >= deleted * 9 / 10);
        Alcotest.(check bool)
          (Printf.sprintf "sprite reclaims %d" s.Pfs.Cleaner.bytes_reclaimed)
          true
          (s.Pfs.Cleaner.bytes_reclaimed >= deleted * 9 / 10));
    Alcotest.test_case
      "pegasus scan cost tracks garbage, sprite scan cost tracks size" `Quick
      (fun () ->
        (* Same garbage, 8x file-system size. *)
        let run which ~files =
          let e = Sim.Engine.create () in
          let log =
            aged_log e ~segment_bytes:seg_64k ~files ~file_bytes:32_000
              ~delete_count:8
          in
          let out = ref None in
          (match which with
          | `Pegasus -> Pfs.Cleaner.run log (fun s -> out := Some s)
          | `Sprite -> Pfs.Cleaner_sprite.run log (fun s -> out := Some s));
          Sim.Engine.run e;
          match !out with Some s -> s | None -> Alcotest.fail "no stats"
        in
        let p_small = run `Pegasus ~files:32 in
        let p_big = run `Pegasus ~files:256 in
        let s_small = run `Sprite ~files:32 in
        let s_big = run `Sprite ~files:256 in
        (* Pegasus victim selection examined no table entries at all. *)
        Alcotest.(check int) "pegasus scans nothing (small)" 0
          p_small.Pfs.Cleaner.table_entries_scanned;
        Alcotest.(check int) "pegasus scans nothing (big)" 0
          p_big.Pfs.Cleaner.table_entries_scanned;
        Alcotest.(check bool) "sprite scan grows ~8x" true
          (s_big.Pfs.Cleaner.table_entries_scanned
          > 6 * s_small.Pfs.Cleaner.table_entries_scanned);
        (* Pegasus's scan cost is driven by entries, which stay similar. *)
        let ratio =
          Sim.Time.to_sec_f p_big.Pfs.Cleaner.scan_cost
          /. Float.max 1e-9 (Sim.Time.to_sec_f p_small.Pfs.Cleaner.scan_cost)
        in
        Alcotest.(check bool)
          (Printf.sprintf "pegasus scan ratio %.2f stays small" ratio)
          true (ratio < 3.0));
    Alcotest.test_case "writes during cleaning are untouched (marker)" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let log =
          aged_log e ~segment_bytes:seg_64k ~files:16 ~file_bytes:32_000
            ~delete_count:4
        in
        let garbage = Pfs.Log.garbage log in
        (* Start cleaning, then create new garbage mid-pass. *)
        let finished = ref false in
        Pfs.Cleaner.run log (fun _ -> finished := true);
        ignore
          (Sim.Engine.schedule e ~delay:(ms 1) (fun () ->
               let f = Pfs.Log.create_file log () in
               Pfs.Log.write log f ~off:0 ~len:10_000 (fun _ -> ());
               Pfs.Log.write log f ~off:0 ~len:10_000 (fun _ -> ())));
        Sim.Engine.run e;
        Alcotest.(check bool) "pass completed" true !finished;
        (* The overwrite's garbage survived the truncation. *)
        Alcotest.(check bool) "new garbage kept" true
          (Pfs.Garbage.count garbage > 0));
    Alcotest.test_case
      "a pass cleans the sealed segments with min_garbage, in order" `Quick
      (fun () ->
        let e, _, log = rig ~store_data:false () in
        let min_garbage = 30_000 in
        (* Seven sealed segments, each a file of [size] bytes and a
           500-byte witness file; the seal tail makes the rest garbage.
           The small files' segments hold more than [min_garbage]. *)
        let witnesses =
          List.map
            (fun size ->
              let f = Pfs.Log.create_file log () in
              let w = Pfs.Log.create_file log () in
              Pfs.Log.write log f ~off:0 ~len:size (fun _ -> ());
              Pfs.Log.write log w ~off:0 ~len:500 (fun _ -> ());
              Pfs.Log.sync log ~k:(fun _ -> ());
              Sim.Engine.run e;
              w)
            [ 1_000; 40_000; 3_000; 50_000; 5_000; 45_000; 7_000 ]
        in
        (* The open continuous segment holds 30 000 bytes of garbage. *)
        let c = Pfs.Log.create_file log ~kind:Pfs.Log.Continuous () in
        Pfs.Log.write log c ~off:0 ~len:30_000 (fun _ -> ());
        Pfs.Log.write log c ~off:0 ~len:30_000 (fun _ -> ());
        Sim.Engine.run e;
        (* The oracle: garbage bytes per segment, read from the file. *)
        let g = Pfs.Log.garbage log in
        let per_seg = Hashtbl.create 16 in
        Pfs.Garbage.set_marker g;
        Pfs.Garbage.iter_before_marker g (fun x ->
            let seg = x.Pfs.Garbage.g_seg in
            Hashtbl.replace per_seg seg
              (x.Pfs.Garbage.g_len
              + Option.value (Hashtbl.find_opt per_seg seg) ~default:0));
        Pfs.Garbage.truncate_to_marker g ~keep:(fun _ -> true);
        let over =
          Hashtbl.fold
            (fun seg bytes acc -> if bytes >= min_garbage then seg :: acc else acc)
            per_seg []
        in
        let victims =
          List.sort Int.compare (List.filter (Pfs.Log.segment_sealed log) over)
        in
        let spared =
          List.filter (fun seg -> not (List.mem seg victims))
            (List.init (Pfs.Log.total_segments log) Fun.id)
          |> List.filter (Pfs.Log.segment_sealed log)
        in
        Alcotest.(check int) "four victims" 4 (List.length victims);
        Alcotest.(check bool) "an open segment is over the bar" true
          (List.exists (fun seg -> not (List.mem seg victims)) over);
        Alcotest.(check int) "three sealed segments under the bar" 3
          (List.length spared);
        let witness_seg =
          List.map
            (fun w ->
              match Pfs.Log.file_extents log w with
              | [ (_, seg, _, _) ] -> (seg, w)
              | _ -> Alcotest.fail "one extent per witness")
            witnesses
        in
        let entries = Pfs.Garbage.count g
        and bytes = Pfs.Garbage.total_bytes g in
        let stats = ref None in
        Pfs.Cleaner.run log ~min_garbage (fun st -> stats := Some st);
        Sim.Engine.run e;
        let st =
          match !stats with Some st -> st | None -> Alcotest.fail "no stats"
        in
        let reclaimed =
          List.fold_left (fun acc seg -> acc + Hashtbl.find per_seg seg) 0 victims
        in
        Alcotest.(check int) "segments cleaned" 4 st.Pfs.Cleaner.segments_cleaned;
        Alcotest.(check int) "bytes reclaimed" reclaimed
          st.Pfs.Cleaner.bytes_reclaimed;
        Alcotest.(check int) "entries processed" entries
          st.Pfs.Cleaner.entries_processed;
        Alcotest.(check (list bool)) "victims freed" [ false; false; false; false ]
          (List.map (Pfs.Log.segment_sealed log) victims);
        Alcotest.(check (list bool)) "the rest stay sealed" [ true; true; true ]
          (List.map (Pfs.Log.segment_sealed log) spared);
        (* Only the victims' entries left the file. *)
        Alcotest.(check int) "garbage left" (bytes - reclaimed)
          (Pfs.Garbage.total_bytes g);
        (* The victims' witnesses moved to one segment in ascending
           victim order. *)
        let moved =
          List.map
            (fun seg ->
              match Pfs.Log.file_extents log (List.assoc seg witness_seg) with
              | [ (_, seg, soff, _) ] -> (seg, soff)
              | _ -> Alcotest.fail "one extent per witness")
            victims
        in
        let dest = fst (List.hd moved) in
        Alcotest.(check bool) "one destination" true
          (List.for_all (fun (seg, _) -> seg = dest) moved);
        let soffs = List.map snd moved in
        Alcotest.(check (list int)) "moved in ascending victim order"
          (List.sort Int.compare soffs) soffs);
    Alcotest.test_case "a pass skips garbage of segments a crash rolled back"
      `Quick (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~segment_bytes:16_384 () in
        let log = Pfs.Log.create e ~raid () in
        (* Buffered continuous data holds the recovery point while two
           normal seals open segments 2 and 3, and an overwrite leaves
           garbage in 3.  The crash rolls both openings back. *)
        let c = Pfs.Log.create_file log ~kind:Pfs.Log.Continuous () in
        Pfs.Log.write log c ~off:0 ~len:100 (fun _ -> ());
        let f = Pfs.Log.create_file log () in
        Pfs.Log.write log f ~off:0 ~len:40_000 (fun _ -> ());
        Pfs.Log.write log f ~off:39_000 ~len:1000 (fun _ -> ());
        Pfs.Log.crash_and_recover log ~k:(fun ~lost_bytes:_ -> ());
        Sim.Engine.run e;
        let g = Pfs.Log.garbage log in
        let above () =
          let n = ref 0 in
          Pfs.Garbage.set_marker g;
          Pfs.Garbage.iter_before_marker g (fun x ->
              if x.Pfs.Garbage.g_seg >= Pfs.Log.total_segments log then incr n);
          Pfs.Garbage.truncate_to_marker g ~keep:(fun _ -> true);
          !n
        in
        let stale = above () in
        Alcotest.(check bool) "garbage names a segment above the table" true
          (stale > 0);
        let finished = ref false in
        Pfs.Cleaner.run log (fun _ -> finished := true);
        Sim.Engine.run e;
        Alcotest.(check bool) "pass completed" true !finished;
        Alcotest.(check int) "those entries stay" stale (above ()));
    Alcotest.test_case "pass cost per garbage entry stays flat as victims grow"
      `Quick (fun () ->
        (* Host time (best of 5) and minor words per garbage entry for
           one pass over [victims] segments of 4 KB.  Each holds eight
           384-byte files with their pnode records; seven are deleted,
           so the pass moves one.  A pass that matches entries against
           its victim list grows with it. *)
        let cost victims =
          let best = ref infinity and words = ref 0.0 in
          for _ = 1 to 5 do
            let e = Sim.Engine.create () in
            let raid = Pfs.Raid.create e ~segment_bytes:4096 () in
            let log = Pfs.Log.create e ~raid () in
            let fids =
              Array.init (8 * victims) (fun _ ->
                  let fid = Pfs.Log.create_file log () in
                  Pfs.Log.write log fid ~off:0 ~len:384 (fun _ -> ());
                  fid)
            in
            Sim.Engine.run e;
            Array.iteri
              (fun i fid ->
                if i mod 8 <> 0 then Pfs.Log.delete log fid ~k:(fun _ -> ()))
              fids;
            Sim.Engine.run e;
            let entries = Pfs.Garbage.count (Pfs.Log.garbage log) in
            let cleaned = ref 0 in
            let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
            Pfs.Cleaner.run log (fun st ->
                cleaned := st.Pfs.Cleaner.segments_cleaned);
            Sim.Engine.run e;
            let dt = Unix.gettimeofday () -. t0 in
            Alcotest.(check int) "every segment is a victim" victims !cleaned;
            let per = Float.of_int entries in
            words := (Gc.minor_words () -. w0) /. per;
            best := Float.min !best (dt /. per)
          done;
          (!best, !words)
        in
        let t_small, w_small = cost 32 and t_big, w_big = cost 1024 in
        Alcotest.(check bool)
          (Printf.sprintf "%.2f -> %.2f us per entry" (t_small *. 1e6)
             (t_big *. 1e6))
          true
          (t_big <= 4.0 *. t_small);
        Alcotest.(check bool)
          (Printf.sprintf "%.0f -> %.0f minor words per entry" w_small w_big)
          true
          (w_big <= 1.25 *. w_small));
  ]

let cache_tests =
  [
    Alcotest.test_case "hits refresh recency" `Quick (fun () ->
        let c = Pfs.Cache.create ~capacity_blocks:2 () in
        Alcotest.(check bool) "miss a" true (Pfs.Cache.access c ~fid:1 ~block:0 = `Miss);
        Alcotest.(check bool) "miss b" true (Pfs.Cache.access c ~fid:1 ~block:1 = `Miss);
        Alcotest.(check bool) "hit a" true (Pfs.Cache.access c ~fid:1 ~block:0 = `Hit);
        (* c evicts b (LRU), not a. *)
        ignore (Pfs.Cache.access c ~fid:1 ~block:2);
        Alcotest.(check bool) "a kept" true (Pfs.Cache.probe c ~fid:1 ~block:0);
        Alcotest.(check bool) "b evicted" false (Pfs.Cache.probe c ~fid:1 ~block:1));
    Alcotest.test_case "sequential streams larger than the cache never hit"
      `Quick (fun () ->
        let c = Pfs.Cache.create ~capacity_blocks:100 () in
        (* Two passes over a 500-block video: pure LRU death. *)
        for _ = 1 to 2 do
          for b = 0 to 499 do
            ignore (Pfs.Cache.access c ~fid:9 ~block:b)
          done
        done;
        Alcotest.(check int) "zero hits" 0 (Pfs.Cache.hits c);
        Alcotest.(check int) "all misses" 1000 (Pfs.Cache.misses c));
    Alcotest.test_case "reuse within the working set hits" `Quick (fun () ->
        let c = Pfs.Cache.create ~capacity_blocks:100 () in
        for _ = 1 to 10 do
          for b = 0 to 49 do
            ignore (Pfs.Cache.access c ~fid:1 ~block:b)
          done
        done;
        Alcotest.(check int) "misses only once" 50 (Pfs.Cache.misses c);
        Alcotest.(check int) "the rest hit" 450 (Pfs.Cache.hits c));
    Alcotest.test_case "invalidate_file drops only that file" `Quick (fun () ->
        let c = Pfs.Cache.create ~capacity_blocks:10 () in
        ignore (Pfs.Cache.access c ~fid:1 ~block:0);
        ignore (Pfs.Cache.access c ~fid:2 ~block:0);
        Pfs.Cache.invalidate_file c ~fid:1;
        Alcotest.(check bool) "fid1 gone" false (Pfs.Cache.probe c ~fid:1 ~block:0);
        Alcotest.(check bool) "fid2 kept" true (Pfs.Cache.probe c ~fid:2 ~block:0);
        Alcotest.(check int) "size" 1 (Pfs.Cache.size c));
    Alcotest.test_case "per-fid index survives eviction and reinsertion" `Quick
      (fun () ->
        let c = Pfs.Cache.create ~capacity_blocks:4 () in
        (* Fill with fid 1, push half out with fid 2: evicted blocks
           must leave the per-fid index too, or a later invalidation
           would corrupt the LRU list. *)
        for b = 0 to 3 do ignore (Pfs.Cache.access c ~fid:1 ~block:b) done;
        for b = 0 to 1 do ignore (Pfs.Cache.access c ~fid:2 ~block:b) done;
        Alcotest.(check int) "full" 4 (Pfs.Cache.size c);
        Alcotest.(check int) "two evictions" 2 (Pfs.Cache.evictions c);
        Pfs.Cache.invalidate_file c ~fid:1;
        Alcotest.(check int) "only fid2 left" 2 (Pfs.Cache.size c);
        Alcotest.(check bool) "fid2 intact" true (Pfs.Cache.probe c ~fid:2 ~block:1);
        (* Invalidating an absent file is a no-op... *)
        Pfs.Cache.invalidate_file c ~fid:1;
        Alcotest.(check int) "idempotent" 2 (Pfs.Cache.size c);
        (* ...and the file can come back cleanly afterwards. *)
        Alcotest.(check bool) "reinsert misses" true
          (Pfs.Cache.access c ~fid:1 ~block:0 = `Miss);
        Alcotest.(check bool) "reinserted" true (Pfs.Cache.probe c ~fid:1 ~block:0);
        Pfs.Cache.invalidate_file c ~fid:2;
        Pfs.Cache.invalidate_file c ~fid:1;
        Alcotest.(check int) "empty again" 0 (Pfs.Cache.size c));
  ]

let agent_rig ?write_delay ?ups () =
  let e = Sim.Engine.create () in
  let raid = Pfs.Raid.create e ~segment_bytes:seg_64k () in
  let log = Pfs.Log.create e ~raid () in
  let server = Pfs.Client_agent.Server.create e ~log ?write_delay ?ups () in
  let agent = Pfs.Client_agent.Agent.create e ~server in
  (e, server, agent)

let agent_tests =
  [
    Alcotest.test_case "writes are acknowledged and eventually durable" `Quick
      (fun () ->
        let e, server, agent = agent_rig ~write_delay:(Sim.Time.sec 5) () in
        let fid = Pfs.Client_agent.Server.create_file server in
        let acked = ref false in
        ignore
          (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096
             ~ack:(fun () -> acked := true)
             ());
        Sim.Engine.run e ~until:(ms 100);
        Alcotest.(check bool) "acked fast" true !acked;
        Alcotest.(check int) "not yet on disk" 0
          (Pfs.Client_agent.Server.disk_writes server);
        Sim.Engine.run e ~until:(Sim.Time.sec 10);
        Alcotest.(check int) "flushed" 1
          (Pfs.Client_agent.Server.disk_writes server);
        let a = Pfs.Client_agent.audit server in
        Alcotest.(check int) "durable" 1 a.Pfs.Client_agent.durable;
        Sim.Engine.run e;
        Alcotest.(check int) "copy released" 0
          (Pfs.Client_agent.Agent.copies_held agent));
    Alcotest.test_case "short-lived data never costs a disk write" `Quick
      (fun () ->
        let e, server, agent = agent_rig ~write_delay:(Sim.Time.sec 30) () in
        let fid = Pfs.Client_agent.Server.create_file server in
        ignore (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096 ());
        (* Deleted after 10 s — inside the write-behind window. *)
        ignore
          (Sim.Engine.schedule e ~delay:(Sim.Time.sec 10) (fun () ->
               Pfs.Client_agent.Agent.delete agent ~fid));
        Sim.Engine.run e ~until:(Sim.Time.sec 60);
        Alcotest.(check int) "no disk writes" 0
          (Pfs.Client_agent.Server.disk_writes server);
        Alcotest.(check int) "cancelled" 1
          (Pfs.Client_agent.Server.writes_cancelled server));
    Alcotest.test_case "overwrites inside the window save disk writes" `Quick
      (fun () ->
        let e, server, agent = agent_rig ~write_delay:(Sim.Time.sec 30) () in
        let fid = Pfs.Client_agent.Server.create_file server in
        for i = 0 to 4 do
          ignore
            (Sim.Engine.schedule e
               ~delay:(Sim.Time.sec (i * 2))
               (fun () ->
                 ignore
                   (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096 ())))
        done;
        Sim.Engine.run e ~until:(Sim.Time.sec 120);
        Alcotest.(check int) "only the last reaches disk" 1
          (Pfs.Client_agent.Server.disk_writes server);
        Alcotest.(check int) "four cancelled" 4
          (Pfs.Client_agent.Server.writes_cancelled server));
    Alcotest.test_case "server crash: the agent's copy replays, nothing lost"
      `Quick (fun () ->
        let e, server, agent = agent_rig ~write_delay:(Sim.Time.sec 30) () in
        let fid = Pfs.Client_agent.Server.create_file server in
        ignore (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096 ());
        Sim.Engine.run e ~until:(Sim.Time.sec 5);
        Pfs.Client_agent.Server.crash server;
        let mid = Pfs.Client_agent.audit server in
        Alcotest.(check int) "recoverable, not lost" 0 mid.Pfs.Client_agent.lost;
        Alcotest.(check int) "one recoverable" 1
          mid.Pfs.Client_agent.recoverable;
        Pfs.Client_agent.Server.recover server;
        Pfs.Client_agent.Agent.replay agent;
        Sim.Engine.run e ~until:(Sim.Time.sec 60);
        let fin = Pfs.Client_agent.audit server in
        Alcotest.(check int) "durable after replay" 1 fin.Pfs.Client_agent.durable;
        Alcotest.(check int) "lost" 0 fin.Pfs.Client_agent.lost);
    Alcotest.test_case
      "writes issued while the server is down retry until it returns" `Quick
      (fun () ->
        let e, server, agent = agent_rig ~write_delay:(Sim.Time.sec 1) () in
        let fid = Pfs.Client_agent.Server.create_file server in
        Pfs.Client_agent.Server.crash server;
        let acked = ref false in
        ignore
          (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096
             ~ack:(fun () -> acked := true)
             ());
        Sim.Engine.run e ~until:(Sim.Time.sec 2);
        Alcotest.(check bool) "unacked while down" false !acked;
        Alcotest.(check bool) "agent kept retrying" true
          (Pfs.Client_agent.Agent.retries agent > 0);
        Pfs.Client_agent.Server.recover server;
        Sim.Engine.run e ~until:(Sim.Time.sec 60);
        Alcotest.(check bool) "acked after recovery" true !acked;
        let a = Pfs.Client_agent.audit server in
        Alcotest.(check int) "durable" 1 a.Pfs.Client_agent.durable;
        Alcotest.(check int) "lost" 0 a.Pfs.Client_agent.lost);
    Alcotest.test_case "client crash: the server completes the write" `Quick
      (fun () ->
        let e, server, agent = agent_rig ~write_delay:(Sim.Time.sec 10) () in
        let fid = Pfs.Client_agent.Server.create_file server in
        ignore (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096 ());
        Sim.Engine.run e ~until:(Sim.Time.sec 2);
        Pfs.Client_agent.Agent.crash agent;
        Sim.Engine.run e ~until:(Sim.Time.sec 30);
        let a = Pfs.Client_agent.audit server in
        Alcotest.(check int) "durable" 1 a.Pfs.Client_agent.durable;
        Alcotest.(check int) "lost" 0 a.Pfs.Client_agent.lost);
    Alcotest.test_case "power failure without UPS loses buffered data" `Quick
      (fun () ->
        let e, server, agent = agent_rig ~write_delay:(Sim.Time.sec 30) () in
        let fid = Pfs.Client_agent.Server.create_file server in
        ignore (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096 ());
        Sim.Engine.run e ~until:(Sim.Time.sec 5);
        (* Both machines die at once. *)
        Pfs.Client_agent.Server.crash server;
        Pfs.Client_agent.Agent.crash agent;
        let a = Pfs.Client_agent.audit server in
        Alcotest.(check int) "lost" 1 a.Pfs.Client_agent.lost);
    Alcotest.test_case "power failure with UPS flushes and loses nothing"
      `Quick (fun () ->
        let e, server, agent =
          agent_rig ~write_delay:(Sim.Time.sec 30) ~ups:true ()
        in
        let fid = Pfs.Client_agent.Server.create_file server in
        ignore (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096 ());
        Sim.Engine.run e ~until:(Sim.Time.sec 5);
        Pfs.Client_agent.Server.crash server;
        Pfs.Client_agent.Agent.crash agent;
        Sim.Engine.run e ~until:(Sim.Time.sec 60);
        let a = Pfs.Client_agent.audit server in
        Alcotest.(check int) "lost" 0 a.Pfs.Client_agent.lost;
        Alcotest.(check int) "durable" 1 a.Pfs.Client_agent.durable);
  ]

let stream_rig () =
  let e = Sim.Engine.create () in
  let raid = Pfs.Raid.create e ~segment_bytes:(1 lsl 20) () in
  let log = Pfs.Log.create e ~raid () in
  let streams = Pfs.Stream.create e ~log in
  (e, log, streams)

let stream_tests =
  [
    Alcotest.test_case "admission control enforces the bandwidth budget" `Quick
      (fun () ->
        let _, _, streams = stream_rig () in
        let budget = Pfs.Stream.budget_bps in
        (match Pfs.Stream.start_recording streams ~rate_bps:(budget / 2) with
        | Ok _ -> ()
        | Error `Admission_denied -> Alcotest.fail "should admit half");
        (match Pfs.Stream.start_recording streams ~rate_bps:(budget / 2) with
        | Ok _ -> ()
        | Error `Admission_denied -> Alcotest.fail "should admit second half");
        match Pfs.Stream.start_recording streams ~rate_bps:1_000_000 with
        | Error `Admission_denied -> ()
        | Ok _ -> Alcotest.fail "over budget must be denied");
    Alcotest.test_case "finishing a recording releases its bandwidth" `Quick
      (fun () ->
        let _, _, streams = stream_rig () in
        match Pfs.Stream.start_recording streams ~rate_bps:8_000_000 with
        | Error `Admission_denied -> Alcotest.fail "denied"
        | Ok r ->
            Alcotest.(check int) "admitted" 8_000_000
              (Pfs.Stream.admitted_bps streams);
            Pfs.Stream.finish_recording streams r;
            Alcotest.(check int) "released" 0 (Pfs.Stream.admitted_bps streams));
    Alcotest.test_case "record, index, play back with no underruns" `Quick
      (fun () ->
        let e, _, streams = stream_rig () in
        let r =
          match Pfs.Stream.start_recording streams ~rate_bps:8_000_000 with
          | Ok r -> r
          | Error _ -> Alcotest.fail "denied"
        in
        (* Record 2 MB in 64K chunks with an index mark per chunk. *)
        for i = 0 to 31 do
          Pfs.Stream.index_mark r ~stamp:(ms (i * 40));
          Pfs.Stream.write_chunk r ~len:65536 (fun _ -> ())
        done;
        let fid = Pfs.Stream.recording_fid r in
        Pfs.Stream.finish_recording streams r;
        Sim.Engine.run e;
        Alcotest.(check int) "index built" 32
          (Pfs.Stream.index_size streams ~fid);
        let ended = ref false in
        let played = ref None in
        (match
           Pfs.Stream.start_playback streams ~fid ~rate_bps:8_000_000
             ~on_end:(fun () -> ended := true)
             ()
         with
        | Ok p -> played := Some p
        | Error _ -> Alcotest.fail "playback denied");
        Sim.Engine.run e;
        (match !played with
        | Some p ->
            Alcotest.(check int) "no underruns" 0 (Pfs.Stream.underruns p);
            Alcotest.(check int) "all chunks" 32 (Pfs.Stream.chunks_played p)
        | None -> ());
        Alcotest.(check bool) "ended" true !ended);
    Alcotest.test_case "seek_stamp jumps via the index" `Quick (fun () ->
        let e, _, streams = stream_rig () in
        let r =
          match Pfs.Stream.start_recording streams ~rate_bps:8_000_000 with
          | Ok r -> r
          | Error _ -> Alcotest.fail "denied"
        in
        for i = 0 to 15 do
          Pfs.Stream.index_mark r ~stamp:(ms (i * 40));
          Pfs.Stream.write_chunk r ~len:65536 (fun _ -> ())
        done;
        let fid = Pfs.Stream.recording_fid r in
        Pfs.Stream.finish_recording streams r;
        Sim.Engine.run e;
        let p =
          match Pfs.Stream.start_playback streams ~fid ~rate_bps:8_000_000 () with
          | Ok p -> p
          | Error _ -> Alcotest.fail "denied"
        in
        (* "Go to 200 ms": marks at 0,40,...; 200ms is mark 5 = chunk 5. *)
        Pfs.Stream.seek_stamp p (ms 200);
        Alcotest.(check int) "position" (5 * 65536) (Pfs.Stream.position p);
        Pfs.Stream.stop_playback streams p;
        Sim.Engine.run e);
    Alcotest.test_case "reverse play walks backwards to the start" `Quick
      (fun () ->
        let e, _, streams = stream_rig () in
        let r =
          match Pfs.Stream.start_recording streams ~rate_bps:8_000_000 with
          | Ok r -> r
          | Error _ -> Alcotest.fail "denied"
        in
        for _ = 0 to 7 do
          Pfs.Stream.write_chunk r ~len:65536 (fun _ -> ())
        done;
        let fid = Pfs.Stream.recording_fid r in
        Pfs.Stream.finish_recording streams r;
        Sim.Engine.run e;
        let offsets = ref [] in
        let ended = ref false in
        (match
           Pfs.Stream.start_playback streams ~fid ~rate_bps:8_000_000
             ~direction:`Reverse
             ~on_chunk:(fun ~off -> offsets := off :: !offsets)
             ~on_end:(fun () -> ended := true)
             ()
         with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "denied");
        Sim.Engine.run e;
        Alcotest.(check bool) "ended" true !ended;
        (match !offsets with
        | last :: _ -> Alcotest.(check int) "finishes at 0" 0 last
        | [] -> Alcotest.fail "nothing played");
        Alcotest.(check int) "all chunks" 8 (List.length !offsets));
  ]

let extension_tests =
  [
    Alcotest.test_case "battery-backed memory survives a power cut" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let raid = Pfs.Raid.create e ~segment_bytes:seg_64k () in
        let log = Pfs.Log.create e ~raid () in
        let server =
          Pfs.Client_agent.Server.create e ~log
            ~write_delay:(Sim.Time.sec 30) ~nvram:true ()
        in
        let agent = Pfs.Client_agent.Agent.create e ~server in
        let fid = Pfs.Client_agent.Server.create_file server in
        ignore (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:4096 ());
        Sim.Engine.run e ~until:(Sim.Time.sec 5);
        (* power cut: both sides die *)
        Pfs.Client_agent.Server.crash server;
        Pfs.Client_agent.Agent.crash agent;
        let mid = Pfs.Client_agent.audit server in
        Alcotest.(check int) "recoverable in NVRAM" 0 mid.Pfs.Client_agent.lost;
        Pfs.Client_agent.Server.recover server;
        Sim.Engine.run e ~until:(Sim.Time.sec 60);
        let fin = Pfs.Client_agent.audit server in
        Alcotest.(check int) "durable after recovery" 1
          fin.Pfs.Client_agent.durable;
        Alcotest.(check int) "lost" 0 fin.Pfs.Client_agent.lost);
    Alcotest.test_case "Log.peek returns stored bytes without time passing"
      `Quick (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        let data = pattern 100_000 3 in
        write_ok e log fid ~off:0 data;
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        let t0 = Sim.Engine.now e in
        (match Pfs.Log.peek log fid ~off:0 ~len:100_000 with
        | Some b -> Alcotest.(check bytes) "bytes" data b
        | None -> Alcotest.fail "peek failed");
        Alcotest.check time "no time consumed" t0 (Sim.Engine.now e));
    Alcotest.test_case "peek on a timing-only array returns None" `Quick
      (fun () ->
        let e, _, log = rig ~store_data:false () in
        let fid = Pfs.Log.create_file log () in
        Pfs.Log.write log fid ~off:0 ~len:100 (fun _ -> ());
        Sim.Engine.run e;
        Alcotest.(check bool) "none" true
          (Pfs.Log.peek log fid ~off:0 ~len:100 = None));
  ]

(* Model-based property test: arbitrary create/write/delete/sync/clean/
   checkpoint/crash sequences.  Between crashes every surviving file
   must be byte-identical to a plain in-memory reference; a crash must
   bring back the reference as it stood at one operation boundary at or
   after the last checkpoint or crash, and the log must keep working. *)

type model_op =
  | M_create of int * bool  (* file slot, continuous *)
  | M_write of int * int * int  (* file slot, offset, length *)
  | M_delete of int
  | M_sync
  | M_clean
  | M_checkpoint
  | M_crash

let show_model_op = function
  | M_create (f, c) ->
      Printf.sprintf "create %d%s" f (if c then " continuous" else "")
  | M_write (f, off, len) -> Printf.sprintf "write %d %d %d" f off len
  | M_delete f -> Printf.sprintf "delete %d" f
  | M_sync -> "sync"
  | M_clean -> "clean"
  | M_checkpoint -> "checkpoint"
  | M_crash -> "crash"

let model_op_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 2,
          map2 (fun f c -> M_create (f, c)) (int_range 0 3)
            (frequency [ (3, return false); (1, return true) ]) );
        (6, map3 (fun f off len -> M_write (f, off, len))
              (int_range 0 3) (int_range 0 20_000) (int_range 1 9_000));
        (1, map (fun f -> M_delete f) (int_range 0 3));
        (1, return M_sync);
        (1, return M_clean);
        (1, return M_checkpoint);
        (1, return M_crash);
      ])

let run_model_ops ops =
  let e = Sim.Engine.create () in
  let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:16_384 () in
  let log = Pfs.Log.create e ~raid () in
  (* Per slot: the file's fid and its bytes. *)
  let model : (int * bytes) option array = Array.make 4 None in
  let issued = ref [] in
  let ok = ref true in
  let check_write r = if r <> Ok () then ok := false in
  let reads_back fid data =
    let got = ref None in
    Pfs.Log.read log fid ~off:0 ~len:(Bytes.length data)
      ~k:(fun r -> got := Some r);
    Sim.Engine.run e;
    !got = Some (Ok (Some data))
  in
  (* The log holds exactly the files of [state], with their bytes; every
     other fid ever issued is absent. *)
  let matches state =
    let live = List.filter_map (Option.map fst) (Array.to_list state) in
    Array.for_all
      (function
        | None -> true
        | Some (fid, data) ->
            Pfs.Log.file_exists log fid
            && Pfs.Log.file_size log fid = Bytes.length data
            && reads_back fid data)
      state
    && List.for_all
         (fun fid -> List.mem fid live || not (Pfs.Log.file_exists log fid))
         !issued
  in
  let tag = ref 0 in
  let apply = function
    | M_create (slot, continuous) ->
        if model.(slot) = None then begin
          let kind =
            if continuous then Pfs.Log.Continuous else Pfs.Log.Normal
          in
          let fid = Pfs.Log.create_file log ~kind () in
          issued := fid :: !issued;
          model.(slot) <- Some (fid, Bytes.empty)
        end
    | M_write (slot, off, len) -> (
        match model.(slot) with
        | None -> ()
        | Some (fid, old) ->
            incr tag;
            let data = pattern len !tag in
            Pfs.Log.write log fid ~off ~data ~len check_write;
            let size = Stdlib.max (Bytes.length old) (off + len) in
            let next = Bytes.make size '\000' in
            Bytes.blit old 0 next 0 (Bytes.length old);
            Bytes.blit data 0 next off len;
            model.(slot) <- Some (fid, next))
    | M_delete slot -> (
        match model.(slot) with
        | None -> ()
        | Some (fid, _) ->
            Pfs.Log.delete log fid ~k:check_write;
            model.(slot) <- None)
    | M_sync -> Pfs.Log.sync log ~k:(fun _ -> ())
    | M_clean ->
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Cleaner.run log (fun _ -> ())
    | M_checkpoint -> Pfs.Log.checkpoint log ~k:(fun _ -> ())
    | M_crash -> Pfs.Log.crash_and_recover log ~k:(fun ~lost_bytes:_ -> ())
  in
  (* [boundaries]: the reference at every operation boundary since the
     last checkpoint or crash, newest first. *)
  let rec go boundaries = function
    | [] -> !ok && matches model
    | op :: rest -> (
        apply op;
        Sim.Engine.run e;
        match op with
        | M_checkpoint -> go [ Array.copy model ] rest
        | M_crash -> (
            match List.find_opt matches boundaries with
            | Some state ->
                Array.blit state 0 model 0 (Array.length model);
                go [ state ] rest
            | None -> false)
        | _ -> go (Array.copy model :: boundaries) rest)
  in
  go [ Array.copy model ] ops

let model_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"log matches a reference model under churn"
         ~count:200
         ~print:(fun ops -> String.concat "; " (List.map show_model_op ops))
         QCheck2.Gen.(list_size (int_range 5 60) model_op_gen)
         run_model_ops);
  ]

let recovery_tests =
  [
    Alcotest.test_case "sealed data survives a crash, buffered data is lost"
      `Quick (fun () ->
        let e, _, log = rig () in
        let safe = Pfs.Log.create_file log () in
        let durable = pattern 20_000 1 in
        write_ok e log safe ~off:0 durable;
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        (* Written after the last seal: only in the open buffer. *)
        let fresh = Pfs.Log.create_file log () in
        Pfs.Log.write log fresh ~off:0 ~len:5_000 (fun _ -> ());
        Sim.Engine.run e;
        let lost = ref (-1) in
        Pfs.Log.crash_and_recover log ~k:(fun ~lost_bytes -> lost := lost_bytes);
        Sim.Engine.run e;
        Alcotest.(check bool) "buffered bytes lost" true (!lost >= 5_000);
        Alcotest.(check bool) "sealed file intact" true
          (Pfs.Log.file_exists log safe);
        Alcotest.(check bytes) "content intact" durable
          (read_back e log safe ~off:0 ~len:20_000);
        Alcotest.(check bool) "fresh file rolled back" false
          (Pfs.Log.file_exists log fresh));
    Alcotest.test_case "a delete after the last seal is rolled back" `Quick
      (fun () ->
        let e, _, log = rig () in
        let fid = Pfs.Log.create_file log () in
        write_ok e log fid ~off:0 (pattern 10_000 2);
        Pfs.Log.checkpoint log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Log.delete log fid ~k:(fun _ -> ());
        Sim.Engine.run e;
        Alcotest.(check bool) "deleted" false (Pfs.Log.file_exists log fid);
        Pfs.Log.crash_and_recover log ~k:(fun ~lost_bytes:_ -> ());
        Sim.Engine.run e;
        (* The LFS quirk the interface documents: the delete vanished. *)
        Alcotest.(check bool) "file resurrected" true
          (Pfs.Log.file_exists log fid);
        Alcotest.(check bytes) "content back" (pattern 10_000 2)
          (read_back e log fid ~off:0 ~len:10_000));
    Alcotest.test_case "the log keeps working after recovery" `Quick (fun () ->
        let e, _, log = rig () in
        let a = Pfs.Log.create_file log () in
        write_ok e log a ~off:0 (pattern 30_000 3);
        Pfs.Log.checkpoint log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Log.crash_and_recover log ~k:(fun ~lost_bytes:_ -> ());
        Sim.Engine.run e;
        let b = Pfs.Log.create_file log () in
        write_ok e log b ~off:0 (pattern 30_000 4);
        Alcotest.(check bytes) "old" (pattern 30_000 3)
          (read_back e log a ~off:0 ~len:30_000);
        Alcotest.(check bytes) "new" (pattern 30_000 4)
          (read_back e log b ~off:0 ~len:30_000);
        (* and the cleaner still works on the recovered state *)
        Pfs.Log.delete log a ~k:(fun _ -> ());
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Cleaner.run log (fun stats ->
            Alcotest.(check bool) "reclaimed" true
              (stats.Pfs.Cleaner.bytes_reclaimed > 0));
        Sim.Engine.run e;
        Alcotest.(check bytes) "survivor intact" (pattern 30_000 4)
          (read_back e log b ~off:0 ~len:30_000));
    Alcotest.test_case "a double crash does not resurrect post-recovery state"
      `Quick (fun () ->
        let e, _, log = rig () in
        let a = Pfs.Log.create_file log () in
        write_ok e log a ~off:0 (pattern 1_000 1);
        Pfs.Log.checkpoint log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Log.crash_and_recover log ~k:(fun ~lost_bytes:_ -> ());
        Sim.Engine.run e;
        (* mutate after recovery, seal, crash again *)
        write_ok e log a ~off:0 (pattern 1_000 9);
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        Pfs.Log.crash_and_recover log ~k:(fun ~lost_bytes:_ -> ());
        Sim.Engine.run e;
        Alcotest.(check bytes) "latest sealed state" (pattern 1_000 9)
          (read_back e log a ~off:0 ~len:1_000));
    Alcotest.test_case "a seal inside an overwrite does not tear the file"
      `Quick (fun () ->
        let e, _, log = rig ~segment_bytes:16_384 () in
        let f = Pfs.Log.create_file log () in
        write_ok e log f ~off:0 (pattern 1_000 1);
        Pfs.Log.sync log ~k:(fun _ -> ());
        Sim.Engine.run e;
        let g = Pfs.Log.create_file log () in
        write_ok e log g ~off:0 (pattern 15_256 2);
        (* Two 64 B pnodes and G's data leave 1000 B in the open segment:
           F's new bytes fill it exactly, so it seals in the middle of
           the overwrite, after F's old extent is punched. *)
        write_ok e log f ~off:0 (pattern 1_000 3);
        Pfs.Log.crash_and_recover log ~k:(fun ~lost_bytes:_ -> ());
        Sim.Engine.run e;
        Alcotest.(check bytes) "F reads its synced bytes" (pattern 1_000 1)
          (read_back e log f ~off:0 ~len:1_000);
        Alcotest.(check bool) "G exists" true (Pfs.Log.file_exists log g);
        Alcotest.(check bool) "G is sealed" true (Pfs.Log.file_sealed log g);
        Alcotest.(check bytes) "G reads back" (pattern 15_256 2)
          (read_back e log g ~off:0 ~len:15_256));
  ]

let () =
  Alcotest.run "pfs"
    [
      ("disk", disk_tests);
      ("raid", raid_tests);
      ("log", log_tests);
      ("garbage", garbage_tests);
      ("cleaner", cleaner_tests);
      ("cache", cache_tests);
      ("client-agent", agent_tests);
      ("stream", stream_tests);
      ("extensions", extension_tests);
      ("model", model_tests);
      ("recovery", recovery_tests);
    ]
