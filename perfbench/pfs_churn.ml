(* pfs_churn: Baker-calibrated file churn on one Pegasus log.

   Workloads.Baker drives one Pfs.Log over a Pfs.Raid directly, with no
   network: files are created as a Poisson stream (an open loop in
   simulated time), written with lognormal sizes, and at the end of a
   short or long lifetime either overwritten or deleted.  A Pfs.Cleaner
   pass runs every second.  Lifetimes are short against the run, so the
   live file set reaches a steady state and the cost per operation does
   not depend on where the run stops.  The run ends with sync,
   checkpoint and crash_and_recover.  Set-up writes an initial file
   population and seals it.  The seed drives both the population and
   the Baker generator.  An operation is one Log.write or Log.delete
   acknowledged. *)

open Workload

let seg_bytes = 262_144
let population = 1_024
let size_median = 8_192
let create_rate = 200.0
let short_mean = Sim.Time.sec 1
let long_mean = Sim.Time.sec 4
let clean_period = Sim.Time.sec 1
let min_garbage = seg_bytes / 4

let counter e name =
  Sim.Metrics.value
    (Sim.Metrics.counter (Sim.Engine.metrics e) ~sub:Sim.Subsystem.Pfs name)

let setup ~seed ~short ~traced =
  let e = fresh_engine () in
  let raid = Pfs.Raid.create e ~segment_bytes:seg_bytes () in
  let log = Pfs.Log.create e ~raid () in
  let rng = Sim.Rng.create ~seed:(Int64.of_int seed) () in
  let pop_rng = Sim.Rng.split rng in
  (* The benchmark's own model of the file system: live size per file,
     and every file deleted. *)
  let model : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let deleted = ref [] in
  let attempted = ref 0 and acked = ref 0 and errors = ref 0 in
  let ack = function Ok () -> incr acked | Error _ -> incr errors in
  let write fid ~off ~len =
    incr attempted;
    let size = Option.value (Hashtbl.find_opt model fid) ~default:0 in
    Hashtbl.replace model fid (Stdlib.max size (off + len));
    if traced then Span.enter sp_write;
    Pfs.Log.write log fid ~off ~len ack;
    if traced then Span.leave ()
  in
  let delete fid =
    incr attempted;
    Hashtbl.remove model fid;
    deleted := fid :: !deleted;
    if traced then Span.enter sp_write;
    Pfs.Log.delete log fid ~k:ack;
    if traced then Span.leave ()
  in
  for _ = 1 to population do
    let fid = Pfs.Log.create_file log () in
    let mu = Stdlib.log (Float.of_int size_median) in
    let len =
      Stdlib.max 64 (Float.to_int (Sim.Rng.lognormal pop_rng ~mu ~sigma:1.2))
    in
    write fid ~off:0 ~len
  done;
  let sync_errors = ref 0 in
  let note = function Ok () -> () | Error _ -> incr sync_errors in
  if traced then Span.enter sp_sync;
  Pfs.Log.sync log ~k:note;
  if traced then Span.leave ();
  run_engine e;
  let population_ok = !acked = !attempted && !errors = 0 in
  let duration = Sim.Time.sec (if short then 2 else 10) in
  let run () =
    attempted := 0;
    acked := 0;
    let stopped = ref false and cleaning = ref false in
    let live f = if not !stopped then f () in
    let ops =
      {
        Workloads.Baker.op_create = (fun () -> Pfs.Log.create_file log ());
        op_write = (fun ~fid ~off ~len -> live (fun () -> write fid ~off ~len));
        op_overwrite =
          (fun ~fid ~len -> live (fun () -> write fid ~off:0 ~len));
        op_delete = (fun ~fid -> live (fun () -> delete fid));
      }
    in
    let baker =
      Workloads.Baker.create e ~rng ~ops ~create_rate ~short_mean ~long_mean
        ~size_median ()
    in
    Sim.Engine.every ~daemon:true e ~period:clean_period (fun () ->
        if (not !stopped) && not !cleaning then begin
          cleaning := true;
          if traced then Span.enter sp_clean;
          Pfs.Cleaner.run log ~min_garbage (fun _ -> cleaning := false);
          if traced then Span.leave ()
        end;
        not !stopped);
    Workloads.Baker.start baker;
    run_engine e ~until:(Sim.Time.add (Sim.Engine.now e) duration);
    (* Stop issuing; lifetimes already drawn play out as no-ops while
       in-flight seals and the last cleaner pass finish. *)
    stopped := true;
    Workloads.Baker.stop baker;
    run_engine e;
    if traced then Span.enter sp_sync;
    Pfs.Log.sync log ~k:note;
    if traced then Span.leave ();
    run_engine e;
    if traced then Span.enter sp_sync;
    Pfs.Log.checkpoint log ~k:note;
    if traced then Span.leave ();
    run_engine e;
    let lost = ref (-1) in
    if traced then Span.enter sp_recover;
    Pfs.Log.crash_and_recover log ~k:(fun ~lost_bytes -> lost := lost_bytes);
    if traced then Span.leave ();
    run_engine e;
    let sizes_match =
      Hashtbl.fold
        (fun fid size ok ->
          ok && Pfs.Log.file_exists log fid && Pfs.Log.file_size log fid = size)
        model true
    in
    let deleted_absent =
      List.for_all (fun fid -> not (Pfs.Log.file_exists log fid)) !deleted
    in
    let reclaimed = counter e "cleaner.bytes_reclaimed" in
    {
      ops = !acked;
      attempted = !attempted;
      failed = !attempted - !acked;
      checks =
        [
          ("the population is acknowledged Ok", population_ok);
          ( "every operation acknowledged Ok",
            !acked = !attempted && !errors = 0 );
          ("sync and checkpoint Ok", !sync_errors = 0);
          ("crash_and_recover after sync loses 0 bytes", !lost = 0);
          ("every live file's size matches the model", sizes_match);
          ("deleted files are absent", deleted_absent);
          ("the cleaner reclaims bytes", reclaimed > 0);
        ];
      sim_lines =
        [
          Printf.sprintf "ops %d/%d files %d deleted %d" !acked !attempted
            (Hashtbl.length model) (List.length !deleted);
          Printf.sprintf "live bytes %d garbage bytes %d"
            (Pfs.Log.live_bytes log)
            (Pfs.Log.garbage_bytes_created log);
          Printf.sprintf "segments sealed %d total %d free %d"
            (counter e "log.segments_sealed")
            (Pfs.Log.total_segments log)
            (Pfs.Log.free_segments log);
          Printf.sprintf "cleaned %d moved %d reclaimed %d"
            (counter e "cleaner.segments_cleaned")
            (counter e "cleaner.bytes_moved")
            reclaimed;
        ];
    }
  in
  { engine = e; run }

let workload =
  {
    name = "pfs_churn";
    op = "log write or delete acknowledged";
    depth_period = Sim.Time.ms 1;
    (* Seals copy 1 MB segments and the RAID computes parity over them:
       the round slows with the host's memory bandwidth as much as with
       its core. *)
    copy_weight = 0.5;
    setup;
  }
