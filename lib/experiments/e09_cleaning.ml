(* Hold the churn constant (a fixed number of deleted files) while the
   file system grows, and compare what each cleaner has to examine and
   how long the pass takes.  The Pegasus cleaner reads the garbage
   file; the Sprite cleaner reads the whole segment usage table. *)

let seg_bytes = 262_144
let file_bytes = 131_072
let churn_files = 16

let build_fs e ~files =
  let raid = Pfs.Raid.create e ~segment_bytes:seg_bytes () in
  let log = Pfs.Log.create e ~raid () in
  let fids = Array.init files (fun _ -> Pfs.Log.create_file log ()) in
  Array.iter
    (fun fid -> Pfs.Log.write log fid ~off:0 ~len:file_bytes (fun _ -> ()))
    fids;
  Pfs.Log.sync log ~k:(fun _ -> ());
  Sim.Engine.run e;
  (* Absorb population garbage so only churn remains measurable. *)
  Pfs.Cleaner.run log (fun _ -> ());
  Sim.Engine.run e;
  Pfs.Log.sync log ~k:(fun _ -> ());
  Sim.Engine.run e;
  (* Fixed churn, spread across the file population. *)
  for i = 0 to churn_files - 1 do
    Pfs.Log.delete log fids.(i * (files / churn_files)) ~k:(fun _ -> ())
  done;
  Sim.Engine.run e;
  log

let clean which log k =
  match which with
  | `Pegasus -> Pfs.Cleaner.run log k
  | `Sprite -> Pfs.Cleaner_sprite.run log k

let measure ctx which ~files =
  let e = Sim.Ctx.engine ctx in
  let log = build_fs e ~files in
  let out = ref None in
  clean which log (fun s -> out := Some s);
  Sim.Engine.run e;
  match !out with Some s -> (s, Pfs.Log.total_segments log) | None -> assert false

let run ?(quick = false) ctx =
  let sizes = if quick then [ 64; 256 ] else [ 64; 256; 1024; 4096 ] in
  let rows =
    List.concat_map
      (fun files ->
        let mb = files * file_bytes / 1_048_576 in
        let row which label =
          let s, total = measure ctx which ~files in
          [
            Printf.sprintf "%4d MB (%d segs)" mb total;
            label;
            string_of_int
              (Stdlib.max s.Pfs.Cleaner.entries_processed
                 s.Pfs.Cleaner.table_entries_scanned);
            Format.asprintf "%a" Sim.Time.pp s.Pfs.Cleaner.scan_cost;
            Format.asprintf "%a" Sim.Time.pp s.Pfs.Cleaner.duration;
            string_of_int s.Pfs.Cleaner.segments_cleaned;
            Printf.sprintf "%.1f MB"
              (Float.of_int s.Pfs.Cleaner.bytes_reclaimed /. 1e6);
          ]
        in
        [ row `Pegasus "pegasus"; row `Sprite "sprite" ])
      sizes
  in
  Table.make ~id:"E9" ~title:"Cleaning cost as the file system grows"
    ~claim:
      "The garbage-file cleaner's complexity depends only on the number of \
       segments to be cleaned and the amount of garbage; a usage-table scan \
       grows with the size of the file system."
    ~columns:
      [
        "file system";
        "cleaner";
        "entries examined";
        "selection cost";
        "pass duration";
        "segs cleaned";
        "reclaimed";
      ]
    ~notes:
      [
        Printf.sprintf
          "Churn is fixed at %d deleted files (%d KB each) regardless of \
           file-system size: pegasus rows stay flat, sprite rows grow with \
           the segment table.  Extrapolate the sprite selection column to \
           the paper's 10 TB (forty million 256 KB segments) and victim \
           selection alone costs ~40 s per pass; the garbage file still \
           costs only what the churn wrote in it."
          churn_files (file_bytes / 1024);
      ]
    rows
