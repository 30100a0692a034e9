(* The same Baker workload hits two servers: one writes through
   immediately, one holds writes for 30 seconds (safe thanks to the
   client agent's copies).  Measure disk writes, cancelled writes, and
   the garbage the log accrues. *)

let scenario ctx ~write_delay ~duration =
  let e = Sim.Ctx.engine ctx in
  let raid = Pfs.Raid.create e ~segment_bytes:262_144 () in
  let log = Pfs.Log.create e ~raid () in
  let server = Pfs.Client_agent.Server.create e ~log ~write_delay () in
  let agent = Pfs.Client_agent.Agent.create e ~server () in
  let rng = Sim.Rng.create ~seed:7L () in
  let fids = Hashtbl.create 256 in
  let ops =
    {
      Workloads.Baker.op_create =
        (fun () ->
          let fid = Pfs.Client_agent.Server.create_file server in
          Hashtbl.replace fids fid ();
          fid);
      op_write =
        (fun ~fid ~off ~len ->
          ignore (Pfs.Client_agent.Agent.write agent ~fid ~off ~len ()));
      op_overwrite =
        (fun ~fid ~len ->
          ignore (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len ()));
      op_delete = (fun ~fid -> Pfs.Client_agent.Agent.delete agent ~fid);
    }
  in
  let gen = Workloads.Baker.create e ~rng ~ops ~create_rate:5.0 () in
  Workloads.Baker.start gen;
  Sim.Engine.run e ~until:duration;
  Workloads.Baker.stop gen;
  (* Let the last write-behind windows drain. *)
  Sim.Engine.run e ~until:(Sim.Time.add duration (Sim.Time.sec 60));
  ( Pfs.Client_agent.Server.writes_received server,
    Pfs.Client_agent.Server.disk_writes server,
    Pfs.Client_agent.Server.writes_cancelled server,
    Pfs.Log.garbage_bytes_created log,
    Workloads.Baker.short_lived_fraction gen )

let run ?(quick = false) ctx =
  let duration = if quick then Sim.Time.sec 120 else Sim.Time.sec 600 in
  let row label ~write_delay =
    let received, to_disk, cancelled, garbage, _short =
      scenario ctx ~write_delay ~duration
    in
    [
      label;
      string_of_int received;
      string_of_int to_disk;
      string_of_int cancelled;
      Printf.sprintf "%.1f MB" (Float.of_int garbage /. 1e6);
    ]
  in
  let rows =
    [
      row "write-through (0s)" ~write_delay:Sim.Time.zero;
      row "write-behind 30s" ~write_delay:(Sim.Time.sec 30);
    ]
  in
  Table.make ~id:"E10"
    ~title:"Write-behind against the 30-second file lifetime wall"
    ~claim:
      "70% of files die within 30 seconds, so delaying disk writes saves \
       most disk operations, and the surviving data is stable enough that \
       garbage accrues far more slowly."
    ~columns:
      [ "server policy"; "writes received"; "disk writes"; "cancelled"; "log garbage" ]
    ~notes:
      [
        "Identical Baker-style traffic (5 creations/s, 70% short-lived) on \
         both rows; client agents hold copies, so the delay costs no \
         durability under single failures (E12).";
      ]
    rows
