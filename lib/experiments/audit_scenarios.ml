(* The scenarios behind `pegasus_cli audit`: short deterministic runs
   meant to be executed with flow tracing on ([Sim.Trace.set_flows]).
   "video" and "av" are the E1/E2 rigs re-exported; "pfs" drives the
   Pegasus file service over RPC plus a Baker-calibrated client-agent
   write mix; "video-pfs" runs the video rig and the file service on
   one engine — the CI smoke scenario. *)

let duration = Sim.Time.ms 400
let video = E01_tile_latency.audit_scenario
let av = E02_bandwidth_jitter.audit_scenario

(* File service: one workstation client calling the "pfs" RPC interface
   (8 KB calls against one file, enough writes to seal 64 KB segments so
   the RAID and disk stages appear in the report), plus a client agent
   fed by the Baker file-lifetime mix, with the server's write delay
   shortened so buffered writes reach the disk inside the run. *)
let setup_pfs e =
  let site = Pegasus.Site.create e in
  let ws = Pegasus.Workstation.create site ~name:"client" () in
  let fs =
    Pegasus.Fileserver.create site ~name:"pfs" ~segment_bytes:65536
      ~write_delay:(Sim.Time.ms 40) ()
  in
  let conn, agent = Pegasus.Fileserver.connect_client fs ws in
  let fid = Pfs.Log.create_file (Pegasus.Fileserver.log fs) () in
  let chunk = 8192 in
  let period = Sim.Time.ms 10 in
  let rec schedule_calls i =
    let at = Sim.Time.mul period (i + 1) in
    if Sim.Time.(at < duration) then begin
      ignore
        (Sim.Engine.schedule_at e ~at (fun () ->
             if i mod 4 = 3 then
               Rpc.call conn ~iface:"pfs" ~meth:"read"
                 (Pegasus.Fileserver.encode_u32s [ fid; 0; chunk ])
                 ~reply:(fun _ -> ())
             else begin
               let args =
                 Pegasus.Fileserver.encode_u32s [ fid; i * chunk; chunk ]
               in
               Rpc.call conn ~iface:"pfs" ~meth:"write"
                 (Bytes.cat args (Bytes.create chunk))
                 ~reply:(fun _ -> ())
             end));
      schedule_calls (i + 1)
    end
  in
  schedule_calls 0;
  let server = Pegasus.Fileserver.write_server fs in
  let ops =
    {
      Workloads.Baker.op_create =
        (fun () -> Pfs.Client_agent.Server.create_file server);
      op_write =
        (fun ~fid ~off ~len ->
          ignore (Pfs.Client_agent.Agent.write agent ~fid ~off ~len ()));
      op_overwrite =
        (fun ~fid ~len ->
          ignore (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len ()));
      op_delete = (fun ~fid -> Pfs.Client_agent.Agent.delete agent ~fid);
    }
  in
  let baker =
    Workloads.Baker.create e
      ~rng:(Sim.Rng.create ~seed:5L ())
      ~ops ~create_rate:40.0 ~short_mean:(Sim.Time.ms 60)
      ~long_mean:(Sim.Time.sec 5) ()
  in
  Workloads.Baker.start baker

let pfs e =
  setup_pfs e;
  Sim.Engine.run e ~until:duration

let video_pfs e =
  setup_pfs e;
  (* The E1 scenario runs the engine, driving the file traffic too. *)
  E01_tile_latency.audit_scenario e
