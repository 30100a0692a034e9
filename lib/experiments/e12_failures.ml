(* A burst of acknowledged writes is in flight (inside the 30 s
   write-behind window) when the failure strikes.  The audit counts
   writes that were acknowledged to the application but can no longer
   be produced from any surviving copy. *)

type failure =
  | No_failure
  | Server_crash
  | Client_crash
  | Power_cut of { ups : bool; nvram : bool }

let scenario ctx ~failure ~writes =
  let e = Sim.Ctx.engine ctx in
  let raid = Pfs.Raid.create e ~segment_bytes:262_144 () in
  let log = Pfs.Log.create e ~raid () in
  let ups, nvram =
    match failure with
    | Power_cut { ups; nvram } -> (ups, nvram)
    | _ -> (false, false)
  in
  let server =
    Pfs.Client_agent.Server.create e ~log ~write_delay:(Sim.Time.sec 30) ~ups
      ~nvram ()
  in
  let agent = Pfs.Client_agent.Agent.create e ~server in
  let fid = Pfs.Client_agent.Server.create_file server in
  for i = 0 to writes - 1 do
    ignore
      (Sim.Engine.schedule e
         ~delay:(Sim.Time.ms (50 * i))
         (fun () ->
           ignore
             (Pfs.Client_agent.Agent.write agent ~fid ~off:(i * 8192) ~len:8192 ())))
  done;
  (* Strike mid-window, after all writes are acknowledged. *)
  let strike_at = Sim.Time.sec 10 in
  ignore
    (Sim.Engine.schedule_at e ~at:strike_at (fun () ->
         match failure with
         | No_failure -> ()
         | Server_crash ->
             Pfs.Client_agent.Server.crash server;
             (* detection, reboot, replay *)
             ignore
               (Sim.Engine.schedule e ~delay:(Sim.Time.sec 5) (fun () ->
                    Pfs.Client_agent.Server.recover server;
                    Pfs.Client_agent.Agent.replay agent))
         | Client_crash -> Pfs.Client_agent.Agent.crash agent
         | Power_cut { nvram; _ } ->
             Pfs.Client_agent.Server.crash server;
             Pfs.Client_agent.Agent.crash agent;
             (* Power comes back; an NVRAM server recovers its buffers. *)
             if nvram then
               ignore
                 (Sim.Engine.schedule e ~delay:(Sim.Time.sec 20) (fun () ->
                      Pfs.Client_agent.Server.recover server))));
  Sim.Engine.run e ~until:(Sim.Time.sec 120);
  Pfs.Client_agent.audit server

let run ctx =
  let writes = 100 in
  let row label failure =
    let a = scenario ctx ~failure ~writes in
    [
      label;
      string_of_int a.Pfs.Client_agent.acknowledged;
      string_of_int a.Pfs.Client_agent.durable;
      string_of_int a.Pfs.Client_agent.recoverable;
      string_of_int a.Pfs.Client_agent.lost;
    ]
  in
  Table.make ~id:"E12" ~title:"Acknowledged data across injected failures"
    ~claim:
      "With the client agent keeping copies until the server has the data on \
       disk, no single failure loses acknowledged data; only a simultaneous \
       power failure can — unless the server has a UPS to flush its buffers \
       or battery-backed memory to carry them across."
    ~columns:[ "failure injected"; "acked"; "durable"; "recoverable"; "lost" ]
    ~notes:
      [
        "All writes are acknowledged before the failure strikes at t=10s, \
         squarely inside the 30s write-behind window.";
      ]
    [
      row "none" No_failure;
      row "server crash (+replay)" Server_crash;
      row "client crash" Client_crash;
      row "power cut, no UPS" (Power_cut { ups = false; nvram = false });
      row "power cut, with UPS" (Power_cut { ups = true; nvram = false });
      row "power cut, battery-backed RAM"
        (Power_cut { ups = false; nvram = true });
    ]
