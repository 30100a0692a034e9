(* The scenarios behind `pegasus_cli health`: short deterministic rigs
   with SLO monitors attached across the stack.

   - "video"   : the E1 camera/switch/display rig under a healthy load —
                 every objective stays Ok.
   - "congest" : the same rig with a scripted wire-loss episode
                 (5% from 100 ms to 220 ms): the cell-loss objective
                 walks Ok -> Pending -> Firing and resolves mid-run
                 once the slow window drains.
   - "pfs"     : the Pegasus file service (workstation client calling a
                 file server over RPC) plus a replicated {!Pfs.Directory}
                 under a flash-crowd read load; a scripted loss episode
                 drives an RPC retransmission storm that fires and
                 resolves while the directory and deadline objectives
                 stay healthy.
   - "fabric"  : a 4-site sharded ring (one monitor per shard, merged in
                 shard order) with a loss episode at site 0 — the
                 --domains 1/2/4 byte-identity scenario.

   Every disruption is scripted at absolute instants with
   [Sim.Engine.schedule_at] and every loss stream is seeded, so each
   scenario is a pure function of its parameters: the CI job runs the
   health report twice (and across domain counts for "fabric") and
   diffs the bytes. *)

let video_duration = Sim.Time.ms 400

(* ------------------------------------------------------------------ *)
(* E1's raw tile-row rig, camera started, returning the net so
   scenarios can script faults on its links. *)

let video_rig e =
  let net, _display, _vci, camera =
    E01_tile_latency.rig e ~release:`Tile_row ~mode:Atm.Camera.Raw
  in
  Atm.Camera.start camera;
  net

(* The objectives shared by "video" and "congest".  All handles are
   get-or-create against the engine's registry, so they alias the
   instruments the components registered when the rig was built. *)
let video_slos m e =
  let reg = Sim.Engine.metrics e in
  let atm = Sim.Subsystem.Atm in
  let win = Sim.Time.ms 20 in
  Sim.Monitor.register m
    (Sim.Slo.make ~help:"p99 capture-to-blit staging latency" ~unit_:"us"
       ~window:win ~fast_windows:1 ~slow_windows:3 ~hysteresis:0.8 ~sub:atm
       ~threshold:2000.0 "video.staging_p99_us")
    (Sim.Monitor.windowed
       (Sim.Metrics.observer reg ~sub:atm "display.staging_win_us"));
  Sim.Monitor.register m
    (Sim.Slo.make ~help:"p99 link queueing delay" ~unit_:"us" ~window:win
       ~fast_windows:1 ~slow_windows:3 ~hysteresis:0.8 ~sub:atm
       ~threshold:1000.0 "video.queue_delay_p99_us")
    (Sim.Monitor.windowed
       (Sim.Metrics.observer reg ~sub:atm "link.queue_delay_win_us"));
  Sim.Monitor.register m
    (Sim.Slo.make ~help:"wire cells lost per cell sent" ~unit_:"ratio"
       ~window:win ~fast_windows:1 ~slow_windows:3 ~hysteresis:0.5 ~sub:atm
       ~threshold:0.01 "video.cell_loss")
    (Sim.Monitor.counter_ratio
       ~num:(Sim.Metrics.counter reg ~sub:atm "link.cells_lost")
       ~den:(Sim.Metrics.counter reg ~sub:atm "link.cells_sent"));
  Sim.Monitor.register m
    (Sim.Slo.make ~help:"engine event-queue depth" ~unit_:"events" ~window:win
       ~fast_windows:1 ~slow_windows:3 ~hysteresis:0.8 ~sub:Sim.Subsystem.Sim
       ~threshold:5000.0 "video.queue_depth")
    (Sim.Monitor.gauge_level
       (Sim.Metrics.gauge reg ~sub:Sim.Subsystem.Sim "engine.queue_depth"))

let video ctx =
  let e = Sim.Ctx.engine ctx in
  let _net = video_rig e in
  let m = Sim.Monitor.create e in
  video_slos m e;
  Sim.Engine.run e ~until:video_duration;
  Sim.Monitor.report ~name:"video" [ m ]

let congest ctx =
  let e = Sim.Ctx.engine ctx in
  let net = video_rig e in
  let m = Sim.Monitor.create e in
  video_slos m e;
  (* Scripted wire-loss episode: 5% Bernoulli loss on every link from
     100 ms to 220 ms.  With 20 ms sub-windows the cell-loss objective
     goes Pending at 120 ms, Firing at 140 ms, and resolves at 300 ms
     once the slow (3-window) aggregate has drained past the 0.5x
     hysteresis threshold. *)
  let rng = Sim.Rng.create ~seed:11L () in
  ignore
    (Sim.Engine.schedule_at e ~at:(Sim.Time.ms 100) (fun () ->
         Atm.Net.inject_loss net ~rng 0.05));
  ignore
    (Sim.Engine.schedule_at e ~at:(Sim.Time.ms 220) (fun () ->
         Atm.Net.clear_faults net));
  Sim.Engine.run e ~until:video_duration;
  Sim.Monitor.report ~name:"congest" [ m ]

(* ------------------------------------------------------------------ *)
(* File service: the audit "pfs" RPC client (a workstation calling the
   file server every 10 ms) plus a replicated directory over four
   loopback shards under a flash-crowd read load. *)

(* RPC retries back off from 10 ms with at most 4 tries, so the last
   retransmission of a call issued during the loss episode lands about
   80 ms after the episode ends; 600 ms leaves the slow window room to
   drain and the storm objective to resolve. *)
let pfs ctx =
  let duration = Sim.Time.ms 600 in
  let e = Sim.Ctx.engine ctx in
  let site, _fs, _agent = Audit_scenarios.pfs_client e ~until:duration in
  (* Replicated directory on a loopback transport: preload one file,
     seal it, then read it hot enough that the review tick grows
     replicas — exercising the read-latency and copy-lag observers. *)
  let logs =
    Array.init 4 (fun _ ->
        let raid = Pfs.Raid.create e ~segment_bytes:65536 () in
        Pfs.Log.create e ~raid ())
  in
  let dir =
    Pfs.Directory.create e ~logs ~transport:(Pfs.Directory.loopback e) ()
  in
  let hot = Pfs.Directory.create_file dir () in
  Pfs.Directory.write dir hot ~off:0 ~len:65536 (fun _ -> ());
  ignore
    (Sim.Engine.schedule_at e ~at:(Sim.Time.ms 5) (fun () ->
         Pfs.Directory.sync dir ~k:(fun _ -> ())));
  let read_period = Sim.Time.ms 4 in
  let rec schedule_reads i =
    let at = Sim.Time.add (Sim.Time.ms 10) (Sim.Time.mul read_period i) in
    if Sim.Time.(at < duration) then begin
      ignore
        (Sim.Engine.schedule_at e ~at (fun () ->
             Pfs.Directory.read dir ~client:(i mod 4) hot ~off:0 ~len:4096
               ~k:(fun _ -> ())));
      schedule_reads (i + 1)
    end
  in
  schedule_reads 0;
  (* The disruption: heavy wire loss on the site fabric from 150 ms to
     280 ms turns RPC retries into a retransmission storm. *)
  let net = Pegasus.Site.net site in
  let rng = Sim.Rng.create ~seed:13L () in
  ignore
    (Sim.Engine.schedule_at e ~at:(Sim.Time.ms 150) (fun () ->
         Atm.Net.inject_loss net ~rng 0.3));
  ignore
    (Sim.Engine.schedule_at e ~at:(Sim.Time.ms 280) (fun () ->
         Atm.Net.clear_faults net));
  let m = Sim.Monitor.create e in
  let reg = Sim.Engine.metrics e in
  let win = Sim.Time.ms 25 in
  Sim.Monitor.register m
    (Sim.Slo.make ~help:"p99 directory read latency" ~unit_:"us" ~window:win
       ~fast_windows:1 ~slow_windows:3 ~hysteresis:0.8 ~sub:Sim.Subsystem.Pfs
       ~threshold:50000.0 "pfs.dir_read_p99_us")
    (Sim.Monitor.windowed
       (Sim.Metrics.observer reg ~sub:Sim.Subsystem.Pfs
          "dir.read_latency_win_us"));
  Sim.Monitor.register m
    (Sim.Slo.make ~help:"p99 replica copy lag" ~unit_:"us" ~window:win
       ~fast_windows:1 ~slow_windows:3 ~hysteresis:0.8 ~sub:Sim.Subsystem.Pfs
       ~threshold:100000.0 "pfs.replica_lag_p99_us")
    (Sim.Monitor.windowed
       (Sim.Metrics.observer reg ~sub:Sim.Subsystem.Pfs "dir.copy_lag_win_us"));
  (* 40/s over a 50 ms fast span means two retransmissions: a single
     straggler (a reply overlapping a segment seal, say) never pends,
     only the storm does. *)
  Sim.Monitor.register m
    (Sim.Slo.make ~help:"RPC retransmissions per second" ~unit_:"/s" ~window:win
       ~fast_windows:2 ~slow_windows:4 ~hysteresis:0.5 ~sub:Sim.Subsystem.Rpc
       ~threshold:40.0 "pfs.rpc_retransmit_rate")
    (Sim.Monitor.counter_rate
       (Sim.Metrics.counter reg ~sub:Sim.Subsystem.Rpc
          "client.retransmissions"));
  Sim.Monitor.register m
    (Sim.Slo.make ~help:"kernel deadline misses per second" ~unit_:"/s"
       ~window:win ~fast_windows:2 ~slow_windows:4 ~hysteresis:0.5
       ~sub:Sim.Subsystem.Nemesis ~threshold:100.0 "pfs.deadline_miss_rate")
    (Sim.Monitor.counter_rate
       (Sim.Metrics.counter reg ~sub:Sim.Subsystem.Nemesis
          "kernel.deadline_misses"));
  Sim.Engine.run e ~until:duration;
  Sim.Monitor.report ~name:"pfs" [ m ]

(* ------------------------------------------------------------------ *)
(* Sharded fabric: PAR's rig ({!Fabric.build}) cut to 4 sites, one
   monitor per shard, merged in shard order.  The trunk propagation
   delay is the conservative lookahead; 10 ms roll windows land on
   epoch boundaries, and {!Sim.Shard} flushes sampled gauges at every
   barrier, so the merged report is byte-identical at --domains 1/2/4.
   Seed 0 gives each source the phase [(i * 131_071 + s * 7_919) mod
   period]. *)

let fabric ctx =
  let p =
    {
      Fabric.sites = 4;
      streams_per_site = 8;
      frame_bytes = 8_192;
      fps = 100;
      cross_every = 4;
      trunk_prop = Sim.Time.ms 2;
      duration = Sim.Time.ms 130;
      seed = 0;
    }
  in
  let rig = Fabric.build ctx p in
  (* One monitor per shard: a source reaching across shards would race
     under parallel domains. *)
  let monitors =
    Array.mapi
      (fun i net ->
        let e = Atm.Net.engine net in
        let m = Sim.Monitor.create e in
        let reg = Sim.Engine.metrics e in
        let atm = Sim.Subsystem.Atm in
        let win = Sim.Time.ms 10 in
        Sim.Monitor.register m
          (Sim.Slo.make ~help:"wire cells lost per cell sent" ~unit_:"ratio"
             ~window:win ~fast_windows:1 ~slow_windows:3 ~hysteresis:0.5
             ~sub:atm ~threshold:0.01 (Printf.sprintf "site%d.cell_loss" i))
          (Sim.Monitor.counter_ratio
             ~num:(Sim.Metrics.counter reg ~sub:atm "link.cells_lost")
             ~den:(Sim.Metrics.counter reg ~sub:atm "link.cells_sent"));
        Sim.Monitor.register m
          (Sim.Slo.make ~help:"p99 link queueing delay" ~unit_:"us" ~window:win
             ~fast_windows:1 ~slow_windows:3 ~hysteresis:0.8 ~sub:atm
             ~threshold:1000.0 (Printf.sprintf "site%d.queue_delay_p99_us" i))
          (Sim.Monitor.windowed
             (Sim.Metrics.observer reg ~sub:atm "link.queue_delay_win_us"));
        Sim.Monitor.register m
          (Sim.Slo.make ~help:"engine event-queue depth" ~unit_:"events"
             ~window:win ~fast_windows:1 ~slow_windows:3 ~hysteresis:0.8
             ~sub:Sim.Subsystem.Sim ~threshold:50000.0
             (Printf.sprintf "site%d.queue_depth" i))
          (Sim.Monitor.gauge_level
             (Sim.Metrics.gauge reg ~sub:Sim.Subsystem.Sim
                "engine.queue_depth"));
        m)
      rig.nets
  in
  (* The disruption: 10% wire loss at site 0 from 30 ms to 70 ms; its
     cell-loss objective fires at 50 ms and resolves at 110 ms. *)
  (let net0 = rig.nets.(0) in
   let e0 = Atm.Net.engine net0 in
   let rng = Sim.Rng.create ~seed:7L () in
   ignore
     (Sim.Engine.schedule_at e0 ~at:(Sim.Time.ms 30) (fun () ->
          Atm.Net.inject_loss net0 ~rng 0.1));
   ignore
     (Sim.Engine.schedule_at e0 ~at:(Sim.Time.ms 70) (fun () ->
          Atm.Net.clear_faults net0)));
  Sim.Shard.run ~until:p.duration rig.shard;
  Sim.Monitor.report ~name:"fabric" (Array.to_list monitors)

(* ------------------------------------------------------------------ *)

let names = [ "video"; "congest"; "pfs"; "fabric" ]

let run ctx name =
  match name with
  | "video" -> video ctx
  | "congest" -> congest ctx
  | "pfs" -> pfs ctx
  | "fabric" -> fabric ctx
  | _ -> invalid_arg ("Health_scenarios.run: unknown scenario " ^ name)
