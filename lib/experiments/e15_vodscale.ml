(* E15: VOD flash crowd — popularity-aware replication vs static
   placement vs caching.

   Four file servers hang off one switch ({!Atm.Net.fan}, 100 Mbit/s
   links), each a full Pegasus stack (disk array, RAID, log).  A
   {!Pfs.Directory} shards a 16-title catalogue over them (256 KB per
   title, sealed continuous-media segments) and a Zipf flash-crowd
   workload ({!Workloads.Vod}) of closed-loop clients reads 64 KB
   chunks; halfway through, the scripted popularity flip moves the
   Zipf head to previously cold titles.

   Three placements face the same traffic:

   - {e static}: every read goes to the title's home shard.  The Zipf
     head concentrates ~40% of the load on one server, whose 100
     Mbit/s link saturates while the other three idle — throughput
     caps and the p99 read latency is pure queueing delay.
   - {e cache}: a 1 MB block cache per server absorbs the disk reads,
     but a cache cannot add link capacity: the hot server's wire is
     still the bottleneck, so the tail barely moves.
   - {e replicate}: the directory notices the hot titles (EWMA read
     rates), copies their sealed segments onto other shards over the
     fabric, and rotates reads across the copies with a load bias.
     The same wire that was the bottleneck becomes one of four.

   Responses and segment copies are paced against a per-server
   ship-free horizon (the E8 pattern — an interface clocks frames out
   at line rate; it does not dump a megabyte into the first-hop
   queue).  Reads are traced as causal flows in two streams, before
   and after the flip, so {!Sim.Audit} yields pre-flip and flash-crowd
   p50/p95/p99 separately — the flash numbers are where replication
   must re-converge after the flip invalidates its replica set.

   Each (clients, placement) row is an independent closed world on its
   own child of the run's context; rows fan out over OCaml domains
   through {!Sim.Ctx.map} byte-identically at any domain count. *)

let servers = 4
let files = 32
let seg_bytes = 262_144
let file_bytes = 262_144
let read_bytes = 65_536
let zipf_s = 1.3
let bandwidth_bps = 100_000_000
let queue_cells = 32_768
let req_bytes = 64

type mode = Static | Cache_only | Replicate

let mode_name = function
  | Static -> "static"
  | Cache_only -> "cache"
  | Replicate -> "replicate"

let mode_config = function
  | Static -> { Pfs.Directory.default_config with replicate = false }
  | Cache_only ->
      {
        Pfs.Directory.default_config with
        replicate = false;
        cache_blocks = 128;
        cache_block_bytes = 8_192;
      }
  | Replicate -> Pfs.Directory.default_config

type row_result = {
  rr_clients : int;
  rr_mode : mode;
  rr_reads_s : float;  (* completed reads/s over the flash window *)
  rr_p50_us : float option;  (* flash window *)
  rr_p99_pre_us : float option;
  rr_p99_flash_us : float option;
  rr_replica_pct : float;
  rr_copies : int;
  rr_drops : int;
}

let row ~clients ~mode ctx =
  let tr = Sim.Ctx.trace ctx in
  Sim.Audit.capture tr;
  let e = Sim.Ctx.engine ctx in
  let net = Atm.Net.create e in
  let sw = Atm.Net.add_switch net ~name:"sw" ~ports:(servers + clients) in
  let srv =
    Atm.Net.fan net ~bandwidth_bps ~queue_cells ~switch:sw ~prefix:"srv"
      ~n:servers
  in
  let cli =
    Atm.Net.fan net ~bandwidth_bps ~queue_cells ~switch:sw ~prefix:"cli"
      ~n:clients
  in
  (* Frame dispatch: each transport leg has its own VC, and a FIFO of
     continuations per VC maps in-order frame arrivals back to the
     callbacks the directory handed us. *)
  let queues : (int * int * int, (unit -> unit) Queue.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let q key =
    match Hashtbl.find_opt queues key with
    | Some qq -> qq
    | None ->
        let qq = Queue.create () in
        Hashtbl.replace queues key qq;
        qq
  in
  let pop key ~flow:_ _payload = Queue.pop (q key) () in
  let req_vc =
    Array.init clients (fun c ->
        Array.init servers (fun s ->
            Atm.Net.open_pipe net ~src:cli.(c) ~dst:srv.(s)
              ~rx:(pop (0, c, s))))
  in
  let resp_vc =
    Array.init servers (fun s ->
        Array.init clients (fun c ->
            Atm.Net.open_pipe net ~src:srv.(s) ~dst:cli.(c)
              ~rx:(pop (1, s, c))))
  in
  let copy_vc =
    Array.init servers (fun s ->
        Array.init servers (fun d ->
            if s = d then None
            else
              Some
                (Atm.Net.open_pipe net ~src:srv.(s) ~dst:srv.(d)
                   ~rx:(pop (2, s, d)))))
  in
  (* Line-rate pacing (the E8 ship-free pattern), one horizon per
     sending host. *)
  let cell_time = Atm.Cell.tx_time ~bandwidth_bps in
  let cli_free = Array.make clients Sim.Time.zero in
  let srv_free = Array.make servers Sim.Time.zero in
  let payloads = Hashtbl.create 4 in
  let payload len =
    match Hashtbl.find_opt payloads len with
    | Some b -> b
    | None ->
        let b = Bytes.make len 'v' in
        Hashtbl.replace payloads len b;
        b
  in
  let pace free i vc ~flow ~len =
    let tx = Sim.Time.mul cell_time (Atm.Aal5.frame_cells len) in
    let start = Sim.Time.max (Sim.Engine.now e) free.(i) in
    free.(i) <- Sim.Time.add start tx;
    let flow = if flow >= 0 then Some flow else None in
    ignore
      (Sim.Engine.schedule_at e ~at:start (fun () ->
           Atm.Net.send_frame ?flow vc (payload len)))
  in
  (* A message larger than one AAL5 frame (65535 bytes) travels as a
     train of 32 KB frames; in-order delivery on the VC lets the
     receive FIFO run the continuation on the last frame only. *)
  let chunk_bytes = 32_768 in
  let send_msg free i vc key ~flow ~len ~k =
    let rec go off =
      let n = Stdlib.min chunk_bytes (len - off) in
      let last = off + n >= len in
      Queue.push (if last then k else fun () -> ()) (q key);
      pace free i vc ~flow ~len:n;
      if not last then go (off + n)
    in
    go 0
  in
  let transport =
    {
      Pfs.Directory.t_request =
        (fun ~client ~server ~flow ~k ->
          send_msg cli_free client
            req_vc.(client).(server)
            (0, client, server) ~flow ~len:req_bytes ~k);
      t_respond =
        (fun ~server ~client ~flow ~len ~k ->
          send_msg srv_free server
            resp_vc.(server).(client)
            (1, server, client) ~flow ~len ~k);
      t_copy =
        (fun ~src ~dst ~len ~k ->
          match copy_vc.(src).(dst) with
          | Some vc ->
              send_msg srv_free src vc (2, src, dst) ~flow:Sim.Trace.no_flow
                ~len ~k
          | None -> assert false (* the directory never copies to src *));
    }
  in
  let logs =
    Array.init servers (fun _ ->
        let raid = Pfs.Raid.create e ~segment_bytes:seg_bytes () in
        Pfs.Log.create e ~raid ())
  in
  let dir =
    Pfs.Directory.create e ~logs ~transport ~config:(mode_config mode) ()
  in
  let half = Sim.Time.ms 2_000 in
  let duration = Sim.Time.mul half 2 in
  (* Reads issued while a transient is still draining — the cold-start
     herd at the beginning of each half, and the stretch after the flip
     where replication is still re-converging — go to a separate
     "ramp" stream, so pre and flash percentiles measure steady state
     on both sides and the ramp is reported on its own terms. *)
  let grace = Sim.Time.ms 750 in
  let flash_done = ref 0 in
  (* Preload the catalogue (continuous-media segments), seal it, then
     unleash the clients. *)
  let rec preload i k =
    if i = files then k ()
    else begin
      let fid = Pfs.Directory.create_file dir ~kind:Pfs.Log.Continuous () in
      assert (fid = i);
      Pfs.Directory.write dir fid ~off:0 ~len:file_bytes (fun r ->
          (match r with Ok () -> () | Error _ -> assert false);
          preload (i + 1) k)
    end
  in
  ignore
    (Sim.Engine.schedule_at e ~at:Sim.Time.zero (fun () ->
         preload 0 (fun () ->
             Pfs.Directory.sync dir ~k:(fun r ->
                 (match r with Ok () -> () | Error _ -> assert false);
                 let t0 = Sim.Engine.now e in
                 let flip_at = Sim.Time.add t0 half in
                 let stop_at = Sim.Time.add t0 duration in
                 let pre_start = Sim.Time.add t0 grace in
                 let flash_start = Sim.Time.add flip_at grace in
                 let ops =
                   {
                     Workloads.Vod.op_read =
                       (fun ~client ~fid ~off ~len ~k ->
                         let now () = Sim.Engine.now e in
                         let t = now () in
                         let in_flash = Sim.Time.(t >= flash_start) in
                         let label =
                           if in_flash then "vod:flash"
                           else if
                             Sim.Time.(t >= pre_start) && Sim.Time.(t < flip_at)
                           then "vod:pre"
                           else "vod:ramp"
                         in
                         let flow = Sim.Trace.alloc_flow tr in
                         Sim.Trace.flow_start tr ~ts:(now ())
                           ~sub:Sim.Subsystem.Pfs ~cat:"e15"
                           ~args:[ ("stream", Sim.Trace.Str label) ]
                           ~flow "vod.read";
                         Pfs.Directory.read dir ~client ~flow fid ~off ~len
                           ~k:(fun _ ->
                             Sim.Trace.flow_end tr ~ts:(now ())
                               ~sub:Sim.Subsystem.Pfs ~cat:"e15" ~flow
                               "vod.done";
                             if in_flash then incr flash_done;
                             k ()));
                   }
                 in
                 let rng =
                   Sim.Rng.create
                     ~seed:
                       (Int64.of_int
                          (0xE15000 + (clients * 31)
                          + (match mode with
                            | Static -> 0
                            | Cache_only -> 1
                            | Replicate -> 2)))
                     ()
                 in
                 let v =
                   Workloads.Vod.create e ~rng ~ops ~clients ~files ~file_bytes
                     ~read_bytes ~zipf_s ~flip_at ~stop_at ()
                 in
                 Workloads.Vod.start v))));
  Sim.Engine.run e;
  let report = Sim.Audit.of_trace tr in
  let stream label =
    List.find_opt
      (fun st -> st.Sim.Audit.st_label = label)
      report.Sim.Audit.rp_streams
  in
  let p99 label =
    Option.map (fun st -> st.Sim.Audit.st_e2e_p99_ns /. 1_000.0) (stream label)
  in
  let p50_flash =
    Option.map
      (fun st -> st.Sim.Audit.st_e2e_p50_ns /. 1_000.0)
      (stream "vod:flash")
  in
  let flash_sec = Sim.Time.to_sec_f (Sim.Time.sub half grace) in
  let total = Pfs.Directory.reads_total dir in
  let replica_pct =
    if total = 0 then 0.0
    else
      100.0
      *. float_of_int (Pfs.Directory.reads_replica dir)
      /. float_of_int total
  in
  {
    rr_clients = clients;
    rr_mode = mode;
    rr_reads_s = float_of_int !flash_done /. flash_sec;
    rr_p50_us = p50_flash;
    rr_p99_pre_us = p99 "vod:pre";
    rr_p99_flash_us = p99 "vod:flash";
    rr_replica_pct = replica_pct;
    rr_copies = Pfs.Directory.replications_completed dir;
    rr_drops = Atm.Net.total_cells_dropped net;
  }

let render r =
  [
    string_of_int r.rr_clients;
    mode_name r.rr_mode;
    Printf.sprintf "%.0f" r.rr_reads_s;
    (match r.rr_p50_us with Some us -> Table.cell_time_us us | None -> "-");
    (match r.rr_p99_pre_us with Some us -> Table.cell_time_us us | None -> "-");
    (match r.rr_p99_flash_us with Some us -> Table.cell_time_us us | None -> "-");
    Printf.sprintf "%.0f%%" r.rr_replica_pct;
    string_of_int r.rr_copies;
    string_of_int r.rr_drops;
  ]

let results ctx =
  let cases =
    Array.concat
      (Array.to_list
         (Array.map
            (fun clients ->
              Array.map
                (fun mode -> (clients, mode))
                [| Static; Cache_only; Replicate |])
            [| 8; 24; 64 |]))
  in
  Sim.Ctx.map ctx (Array.map (fun (clients, mode) -> row ~clients ~mode) cases)

let run ctx =
  let rows = results ctx in
  Table.make ~id:"E15"
    ~title:"VOD flash crowd: popularity-aware replication vs static placement"
    ~claim:
      "Sharding a file service spreads capacity but not popularity: a Zipf \
       flash crowd saturates the hot title's home server while the rest \
       idle, and a cache cannot add link capacity.  Replicating hot files' \
       sealed segments and rotating reads over the copies turns the one \
       saturated wire into four, holding throughput strictly higher and \
       the p99 read tail at least 2x lower through the popularity flip."
    ~columns:
      [
        "clients";
        "placement";
        "reads/s";
        "p50 flash";
        "p99 pre";
        "p99 flash";
        "replica reads";
        "copies";
        "drops";
      ]
    ~notes:
      [
        Printf.sprintf
          "%d servers behind one switch (Net.fan), 100 Mbit/s links; %d-title \
           catalogue, %d KB per title in sealed continuous-media segments, \
           %d KB reads, Zipf(%.1f) popularity with a scripted flip at \
           half-run (Workloads.Vod)."
          servers files (file_bytes / 1024) (read_bytes / 1024) zipf_s;
        "Placements: static = all reads at the home shard; cache = static \
         plus a 1 MB block cache per server; replicate = Pfs.Directory \
         EWMA popularity, sealed-segment copies, rotation + load-bias \
         routing (writes always at the home shard; replicas die on \
         version bump).";
        "reads/s and the flash percentiles cover the flash-crowd window: \
         from a grace period after the flip (cold-start and re-convergence \
         transients are measured separately as a ramp stream) to the end of \
         the run; p99 pre is the warmed-up pre-flip tail.  Responses and \
         copies are paced at line rate against a per-server ship-free \
         horizon; drops counts queue-dropped cells (0 = no frame loss).";
        "Each row is an independent world: with --domains N the rows run \
         on N OCaml domains, byte-identically.";
      ]
    (List.map render (Array.to_list rows))
