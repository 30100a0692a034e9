(* vod_flash: the VOD flash crowd in its replicate configuration.

   Four Pegasus file servers and 64 clients hang off one switch.  A
   Pfs.Directory shards a 32-title catalogue (256 KB per title, sealed
   continuous-media segments) over the servers and replicates hot
   titles.  Workloads.Vod runs a closed loop: each client thinks
   (exponential, 40 ms mean), reads a 64 KB chunk of a Zipf(1.3) title
   and waits for it; halfway through, the popularity flips.  Requests,
   responses and replica copies travel as 32 KB AAL5 frames over frame
   pipes, paced at line rate.  Flow tracing is on and Sim.Audit reports
   the read latencies.  The seed drives the Workloads.Vod RNG; the
   catalogue preload and seal are set-up.  An operation is one read
   completed at its client. *)

open Workload

let servers = 4
let clients = 64
let files = 32
let seg_bytes = 262_144
let file_bytes = 262_144
let read_bytes = 65_536
let zipf_s = 1.3
let bandwidth_bps = 100_000_000
let queue_cells = 32_768
let req_bytes = 64
let chunk_bytes = 32_768

let setup ~seed ~short ~traced =
  let tr = Sim.Trace.create ~unbounded:true ~enabled:true () in
  Sim.Trace.set_flows tr true;
  Sim.Trace.set_cell_detail tr false;
  let e = fresh_engine ~trace:tr () in
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
  (* Each transport leg has its own VC; a FIFO of continuations per VC
     maps in-order frame arrivals back to the directory's callbacks.
     Response legs also count the bytes that reach each client. *)
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
  let received = Array.make clients 0 in
  let pop ((leg, _, dst) as key) ~flow:_ payload =
    if leg = 1 then received.(dst) <- received.(dst) + Bytes.length payload;
    Queue.pop (q key) ()
  in
  let pipe ~src ~dst key =
    let rx =
      if traced then (fun ~flow payload ->
        Span.enter sp_rx;
        pop key ~flow payload;
        Span.leave ())
      else pop key
    in
    Atm.Net.open_pipe net ~src ~dst ~rx
  in
  let req_vc =
    Array.init clients (fun c ->
        Array.init servers (fun s -> pipe ~src:cli.(c) ~dst:srv.(s) (0, c, s)))
  in
  let resp_vc =
    Array.init servers (fun s ->
        Array.init clients (fun c -> pipe ~src:srv.(s) ~dst:cli.(c) (1, s, c)))
  in
  let copy_vc =
    Array.init servers (fun s ->
        Array.init servers (fun d ->
            if s = d then None
            else Some (pipe ~src:srv.(s) ~dst:srv.(d) (2, s, d))))
  in
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
  let send flow vc len =
    if traced then Span.enter sp_send;
    Atm.Net.send_frame ?flow vc (payload len);
    if traced then Span.leave ()
  in
  let pace free i vc ~flow ~len =
    let tx = Sim.Time.mul cell_time (Atm.Aal5.frame_cells len) in
    let start = Sim.Time.max (Sim.Engine.now e) free.(i) in
    free.(i) <- Sim.Time.add start tx;
    let flow = if flow >= 0 then Some flow else None in
    ignore (Sim.Engine.schedule_at e ~at:start (fun () -> send flow vc len))
  in
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
          send_msg cli_free client req_vc.(client).(server) (0, client, server)
            ~flow ~len:req_bytes ~k);
      t_respond =
        (fun ~server ~client ~flow ~len ~k ->
          send_msg srv_free server resp_vc.(server).(client) (1, server, client)
            ~flow ~len ~k);
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
  let dir = Pfs.Directory.create e ~logs ~transport () in
  (* Preload the catalogue and seal it. *)
  let preload_errors = ref 0 in
  let note = function Ok () -> () | Error _ -> incr preload_errors in
  let rec preload i k =
    if i = files then k ()
    else begin
      let fid = Pfs.Directory.create_file dir ~kind:Pfs.Log.Continuous () in
      if fid <> i then incr preload_errors;
      if traced then Span.enter sp_write;
      Pfs.Directory.write dir fid ~off:0 ~len:file_bytes (fun r ->
          note r;
          preload (i + 1) k);
      if traced then Span.leave ()
    end
  in
  let synced = ref false in
  preload 0 (fun () ->
      if traced then Span.enter sp_sync;
      Pfs.Directory.sync dir ~k:(fun r ->
          note r;
          synced := true);
      if traced then Span.leave ());
  run_engine e;
  let half = Sim.Time.ms (if short then 250 else 2_000) in
  let rng = Sim.Rng.create ~seed:(Int64.of_int seed) () in
  let run () =
    let t0 = Sim.Engine.now e in
    let flip_at = Sim.Time.add t0 half in
    let stop_at = Sim.Time.add flip_at half in
    let ok_reads = ref 0 and bad_reads = ref 0 in
    let read_done ~client ~flow ~mark ~k r =
      if traced then Span.enter_id sp_read_done flow;
      Sim.Trace.flow_end tr ~ts:(Sim.Engine.now e) ~sub:Sim.Subsystem.Pfs
        ~cat:"vod" ~flow "vod.done";
      (match r with
      | Ok _ when received.(client) - mark = read_bytes -> incr ok_reads
      | Ok _ | Error _ -> incr bad_reads);
      k ();
      if traced then Span.leave ()
    in
    let op_read ~client ~fid ~off ~len ~k =
      let now = Sim.Engine.now e in
      let label =
        if Sim.Time.(now >= flip_at) then "vod:flash" else "vod:pre"
      in
      let flow = Sim.Trace.alloc_flow tr in
      Sim.Trace.flow_start tr ~ts:now ~sub:Sim.Subsystem.Pfs ~cat:"vod"
        ~args:[ ("stream", Sim.Trace.Str label) ]
        ~flow "vod.read";
      let k = read_done ~client ~flow ~mark:received.(client) ~k in
      if traced then Span.enter_id sp_dir_read flow;
      Pfs.Directory.read dir ~client ~flow fid ~off ~len ~k;
      if traced then Span.leave ()
    in
    let v =
      Workloads.Vod.create e ~rng ~ops:{ Workloads.Vod.op_read } ~clients ~files
        ~file_bytes ~read_bytes ~zipf_s ~flip_at ~stop_at ()
    in
    Workloads.Vod.start v;
    run_engine e;
    if traced then Span.enter sp_audit;
    let report = Sim.Audit.of_trace tr in
    if traced then Span.leave ();
    let attempted = Workloads.Vod.reads_started v in
    let dropped = Atm.Net.total_cells_dropped net in
    let copies = Pfs.Directory.replications_completed dir in
    let stream_line (st : Sim.Audit.stream) =
      Printf.sprintf "%s flows %d incomplete %d p50 %s p99 %s" st.st_label
        st.st_flows st.st_incomplete
        (hex st.st_e2e_p50_ns) (hex st.st_e2e_p99_ns)
    in
    {
      ops = !ok_reads;
      attempted;
      failed = attempted - !ok_reads;
      checks =
        [
          ("catalogue preload acknowledged Ok", !preload_errors = 0 && !synced);
          ("every read returns Ok with read_bytes", !bad_reads = 0);
          ("every read issued completes", !ok_reads = attempted);
          ("zero dropped cells", dropped = 0);
          ("at least one replica installed", copies >= 1);
        ];
      sim_lines =
        [
          Printf.sprintf "reads %d/%d bytes %d" !ok_reads attempted
            (Workloads.Vod.bytes_read v);
          Printf.sprintf "replica reads %d of %d copies %d dropped cells %d"
            (Pfs.Directory.reads_replica dir)
            (Pfs.Directory.reads_total dir)
            copies dropped;
        ]
        @ List.map stream_line report.Sim.Audit.rp_streams;
    }
  in
  { engine = e; run }

let workload =
  {
    name = "vod_flash";
    op = "read completed";
    depth_period = Sim.Time.us 100;
    copy_weight = 0.0;
    setup;
  }
