type transport = {
  t_request : client:int -> server:int -> flow:int -> k:(unit -> unit) -> unit;
  t_respond :
    server:int -> client:int -> flow:int -> len:int -> k:(unit -> unit) -> unit;
  t_copy : src:int -> dst:int -> len:int -> k:(unit -> unit) -> unit;
}

let loopback ?(delay = Sim.Time.us 50) engine =
  let send k = ignore (Sim.Engine.schedule engine ~delay (fun () -> k ())) in
  {
    t_request = (fun ~client:_ ~server:_ ~flow:_ ~k -> send k);
    t_respond = (fun ~server:_ ~client:_ ~flow:_ ~len:_ ~k -> send k);
    t_copy = (fun ~src:_ ~dst:_ ~len:_ ~k -> send k);
  }

type config = {
  replicate : bool;
  per_replica_rate : float;
  max_replicas : int;
  ewma_tau : Sim.Time.t;
  review_period : Sim.Time.t;
  shrink_hysteresis : float;
  cache_blocks : int;
  cache_block_bytes : int;
  replica_seg_base : int;
}

let default_config =
  {
    replicate = true;
    per_replica_rate = 40.0;
    max_replicas = 3;
    ewma_tau = Sim.Time.ms 250;
    review_period = Sim.Time.ms 25;
    shrink_hysteresis = 0.5;
    cache_blocks = 0;
    cache_block_bytes = 8192;
    replica_seg_base = 2048;
  }

(* A replica: the file's extent map snapshotted at copy time, with
   each home segment re-addressed to a copy living in this server's
   array above [replica_seg_base].  Sealed segments are immutable, so
   the snapshot can only go stale through a version bump — which drops
   the whole replica — never through in-place mutation. *)
type replica = {
  rp_version : int;
  rp_extents : (int * int * int * int) list;  (* (foff, rseg, soff, len) *)
  rp_segs : int list;  (* the rsegs, for recycling on drop *)
  rp_bytes : int;
}

type server = {
  sv_log : Log.t;
  sv_cache : Cache.t option;
  sv_replicas : (int, replica) Hashtbl.t;  (* global fid -> copy *)
  mutable sv_next_rseg : int;
  mutable sv_free_rsegs : int list;
  mutable sv_outstanding : int;
  mutable sv_reads : int;
  mutable sv_replica_bytes : int;
}

type fentry = {
  f_home : int;
  f_lfid : Log.fid;
  mutable f_version : int;
  mutable f_rate : float;
  mutable f_rate_at : Sim.Time.t;
  mutable f_replicas : int list;  (* most recent first *)
  mutable f_copying : int list;  (* destinations with a copy in flight *)
  mutable f_rr : int;  (* rotation cursor *)
}

type t = {
  engine : Sim.Engine.t;
  cfg : config;
  servers : server array;
  transport : transport;
  files : (int, fentry) Hashtbl.t;
  mutable next_gfid : int;
  tau_sec : float;
  mutable n_reads : int;
  mutable n_home : int;
  mutable n_replica : int;
  mutable n_rep_started : int;
  mutable n_rep_completed : int;
  mutable n_rep_discarded : int;
  mutable n_dropped : int;
  m_reads : Sim.Metrics.counter;
  m_replica_reads : Sim.Metrics.counter;
  m_replications : Sim.Metrics.counter;
  m_read_win : Sim.Metrics.observer;
  m_copy_lag_win : Sim.Metrics.observer;
}

let make engine ~logs ~transport ~config =
  if Array.length logs = 0 then invalid_arg "Directory.create: no servers";
  if config.max_replicas >= Array.length logs then
    invalid_arg "Directory.create: max_replicas must leave room for the home";
  let metrics = Sim.Engine.metrics engine in
  let servers =
    Array.mapi
      (fun _i log ->
        {
          sv_log = log;
          sv_cache =
            (if config.cache_blocks > 0 then
               Some (Cache.create ~capacity_blocks:config.cache_blocks ())
             else None);
          sv_replicas = Hashtbl.create 16;
          sv_next_rseg = config.replica_seg_base;
          sv_free_rsegs = [];
          sv_outstanding = 0;
          sv_reads = 0;
          sv_replica_bytes = 0;
        })
      logs
  in
  let t =
    {
      engine;
      cfg = config;
      servers;
      transport;
      files = Hashtbl.create 64;
      next_gfid = 0;
      tau_sec = Sim.Time.to_sec_f config.ewma_tau;
      n_reads = 0;
      n_home = 0;
      n_replica = 0;
      n_rep_started = 0;
      n_rep_completed = 0;
      n_rep_discarded = 0;
      n_dropped = 0;
      m_reads =
        Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Pfs
          ~help:"reads routed by the replication directory" "dir.reads";
      m_replica_reads =
        Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Pfs
          ~help:"reads served from a replica copy" "dir.replica_reads";
      m_replications =
        Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Pfs
          ~help:"replica copies installed" "dir.replications";
      m_read_win =
        Sim.Metrics.observer metrics ~sub:Sim.Subsystem.Pfs
          ~help:"windowed end-to-end directory read latency samples (us)"
          "dir.read_latency_win_us";
      m_copy_lag_win =
        Sim.Metrics.observer metrics ~sub:Sim.Subsystem.Pfs
          ~help:"windowed replica-copy lag samples, start to install (us)"
          "dir.copy_lag_win_us";
    }
  in
  t


let find_file t gfid =
  match Hashtbl.find_opt t.files gfid with
  | Some fe -> fe
  | None -> raise Not_found

let home_of t gfid = (find_file t gfid).f_home
let replicas_of t gfid = (find_file t gfid).f_replicas

let create_file t ?kind () =
  let gfid = t.next_gfid in
  t.next_gfid <- t.next_gfid + 1;
  let home = gfid mod Array.length t.servers in
  let lfid = Log.create_file t.servers.(home).sv_log ?kind () in
  Hashtbl.replace t.files gfid
    {
      f_home = home;
      f_lfid = lfid;
      f_version = 0;
      f_rate = 0.0;
      f_rate_at = Sim.Engine.now t.engine;
      f_replicas = [];
      f_copying = [];
      f_rr = 0;
    };
  gfid

(* {1 Popularity accounting} *)

let decay t fe =
  let now = Sim.Engine.now t.engine in
  let dt = Sim.Time.to_sec_f (Sim.Time.sub now fe.f_rate_at) in
  if dt > 0.0 then begin
    fe.f_rate <- fe.f_rate *. exp (-.dt /. t.tau_sec);
    fe.f_rate_at <- now
  end

let rate_of t gfid =
  let fe = find_file t gfid in
  decay t fe;
  fe.f_rate

(* {1 Replica lifecycle} *)

let alloc_rseg t sv =
  match sv.sv_free_rsegs with
  | r :: rest ->
      sv.sv_free_rsegs <- rest;
      r
  | [] ->
      if Log.total_segments sv.sv_log >= t.cfg.replica_seg_base then
        invalid_arg
          "Directory: log grew into the replica segment space \
           (raise replica_seg_base)";
      let r = sv.sv_next_rseg in
      sv.sv_next_rseg <- r + 1;
      r

(* Remove the replica of [gfid] held on server [dst], recycling its
   segments. *)
let remove_replica t ~gfid ~dst =
  let sv = t.servers.(dst) in
  match Hashtbl.find_opt sv.sv_replicas gfid with
  | None -> ()
  | Some rep ->
      Hashtbl.remove sv.sv_replicas gfid;
      sv.sv_free_rsegs <- rep.rp_segs @ sv.sv_free_rsegs;
      sv.sv_replica_bytes <- sv.sv_replica_bytes - rep.rp_bytes;
      t.n_dropped <- t.n_dropped + 1

let invalidate_replicas t gfid fe =
  if fe.f_replicas <> [] then begin
    List.iter (fun dst -> remove_replica t ~gfid ~dst) fe.f_replicas;
    fe.f_replicas <- []
  end

(* Copy the file's sealed segments onto [dst]: read each segment from
   the home array, cross the fabric, write it into the destination
   array above [replica_seg_base], then install the snapshot — unless
   the file's version moved while the copy was in flight, in which
   case everything is discarded (the invalidation already dropped the
   installed replicas; this drops the one being built). *)
let start_copy t gfid fe ~dst =
  let home = t.servers.(fe.f_home) in
  let dsv = t.servers.(dst) in
  let v = fe.f_version in
  let copy_started = Sim.Engine.now t.engine in
  t.n_rep_started <- t.n_rep_started + 1;
  fe.f_copying <- dst :: fe.f_copying;
  let seg_bytes = Log.segment_bytes home.sv_log in
  let finish_copy ok rsegs =
    fe.f_copying <- List.filter (fun d -> d <> dst) fe.f_copying;
    match ok with
    | Some (extents, mapping) when fe.f_version = v && Hashtbl.mem t.files gfid
      ->
        let rmap seg = List.assoc seg mapping in
        let rp_extents =
          List.map (fun (foff, seg, soff, len) -> (foff, rmap seg, soff, len)) extents
        in
        let bytes = List.length rsegs * seg_bytes in
        Hashtbl.replace dsv.sv_replicas gfid
          { rp_version = v; rp_extents; rp_segs = rsegs; rp_bytes = bytes };
        dsv.sv_replica_bytes <- dsv.sv_replica_bytes + bytes;
        fe.f_replicas <- dst :: fe.f_replicas;
        t.n_rep_completed <- t.n_rep_completed + 1;
        Sim.Metrics.incr t.m_replications;
        Sim.Metrics.sample t.m_copy_lag_win
          (Sim.Time.to_us_f
             (Sim.Time.sub (Sim.Engine.now t.engine) copy_started))
    | _ ->
        dsv.sv_free_rsegs <- rsegs @ dsv.sv_free_rsegs;
        t.n_rep_discarded <- t.n_rep_discarded + 1
  in
  let proceed () =
    (* Re-check: a write during the seal means the snapshot below
       would mix sealed and open extents. *)
    if fe.f_version <> v || not (Log.file_sealed home.sv_log fe.f_lfid) then
      finish_copy None []
    else begin
      let extents = Log.file_extents home.sv_log fe.f_lfid in
      let segs =
        List.sort_uniq compare (List.map (fun (_, seg, _, _) -> seg) extents)
      in
      let rec copy_seg remaining mapping rsegs =
        match remaining with
        | [] -> finish_copy (Some (extents, mapping)) rsegs
        | seg :: rest ->
            Raid.read_segment (Log.raid home.sv_log) ~seg ~k:(fun r ->
                match r with
                | Error `Lost -> finish_copy None rsegs
                | Ok data ->
                    t.transport.t_copy ~src:fe.f_home ~dst ~len:seg_bytes
                      ~k:(fun () ->
                        let rseg = alloc_rseg t dsv in
                        Raid.write_segment (Log.raid dsv.sv_log) ~seg:rseg
                          ?data (fun wr ->
                            match wr with
                            | Error `Lost -> finish_copy None (rseg :: rsegs)
                            | Ok () ->
                                copy_seg rest ((seg, rseg) :: mapping)
                                  (rseg :: rsegs))))
      in
      copy_seg segs [] []
    end
  in
  if Log.file_sealed home.sv_log fe.f_lfid then proceed ()
  else
    (* Seal first: replication moves whole sealed segments, never
       bytes still sitting in an open segment buffer. *)
    Log.sync home.sv_log ~k:(fun _ -> proceed ())

(* Grow toward [rate / per_replica_rate] one copy at a time; shrink
   (most recent replica first) only once the rate falls through the
   hysteresis band. *)
let maybe_adjust t gfid fe =
  if t.cfg.replicate then begin
    let live = List.length fe.f_replicas in
    let inflight = List.length fe.f_copying in
    let target =
      Int.min t.cfg.max_replicas
        (int_of_float (fe.f_rate /. t.cfg.per_replica_rate))
    in
    if target > live + inflight then begin
      (* First shard, scanning from the home, not already involved. *)
      let n = Array.length t.servers in
      let rec pick k =
        if k >= n then None
        else
          let cand = (fe.f_home + k) mod n in
          if
            List.mem cand fe.f_replicas
            || List.mem cand fe.f_copying
            || cand = fe.f_home
          then pick (k + 1)
          else Some cand
      in
      match pick 1 with
      | Some dst -> start_copy t gfid fe ~dst
      | None -> ()
    end
    else if
      live > 0
      && fe.f_rate
         < t.cfg.per_replica_rate *. float_of_int live *. t.cfg.shrink_hysteresis
    then begin
      match fe.f_replicas with
      | dst :: rest ->
          fe.f_replicas <- rest;
          remove_replica t ~gfid ~dst
      | [] -> ()
    end
  end

let review t =
  for gfid = 0 to t.next_gfid - 1 do
    match Hashtbl.find_opt t.files gfid with
    | None -> ()
    | Some fe ->
        decay t fe;
        maybe_adjust t gfid fe
  done

let create engine ~logs ~transport ?(config = default_config) () =
  let t = make engine ~logs ~transport ~config in
  Sim.Engine.every ~daemon:true engine ~period:config.review_period (fun () ->
      review t;
      true);
  t

let note_read t gfid fe =
  decay t fe;
  fe.f_rate <- fe.f_rate +. (1.0 /. t.tau_sec);
  t.n_reads <- t.n_reads + 1;
  Sim.Metrics.incr t.m_reads;
  maybe_adjust t gfid fe

(* {1 The write path: home shard only} *)

let write t gfid ~off ?data ~len k =
  match Hashtbl.find_opt t.files gfid with
  | None -> k (Error `No_such_file)
  | Some fe ->
      fe.f_version <- fe.f_version + 1;
      invalidate_replicas t gfid fe;
      let home = t.servers.(fe.f_home) in
      (match home.sv_cache with
      | Some cache -> Cache.invalidate_file cache ~fid:gfid
      | None -> ());
      Log.write home.sv_log fe.f_lfid ~off ?data ~len k

let sync t ~k =
  let n = Array.length t.servers in
  let pending = ref n in
  let failed = ref false in
  Array.iter
    (fun sv ->
      Log.sync sv.sv_log ~k:(fun r ->
          (match r with Error _ -> failed := true | Ok () -> ());
          decr pending;
          if !pending = 0 then k (if !failed then Error `Lost else Ok ())))
    t.servers

(* {1 The read path} *)

let flow_step t flow name =
  if flow >= 0 then begin
    let tr = Sim.Engine.trace t.engine in
    if Sim.Trace.flows_on tr then
      Sim.Trace.flow_step tr
        ~ts:(Sim.Engine.now t.engine)
        ~sub:Sim.Subsystem.Pfs ~cat:"pfs" ~flow name
  end

(* Serve a read from the replica copy on [sv]: timing against this
   server's array, bytes from the copied segments when the array
   stores data, holes reading as zeros.  Each copied extent is read
   with {!Raid.read_range}, as {!Log.read} reads a sealed one. *)
let replica_read t sv rep ~off ~len ~flow ~k =
  flow_step t flow "pfs.replica";
  let raid = Log.raid sv.sv_log in
  let out =
    if Raid.stores_data raid then Some (Bytes.make len '\000') else None
  in
  let buf = Option.value out ~default:Bytes.empty in
  let outstanding = ref 1 in
  let failed = ref false in
  let finish r =
    (match r with Error _ -> failed := true | Ok _ -> ());
    decr outstanding;
    if !outstanding = 0 then
      if !failed then k (Error `Lost) else k (Ok out)
  in
  List.iter
    (fun (foff, rseg, soff, xlen) ->
      if foff < off + len && foff + xlen > off then begin
        let lo = Int.max off foff and hi = Int.min (off + len) (foff + xlen) in
        let delta = lo - foff and n = hi - lo in
        incr outstanding;
        Raid.read_range ~flow raid ~seg:rseg ~off:(soff + delta) ~len:n
          ~into:buf ~at:(lo - off) ~k:finish
      end)
    rep.rp_extents;
  finish (Ok ())

(* Serve at the home shard, going through the block cache when one is
   configured: a read whose blocks are all resident skips the disks. *)
let home_read t sv fe ~gfid ~off ~len ~flow ~k =
  match sv.sv_cache with
  | None ->
      t.n_home <- t.n_home + 1;
      Log.read ~flow sv.sv_log fe.f_lfid ~off ~len ~k
  | Some cache ->
      let bs = t.cfg.cache_block_bytes in
      let first = off / bs and last = (off + len - 1) / bs in
      let all_hit = ref true in
      for b = first to last do
        match Cache.access cache ~fid:gfid ~block:b with
        | `Hit -> ()
        | `Miss -> all_hit := false
      done;
      if !all_hit then begin
        flow_step t flow "pfs.cache";
        k (Ok (Log.peek sv.sv_log fe.f_lfid ~off ~len))
      end
      else begin
        t.n_home <- t.n_home + 1;
        Log.read ~flow sv.sv_log fe.f_lfid ~off ~len ~k
      end

(* Rotation with load bias: scan the candidate ring starting at the
   file's rotation cursor and take the least-loaded server, ties going
   to the earliest in rotation order.  Pure rotation when equally
   loaded; the bias steers around a backlogged server. *)
let pick_server t fe =
  let candidates = fe.f_home :: List.rev fe.f_replicas in
  let n = List.length candidates in
  let arr = Array.of_list candidates in
  let start = fe.f_rr mod n in
  fe.f_rr <- fe.f_rr + 1;
  let best = ref arr.(start) in
  for j = 1 to n - 1 do
    let cand = arr.((start + j) mod n) in
    if t.servers.(cand).sv_outstanding < t.servers.(!best).sv_outstanding then
      best := cand
  done;
  !best

let read t ?(client = 0) ?(flow = Sim.Trace.no_flow) gfid ~off ~len ~k =
  match Hashtbl.find_opt t.files gfid with
  | None -> k (Error `No_such_file)
  | Some fe ->
      note_read t gfid fe;
      (* Valid replicas only: an entry whose version lags the file's
         was dropped by the invalidation, so membership in f_replicas
         already implies freshness — assert it cheaply. *)
      let sid = pick_server t fe in
      let sv = t.servers.(sid) in
      flow_step t flow "dir.route";
      sv.sv_outstanding <- sv.sv_outstanding + 1;
      let read_started = Sim.Engine.now t.engine in
      t.transport.t_request ~client ~server:sid ~flow ~k:(fun () ->
          let serve_k r =
            t.transport.t_respond ~server:sid ~client ~flow ~len ~k:(fun () ->
                sv.sv_outstanding <- sv.sv_outstanding - 1;
                sv.sv_reads <- sv.sv_reads + 1;
                Sim.Metrics.sample t.m_read_win
                  (Sim.Time.to_us_f
                     (Sim.Time.sub (Sim.Engine.now t.engine) read_started));
                k r)
          in
          if sid = fe.f_home then home_read t sv fe ~gfid ~off ~len ~flow ~k:serve_k
          else
            match Hashtbl.find_opt sv.sv_replicas gfid with
            | Some rep when rep.rp_version = fe.f_version ->
                t.n_replica <- t.n_replica + 1;
                Sim.Metrics.incr t.m_replica_reads;
                replica_read t sv rep ~off ~len ~flow ~k:serve_k
            | Some _ | None ->
                (* The replica vanished between routing and arrival (a
                   write raced the request): read the home shard's log,
                   which holds the current bytes, though the request
                   and its reply stay charged to this server. *)
                t.n_home <- t.n_home + 1;
                let home = t.servers.(fe.f_home) in
                Log.read ~flow home.sv_log fe.f_lfid ~off ~len ~k:serve_k)

(* {1 Statistics} *)

let reads_total t = t.n_reads
let reads_home t = t.n_home
let reads_replica t = t.n_replica
let replications_started t = t.n_rep_started
let replications_completed t = t.n_rep_completed
let replications_discarded t = t.n_rep_discarded
let replicas_dropped t = t.n_dropped
let server_reads t i = t.servers.(i).sv_reads
let server_replica_bytes t i = t.servers.(i).sv_replica_bytes
