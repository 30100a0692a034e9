module Wire = Wire

type error =
  | Timed_out
  | No_such_interface of string
  | No_such_method of string
  | Remote_error of string

let pp_error fmt = function
  | Timed_out -> Format.pp_print_string fmt "timed out"
  | No_such_interface i -> Format.fprintf fmt "no such interface: %s" i
  | No_such_method m -> Format.fprintf fmt "no such method: %s" m
  | Remote_error e -> Format.fprintf fmt "remote error: %s" e

(* Error replies carry a one-character tag, a colon and the detail:
   "I:tty" = no such interface, "M:read" = no such method, "E:msg" = a
   handler-reported error.  Anything else — including strings that
   merely start with 'I' or 'E', like "Ignored" — is an opaque remote
   error, reported whole. *)
let error_of_payload s =
  if String.length s >= 2 && s.[1] = ':' then
    let detail = String.sub s 2 (String.length s - 2) in
    match s.[0] with
    | 'I' -> No_such_interface detail
    | 'M' -> No_such_method detail
    | 'E' -> Remote_error detail
    | _ -> Remote_error s
  else Remote_error s

type handler =
  meth:string ->
  flow:int ->
  bytes ->
  reply:((bytes, string) result -> unit) ->
  unit

(* A hash table with FIFO eviction once it exceeds [cap].  The order
   queue may hold keys already removed from the table; they are skipped
   at eviction time and compacted away when they dominate the queue, so
   memory stays proportional to [cap]. *)
type 'v bounded = {
  tbl : (int * int, 'v) Hashtbl.t;
  order : (int * int) Queue.t;
  cap : int;
}

let bounded_create cap = { tbl = Hashtbl.create 64; order = Queue.create (); cap }

let bounded_add b key v =
  if not (Hashtbl.mem b.tbl key) then Queue.push key b.order;
  Hashtbl.replace b.tbl key v;
  while Hashtbl.length b.tbl > b.cap do
    match Queue.take_opt b.order with
    | None -> assert false  (* every table key is queued *)
    | Some k -> Hashtbl.remove b.tbl k
  done;
  if
    Queue.length b.order > b.cap
    && Queue.length b.order > 2 * Hashtbl.length b.tbl
  then begin
    let live = Queue.create () in
    Queue.iter (fun k -> if Hashtbl.mem b.tbl k then Queue.push k live) b.order;
    Queue.clear b.order;
    Queue.transfer live b.order
  end

type endpoint = {
  net : Atm.Net.t;
  host : Atm.Net.node_id;
  ifaces : (string, handler) Hashtbl.t;
  (* at-most-once: last reply per (conn id, call id), oldest evicted *)
  reply_cache : Wire.msg bounded;
  (* calls received but not yet answered (duplicates are dropped) *)
  in_progress : unit bounded;
  mutable dups : int;
  mutable next_conn_id : int;
  m_dups : Sim.Metrics.counter;
}

type pending = {
  mutable tries : int;
  mutable retry_ev : Sim.Engine.event_id option;
  k : (bytes, error) result -> unit;
}

type conn = {
  c_id : int;
  c_client : endpoint;
  c_server : endpoint;
  c_req_vc : Atm.Net.vc;  (* client -> server *)
  c_rep_vc : Atm.Net.vc;  (* server -> client *)
  retransmit : Sim.Time.t;
  c_rng : Sim.Rng.t;
  max_tries : int;
  mutable next_call : int;
  pendings : (int, pending) Hashtbl.t;
  mutable sent : int;
  mutable retrans : int;
  m_calls : Sim.Metrics.counter;
  m_retrans : Sim.Metrics.counter;
  m_timeouts : Sim.Metrics.counter;
  m_backoff_win : Sim.Metrics.observer;
  m_latency : (string, Sim.Metrics.dist) Hashtbl.t;  (* by interface *)
}

let endpoint ?(reply_cache_cap = 512) net ~host =
  if reply_cache_cap < 1 then invalid_arg "Rpc.endpoint: reply_cache_cap < 1";
  {
    net;
    host;
    ifaces = Hashtbl.create 8;
    reply_cache = bounded_create reply_cache_cap;
    in_progress = bounded_create (2 * reply_cache_cap);
    dups = 0;
    next_conn_id = 0;
    m_dups =
      Sim.Metrics.counter
        (Sim.Engine.metrics (Atm.Net.engine net))
        ~sub:Sim.Subsystem.Rpc
        ~help:"duplicate requests answered from the reply cache or dropped"
        "server.duplicates";
  }

let serve_flow ep ~iface f = Hashtbl.replace ep.ifaces iface f

let serve ep ~iface f =
  serve_flow ep ~iface (fun ~meth ~flow:_ payload ~reply ->
      reply (f ~meth payload))

let engine_of ep = Atm.Net.engine ep.net

let execute ep ~flow (msg : Wire.msg) ~k =
  let reply_of = function
    | Ok payload ->
        {
          Wire.kind = Wire.Reply;
          call_id = msg.Wire.call_id;
          iface = "";
          meth = "";
          payload;
        }
    | Error e ->
        {
          Wire.kind = Wire.Error_reply;
          call_id = msg.Wire.call_id;
          iface = "";
          meth = "";
          payload = Bytes.of_string ("E:" ^ e);
        }
  in
  match Hashtbl.find_opt ep.ifaces msg.Wire.iface with
  | None ->
      k
        {
          Wire.kind = Wire.Error_reply;
          call_id = msg.Wire.call_id;
          iface = "";
          meth = "";
          payload = Bytes.of_string ("I:" ^ msg.Wire.iface);
        }
  | Some h ->
      h ~meth:msg.Wire.meth ~flow msg.Wire.payload ~reply:(fun r ->
          k (reply_of r))

(* Server side: handle an incoming request frame on a connection.
   [flow] is the causal flow id the request's cells carried; the reply
   is stamped with the same id, so one flow spans the round trip. *)
let server_rx ?(flow = Sim.Trace.no_flow) conn payload =
  match Wire.unmarshal payload with
  | None -> ()
  | Some msg when msg.Wire.kind <> Wire.Request -> ()
  | Some msg -> begin
      let ep = conn.c_server in
      let fl = if flow >= 0 then Some flow else None in
      let tr = Sim.Engine.trace (engine_of ep) in
      if Sim.Trace.flows_on tr && flow >= 0 then
        Sim.Trace.flow_step tr
          ~ts:(Sim.Engine.now (engine_of ep))
          ~sub:Sim.Subsystem.Rpc ~cat:"rpc" ~flow "rpc.server";
      let key = (conn.c_id, msg.Wire.call_id) in
      match Hashtbl.find_opt ep.reply_cache.tbl key with
      | Some cached ->
          (* Duplicate: answer from the cache without re-executing. *)
          ep.dups <- ep.dups + 1;
          Sim.Metrics.incr ep.m_dups;
          Atm.Net.send_frame ?flow:fl conn.c_rep_vc (Wire.marshal cached)
      | None when Hashtbl.mem ep.in_progress.tbl key ->
          (* Duplicate of a call still executing: drop it — the reply
             will answer every copy. *)
          ep.dups <- ep.dups + 1;
          Sim.Metrics.incr ep.m_dups
      | None ->
          bounded_add ep.in_progress key ();
          execute ep ~flow msg ~k:(fun reply ->
              Hashtbl.remove ep.in_progress.tbl key;
              bounded_add ep.reply_cache key reply;
              if Sim.Trace.flows_on tr && flow >= 0 then
                Sim.Trace.flow_step tr
                  ~ts:(Sim.Engine.now (engine_of ep))
                  ~sub:Sim.Subsystem.Rpc ~cat:"rpc" ~flow "rpc.exec";
              Atm.Net.send_frame ?flow:fl conn.c_rep_vc (Wire.marshal reply))
    end

let client_rx conn payload =
  match Wire.unmarshal payload with
  | None -> ()
  | Some msg when msg.Wire.kind = Wire.Request -> ()
  | Some msg -> begin
      match Hashtbl.find_opt conn.pendings msg.Wire.call_id with
      | None -> ()  (* late duplicate reply *)
      | Some p ->
          Hashtbl.remove conn.pendings msg.Wire.call_id;
          (match p.retry_ev with
          | Some ev -> ignore (Sim.Engine.cancel (engine_of conn.c_client) ev)
          | None -> ());
          let result =
            match msg.Wire.kind with
            | Wire.Reply -> Ok msg.Wire.payload
            | Wire.Error_reply | Wire.Request ->
                Error (error_of_payload (Bytes.to_string msg.Wire.payload))
          in
          p.k result
    end

(* Retransmission backoff: capped at 500 ms, each delay scaled by a
   uniform factor in [1 - jitter, 1 + jitter]. *)
let backoff_cap = Sim.Time.ms 500
let jitter = 0.1

let connect net ~client ~server ?(retransmit = Sim.Time.ms 10) ?seed
    ?(max_tries = 4) () =
  let conn_id = server.next_conn_id in
  server.next_conn_id <- server.next_conn_id + 1;
  let rec conn =
    lazy
      (let req_cell_rx, req_train_rx =
         Atm.Net.frame_rx
           ~rx:(fun ~flow buf off len ->
             server_rx ~flow (Lazy.force conn) (Bytes.sub buf off len))
           ()
       in
       let req_vc =
         Atm.Net.open_vc net ~src:client.host ~dst:server.host ~rx:req_cell_rx
           ~rx_train:req_train_rx
       in
       let rep_cell_rx, rep_train_rx =
         Atm.Net.frame_rx
           ~rx:(fun ~flow:_ buf off len ->
             client_rx (Lazy.force conn) (Bytes.sub buf off len))
           ()
       in
       let rep_vc =
         Atm.Net.open_vc net ~src:server.host ~dst:client.host ~rx:rep_cell_rx
           ~rx_train:rep_train_rx
       in
       let metrics = Sim.Engine.metrics (engine_of client) in
       {
         c_id = conn_id;
         c_client = client;
         c_server = server;
         c_req_vc = req_vc;
         c_rep_vc = rep_vc;
         retransmit;
         c_rng = Sim.Rng.create ?seed ();
         max_tries;
         next_call = 0;
         pendings = Hashtbl.create 16;
         sent = 0;
         retrans = 0;
         m_calls =
           Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Rpc
             ~help:"invocations started" "client.calls";
         m_retrans =
           Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Rpc
             ~help:"request frames retransmitted" "client.retransmissions";
         m_timeouts =
           Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Rpc
             ~help:"calls that exhausted every retry" "client.timeouts";
         m_backoff_win =
           Sim.Metrics.observer metrics ~sub:Sim.Subsystem.Rpc
             ~help:"windowed retransmission backoff samples (us)"
             "client.backoff_win_us";
         m_latency = Hashtbl.create 4;
       })
  in
  Lazy.force conn

let call conn ~iface ~meth payload ~reply =
  let call_id = conn.next_call in
  conn.next_call <- conn.next_call + 1;
  let msg = { Wire.kind = Wire.Request; call_id; iface; meth; payload } in
  let frame = Wire.marshal msg in
  let engine = engine_of conn.c_client in
  let tr = Sim.Engine.trace engine in
  let started = Sim.Engine.now engine in
  Sim.Metrics.incr conn.m_calls;
  (* Latency by kind: one distribution per exported interface, looked
     up in the registry on the connection's first call to it. *)
  let m_latency =
    match Hashtbl.find_opt conn.m_latency iface with
    | Some d -> d
    | None ->
        let d =
          Sim.Metrics.dist (Sim.Engine.metrics engine) ~sub:Sim.Subsystem.Rpc
            ~help:"reply latency in us (per interface)"
            ("call_latency_us." ^ iface)
        in
        Hashtbl.replace conn.m_latency iface d;
        d
  in
  (* One causal flow per invocation, spanning the full round trip:
     request transit, server execution (with any PFS hops), reply
     transit.  The id rides the request and reply frames' cells. *)
  let flow =
    if Sim.Trace.flows_on tr then begin
      let f = Sim.Trace.alloc_flow tr in
      Sim.Trace.flow_start tr ~ts:started ~sub:Sim.Subsystem.Rpc ~cat:"rpc"
        ~args:[ ("stream", Sim.Trace.Str ("rpc:" ^ iface ^ "." ^ meth)) ]
        ~flow:f "rpc.call";
      Some f
    end
    else None
  in
  let span =
    Sim.Trace.span_begin tr ~ts:started ~sub:Sim.Subsystem.Rpc ~cat:"call"
      ?flow
      ~args:
        [
          ("iface", Sim.Trace.Str iface);
          ("meth", Sim.Trace.Str meth);
          ("call_id", Sim.Trace.Int call_id);
        ]
      (iface ^ "." ^ meth)
  in
  let p_cell = ref None in
  let finished result =
    let now = Sim.Engine.now engine in
    (match result with
    | Ok _ -> Sim.Metrics.observe m_latency (Sim.Time.to_ns (Sim.Time.sub now started))
    | Error Timed_out -> Sim.Metrics.incr conn.m_timeouts
    | Error _ -> ());
    let tries = match !p_cell with Some p -> p.tries | None -> 0 in
    Sim.Trace.span_end tr ~ts:now
      ~args:
        [
          ("ok", Sim.Trace.Bool (Result.is_ok result));
          ("tries", Sim.Trace.Int tries);
        ]
      span;
    (match flow with
    | Some f ->
        Sim.Trace.flow_end tr ~ts:now ~sub:Sim.Subsystem.Rpc ~cat:"rpc"
          ~flow:f "rpc.done"
    | None -> ());
    reply result
  in
  let p = { tries = 0; retry_ev = None; k = finished } in
  p_cell := Some p;
  Hashtbl.replace conn.pendings call_id p;
  let rec attempt () =
    if Hashtbl.mem conn.pendings call_id then begin
      if p.tries >= conn.max_tries then begin
        Hashtbl.remove conn.pendings call_id;
        p.k (Error Timed_out)
      end
      else begin
        p.tries <- p.tries + 1;
        if p.tries > 1 then begin
          conn.retrans <- conn.retrans + 1;
          Sim.Metrics.incr conn.m_retrans
        end;
        conn.sent <- conn.sent + 1;
        Atm.Net.send_frame ?flow conn.c_req_vc frame;
        (* Capped exponential backoff, with a jitter factor so that a
           herd of clients does not retransmit in lock-step. *)
        let shift = Stdlib.min (p.tries - 1) 16 in
        let base =
          Sim.Time.min (Sim.Time.mul conn.retransmit (1 lsl shift)) backoff_cap
        in
        let backoff =
          let f =
            Sim.Rng.uniform conn.c_rng ~lo:(1. -. jitter) ~hi:(1. +. jitter)
          in
          Sim.Time.max (Sim.Time.ns 1)
            (Sim.Time.of_sec_f (Sim.Time.to_sec_f base *. f))
        in
        if p.tries > 1 then
          Sim.Metrics.sample conn.m_backoff_win (Sim.Time.to_us_f backoff);
        p.retry_ev <- Some (Sim.Engine.schedule engine ~delay:backoff attempt)
      end
    end
  in
  attempt ()

let calls_sent conn = conn.sent
let retransmissions conn = conn.retrans
let duplicates_suppressed ep = ep.dups
let reply_cache_size ep = Hashtbl.length ep.reply_cache.tbl
let in_progress_size ep = Hashtbl.length ep.in_progress.tbl
