type request = {
  r_meth : string;
  r_payload : bytes;
  r_reply : (bytes, [ `Queue_full ]) result -> unit;
}

type server = {
  s_kernel : Kernel.t;
  s_domain : Domain.t;
  s_depth : int;
  s_handler : meth:string -> bytes -> bytes;
  mutable s_served : int;
}

type conn = {
  c_server : server;
  c_client : Domain.t;
  (* the shared-memory request queue (client -> server) *)
  c_requests : request Queue.t;
  (* server -> client completions waiting for the client's activation *)
  c_replies : (request * bytes) Queue.t;
  c_to_server : Kernel.channel;
  c_to_client : Kernel.channel;
}

type error = [ `Queue_full ]

(* CPU the handler job consumes per call. *)
let serve_cost = Sim.Time.us 20

let serve kernel ~domain ?(queue_depth = 16) handler =
  {
    s_kernel = kernel;
    s_domain = domain;
    s_depth = queue_depth;
    s_handler = handler;
    s_served = 0;
  }

let connect kernel ~client server =
  let requests = Queue.create () in
  let replies = Queue.create () in
  let engine = Kernel.engine kernel in
  let to_client = ref None in
  (* Server side: each notification is one request to pull off the
     shared queue; the handler runs as a job costing serve_cost. *)
  let to_server =
    Kernel.channel kernel ~dst:server.s_domain ~mode:`Sync
      ~closure:(fun () ->
        match Queue.take_opt requests with
        | None -> None
        | Some req ->
            Some
              (Job.make ~label:("serve " ^ req.r_meth) ~work:serve_cost
                 ~created:(Sim.Engine.now engine)
                 ~on_complete:(fun () ->
                   server.s_served <- server.s_served + 1;
                   let result = server.s_handler ~meth:req.r_meth req.r_payload in
                   Queue.add (req, result) replies;
                   match !to_client with
                   | Some ch -> Kernel.send kernel ch
                   | None -> ())
                 ()))
      ()
  in
  (* Client side: a reply notification delivers the result through a
     tiny stub job (the protected-call return path). *)
  let to_client_ch =
    Kernel.channel kernel ~dst:client ~mode:`Sync
      ~closure:(fun () ->
        match Queue.take_opt replies with
        | None -> None
        | Some (req, result) ->
            Some
              (Job.make ~label:"ipc-return" ~work:(Sim.Time.us 5)
                 ~created:(Sim.Engine.now engine)
                 ~on_complete:(fun () -> req.r_reply (Ok result))
                 ()))
      ()
  in
  to_client := Some to_client_ch;
  {
    c_server = server;
    c_client = client;
    c_requests = requests;
    c_replies = replies;
    c_to_server = to_server;
    c_to_client = to_client_ch;
  }

let call conn ~meth payload ~reply =
  if Queue.length conn.c_requests >= conn.c_server.s_depth then
    reply (Error `Queue_full)
  else begin
    Queue.add { r_meth = meth; r_payload = payload; r_reply = reply }
      conn.c_requests;
    Kernel.send conn.c_server.s_kernel conn.c_to_server
  end

let calls_served s = s.s_served
