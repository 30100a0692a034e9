(* Resolution costs come from the namespace cost model; the remote RPC
   figure is measured live on the simulated ATM network so that the
   Remote relation uses an honest round-trip time. *)

let measured_rpc_rtt ctx =
  let e = Sim.Ctx.engine ctx in
  let net = Atm.Net.create e in
  let sw = Atm.Net.add_switch net ~name:"sw" ~ports:4 in
  let a = Atm.Net.add_host net ~name:"a" in
  let b = Atm.Net.add_host net ~name:"b" in
  Atm.Net.connect net a sw;
  Atm.Net.connect net b sw;
  let client = Rpc.endpoint net ~host:a in
  let server = Rpc.endpoint net ~host:b in
  Rpc.serve server ~iface:"ns" (fun ~meth:_ _ -> Ok Bytes.empty);
  let conn = Rpc.connect net ~client ~server () in
  let rtts = Sim.Stats.Samples.create () in
  let rec call n =
    if n > 0 then begin
      let t0 = Sim.Engine.now e in
      Rpc.call conn ~iface:"ns" ~meth:"lookup" (Bytes.create 32)
        ~reply:(fun _ ->
          Sim.Stats.Samples.add rtts
            (Sim.Time.to_us_f (Sim.Time.sub (Sim.Engine.now e) t0));
          call (n - 1))
    end
  in
  call 20;
  Sim.Engine.run e;
  Sim.Time.of_sec_f (Sim.Stats.Samples.mean rtts /. 1e6)

(* Measure the protected call live: a client domain invoking a server
   domain through the shared-memory queue + sync event pair. *)
let measured_protected_call ctx =
  let e = Sim.Ctx.engine ctx in
  let k =
    Nemesis.Kernel.create e ~policy:(Nemesis.Policy.atropos ())
      ~ctx_switch_cost:(Sim.Time.us 2) ()
  in
  let client =
    Nemesis.Domain.create ~name:"client" ~period:(Sim.Time.ms 10)
      ~slice:(Sim.Time.ms 4) ()
  in
  let srv_dom =
    Nemesis.Domain.create ~name:"server" ~period:(Sim.Time.ms 10)
      ~slice:(Sim.Time.ms 4) ()
  in
  Nemesis.Kernel.add_domain k client;
  Nemesis.Kernel.add_domain k srv_dom;
  let server = Nemesis.Ipc.serve k ~domain:srv_dom (fun ~meth:_ p -> p) in
  let conn = Nemesis.Ipc.connect k ~client server in
  let rtts = Sim.Stats.Samples.create () in
  let remaining = ref 50 in
  let rec once () =
    if !remaining > 0 then begin
      decr remaining;
      let t0 = Sim.Engine.now e in
      Nemesis.Ipc.call conn ~meth:"null" Bytes.empty ~reply:(fun _ ->
          Sim.Stats.Samples.add rtts
            (Sim.Time.to_us_f (Sim.Time.sub (Sim.Engine.now e) t0));
          once ())
    end
  in
  Nemesis.Kernel.submit k client
    (Nemesis.Job.make ~label:"driver" ~work:(Sim.Time.us 5)
       ~created:Sim.Time.zero
       ~on_complete:once ());
  Sim.Engine.run e ~until:(Sim.Time.sec 5);
  Sim.Stats.Samples.percentile rtts 50.0

let obj name =
  Naming.Maillon.of_iface ~reference:name
    (Naming.Maillon.iface [ ("ping", fun b -> b) ])

let resolution_cost ns path =
  match Naming.Namespace.resolve ns path with
  | Ok r -> Sim.Time.to_us_f r.Naming.Namespace.cost
  | Error _ -> Float.nan

let run ?(quick = false) ctx =
  ignore quick;
  let rtt = measured_rpc_rtt ctx in
  (* A local namespace, a same-machine service, and two remote hops. *)
  let ns name = Naming.Namespace.create ~name (Sim.Ctx.metrics ctx) in
  let local = ns "local" in
  let machine_svc = ns "machine" in
  let remote_fs = ns "fs" in
  let far = ns "far" in
  Naming.Namespace.bind local ~path:"obj" (obj "local-shallow");
  Naming.Namespace.bind local ~path:"a/b/c/obj" (obj "local-deep");
  Naming.Namespace.bind machine_svc ~path:"obj" (obj "svc-obj");
  Naming.Namespace.bind remote_fs ~path:"media/film" (obj "film");
  Naming.Namespace.bind far ~path:"obj" (obj "far-obj");
  Naming.Namespace.mount local ~path:"svc" ~target:machine_svc
    ~via:Naming.Relation.Same_machine;
  Naming.Namespace.mount local ~path:"fs" ~target:remote_fs
    ~via:(Naming.Relation.Remote rtt);
  Naming.Namespace.mount remote_fs ~path:"far" ~target:far
    ~via:(Naming.Relation.Remote rtt);
  let resolution_rows =
    List.map
      (fun (label, path) ->
        [ "resolve " ^ label; path; Table.cell_time_us (resolution_cost local path) ])
      [
        ("local, depth 1", "obj");
        ("local, depth 4", "a/b/c/obj");
        ("same machine mount", "svc/obj");
        ("remote mount", "fs/media/film");
        ("two remote mounts", "fs/far/obj");
      ]
  in
  let call_rows =
    let us t = Table.cell_time_us (Sim.Time.to_us_f t) in
    [
      [
        "invoke, same domain";
        "procedure call";
        us (Naming.Relation.invocation_cost Naming.Relation.Same_domain);
      ];
      [
        "invoke via maillon (resolved)";
        "pointer + indirection";
        us
          (Sim.Time.add
             (Naming.Relation.invocation_cost Naming.Relation.Same_domain)
             Naming.Relation.maillon_overhead);
      ];
      [
        "invoke, same machine";
        "protected call (model)";
        us (Naming.Relation.invocation_cost Naming.Relation.Same_machine);
      ];
      [
        "invoke, same machine";
        "protected call (measured IPC)";
        Table.cell_time_us (measured_protected_call ctx);
      ];
      [
        "invoke, remote";
        "RPC over ATM (measured)";
        us (Naming.Relation.invocation_cost (Naming.Relation.Remote rtt));
      ];
    ]
  in
  Table.make ~id:"E7" ~title:"Name resolution and the invocation ladder"
    ~claim:
      "Local names are shortest and resolve fastest; invocation is a \
       procedure call, a protected call or an RPC depending on the domain \
       relation, with the maillon adding very little in the common case."
    ~columns:[ "operation"; "path / mechanism"; "cost" ]
    ~notes:
      [
        Format.asprintf
          "The remote lookup figure uses the RPC round-trip measured on the \
           simulated network: %a per hop."
          Sim.Time.pp rtt;
      ]
    (resolution_rows @ call_rows)
