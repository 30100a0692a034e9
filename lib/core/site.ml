type t = {
  engine : Sim.Engine.t;
  net : Atm.Net.t;
  backbone : Atm.Net.node_id;
  directory : Naming.Namespace.t;
}

let create ?(backbone_ports = 32) engine =
  let net = Atm.Net.create engine in
  let backbone = Atm.Net.add_switch net ~name:"backbone" ~ports:backbone_ports in
  {
    engine;
    net;
    backbone;
    directory =
      Naming.Namespace.create ~name:"site" (Sim.Engine.metrics engine);
  }

let engine t = t.engine
let net t = t.net
let backbone t = t.backbone
let directory t = t.directory

let add_host t ~name =
  let host = Atm.Net.add_host t.net ~name in
  Atm.Net.connect t.net host t.backbone;
  host

let add_switch t ~name ?(ports = 8) () =
  let switch = Atm.Net.add_switch t.net ~name ~ports in
  Atm.Net.connect t.net switch t.backbone;
  switch

let publish t ~path maillon = Naming.Namespace.bind t.directory ~path maillon

let mount_directory t ~into ~rtt =
  Naming.Namespace.mount into ~path:"global" ~target:t.directory
    ~via:(Naming.Relation.Remote rtt)
