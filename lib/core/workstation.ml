type t = {
  ws_name : string;
  ws_site : Site.t;
  switch : Atm.Net.node_id;
  cpu : Atm.Net.node_id;
  kernel : Nemesis.Kernel.t;
  qos : Nemesis.Qos.t;
  ns : Naming.Namespace.t;
  rpc_ep : Rpc.endpoint;
  cameras : Atm.Net.node_id array;
  display_host : Atm.Net.node_id option;
  display : Atm.Display.t option;
  audio : Atm.Net.node_id option;
}

let device_maillon ~kind ~host_name =
  Naming.Maillon.of_iface ~reference:host_name
    (Naming.Maillon.iface
       [
         ("kind", fun _ -> Bytes.of_string kind);
         ("where", fun _ -> Bytes.of_string host_name);
       ])

let create site ~name ?(cameras = 1) ?(display = true) ?(audio = true)
    ?(policy = Nemesis.Policy.atropos ()) () =
  let engine = Site.engine site in
  let net = Site.net site in
  let switch = Site.add_switch site ~name:(name ^ ".dan") () in
  let attach device =
    let host = Atm.Net.add_host net ~name:device in
    Atm.Net.connect net host switch;
    host
  in
  let cpu = attach (name ^ ".cpu") in
  let camera_hosts =
    Array.init cameras (fun i -> attach (Printf.sprintf "%s.cam%d" name i))
  in
  let display_host, display_dev =
    if display then begin
      let host = attach (name ^ ".disp") in
      (Some host, Some (Atm.Display.create engine ()))
    end
    else (None, None)
  in
  let audio = if audio then Some (attach (name ^ ".dsp")) else None in
  let kernel = Nemesis.Kernel.create engine ~policy () in
  let qos = Nemesis.Qos.create kernel () in
  let ns = Naming.Namespace.create ~name (Sim.Engine.metrics engine) in
  (* Local names are the shortest: devices appear right under /dev. *)
  Array.iteri
    (fun i host ->
      Naming.Namespace.bind ns
        ~path:(Printf.sprintf "dev/camera%d" i)
        (device_maillon ~kind:"camera" ~host_name:(Atm.Net.node_name net host)))
    camera_hosts;
  (match display_host with
  | Some host ->
      Naming.Namespace.bind ns ~path:"dev/display"
        (device_maillon ~kind:"display" ~host_name:(Atm.Net.node_name net host))
  | None -> ());
  (match audio with
  | Some host ->
      Naming.Namespace.bind ns ~path:"dev/audio"
        (device_maillon ~kind:"audio" ~host_name:(Atm.Net.node_name net host))
  | None -> ());
  (* The shared tree is reachable by convention, never as the root. *)
  Site.mount_directory site ~into:ns ~rtt:(Sim.Time.us 500);
  Site.publish site
    ~path:("ws/" ^ name)
    (device_maillon ~kind:"workstation" ~host_name:name);
  {
    ws_name = name;
    ws_site = site;
    switch;
    cpu;
    kernel;
    qos;
    ns;
    rpc_ep = Rpc.endpoint net ~host:cpu;
    cameras = camera_hosts;
    display_host;
    display = display_dev;
    audio;
  }

let name t = t.ws_name
let site t = t.ws_site
let kernel t = t.kernel
let qos t = t.qos
let namespace t = t.ns
let rpc t = t.rpc_ep
let cpu t = t.cpu
let dan_switch t = t.switch

let camera_host t i =
  if i < 0 || i >= Array.length t.cameras then
    invalid_arg "Workstation.camera_host: no such camera";
  t.cameras.(i)

let camera_count t = Array.length t.cameras
let display_host t = t.display_host
let display t = t.display
let audio_host t = t.audio
