(* One camera, one Fairisle switch, one display window — shared between
   the latency measurements below and the flow-audit scenario. *)
let rig e ~release ~mode =
  let net = Atm.Net.create e in
  let sw = Atm.Net.add_switch net ~name:"dan" ~ports:4 in
  let cam_host = Atm.Net.add_host net ~name:"cam" in
  let disp_host = Atm.Net.add_host net ~name:"disp" in
  Atm.Net.connect net cam_host sw;
  Atm.Net.connect net disp_host sw;
  let display = Atm.Display.create e () in
  let vc =
    Atm.Net.open_vc net ~src:cam_host ~dst:disp_host ~rx:(fun c ->
        Atm.Display.cell_rx display c)
  in
  let vci = Atm.Net.vc_dst_vci vc in
  let width = 640 and height = 480 in
  Atm.Display.add_window display ~vci ~x:0 ~y:0 ~width ~height;
  let camera = Atm.Camera.create e ~vc ~width ~height ~fps:25 ~mode ~release () in
  (display, vci, camera)

let measure ctx ~release ~mode ~duration =
  let e = Sim.Ctx.engine ctx in
  let display, vci, camera = rig e ~release ~mode in
  Atm.Camera.start camera;
  Sim.Engine.run e ~until:duration;
  let samples = Atm.Display.staging_latency_us display ~vci in
  ( Sim.Stats.Samples.percentile samples 50.0,
    Sim.Stats.Samples.percentile samples 99.0,
    Atm.Display.frames_completed display ~vci )

let audit_scenario e =
  let _display, _vci, camera = rig e ~release:`Tile_row ~mode:Atm.Camera.Raw in
  Atm.Camera.start camera;
  Sim.Engine.run e ~until:(Sim.Time.ms 400)

let run ?(quick = false) ctx =
  let duration = if quick then Sim.Time.ms 400 else Sim.Time.sec 2 in
  let cases =
    [
      ("tile rows, JPEG 8:1", `Tile_row, Atm.Camera.Jpeg { ratio = 8.0 });
      ("tile rows, raw", `Tile_row, Atm.Camera.Raw);
      ("whole frame, JPEG 8:1", `Whole_frame, Atm.Camera.Jpeg { ratio = 8.0 });
      ("whole frame, raw", `Whole_frame, Atm.Camera.Raw);
    ]
  in
  let rows =
    List.map
      (fun (label, release, mode) ->
        let p50, p99, frames = measure ctx ~release ~mode ~duration in
        [
          label;
          Table.cell_time_us p50;
          Table.cell_time_us p99;
          string_of_int frames;
        ])
      cases
  in
  Table.make ~id:"E1" ~title:"Video staging latency: tiles vs whole frames"
    ~claim:
      "Tiles reduce latency in several places from a frame time (33 or 40 \
       ms) to a tile time (30 to 40 us)."
    ~columns:[ "camera release policy"; "p50 latency"; "p99 latency"; "frames" ]
    ~notes:
      [
        "Latency is measured per tile packet, from the instant its scan-lines \
         finished digitising to the blit at the display, across one Fairisle \
         switch at 100 Mbit/s.";
        "Whole-frame release is what a conventional frame-grabber does: every \
         pixel waits for the frame to complete before transport begins.";
      ]
    rows
