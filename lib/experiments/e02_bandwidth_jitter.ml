(* Part 1: long-run video stream rates for raw vs JPEG cameras.
   Part 2: audio jitter and dropouts with and without bursty cross
   traffic sharing the path, for two play-out buffer sizes. *)

let video_rate ctx mode =
  let e = Sim.Ctx.engine ctx in
  let net = Atm.Net.create e in
  let a = Atm.Net.add_host net ~name:"a" in
  let b = Atm.Net.add_host net ~name:"b" in
  Atm.Net.connect net a b ~bandwidth_bps:155_000_000;
  let vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> ()) in
  let camera =
    Atm.Camera.create e ~vc ~width:640 ~height:480 ~fps:25 ~mode
      ~pace_bps:120_000_000 ()
  in
  Atm.Camera.data_rate_bps camera /. 8.0 /. 1e6

let audio_run ctx ?reserve_bps ~loaded ~playout ~duration () =
  let e = Sim.Ctx.engine ctx in
  let net = Atm.Net.create e in
  let sw = Atm.Net.add_switch net ~name:"sw" ~ports:4 in
  let a = Atm.Net.add_host net ~name:"a" in
  let b = Atm.Net.add_host net ~name:"b" in
  Atm.Net.connect net a sw;
  Atm.Net.connect net b sw;
  let sink = Atm.Audio.Sink.create e ~playout_delay:playout () in
  let vc =
    Atm.Net.open_vc ?reserve_bps net ~src:a ~dst:b ~rx:(fun c ->
        Atm.Audio.Sink.cell_rx sink c)
  in
  let src = Atm.Audio.Source.create e ~vc () in
  let cross =
    if loaded then begin
      let cross_vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> ()) in
      let rng = Sim.Rng.create ~seed:99L () in
      Some
        (Atm.Traffic.on_off e ~vc:cross_vc ~peak_bps:300_000_000
           ~mean_on:(Sim.Time.us 500) ~mean_off:(Sim.Time.ms 2) ~rng)
    end
    else None
  in
  (match cross with Some c -> Atm.Traffic.start c | None -> ());
  Atm.Audio.Source.start src;
  Sim.Engine.run e ~until:duration;
  Atm.Audio.Source.stop src;
  (match cross with Some c -> Atm.Traffic.stop c | None -> ());
  ( Atm.Audio.Sink.jitter_us sink,
    Atm.Audio.Sink.late_cells sink,
    Atm.Audio.Sink.cells_received sink )

let audit_scenario e =
  (* The loaded-path topology of the audio rows, with the traced video
     stream standing where the audio source did: one switch shared with
     bursty 300 Mbit/s-peak cross traffic, so the audit's jitter and
     per-hop spread show what the cross load does to a stream. *)
  let net = Atm.Net.create e in
  let sw = Atm.Net.add_switch net ~name:"sw" ~ports:4 in
  let a = Atm.Net.add_host net ~name:"a" in
  let b = Atm.Net.add_host net ~name:"b" in
  Atm.Net.connect net a sw;
  Atm.Net.connect net b sw;
  let display = Atm.Display.create e () in
  let vc =
    Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun c ->
        Atm.Display.cell_rx display c)
  in
  let vci = Atm.Net.vc_dst_vci vc in
  let width = 640 and height = 480 in
  Atm.Display.add_window display ~vci ~x:0 ~y:0 ~width ~height;
  let camera =
    Atm.Camera.create e ~vc ~width ~height ~fps:25
      ~mode:(Atm.Camera.Jpeg { ratio = 8.0 })
      ()
  in
  let cross_vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> ()) in
  let rng = Sim.Rng.create ~seed:99L () in
  let cross =
    Atm.Traffic.on_off e ~vc:cross_vc ~peak_bps:300_000_000
      ~mean_on:(Sim.Time.us 500) ~mean_off:(Sim.Time.ms 2) ~rng
  in
  Atm.Traffic.start cross;
  Atm.Camera.start camera;
  Sim.Engine.run e ~until:(Sim.Time.ms 400);
  Atm.Traffic.stop cross

let run ctx =
  let duration = Sim.Time.sec 2 in
  let raw = video_rate ctx Atm.Camera.Raw in
  let jpeg = video_rate ctx (Atm.Camera.Jpeg { ratio = 8.0 }) in
  let audio_row ?reserve_bps label ~loaded ~playout =
    let jitter, late, received =
      audio_run ctx ?reserve_bps ~loaded ~playout ~duration ()
    in
    [
      label;
      Printf.sprintf "%.3f" (44100.0 *. 2.0 *. 2.0 /. 1e6);
      Printf.sprintf "%.1fus" jitter;
      Printf.sprintf "%d/%d" late received;
    ]
  in
  let rows =
    [
      [ "video, raw 640x480@25"; Table.cell_f raw; "-"; "-" ];
      [ "video, JPEG 8:1 640x480@25"; Table.cell_f jpeg; "-"; "-" ];
      audio_row "audio, idle net, 2ms buffer" ~loaded:false
        ~playout:(Sim.Time.ms 2);
      audio_row "audio, bursty load, 0.2ms buffer" ~loaded:true
        ~playout:(Sim.Time.us 200);
      audio_row "audio, bursty load, 2ms buffer" ~loaded:true
        ~playout:(Sim.Time.ms 2);
      audio_row "audio, bursty load, 0.2ms buffer, reserved VC" ~loaded:true
        ~playout:(Sim.Time.us 200) ~reserve_bps:1_500_000;
    ]
  in
  Table.make ~id:"E2" ~title:"Stream bandwidths; audio jitter sensitivity"
    ~claim:
      "With JPEG a video stream requires no more than a megabyte per second; \
       audio has modest bandwidth but is much more susceptible to jitter."
    ~columns:[ "stream"; "MB/s"; "delay jitter"; "late cells" ]
    ~notes:
      [
        "Audio is 44.1 kHz 16-bit stereo packed into timestamped cells. Under \
         bursty 300 Mbit/s-peak cross traffic the network delay jitters by tens of \
         microseconds; a play-out buffer shorter than that jitter turns it \
         into audible dropouts (late cells), which is why audio, not video, \
         dictates the latency discipline.";
        "The last row reserves bandwidth for the audio VC at signalling \
         time: its cells are forwarded with priority, so even the short \
         buffer survives the load — the latency guarantee ATM signalling \
         can provide.";
      ]
    rows
