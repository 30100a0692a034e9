let video_stream_id = 1
let audio_stream_id = 2
let audio_mark_every = 64

type t = {
  engine : Sim.Engine.t;
  camera : Atm.Camera.t;
  audio_src : Atm.Audio.Source.t option;
  audio_sink : Atm.Audio.Sink.t option;
  display : Atm.Display.t;
  video_vci : int;
  playback : Atm.Control.Playback.t;
  mutable running : bool;
}

(* The sender's first camera, at 25 fps, JPEG 8:1 and tile-row
   release. *)
let camera = 0
let fps = 25
let mode = Atm.Camera.Jpeg { ratio = 8.0 }

let create ~from_ ~to_ ?(width = 320) ?(height = 240) ?(with_audio = true)
    ?(window = (64, 64)) () =
  let site = Workstation.site from_ in
  let engine = Site.engine site in
  let net = Site.net site in
  let display =
    match Workstation.display to_ with
    | Some d -> d
    | None -> invalid_arg "Av_session: receiver has no display"
  in
  let display_host =
    match Workstation.display_host to_ with
    | Some h -> h
    | None -> assert false
  in
  (* Data path: camera device straight to the display device. *)
  let video_vc =
    Atm.Net.open_vc net
      ~src:(Workstation.camera_host from_ camera)
      ~dst:display_host
      ~rx:(fun cell -> Atm.Display.cell_rx display cell)
      ~rx_train:(fun train -> Atm.Display.train_rx display train)
  in
  let video_vci = Atm.Net.vc_dst_vci video_vc in
  let wx, wy = window in
  Atm.Display.add_window display ~vci:video_vci ~x:wx ~y:wy ~width ~height;
  let cam =
    Atm.Camera.create engine ~vc:video_vc ~width ~height ~fps ~mode
      ~release:`Tile_row ()
  in
  (* Control path: per-device control streams to the sender's manager,
     merged there, one combined stream to the receiver's play-back
     controller. *)
  let playback = Atm.Control.Playback.create engine () in
  let merged_vc =
    Atm.Net.open_vc net ~src:(Workstation.cpu from_) ~dst:(Workstation.cpu to_)
      ~rx:(fun cell -> Atm.Control.Playback.control_rx playback cell)
  in
  let merger = Atm.Control.Merger.create ~out:merged_vc () in
  let camera_ctl_vc =
    Atm.Net.open_vc net
      ~src:(Workstation.camera_host from_ camera)
      ~dst:(Workstation.cpu from_)
      ~rx:(Atm.Control.Merger.rx merger)
  in
  Atm.Camera.on_frame cam (fun ~frame ~captured_at ->
      Atm.Net.send_frame camera_ctl_vc
        (Atm.Control.marshal
           (Atm.Control.Sync
              { stream = video_stream_id; unit_id = frame; stamp = captured_at })));
  Atm.Display.on_blit display (fun ~vci packet ->
      if vci = video_vci then
        Atm.Control.Playback.data_event playback ~stream:video_stream_id
          ~unit_id:packet.Atm.Tile.frame);
  let audio_src, audio_sink =
    if not with_audio then (None, None)
    else begin
      match (Workstation.audio_host from_, Workstation.audio_host to_) with
      | Some src_host, Some dst_host ->
          let sink = Atm.Audio.Sink.create engine () in
          let audio_vc =
            Atm.Net.open_vc net ~src:src_host ~dst:dst_host ~rx:(fun cell ->
                Atm.Audio.Sink.cell_rx sink cell)
          in
          let src = Atm.Audio.Source.create engine ~vc:audio_vc () in
          let audio_ctl_vc =
            Atm.Net.open_vc net ~src:src_host ~dst:(Workstation.cpu from_)
              ~rx:(Atm.Control.Merger.rx merger)
          in
          Atm.Audio.Source.on_mark src ~every:audio_mark_every
            (fun ~seq ~stamp ->
              Atm.Net.send_frame audio_ctl_vc
                (Atm.Control.marshal
                   (Atm.Control.Sync
                      { stream = audio_stream_id; unit_id = seq; stamp })));
          Atm.Audio.Sink.on_playout sink (fun ~seq ~stamp:_ ->
              if seq mod audio_mark_every = 0 then
                Atm.Control.Playback.data_event playback
                  ~stream:audio_stream_id ~unit_id:seq);
          (Some src, Some sink)
      | _ -> invalid_arg "Av_session: audio requested but a DSP node is missing"
    end
  in
  {
    engine;
    camera = cam;
    audio_src;
    audio_sink;
    display;
    video_vci;
    playback;
    running = false;
  }

let start t =
  if not t.running then begin
    t.running <- true;
    Atm.Camera.start t.camera;
    match t.audio_src with
    | Some src -> Atm.Audio.Source.start src
    | None -> ()
  end

let stop t =
  if t.running then begin
    t.running <- false;
    Atm.Camera.stop t.camera;
    match t.audio_src with
    | Some src -> Atm.Audio.Source.stop src
    | None -> ()
  end

let display_vci t = t.video_vci

let video_staging_latency_us t =
  Atm.Display.staging_latency_us t.display ~vci:t.video_vci

let frames_shown t = Atm.Display.frames_completed t.display ~vci:t.video_vci

let audio_jitter_us t =
  match t.audio_sink with
  | Some sink -> Atm.Audio.Sink.jitter_us sink
  | None -> 0.0

let audio_late_cells t =
  match t.audio_sink with
  | Some sink -> Atm.Audio.Sink.late_cells sink
  | None -> 0

let av_sync_skew_us t =
  Atm.Control.Playback.skew_us t.playback ~a:video_stream_id ~b:audio_stream_id
