(* video_cells: eight camera -> display streams across one Fairisle
   switch.  640x480 at 25 fps with tile-row release; four streams send
   raw tiles and four JPEG 8:1.  Every camera and every display has its
   own host and link pair, so no output port is shared and no cell may
   be dropped.  The load is an open loop in simulated time: cameras
   capture on schedule whether or not frames are delivered.  The seed
   picks which streams are raw and each camera's start phase within the
   first frame period.  An operation is one tile blitted at a
   display. *)

open Workload

let streams = 8
let width = 640
let height = 480
let tiles_per_row = width / Atm.Tile.size
let max_packet_tiles = 14 (* the camera's default *)
let packets_per_row = (tiles_per_row + max_packet_tiles - 1) / max_packet_tiles

type stream = {
  camera : Atm.Camera.t;
  display : Atm.Display.t;
  vci : int;
  raw : bool;
}

let setup ~seed ~short ~traced =
  let e = fresh_engine () in
  let net = Atm.Net.create e in
  let sw = Atm.Net.add_switch net ~name:"fairisle" ~ports:(2 * streams) in
  let rng = Sim.Rng.create ~seed:(Int64.of_int seed) () in
  let raw = Array.init streams (fun i -> i mod 2 = 0) in
  Sim.Rng.shuffle rng raw;
  let make i =
    let cam = Atm.Net.add_host net ~name:(Printf.sprintf "cam%d" i) in
    let disp = Atm.Net.add_host net ~name:(Printf.sprintf "disp%d" i) in
    Atm.Net.connect net cam sw;
    Atm.Net.connect net disp sw;
    let display =
      Atm.Display.create e ~screen_width:width ~screen_height:height ()
    in
    let vc =
      Atm.Net.open_vc net ~src:cam ~dst:disp
        ~rx:(traced1 ~traced sp_rx (Atm.Display.cell_rx display))
        ~rx_train:(traced1 ~traced sp_rx (Atm.Display.train_rx display))
    in
    let vci = Atm.Net.vc_dst_vci vc in
    Atm.Display.add_window display ~vci ~x:0 ~y:0 ~width ~height;
    let mode =
      if raw.(i) then Atm.Camera.Raw else Atm.Camera.Jpeg { ratio = 8.0 }
    in
    let camera =
      Atm.Camera.create e ~vc ~width ~height ~fps:25 ~mode ~release:`Tile_row
        ~max_packet_tiles ()
    in
    { camera; display; vci; raw = raw.(i) }
  in
  let st = Array.init streams make in
  let period_ns = Sim.Time.to_ns (Atm.Camera.frame_period st.(0).camera) in
  let phases = Array.init streams (fun _ -> Sim.Rng.int rng period_ns) in
  let duration = Sim.Time.ms (if short then 200 else 2_000) in
  let run () =
    Array.iteri
      (fun i s ->
        ignore
          (Sim.Engine.schedule e ~delay:(Sim.Time.ns phases.(i)) (fun () ->
               Atm.Camera.start s.camera)))
      st;
    run_engine e ~until:duration;
    (* Stop capturing, then let every released row reach its display. *)
    Array.iter (fun s -> Atm.Camera.stop s.camera) st;
    run_engine e;
    let sent s =
      Atm.Camera.packets_sent s.camera / packets_per_row * tiles_per_row
    in
    let blitted s = Atm.Display.tiles_blitted s.display ~vci:s.vci in
    let attempted = Array.fold_left (fun a s -> a + sent s) 0 st in
    let ops = Array.fold_left (fun a s -> a + blitted s) 0 st in
    let faulty =
      Array.fold_left (fun a s -> a + Atm.Display.faulty_frames s.display) 0 st
    in
    let dropped = Atm.Net.total_cells_dropped net in
    let frames_ok s =
      Atm.Display.frames_completed s.display ~vci:s.vci
      >= Atm.Camera.frames_captured s.camera - 1
    in
    let sim_lines =
      Array.to_list
        (Array.mapi
           (fun i s ->
             let lat = Atm.Display.staging_latency_us s.display ~vci:s.vci in
             Printf.sprintf "stream %d %s frames %d/%d tiles %d p50 %s p99 %s" i
               (if s.raw then "raw" else "jpeg")
               (Atm.Display.frames_completed s.display ~vci:s.vci)
               (Atm.Camera.frames_captured s.camera)
               (blitted s)
               (hex (Sim.Stats.Samples.percentile lat 50.0))
               (hex (Sim.Stats.Samples.percentile lat 99.0)))
           st)
      @ [ Printf.sprintf "dropped %d faulty %d" dropped faulty ]
    in
    {
      ops;
      attempted;
      failed = attempted - ops;
      checks =
        [
          ("zero faulty frames", faulty = 0);
          ("zero dropped cells", dropped = 0);
          ( "every released row is whole packets",
            Array.for_all
              (fun s ->
                Atm.Camera.packets_sent s.camera mod packets_per_row = 0)
              st );
          ("every tile sent is blitted", ops = attempted);
          ( "every frame captured before the last period completes",
            Array.for_all frames_ok st );
          ("tiles were sent", attempted > 0);
        ];
      sim_lines;
    }
  in
  { engine = e; run }

let workload =
  {
    name = "video_cells";
    op = "tile blitted";
    depth_period = Sim.Time.us 100;
    copy_weight = 0.0;
    setup;
  }
