type mode = Raw | Jpeg of { ratio : float }
type release = [ `Tile_row | `Whole_frame ]

type t = {
  engine : Sim.Engine.t;
  vc : Net.vc;
  width : int;
  height : int;
  fps : int;
  mode : mode;
  release : release;
  max_packet_tiles : int;
  pace_bps : int;
  frame_period : Sim.Time.t;
  row_period : Sim.Time.t;  (* time to digitise 8 scan-lines *)
  bytes_per_tile : int;
  stream : string;  (* audit stream label for this camera's flows *)
  mutable running : bool;
  mutable frame : int;
  mutable frames_captured : int;
  mutable packets_sent : int;
  mutable on_frame : (frame:int -> captured_at:Sim.Time.t -> unit) option;
  (* send horizon for pacing: next instant the paced output is free *)
  mutable tx_free : Sim.Time.t;
}

let create engine ~vc ?(width = 640) ?(height = 480) ?(fps = 25) ?(mode = Raw)
    ?(release = `Tile_row) ?(max_packet_tiles = 14) ?(pace_bps = 80_000_000) () =
  if width mod Tile.size <> 0 || height mod Tile.size <> 0 then
    invalid_arg "Camera.create: dimensions must be multiples of 8";
  let frame_period = Sim.Time.of_sec_f (1.0 /. Float.of_int fps) in
  let bytes_per_tile =
    match mode with
    | Raw -> Tile.raw_bytes
    | Jpeg { ratio } ->
        if ratio < 1.0 then invalid_arg "Camera.create: JPEG ratio < 1";
        Int.max 2 (Float.to_int (Float.of_int Tile.raw_bytes /. ratio))
  in
  {
    engine;
    vc;
    width;
    height;
    fps;
    mode;
    release;
    max_packet_tiles;
    pace_bps;
    frame_period;
    row_period = Sim.Time.div frame_period (height / Tile.size);
    bytes_per_tile;
    stream = Printf.sprintf "cam:%d" (Net.vc_src_vci vc);
    running = false;
    frame = 0;
    frames_captured = 0;
    packets_sent = 0;
    on_frame = None;
    tx_free = Sim.Time.zero;
  }

let frame_period t = t.frame_period

let data_rate_bps t =
  let tiles = t.width / Tile.size * (t.height / Tile.size) in
  Float.of_int (tiles * t.bytes_per_tile * 8 * t.fps)

(* Send a packet's PDU through the VC, paced so that the burst never
   exceeds [pace_bps].  Returns nothing; accounting updated. *)
let send_paced t pdu =
  let cells = Bytes.length pdu / Cell.payload_bytes in
  let tx_time =
    Sim.Time.of_sec_f
      (Float.of_int (cells * Cell.wire_bits) /. Float.of_int t.pace_bps)
  in
  let now = Sim.Engine.now t.engine in
  let at = Sim.Time.max now t.tx_free in
  t.tx_free <- Sim.Time.add at tx_time;
  t.packets_sent <- t.packets_sent + 1;
  (* Each released packet is one causal flow: born when the tile row is
     released, stepped when pacing hands it to the wire.  The id rides
     the frame's cells (no wire bytes, no timing impact). *)
  let tr = Sim.Engine.trace t.engine in
  let flow =
    if Sim.Trace.flows_on tr then begin
      let f = Sim.Trace.alloc_flow tr in
      Sim.Trace.flow_start tr ~ts:now ~sub:Sim.Subsystem.Atm ~cat:"video"
        ~args:[ ("stream", Sim.Trace.Str t.stream) ]
        ~flow:f "cam.release";
      Sim.Trace.flow_step tr ~ts:at ~sub:Sim.Subsystem.Atm ~cat:"video"
        ~flow:f "cam.pace";
      Some f
    end
    else None
  in
  if Sim.Time.(at <= now) then Net.send_pdu ?flow t.vc pdu
  else
    ignore
      (Sim.Engine.schedule_at t.engine ~at (fun () ->
           Net.send_pdu ?flow t.vc pdu))

(* Pixel content: a deterministic pattern so that tests can check what
   the display renders without shipping real video.  Byte [i] of a
   packet is [(base + i) land 0xff]; any run of up to 256 such bytes is
   a slice of [pattern] starting at [(base + i) land 0xff]. *)
let pattern = String.init 512 (fun i -> Char.chr (i land 0xff))

let fill_tile_data t buf ~row ~first_tile ~count =
  let n = count * t.bytes_per_tile in
  if n > Bytes.length buf then invalid_arg "Camera.fill_tile_data: buffer too short";
  let base = row + first_tile + t.frame in
  let i = ref 0 in
  while !i < n do
    let len = Int.min 256 (n - !i) in
    Bytes.blit_string pattern ((base + !i) land 0xff) buf !i len;
    i := !i + len
  done

(* Release one row of tiles: each packet's pixels and trailer are
   written straight into its PDU, which goes on the wire as it is. *)
let release_row t ~row ~captured_at =
  let tiles_per_row = t.width / Tile.size in
  let rec split first =
    if first < tiles_per_row then begin
      let count = Int.min t.max_packet_tiles (tiles_per_row - first) in
      send_paced t
        (Tile.pdu ~x:first ~y:row ~frame:t.frame ~count
           ~bytes_per_tile:t.bytes_per_tile ~captured_at (fun buf ->
             fill_tile_data t buf ~row ~first_tile:first ~count));
      split (first + count)
    end
  in
  split 0

let rec capture_frame t frame_start =
  if t.running then begin
    let rows = t.height / Tile.size in
    let frame_end = Sim.Time.add frame_start t.frame_period in
    (* Each row of tiles finishes digitising 8 scan-lines into the row
       buffer; under `Tile_row it is released right then. *)
    for row = 0 to rows - 1 do
      let captured_at = Sim.Time.add frame_start (Sim.Time.mul t.row_period (row + 1)) in
      let release_at =
        match t.release with `Tile_row -> captured_at | `Whole_frame -> frame_end
      in
      ignore
        (Sim.Engine.schedule_at t.engine ~at:release_at (fun () ->
             if t.running then release_row t ~row ~captured_at))
    done;
    ignore
      (Sim.Engine.schedule_at t.engine ~at:frame_end (fun () ->
           if t.running then begin
             t.frames_captured <- t.frames_captured + 1;
             (match t.on_frame with
             | Some f -> f ~frame:t.frame ~captured_at:frame_end
             | None -> ());
             t.frame <- t.frame + 1;
             capture_frame t frame_end
           end))
  end

let start t =
  if not t.running then begin
    t.running <- true;
    capture_frame t (Sim.Engine.now t.engine)
  end

let stop t = t.running <- false
let on_frame t f = t.on_frame <- Some f
let frames_captured t = t.frames_captured
let packets_sent t = t.packets_sent
