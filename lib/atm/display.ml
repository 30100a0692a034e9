type window = {
  mutable wx : int;
  mutable wy : int;
  mutable ww : int;
  mutable wh : int;
  mutable wz : int;  (* stacking order: higher is on top *)
  reassembler : Aal5.Reassembler.t;
  latency_us : Sim.Stats.Samples.t;
  mutable blitted : int;
  mutable clipped : int;
  mutable occluded_px : int;
  mutable frames_done : int;
  mutable current_frame : int;
  mutable verified : Bytes.t;
      (* one byte per tile of the (ww/8) x (wh/8) grid, row-major; non-zero
         means that at [verified_epoch] all 64 pixels under the tile
         belong to this window *)
  mutable verified_epoch : int;
  mutable checked : int;  (* tiles painted by the per-pixel loop *)
  code : int;  (* the owner code of this window's VCI *)
  deliver : bytes -> int -> int -> unit;  (* the reassembler's callbacks *)
  reject : Aal5.error -> unit;
}

type t = {
  engine : Sim.Engine.t;
  screen_w : int;
  screen_h : int;
  framebuffer : bytes;
  owners : bytes;  (* per-pixel 16-bit owner code, native-endian *)
  windows : window Sim.Int_table.t;  (* by VCI *)
  codes : int Sim.Int_table.t;  (* VCI -> owner code, kept for good *)
  mutable vcis : int array;  (* owner code -> VCI *)
  mutable epoch : int;
      (* moves whenever a pixel changes hands, voiding every verified tile *)
  mutable next_z : int;
  mutable faulty : int;
  mutable on_blit : (vci:int -> Tile.packet -> unit) option;
  m_staging_win : Sim.Metrics.observer;
}

(* Owner codes: [unowned], [decorated], then one per VCI that has had a
   window, in the order they first got one.  Codes are never reused, so
   pixels of a removed window keep its code. *)
let unowned = 0
let decorated = 1
let max_code = 0xffff

let create engine ?(screen_width = 1280) ?(screen_height = 1024) () =
  {
    engine;
    screen_w = screen_width;
    screen_h = screen_height;
    framebuffer = Bytes.make (screen_width * screen_height) '\000';
    owners = Bytes.make (2 * screen_width * screen_height) '\000';
    windows = Sim.Int_table.create 16;
    codes = Sim.Int_table.create 16;
    (* The two reserved codes map to negative VCIs, which no window has. *)
    vcis = [| -1; -2 |];
    epoch = 0;
    next_z = 0;
    faulty = 0;
    on_blit = None;
    m_staging_win =
      Sim.Metrics.observer
        (Sim.Engine.metrics engine)
        ~sub:Sim.Subsystem.Atm
        ~help:"windowed capture-to-blit staging latency samples (us)"
        "display.staging_win_us";
  }

(* Windows of any size, even empty or negative, get a map: only tiles
   that pass [render]'s clip index it. *)
let tile_map ~width ~height =
  Bytes.make
    (Int.max 0 (width / Tile.size) * Int.max 0 (height / Tile.size))
    '\000'

let window t vci =
  match Sim.Int_table.find t.windows vci with
  | w -> w
  | exception Not_found -> invalid_arg "Display: no window for VCI"

let move_window t ~vci ~x ~y =
  let w = window t vci in
  w.wx <- x;
  w.wy <- y;
  Bytes.fill w.verified 0 (Bytes.length w.verified) '\000'

let resize_window t ~vci ~width ~height =
  let w = window t vci in
  w.ww <- width;
  w.wh <- height;
  w.verified <- tile_map ~width ~height

let remove_window t ~vci = Sim.Int_table.remove t.windows vci

let raise_window t ~vci =
  let w = window t vci in
  t.next_z <- t.next_z + 1;
  w.wz <- t.next_z

let lower_window t ~vci =
  let w = window t vci in
  let lowest =
    Sim.Int_table.fold (fun _ w' acc -> Int.min acc w'.wz) t.windows w.wz
  in
  w.wz <- lowest - 1

let z_order t ~vci = (window t vci).wz
let window_count t = Sim.Int_table.length t.windows
let on_blit t f = t.on_blit <- Some f

(* A pixel may be painted when unowned, owned by this window, or owned
   by a window that is now stacked below this one.  Occluded pixels are
   counted but not painted; since video repaints every frame, a raised
   window repairs itself within one frame time.  [blit_tile] tests the
   first two cases inline and asks [may_paint_over] only about a pixel
   that [decorate] or another VCI owns; a yes hands the pixel over, so
   it moves the epoch. *)
let may_paint_over t w ~owner =
  let yes =
    match Sim.Int_table.find t.windows t.vcis.(owner) with
    | other -> other.wz <= w.wz
    | exception Not_found -> true
  in
  if yes then t.epoch <- t.epoch + 1;
  yes

external get16u : bytes -> int -> int = "%caml_bytes_get16u"
external set16u : bytes -> int -> int -> unit = "%caml_bytes_set16u"
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let blit_tile t w ~sx ~sy data off =
  (* Copy an 8x8 tile whose top-left lands at screen (sx, sy); the
     caller has already checked the window clip.  Each tile line is
     clipped once against the screen and the source data, so the pixel
     loop indexes without bounds checks. *)
  let x0 = Int.max 0 (-sx) and x1 = Int.min Tile.size (t.screen_w - sx) in
  let code = w.code in
  for line = 0 to Tile.size - 1 do
    let y = sy + line and src = off + (line * Tile.size) in
    let x_end = Int.min x1 (Bytes.length data - src) in
    if y >= 0 && y < t.screen_h && src >= 0 then
      for px = x0 to x_end - 1 do
        let idx = (y * t.screen_w) + sx + px in
        let owner = get16u t.owners (2 * idx) in
        if
          owner = unowned || owner = code || may_paint_over t w ~owner
        then begin
          set16u t.owners (2 * idx) code;
          Bytes.unsafe_set t.framebuffer idx (Bytes.unsafe_get data (src + px))
        end
        else w.occluded_px <- w.occluded_px + 1
      done
  done

(* A tile line is 8 one-byte pixels, one 64-bit word.  The accesses are
   unchecked: the caller has checked that the tile lies wholly on screen
   and in [data]. *)
let copy_tile t ~sx ~sy data off =
  let dst = (sy * t.screen_w) + sx in
  for line = 0 to Tile.size - 1 do
    set64u t.framebuffer
      (dst + (line * t.screen_w))
      (get64u data (off + (line * Tile.size)))
  done

(* Paint tile number [tile] of [w]'s grid.  A tile is verified when all
   64 of its pixels belong to [w] at the current epoch: the per-pixel
   loop would then paint every pixel and change no owner, and a word
   copy does the same.  Owners change only through a hand-over or
   [decorate], which move the epoch; a tile's screen position changes
   only through [move_window] and [resize_window], which clear the map.
   A tile whose own loop moved the epoch stays unmarked: at the epoch
   the map is stamped with, it was not yet wholly [w]'s. *)
let paint_tile t w ~tile ~sx ~sy data off =
  if w.verified_epoch <> t.epoch then begin
    Bytes.fill w.verified 0 (Bytes.length w.verified) '\000';
    w.verified_epoch <- t.epoch
  end;
  let whole =
    sx >= 0 && sy >= 0
    && sx + Tile.size <= t.screen_w
    && sy + Tile.size <= t.screen_h
    && off >= 0
    && off + Tile.raw_bytes <= Bytes.length data
  in
  if whole && Bytes.get w.verified tile <> '\000' then
    copy_tile t ~sx ~sy data off
  else begin
    let epoch = t.epoch and occluded = w.occluded_px in
    w.checked <- w.checked + 1;
    blit_tile t w ~sx ~sy data off;
    if whole && t.epoch = epoch && w.occluded_px = occluded then
      Bytes.set w.verified tile '\001'
  end

(* Render the tile packet in [buf.[off, off + len)] where it lies:
   the trailer is read in place and the tiles are painted from the
   view.  Only an [on_blit] subscriber gets a copy. *)
let render t vci w buf off len =
  let now = Sim.Engine.now t.engine in
  let staging_us =
    Sim.Time.to_us_f (Sim.Time.sub now (Tile.captured_at buf off len))
  in
  Sim.Stats.Samples.add w.latency_us staging_us;
  Sim.Metrics.sample t.m_staging_win staging_us;
  let frame = Tile.frame buf off len in
  if frame <> w.current_frame then begin
    if w.current_frame >= 0 then w.frames_done <- w.frames_done + 1;
    w.current_frame <- frame
  end;
  let x = Tile.x buf off len and y = Tile.y buf off len in
  let bytes_per_tile = Tile.bytes_per_tile buf off len in
  for i = 0 to Tile.count buf off len - 1 do
    let tile_px = (x + i) * Tile.size and tile_py = y * Tile.size in
    (* Clip against the window rectangle. *)
    if
      tile_px + Tile.size <= w.ww
      && tile_py + Tile.size <= w.wh
      && tile_px >= 0 && tile_py >= 0
    then begin
      w.blitted <- w.blitted + 1;
      (* Raw tiles carry 64 bytes of pixels; compressed tiles are
         expanded notionally (we blit what data there is). *)
      if bytes_per_tile = Tile.raw_bytes then
        paint_tile t w
          ~tile:((y * (w.ww / Tile.size)) + x + i)
          ~sx:(w.wx + tile_px) ~sy:(w.wy + tile_py) buf
          (off + (i * bytes_per_tile))
    end
    else w.clipped <- w.clipped + 1
  done;
  match t.on_blit with Some f -> f ~vci (Tile.copy buf off len) | None -> ()

(* A frame passed its CRC and length checks.  Its causal flow ends
   here: reassembly completes at the last cell's arrival and the blit
   happens in the same instant.  Faulty frames never end their flow —
   the audit reports them as incomplete. *)
let deliver t vci w buf off len =
  let tr = Sim.Engine.trace t.engine in
  (if Sim.Trace.flows_on tr then
     let flow = Aal5.Reassembler.last_flow w.reassembler in
     if flow >= 0 then
       Sim.Trace.flow_end tr
         ~ts:(Sim.Engine.now t.engine)
         ~sub:Sim.Subsystem.Atm ~cat:"video" ~flow "display");
  if Tile.well_formed buf off len then render t vci w buf off len
  else t.faulty <- t.faulty + 1

(* The owner code of [vci], given at its first window. *)
let code_of t vci =
  match Sim.Int_table.find t.codes vci with
  | code -> code
  | exception Not_found ->
      let code = 2 + Sim.Int_table.length t.codes in
      if code > max_code then
        invalid_arg "Display.add_window: more than 65534 VCIs";
      if code = Array.length t.vcis then begin
        let vcis = Array.make (2 * code) (-1) in
        Array.blit t.vcis 0 vcis 0 code;
        t.vcis <- vcis
      end;
      t.vcis.(code) <- vci;
      Sim.Int_table.add t.codes vci code;
      code

let add_window t ~vci ~x ~y ~width ~height =
  if vci < 0 then invalid_arg "Display.add_window: negative VCI";
  let code = code_of t vci in
  t.next_z <- t.next_z + 1;
  let reassembler = Aal5.Reassembler.create ()
  and latency_us = Sim.Stats.Samples.create () in
  let rec w =
    {
      wx = x;
      wy = y;
      ww = width;
      wh = height;
      wz = t.next_z;
      reassembler;
      latency_us;
      blitted = 0;
      clipped = 0;
      occluded_px = 0;
      frames_done = 0;
      current_frame = -1;
      verified = tile_map ~width ~height;
      verified_epoch = t.epoch;
      checked = 0;
      code;
      deliver = (fun buf off len -> deliver t vci w buf off len);
      reject = (fun _ -> t.faulty <- t.faulty + 1);
    }
  in
  Sim.Int_table.replace t.windows vci w

let cell_rx t (cell : Cell.t) =
  match Sim.Int_table.find t.windows cell.vci with
  | exception Not_found ->
      ()  (* no descriptor: the window manager has not granted access *)
  | w -> Aal5.Reassembler.push w.reassembler cell ~ok:w.deliver ~err:w.reject

(* The fast path: a whole train window lands in the reassembler with at
   most one blit, and a frame that arrives as one window is painted
   from the sender's PDU.  Completion instants match [cell_rx] — a
   frame finishes when its last cell arrives, which is exactly when the
   train window carrying that cell is delivered. *)
let train_rx t (train : Train.t) =
  match Sim.Int_table.find t.windows train.Train.vci with
  | exception Not_found -> ()
  | w ->
      Aal5.Reassembler.push_train w.reassembler train ~ok:w.deliver
        ~err:w.reject

(* The window manager's whole-screen descriptor: it may write any
   pixel, for title bars and borders; what it paints is owned by
   [decorated], which any window may later paint over. *)
let decorate t ~x ~y ~width ~height ~value =
  t.epoch <- t.epoch + 1;
  for dy = 0 to height - 1 do
    let py = y + dy in
    if py >= 0 && py < t.screen_h then
      for dx = 0 to width - 1 do
        let px = x + dx in
        if px >= 0 && px < t.screen_w then begin
          let idx = (py * t.screen_w) + px in
          Bytes.set_uint16_ne t.owners (2 * idx) decorated;
          Bytes.set t.framebuffer idx (Char.chr (value land 0xff))
        end
      done
  done

let tiles_blitted t ~vci = (window t vci).blitted
let tiles_clipped t ~vci = (window t vci).clipped
let pixels_occluded t ~vci = (window t vci).occluded_px
let tiles_checked t ~vci = (window t vci).checked
let frames_completed t ~vci = (window t vci).frames_done
let faulty_frames t = t.faulty
let staging_latency_us t ~vci = (window t vci).latency_us

let screen_byte t ~x ~y =
  if x < 0 || x >= t.screen_w || y < 0 || y >= t.screen_h then
    invalid_arg "Display.screen_byte: out of bounds";
  Char.code (Bytes.get t.framebuffer ((y * t.screen_w) + x))
