(** The ATM camera (paper Figure 2).

    Scan-lines are digitised continuously; after eight lines are
    buffered they are encoded as a row of 8x8 tiles, packed into AAL5
    frames and sent directly onto the network — no workstation CPU
    touches the data.  An optional compression stage (motion JPEG)
    shrinks each tile by a configurable ratio.

    The [release] policy models the paper's comparison: [`Tile_row]
    streams every row of tiles as soon as it is digitised (the Pegasus
    design); [`Whole_frame] holds data back until the frame is complete,
    as a conventional frame-grabber does.  Both keep the true
    digitisation time in each packet's [captured_at] stamp, so the
    display can measure staging latency per pixel run. *)

type mode = Raw | Jpeg of { ratio : float }

type release = [ `Tile_row | `Whole_frame ]

type t

val create :
  Sim.Engine.t ->
  vc:Net.vc ->
  ?width:int ->
  ?height:int ->
  ?fps:int ->
  ?mode:mode ->
  ?release:release ->
  ?max_packet_tiles:int ->
  ?pace_bps:int ->
  unit ->
  t
(** Defaults: 640x480 at 25 fps, [Raw], [`Tile_row], at most 14 tiles
    per AAL5 frame (≈ 1 cell-efficient kilobyte raw), paced at
    80 Mbit/s so the camera never overruns its own 100 Mbit/s link.
    [width] and [height] must be multiples of 8. *)

val start : t -> unit
(** Begin capturing at the next frame boundary.  Idempotent. *)

val stop : t -> unit

val on_frame : t -> (frame:int -> captured_at:Sim.Time.t -> unit) -> unit
(** Callback at each frame capture completion; the device manager uses
    it to emit synchronisation marks on the control stream. *)

val frames_captured : t -> int
val packets_sent : t -> int

val frame_period : t -> Sim.Time.t

val data_rate_bps : t -> float
(** Long-run data rate implied by the geometry, fps and compression. *)
