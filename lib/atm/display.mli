(** The ATM display (paper Figure 3).

    The display implements a single primitive: blit arriving pixel
    tiles into windows.  The VCI of an incoming virtual circuit indexes
    a table of window descriptors; each descriptor holds an (x, y)
    offset from the top-left of the screen and clipping information.
    The window manager creates, moves, resizes and removes windows
    purely by editing descriptors — the sending device never knows.

    Tiles essentially being fixed-size bit-blits, video and graphics
    are unified: anything that can emit tile packets can paint a
    window.

    {b Ownership.}  Every pixel records who last painted it as a 16-bit
    owner code: 0 before anyone, 1 for {!decorate}, and from 2 on the
    code of the VCI of the window that painted it.
    A VCI gets its code, the next unused one, from its first
    {!add_window} and keeps it for the display's life; codes are never
    reused, and the display keeps a table from code back to VCI.  So
    one display accepts windows on at most 65 534 distinct VCIs, of
    any non-negative value.  A window may paint a pixel that is
    unowned, its own, painted by {!decorate}, owned by a window stacked
    at or below it, or owned by a VCI that has no window; any other
    pixel is occluded: counted, not painted.  Pixels of a removed
    window keep its VCI's code, so a window later added on that VCI
    owns them at once.  A display holds three bytes a pixel: the
    framebuffer byte and the code.

    {b Verified tiles.}  The display keeps an ownership epoch that
    moves whenever a pixel passes from one owner to another and on
    every {!decorate}.  A raw tile painted pixel by pixel, wholly on
    screen, with nothing occluded and the epoch unmoved, is marked
    verified in its window until the epoch next moves or the window is
    moved or resized.  A verified tile is repainted as eight word
    copies, with no ownership check: every pixel under it is the
    window's own, so the per-pixel rule would paint all 64 and change
    no owner.  Framebuffer, owners and counters are exactly those of
    the per-pixel rule. *)

type t

val create :
  Sim.Engine.t -> ?screen_width:int -> ?screen_height:int -> unit -> t
(** Default screen: 1280x1024. *)

val cell_rx : t -> Cell.t -> unit
(** The handler to pass as [rx] when opening a VC to the display;
    reassembles AAL5 per VCI and blits each checked tile packet from
    where it lies, reading its trailer in place. *)

val train_rx : t -> Train.t -> unit
(** The handler to pass as [rx_train]: reassembles a train window with
    at most one blit, and none when the window is a whole frame — its
    tiles are then painted straight from the sender's PDU.  Frame
    completion instants are identical to feeding {!cell_rx} cell by
    cell. *)

(** {1 Window management} *)

val add_window :
  t -> vci:int -> x:int -> y:int -> width:int -> height:int -> unit
(** Map the stream arriving on [vci] to a window at screen position
    (x, y) clipped to [width] x [height] pixels.  Replaces any previous
    descriptor for that VCI.  Raises [Invalid_argument], changing
    nothing, on a negative [vci] and on a VCI that would be the
    65 535th distinct one to get a window. *)

val move_window : t -> vci:int -> x:int -> y:int -> unit
val resize_window : t -> vci:int -> width:int -> height:int -> unit
val remove_window : t -> vci:int -> unit

val raise_window : t -> vci:int -> unit
(** Put the window on top of the stacking order.  Because streams
    repaint continuously, the newly exposed window repairs itself
    within a frame time — no damage protocol needed. *)

val lower_window : t -> vci:int -> unit
val z_order : t -> vci:int -> int

val decorate :
  t -> x:int -> y:int -> width:int -> height:int -> value:int -> unit
(** The window manager's whole-screen write access: paint a rectangle
    (title bar, border) directly.  Any window may paint over it. *)

val window_count : t -> int

(** {1 Observation} *)

val on_blit : t -> (vci:int -> Tile.packet -> unit) -> unit
(** Callback on every rendered packet (after clipping); play-out
    controllers use it as the data-arrival event source.  Each packet
    is a copy made for the subscriber: without one, the display copies
    no tile bytes but the ones it paints. *)

val tiles_blitted : t -> vci:int -> int
val tiles_clipped : t -> vci:int -> int

val pixels_occluded : t -> vci:int -> int
(** Pixels withheld because a higher window owned them. *)

val tiles_checked : t -> vci:int -> int
(** Raw tiles painted through the per-pixel ownership check, rather
    than copied whole as verified tiles.  Not a {!Sim.Metrics} entry. *)

val frames_completed : t -> vci:int -> int
(** Frames for which every expected tile arrived (detected by frame
    number change). *)

val faulty_frames : t -> int
(** AAL5 frames dropped for CRC/length errors — the protection AAL5
    gives against rendering faulty tiles. *)

val staging_latency_us : t -> vci:int -> Sim.Stats.Samples.t
(** Per-packet latency from tile digitisation ([captured_at]) to blit,
    in microseconds — the paper's frame-time vs tile-time comparison. *)

val screen_byte : t -> x:int -> y:int -> int
(** Read back a framebuffer byte (tests verify actual pixel placement).
    Raises [Invalid_argument] outside the screen. *)
