(** Pixel tiles, the unit of video transport.

    The ATM camera digitises scan-lines; once eight lines are buffered
    they are encoded as 8x8-pixel tiles.  A run of consecutive tiles is
    packed into one AAL5 frame together with a trailer giving the (x, y)
    position of the run within the video frame, the frame number, and a
    capture time stamp. *)

val size : int
(** Tiles are [size] x [size] pixels (8). *)

val raw_bytes : int
(** Bytes of one uncompressed tile (64: 8-bit luma). *)

type packet = {
  x : int;  (** x of the first tile, in tiles *)
  y : int;  (** y of the tile row, in tiles *)
  frame : int;  (** video frame number *)
  count : int;  (** number of consecutive tiles *)
  bytes_per_tile : int;  (** 64 raw, less when JPEG-compressed *)
  captured_at : Sim.Time.t;  (** when the tiles' lines finished digitising *)
  data : bytes;  (** [count * bytes_per_tile] bytes of pixel data *)
}

val marshal : packet -> bytes

val unmarshal : bytes -> packet option
(** [None] on malformed input (too short, or inconsistent sizes). *)
