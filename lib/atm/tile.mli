(** Pixel tiles, the unit of video transport.

    The ATM camera digitises scan-lines; once eight lines are buffered
    they are encoded as 8x8-pixel tiles.  A run of consecutive tiles is
    packed into one AAL5 frame together with a trailer giving the (x, y)
    position of the run within the video frame, the frame number, and a
    capture time stamp.

    A packet is written once, straight into its PDU ({!pdu}), and read
    where it lands: a receiver checks the view it is handed
    ({!well_formed}) and reads the trailer in place. *)

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

val pdu :
  x:int ->
  y:int ->
  frame:int ->
  count:int ->
  bytes_per_tile:int ->
  captured_at:Sim.Time.t ->
  (bytes -> unit) ->
  bytes
(** The AAL5 PDU of one tile packet, built in place ({!Aal5.build}):
    [write buf] puts the [count * bytes_per_tile] bytes of pixel data at
    [buf.[0, count * bytes_per_tile)], and the trailer and the AAL5
    padding, length and CRC follow them.  The camera frames every
    packet through this. *)

(** {1 Reading a packet in place}

    Each reader takes the view [buf off len] of one AAL5 payload, as a
    {!Aal5.Reassembler} callback gets it, and reads the trailer at its
    end.  Read only a view that {!well_formed} accepted. *)

val well_formed : bytes -> int -> int -> bool
(** [false] on malformed input: shorter than the trailer, or a
    [count * bytes_per_tile] other than the bytes before the trailer. *)

val x : bytes -> int -> int -> int
val y : bytes -> int -> int -> int
val frame : bytes -> int -> int -> int
val count : bytes -> int -> int -> int
val bytes_per_tile : bytes -> int -> int -> int
val captured_at : bytes -> int -> int -> Sim.Time.t

val copy : bytes -> int -> int -> packet
(** The packet in a view, with its own copy of the pixel data: for a
    subscriber that keeps it past the callback. *)
