(** A cell train: a contiguous burst of cells of one AAL5 frame,
    sharing one VCI and one backing PDU buffer.

    This is the unit the fast path moves through the network — one
    scheduled event per hop instead of one per cell — and the unit the
    reassembler reads from.  A train is an immutable window
    [[first, first + count)] into the [total] cells of its frame, so
    splitting a burst (fault fallback, partial queue overflow, chunked
    delivery) is [sub], not a copy.  Cell [i]'s payload is the 48 bytes
    at [(first + i) * 48] in [buf]; the frame's end-of-frame bit lives
    on absolute cell [total - 1]. *)

type frame = {
  buf : bytes;
      (** the whole AAL5 PDU, as {!Net.send_pdu} got it.
          {!Net.send_frame} frames a payload once, so every frame of
          one payload shares this buffer: it is never written, by the
          network or by a receiver. *)
  flow : int;
      (** causal flow id carried by every cell of the frame
          ({!Sim.Trace.no_flow} when untraced) *)
  total : int;  (** cells in the whole PDU *)
}
(** One transmission of a PDU: {!make} builds one per send, and every
    window split or merged from that send shares it, so physical
    equality on [frame] tells two sends of one PDU apart. *)

type t = {
  mutable vci : int;  (** rewritten at each switch hop *)
  frame : frame;
  first : int;  (** absolute index of this window's first cell *)
  count : int;  (** cells in this window *)
}

val make : vci:int -> ?flow:int -> bytes -> t
(** A new frame of the given PDU, as a train covering all of it.
    Raises [Invalid_argument] unless the buffer is a non-zero whole
    number of 48-byte cells. *)

val sub : t -> first:int -> count:int -> t
(** A sub-window, [first] relative to [t]'s window.  Shares the frame.
    Raises [Invalid_argument] when out of bounds or empty. *)

val cell : t -> int -> Cell.t
(** Cell [i] of the window as a zero-copy {!Cell.t} view carrying the
    train's current VCI. *)

val contains_last : t -> bool
(** Does the window reach the end of the frame? *)

val count : t -> int
val total : t -> int
val first : t -> int
val buf : t -> bytes
val flow : t -> int
