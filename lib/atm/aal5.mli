(** AAL5 segmentation and reassembly.

    A CPCS-PDU is the user payload, zero padding, and an 8-byte trailer
    (UU, CPI, 16-bit length, CRC-32), sized to a whole number of cells.
    The final cell of a frame is marked via the PTI bit.  The paper's
    devices use AAL5 so that faulty tiles are detected before rendering;
    the CRC gives us exactly that.

    Segmentation is zero-copy: the PDU is built once and cells (or one
    {!Train.t}) are views into it.  A PDU is immutable once built: no
    one writes it after framing, so every frame of one payload can
    share one ({!Framer}), and a receiver checks a frame that arrives
    whole in place on it. *)

val frame_cells : int -> int
(** [frame_cells len] is the number of cells needed for a [len]-byte
    payload. *)

val segment : vci:int -> bytes -> Cell.t list
(** Split a payload into cells — zero-copy views of one PDU buffer.
    Raises [Invalid_argument] on payloads longer than 65535 bytes. *)

(** Framing once per payload.  A framer remembers the PDUs it built
    for the three payload buffers it used most recently (matched by
    identity), so a sender that resends a buffer builds its PDU once. *)
module Framer : sig
  type t

  val create : unit -> t

  val pdu : t -> bytes -> bytes
  (** [pdu t payload] is a PDU byte-identical to the one {!segment}
      would build for [payload] now.  The PDU kept for [payload] is
      reused only after checking it: the payload bytes, the zero
      padding, the length field and the CRC recorded when it was built.
      A payload changed since, or a PDU written by someone else, gets a
      fresh PDU; an old one is never rewritten, since frames of it may
      still be in flight.  Raises [Invalid_argument] on payloads longer
      than 65535 bytes. *)
end

type error =
  | Crc_mismatch
  | Length_mismatch
  | Too_long  (** reassembly buffer exceeded *)

(** Per-VC reassembler.  Feed cells in order; a result is returned on
    each end-of-frame cell. *)
module Reassembler : sig
  type t

  val create : ?max_frame:int -> unit -> t

  val push : t -> Cell.t -> (bytes, error) result option
  (** [push t cell] returns [Some result] when [cell] completes a frame,
      [None] otherwise. *)

  val push_train : t -> Train.t -> (bytes, error) result list
  (** Push a whole train window as one blit.  Equivalent to pushing its
      cells in order; the list is almost always empty (mid-frame) or a
      singleton (the window completes a frame), but the overflow path
      can emit [Error Too_long] followed by the result of whatever
      accumulates afterwards.  A window that ends a frame while nothing
      is pending is checked in place on the train's PDU, with no blit:
      the payload the receiver gets is the one copy made. *)

  val pending_cells : t -> int

  val last_flow : t -> int
  (** Flow id carried by the cells of the most recently completed
      frame ({!Sim.Trace.no_flow} if none, or untraced).  Valid until
      the next frame completes — read it inside the delivery
      callback. *)
end
