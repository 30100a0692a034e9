(** AAL5 segmentation and reassembly.

    A CPCS-PDU is the user payload, zero padding, and an 8-byte trailer
    (UU, CPI, 16-bit length, CRC-32), sized to a whole number of cells.
    The final cell of a frame is marked via the PTI bit.  The paper's
    devices use AAL5 so that faulty tiles are detected before rendering;
    the CRC gives us exactly that.

    Segmentation is zero-copy: the PDU is built once and cells (or one
    {!Train.t}) are views into it.  A sender that makes its payload
    writes it straight into the PDU ({!build}); one that resends a
    buffer has it framed once ({!Framer}).  A PDU is immutable once
    built: no one writes it after framing, so every frame of one
    payload can share one, and a receiver checks a frame that arrives
    whole in place on it.  Receivers get the checked payload as a view
    ({!Reassembler}) and copy only what they keep. *)

val frame_cells : int -> int
(** [frame_cells len] is the number of cells needed for a [len]-byte
    payload. *)

val build : int -> (bytes -> unit) -> bytes
(** [build len write] is the PDU of a [len]-byte payload written in
    place: it allocates the PDU, calls [write pdu], which must fill
    [pdu.[0, len)], and then adds the zero padding, the length field
    and the CRC.  The result is byte-identical to the PDU {!segment}
    builds for the payload [write] wrote.  Raises [Invalid_argument]
    unless [0 <= len <= 65535]. *)

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

(** Per-VC reassembler.  Feed cells or train windows in order; each
    completed frame is checked (CRC, then length) and handed over.

    The one contract: a frame that passes both checks goes to
    [ok buf off len], its payload being [buf.[off, off + len)]; one
    that fails goes to [err].  The view is valid only until the
    callback returns: it lies in the reassembler's own buffer, which
    the next push overwrites, or in the sender's PDU, which other
    frames share.  A receiver that keeps the bytes copies them inside
    the callback, and no receiver writes them. *)
module Reassembler : sig
  type t

  val create : ?max_frame:int -> unit -> t

  val push :
    t ->
    Cell.t ->
    ok:(bytes -> int -> int -> unit) ->
    err:(error -> unit) ->
    unit
  (** Accumulate one cell; calls back when the cell completes a frame,
      or with [Too_long] when the frame outgrows [max_frame]. *)

  val push_train :
    t ->
    Train.t ->
    ok:(bytes -> int -> int -> unit) ->
    err:(error -> unit) ->
    unit
  (** Push a whole train window as one blit.  Equivalent to pushing its
      cells in order: it almost always calls back never (mid-frame) or
      once (the window completes a frame), but the overflow path can
      call [err Too_long] and then back again for whatever accumulates
      afterwards.  A window that ends a frame while nothing is pending
      is checked in place on the train's PDU, with no blit, and the
      view handed to [ok] is of that PDU. *)

  val pending_cells : t -> int

  val last_flow : t -> int
  (** Flow id carried by the cells of the most recently completed
      frame ({!Sim.Trace.no_flow} if none, or untraced).  Valid until
      the next frame completes — read it inside the callback. *)
end
