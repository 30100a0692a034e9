(** ATM cells: 53 bytes on the wire, 48 of payload.

    Only the header fields the models need are represented: the VCI
    (rewritten hop by hop by switches) and the AAL5 end-of-frame bit
    carried in the PTI field.

    The payload is a [(buf, off)] view of a backing buffer rather than
    an owned 48-byte copy, so segmenting an AAL5 PDU into cells is
    zero-copy: every cell of a frame aliases one PDU buffer.  Code that
    reads or writes payload bytes must index [buf] at [off + i]. *)

val payload_bytes : int (* 48 *)
val total_bytes : int (* 53 *)
val wire_bits : int (* 424 *)

type t = {
  mutable vci : int;  (** rewritten at each switch hop *)
  last : bool;  (** AAL5 end-of-frame marker (PTI bit) *)
  flow : int;
      (** causal flow id ({!Sim.Trace.no_flow} when untraced) —
          simulation metadata, not wire bytes *)
  buf : bytes;  (** backing buffer (shared with the whole frame) *)
  off : int;  (** start of this cell's 48 payload bytes in [buf] *)
}

val view : vci:int -> last:bool -> ?flow:int -> bytes -> off:int -> t
(** A zero-copy view of 48 bytes at [off].  Raises [Invalid_argument]
    if the range exceeds the buffer. *)

val make_blank : vci:int -> last:bool -> t
(** A cell with a zeroed payload (fresh buffer). *)

val tx_time : bandwidth_bps:int -> Sim.Time.t
(** Serialisation time of one cell at the given link rate. *)
