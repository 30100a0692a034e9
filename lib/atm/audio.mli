(** The ATM DSP/audio node.

    The source side packs PCM samples into single ATM cells, each
    carrying a time stamp and sequence number; the sink side runs a
    play-out buffer that converts the jittery arrival process back into
    an isochronous sample stream.  Audio has modest bandwidth but is
    the medium most sensitive to jitter, which is what the sink
    measures.  Both ends run at 44.1 kHz with 2 channels (hi-fi
    stereo, per the project's goal statement). *)

module Source : sig
  type t

  val create : Sim.Engine.t -> vc:Net.vc -> unit -> t

  val start : t -> unit
  val stop : t -> unit

  val on_mark : t -> every:int -> (seq:int -> stamp:Sim.Time.t -> unit) -> unit
  (** Synchronisation callback once every [every] cells, as the cell is
      sent — the device manager turns these into control-stream [Sync]
      messages. *)

  val cells_sent : t -> int
end

module Sink : sig
  type t

  val create : Sim.Engine.t -> ?playout_delay:Sim.Time.t -> unit -> t
  (** [playout_delay] is the target buffering between arrival of the
      first cell and the start of play-out (default 2 ms). *)

  val cell_rx : t -> Cell.t -> unit
  (** Handler to pass as [rx] when opening the audio VC. *)

  val cells_received : t -> int
  val late_cells : t -> int
  (** Cells that missed their play-out deadline (audible dropouts). *)

  val lost_cells : t -> int
  (** Sequence-number gaps. *)

  val jitter_us : t -> float
  (** Standard deviation of the per-cell network delay (arrival - source
      stamp), microseconds. *)

  val on_playout : t -> (seq:int -> stamp:Sim.Time.t -> unit) -> unit
  (** Callback when a cell's samples are played, for synchronisation. *)
end
