(** The device control protocol (paper §2.2).

    Every multimedia device produces two virtual circuits: the data
    stream and a bidirectional, low-bandwidth control stream used to
    drive the device and to synchronise streams.  A host sending
    synchronised audio and video lets the devices ship their data
    streams directly to the sinks while a local merge process combines
    the two control streams into one for the play-back controller at
    the rendering end.  The file server likewise derives index
    information from the control stream accompanying a recording. *)

type msg =
  | Start
  | Stop
  | Sync of { stream : int; unit_id : int; stamp : Sim.Time.t }
      (** "unit [unit_id] of stream [stream] was captured at [stamp]" *)
  | Index_mark of { stream : int; offset : int; stamp : Sim.Time.t }
      (** storage-side index hint: media byte [offset] corresponds to
          source time [stamp] *)

val marshal : msg -> bytes
val unmarshal : bytes -> msg option

(** Merges the control streams of several source devices into a single
    combined stream for the play-back controller. *)
module Merger : sig
  type t

  val create : out:Net.vc -> unit
  (* merged messages are forwarded verbatim *)
    -> t

  val rx : t -> Cell.t -> unit
  (** Cell handler for each incoming per-device control VC. *)

  val forwarded : t -> int
end

(** Play-back controller: measures how far the play-out of several
    streams drifts apart, from source synchronisation marks and
    data-arrival events. *)
module Playback : sig
  type t

  val create : Sim.Engine.t -> unit -> t

  val control_rx : t -> Cell.t -> unit
  (** Handler for the combined control VC. *)

  val data_event : t -> stream:int -> unit_id:int -> unit
  (** Report that [unit_id] of [stream] was rendered now (wired to
      {!Display.on_blit} / {!Audio.Sink.on_playout}). *)

  val skew_us : t -> a:int -> b:int -> Sim.Stats.Samples.t
  (** Distribution of |render-time difference| between the two streams
      for units captured at the same source instant, in microseconds.
      Empty until both streams have rendered matching units. *)
end
