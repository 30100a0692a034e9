(** An audio/video session between two workstations — the video-phone
    path of Figures 1 and 4.

    Video flows camera-node → display-node and audio flows DSP-node →
    DSP-node entirely through the switches; no CPU touches media data.
    Each device also produces a low-bandwidth control stream to its
    workstation's manager; the sender's manager merges them and ships
    one combined control stream to the play-back controller at the
    receiver, which aligns the streams using the synchronisation marks
    and the data-arrival events. *)

type t

val create :
  from_:Workstation.t ->
  to_:Workstation.t ->
  ?width:int ->
  ?height:int ->
  ?with_audio:bool ->
  ?window:int * int ->
  unit ->
  t
(** Video comes from the sender's first camera at 25 fps, JPEG 8:1,
    with tile-row release.  Defaults: 320x240, audio on, window at
    (64, 64).  Raises [Invalid_argument] when the
    endpoints lack the needed devices. *)

val start : t -> unit
val stop : t -> unit

val display_vci : t -> int
(** The VCI indexing this session's window descriptor at the display. *)

(** {1 Measurements} *)

val video_staging_latency_us : t -> Sim.Stats.Samples.t
val frames_shown : t -> int
val audio_jitter_us : t -> float
(** 0.0 for video-only sessions. *)

val audio_late_cells : t -> int

val av_sync_skew_us : t -> Sim.Stats.Samples.t
(** |video latency − audio latency| for matching capture instants, from
    the play-back controller. *)
