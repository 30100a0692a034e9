(** The continuous-media service stack.

    Continuous data is stored in its own segments with a {e guaranteed}
    service rate: streams are admitted only while the sum of their
    rates fits the disk-bandwidth budget.  No caching is involved — a
    guaranteed rate cannot be improved by a cache, and a stream larger
    than the cache would only flush it.

    While recording, the control stream that accompanies the data
    stream is used to build index information: each synchronisation
    mark maps a source time stamp to a byte offset.  The index is what
    makes "go to 12:03", fast-forward and reverse play possible
    afterwards. *)

type t

val create : Sim.Engine.t -> log:Log.t -> t

val budget_bps : int
(** 128 Mbit/s = 16 MB/s, most of a 4-disk array: the cap on the sum of
    admitted stream rates. *)

val admitted_bps : t -> int

(** {1 Recording} *)

type recording

val start_recording :
  t -> rate_bps:int -> (recording, [ `Admission_denied ]) result

val recording_fid : recording -> Log.fid

val write_chunk :
  recording -> ?data:bytes -> len:int -> ((unit, Log.error) result -> unit) ->
  unit
(** Append media bytes to the recording. *)

val index_mark : recording -> stamp:Sim.Time.t -> unit
(** Note that the current end of the recording corresponds to source
    time [stamp] (driven by the control stream). *)

val finish_recording : t -> recording -> unit
(** Release the admitted bandwidth. *)

val index_size : t -> fid:Log.fid -> int

(** {1 Playback} *)

type playback

val start_playback :
  t ->
  fid:Log.fid ->
  rate_bps:int ->
  ?chunk_bytes:int ->
  ?direction:[ `Forward | `Reverse ] ->
  ?on_chunk:(off:int -> unit) ->
  ?on_end:(unit -> unit) ->
  unit ->
  (playback, [ `Admission_denied | `No_such_file ]) result
(** Read the file at [rate_bps] in [chunk_bytes] units (default 64 KB),
    forwards or backwards.  [on_chunk] fires as each chunk's read
    completes. *)

val seek_stamp : playback -> Sim.Time.t -> unit
(** Jump to the position recorded for the nearest index mark at or
    before [stamp] — the primitive behind fast-forward and "go to". *)

val position : playback -> int

val stop_playback : t -> playback -> unit

val underruns : playback -> int
(** Chunks whose read completed after their play-out deadline — must
    stay 0 for admitted streams on an idle array. *)

val chunks_played : playback -> int
