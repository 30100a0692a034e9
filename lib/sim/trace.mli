(** Typed in-memory event trace.

    Components record spans and instants tagged with a {!Subsystem.t},
    a category and key/value arguments; tests and the CLI inspect or
    export the result.  The sink is a bounded ring by default — the
    oldest events are dropped (and counted) once at capacity — or
    unbounded for full-fidelity export.  Disabled traces cost one
    branch per record.  A sink belongs to whoever created it —
    normally a run's {!Ctx}, which hands it to every engine the run
    builds; there is no process-wide one.

    {b The store.}  A sink keeps each event as four ints in flat
    [Bytes] chunks: its timestamp, its flow id, its duration (or none)
    and one packed word holding its phase, its subsystem and the ids
    of its category, name and argument list; the subsystem is stored as
    its {!Subsystem.lane}.  Categories, names and arg lists are interned
    per sink, arg lists by content with floats compared by their bits
    (so [-0.0] and NaN payloads come back as recorded).  The chunks hold
    no pointer, so the GC never scans them: a sink holds O(distinct
    strings and arg lists) heap blocks, not a few per event.  Nothing is
    allocated before the first record, and a growing store adds a chunk
    without copying the ones it has.  {!events}, the exporters and {!merge}
    rebuild records on demand; {!Audit} reads the columns directly
    ({!iter_flow_events}).  One sink holds at most 1 024 distinct
    categories, 2{^21} names and 2{^23} arg lists; a record past a
    limit raises [Failure].

    {b Causal flows.}  A flow is a single request travelling through
    the system — one video frame from camera to display, one RPC from
    client to file server and back.  Producers allocate a flow id with
    {!alloc_flow}, mark its birth with {!flow_start}, each hop with
    {!flow_step} and its completion with {!flow_end}; {!Audit} then
    reconstructs per-stream critical paths from the recorded events.
    Flow recording is off by default and gated separately from the
    trace itself (see {!set_flows}): record sites guard on the
    precomputed {!flows_on} predicate, so a disabled flow layer costs
    one branch.  Cell-level detail (see {!set_cell_detail}) is the
    orthogonal switch that full-fidelity consumers flip; the ATM train
    fast path only falls back to per-cell modelling for {e that} level
    of detail, never merely because flows are being recorded.

    Two exporters are provided: the Chrome [trace_event] JSON object
    format (loadable in about:tracing and Perfetto, flows rendered as
    arrows) and line-oriented JSONL for ad-hoc processing. *)

type t

(** Argument values attached to events. *)
type arg =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type phase = Instant | Complete | Flow_start | Flow_step | Flow_end

type event = {
  ev_ts : Time.t;
  ev_dur : Time.t option;  (** [Some] for completed spans. *)
  ev_phase : phase;
  ev_sub : Subsystem.t;
  ev_cat : string;
  ev_name : string;
  ev_flow : int;  (** Flow id; {!no_flow} when uncorrelated. *)
  ev_args : (string * arg) list;
}

type span
(** In-flight span handle returned by {!span_begin}. *)

val create : ?capacity:int -> ?unbounded:bool -> ?enabled:bool -> unit -> t
(** Ring of [capacity] (default 4096) entries, or an unbounded sink
    when [unbounded] is set.  Flow recording starts off; cell detail
    starts on.  Raises [Invalid_argument] on a [capacity] below 1,
    given or not [unbounded]. *)

val like : t -> t
(** A fresh, empty sink with [t]'s settings: enabled or not, ring
    capacity or unbounded, flow recording and cell detail.  Its flow
    ids start at 1. *)

val enable : t -> bool -> unit
val enabled : t -> bool

val set_capacity : t -> int option -> unit
(** Resize to a ring of the given size, or unbounded for [None].
    Clears recorded events, interned strings {e and} the drop counter —
    resizing mid-run restarts the sink, so post-resize statistics
    describe the new capacity only.  Safe while recording is active;
    the next {!events} call sees only events recorded after the
    resize.  Raises [Invalid_argument], changing nothing, on a ring
    size below 1. *)

(** {1 Flow ids} *)

val no_flow : int
(** The sentinel id ([-1]) carried by events that belong to no flow. *)

val alloc_flow : t -> int
(** Next flow id from a deterministic per-sink counter (1, 2, ...).
    Allocation is independent of whether recording is on, so traced
    and untraced runs stay schedule-identical. *)

val set_flows : t -> bool -> unit
(** Turn flow recording on or off (default off).  Effective only while
    the sink itself is {!enable}d. *)

val flows_on : t -> bool
(** Precomputed [enabled && flows]: the one-branch guard for flow
    record sites. *)

val set_cell_detail : t -> bool -> unit
(** Request per-cell detail (default on).  The ATM layer consults
    {!cell_detail_on} to decide whether bursts must be modelled
    cell-by-cell for full-fidelity traces; flow-only consumers turn
    this off to keep the train fast path intact. *)

val cell_detail_on : t -> bool
(** Precomputed [enabled && cell_detail]. *)

(** {1 Recording} *)

val instant :
  t ->
  ts:Time.t ->
  sub:Subsystem.t ->
  ?cat:string ->
  ?args:(string * arg) list ->
  string ->
  unit
(** A point event, bound to no flow. *)

val span_begin :
  t ->
  ts:Time.t ->
  sub:Subsystem.t ->
  ?cat:string ->
  ?flow:int ->
  ?args:(string * arg) list ->
  string ->
  span
(** Open a span; nothing is recorded until {!span_end}.  [flow] binds
    the eventual complete event to a flow. *)

val span_end : t -> ts:Time.t -> ?args:(string * arg) list -> span -> unit
(** Record the span as a complete event with its measured duration.
    [args] are appended to the ones given at {!span_begin}. *)

val flow_start :
  t ->
  ts:Time.t ->
  sub:Subsystem.t ->
  ?cat:string ->
  ?args:(string * arg) list ->
  flow:int ->
  string ->
  unit
(** The birth of flow [flow].  By convention the ["stream"] arg names
    the stream the flow belongs to (e.g. ["cam0"]); {!Audit} groups
    flows into streams by it.  No-op unless {!flows_on}. *)

val flow_step :
  t ->
  ts:Time.t ->
  sub:Subsystem.t ->
  ?cat:string ->
  ?args:(string * arg) list ->
  flow:int ->
  string ->
  unit
(** One hop of flow [flow]; the event name labels the stage ending at
    [ts].  No-op unless {!flows_on}. *)

val flow_end :
  t -> ts:Time.t -> sub:Subsystem.t -> ?cat:string -> flow:int -> string -> unit
(** The completion of flow [flow].  No-op unless {!flows_on}. *)

(** {1 Inspection} *)

val events : t -> event list
(** Retained events, oldest first, each record built from the store on
    demand: a fresh list on every call. *)

val length : t -> int

val dropped : t -> int
(** Events lost to ring wraparound since creation (or the last
    {!set_capacity}). *)

val merge : into:t -> t -> unit
(** Append [src]'s retained events to [into], as if they had been
    recorded there after everything [into] already holds: its slots
    are copied, with its interned ids mapped to [into]'s.  Flow ids
    are shifted past the ones [into] has allocated and [into]'s flow
    counter moves past [src]'s, so ids stay unique; [src]'s drop count
    adds to [into]'s.  Events pass through [into]'s ring and are kept
    only while [into] is enabled. *)

(** {1 Columns}

    The store read in place, without building records: what {!Audit}
    reads. *)

val iter_flow_events :
  t ->
  (ts:int -> flow:int -> phase:phase -> name:int -> args:int -> unit) ->
  unit
(** [iter_flow_events t f] calls [f] on each retained flow event
    ([Flow_start], [Flow_step] or [Flow_end]), oldest first, with its
    timestamp in ns and the ids of its name and arg list.  Equal ids
    mean equal names (or arg lists) within one sink. *)

val name_of_id : t -> int -> string
(** The name an id from {!iter_flow_events} stands for. *)

val args_of_id : t -> int -> (string * arg) list
(** The arg list an id from {!iter_flow_events} stands for. *)

(** {1 Export}

    One writer serves both formats, in memory and to a file: it renders
    one event at a time, rebuilt from the store, into one buffer that
    it passes on every 64 KB.  Exporting holds neither all the events
    as records nor the whole text, so writing a file needs little
    memory beyond the store's. *)

val to_chrome : t -> string
(** Chrome [trace_event] JSON, ending in a newline: [process_name]/
    [thread_name] metadata events name the process and one lane per
    subsystem, flow events carry phases [s]/[t]/[f] with their id,
    timestamps are in microseconds, and the drop count appears both
    under ["otherData"] and as a final [trace_dropped] metadata
    record. *)

val to_jsonl : t -> string
(** One JSON object per line, oldest first, terminated by a footer
    line [{"meta":"dropped","dropped":N}] carrying the ring's drop
    counter. *)

val write_chrome : t -> string -> unit
(** Write {!to_chrome}'s text to a file, creating or truncating it. *)

val write_jsonl : t -> string -> unit
(** Write {!to_jsonl}'s text to a file, creating or truncating it. *)
