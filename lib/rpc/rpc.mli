(** Remote procedure call over the ATM network.

    Modelled on the Pegasus design: ANSA-style request/response layered
    on MSNA over AAL5.  A {!conn} is a pair of virtual circuits.  Calls
    are continuation-passing (the simulator cannot block); delivery is
    at-most-once — duplicate requests caused by retransmission are
    answered from a reply cache, never re-executed. *)

module Wire : module type of Wire
module Bulk : module type of Bulk

type endpoint

type conn

type error =
  | Timed_out  (** all retransmissions exhausted *)
  | No_such_interface of string
  | No_such_method of string
  | Remote_error of string

val pp_error : Format.formatter -> error -> unit

val error_of_payload : string -> error
(** Decode an error-reply payload.  Tagged payloads ("I:iface",
    "M:meth", "E:msg") map to the corresponding constructor; anything
    else — including strings that merely begin with a tag letter — is
    [Remote_error] of the whole string.  Exposed for testing. *)

val endpoint : ?reply_cache_cap:int -> Atm.Net.t -> host:Atm.Net.node_id -> endpoint
(** At most one endpoint per host.  [reply_cache_cap] (default 512)
    bounds the at-most-once reply cache: the oldest cached replies are
    evicted first, so a client retransmitting a very old call may, in
    the worst case, see it re-executed — the standard trade of memory
    against the at-most-once window. *)

val serve :
  endpoint ->
  iface:string ->
  (meth:string -> bytes -> (bytes, string) result) ->
  unit
(** Export an interface whose handler replies at once. *)

val serve_flow :
  endpoint ->
  iface:string ->
  (meth:string ->
   flow:int ->
   bytes ->
   reply:((bytes, string) result -> unit) ->
   unit) ->
  unit
(** Like {!serve}, for handlers that complete asynchronously (e.g. a
    file server whose reads finish when the disk does): call [reply]
    exactly once, at any later simulated time.  The handler also
    receives the causal flow id carried by the request
    ({!Sim.Trace.no_flow} when untraced), so it can thread the flow
    into the subsystems it drives — the file server passes it down to
    the PFS log, RAID and disks. *)

val connect :
  Atm.Net.t ->
  client:endpoint ->
  server:endpoint ->
  ?retransmit:Sim.Time.t ->
  ?seed:int64 ->
  ?max_tries:int ->
  unit ->
  conn
(** Establish the VC pair.  Retransmission backs off exponentially from
    [retransmit] (default 10 ms), capped at 500 ms, each delay scaled by
    a uniform factor in [1 ± 0.1] drawn from a deterministic
    per-connection stream seeded by [seed].  [max_tries]
    (default 4) bounds the attempts before [Timed_out]. *)

val call :
  conn ->
  iface:string ->
  meth:string ->
  bytes ->
  reply:((bytes, error) result -> unit) ->
  unit
(** When flow tracing is on ({!Sim.Trace.flows_on}), every invocation
    is one causal flow named ["rpc:iface.meth"], spanning request
    transit, server execution and reply transit; the id rides the
    frames' cells as simulation metadata (the wire format is
    unchanged). *)

(** {1 Statistics} *)

val calls_sent : conn -> int
val retransmissions : conn -> int
val duplicates_suppressed : endpoint -> int

val reply_cache_size : endpoint -> int
(** Live entries in the bounded reply cache (never exceeds the cap). *)

val in_progress_size : endpoint -> int
(** Calls accepted but not yet answered. *)
