(** Inter-domain communication: the protected ("local remote") procedure
    call.

    Exactly the construction the paper sketches for same-machine
    invocation: a pair of message queues in memory shared between the
    client and server domains, plus a pair of event channels.  The
    client enqueues a request and raises the server's event
    synchronously (handing over the processor); the server's handler
    job consumes the request and raises the client's event with the
    reply.  Marshalling is bytes-in, bytes-out, matching {!Maillon}
    method signatures upstairs. *)

type server

type conn

val serve :
  Kernel.t ->
  domain:Domain.t ->
  ?queue_depth:int ->
  (meth:string -> bytes -> bytes) ->
  server
(** Export a handler running inside [domain].  The handler job
    consumes 20 us of CPU per call; [queue_depth] (default 16) bounds
    the shared request queue. *)

val connect : Kernel.t -> client:Domain.t -> server -> conn
(** Set up the shared-memory queue pair and event channels. *)

type error = [ `Queue_full ]

val call :
  conn ->
  meth:string ->
  bytes ->
  reply:((bytes, error) result -> unit) ->
  unit
(** Invoke from within the client domain's execution (typically from a
    job completion).  [reply] runs inside the client when the reply
    event is delivered.  [`Queue_full] is immediate back-pressure. *)

val calls_served : server -> int
