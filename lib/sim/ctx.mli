(** Run context: the domain budget and the sinks a run records into.

    The caller of a run builds one context and owns its trace and
    registry; every engine the run builds records into them
    ({!engine}).  Nothing is ambient, so runs on two contexts share no
    mutable state and may execute at once on different domains.
    Independent pieces of one run (parallel rows, {!Shard} shards) run
    on {!child} contexts that merge back in task order, never in
    completion order, so what a context records does not depend on its
    domain count. *)

type t

val create : ?domains:int -> ?trace:Trace.t -> unit -> t
(** [domains] (default 1) is a parallelism budget, never a result
    parameter.  [trace] defaults to a fresh disabled sink; the registry
    is always fresh.  Raises [Invalid_argument] if [domains < 1]. *)

val domains : t -> int
val trace : t -> Trace.t
val metrics : t -> Metrics.t

val engine : t -> Engine.t
(** A fresh engine recording into the context's trace and registry. *)

val child : t -> t
(** One domain, a fresh registry and a fresh trace with the parent's
    settings ({!Trace.like}). *)

val merge : into:t -> t -> unit
(** Fold a child back: {!Metrics.merge} always, {!Trace.merge} when the
    parent's trace is enabled. *)

val map : t -> (t -> 'a) array -> 'a array
(** [map ctx tasks] runs each task on its own {!child} over
    [Par.map ~workers:(domains ctx)] and merges the children into [ctx]
    in task order.  Results come back in task order. *)
