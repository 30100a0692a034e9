(** Domain-parallel execution.

    A thin layer over [Domain]: run workers, make them meet at a
    barrier, map tasks.  Everything here is deliberately oblivious to
    simulation state; determinism is the caller's job (see {!Shard} and
    {!Ctx.map}). *)

val run : workers:int -> (worker:int -> sync:(unit -> unit) -> unit) -> unit
(** [run ~workers f] executes [f ~worker ~sync] once per worker, with
    [worker] in [0 .. workers-1]; worker 0 runs on the calling domain.
    [sync] is a reusable barrier shared by every worker: each call
    blocks until all [workers] have called it the same number of times.
    Returns once every worker has finished.  If any worker raises, the
    barrier is poisoned (blocked workers are released by a [Barrier_poisoned]
    exception) and the first worker's exception is re-raised after all
    domains are joined.

    Raises [Invalid_argument] if [workers < 1]. *)

exception Barrier_poisoned
(** Raised from [sync] in surviving workers after another worker died. *)

val map : workers:int -> (unit -> 'a) array -> 'a array
(** [map ~workers tasks] runs every task and returns their results in
    input order.  Task [i] runs on worker [i mod workers], so the
    assignment — and, for tasks free of shared state, the result — is
    independent of the worker count.  Exceptions are re-raised on the
    caller, lowest task index first. *)
