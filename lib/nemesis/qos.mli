(** The Quality-of-Service manager.

    A domain running above the primitive scheduler on a longer time
    scale.  It recalculates the scheduler weights (slices) from the
    user's policy — both when applications enter or leave and
    adaptively as they change behaviour — deliberately smoothing
    short-term variations in load.  Applications do not always get what
    they want; the [adapt] callback tells them what they did get so
    they can choose algorithms to fit (e.g. a coarser codec). *)

type t

val create : Kernel.t -> t
(** The manager reviews every 100 ms — an order of magnitude above
    scheduling decisions.  It hands out at most 0.9 of the CPU, keeping
    headroom for the system itself, and smooths observed utilisation
    with an EWMA coefficient of 0.3. *)

val register :
  t ->
  domain:Domain.t ->
  want:float ->
  ?adapt:(granted:float -> unit) ->
  unit ->
  unit
(** Put [domain] under management, asking for [want] of the CPU.
    Slices are recalculated immediately and on every review. *)

val unregister : t -> domain:Domain.t -> unit

val set_want : t -> domain:Domain.t -> float -> unit
(** Change an application's request (recalculated at the next review). *)

val granted : t -> domain:Domain.t -> float
(** Current CPU fraction granted.  Raises [Not_found] if unmanaged. *)

val utilisation : t -> domain:Domain.t -> float
(** Smoothed fraction of its grant the domain actually uses. *)

val reviews : t -> int
