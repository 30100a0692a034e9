(** The "domain relation" between invoker and object, and the cost of
    an invocation across it.

    When invoker and object share a protection domain, method
    invocation is a procedure call; on the same machine (same address
    space, different protection domains) it is a protected call; across
    machines it is a remote procedure call.  The constants are
    representative of early-90s hardware and are the knobs of
    experiment E7. *)

type t =
  | Same_domain
  | Same_machine
  | Remote of Sim.Time.t  (** measured round-trip time of the RPC path *)

val maillon_overhead : Sim.Time.t
(** ~20 ns: the extra indirection through the maillon in the common
    (already-resolved) case. *)

val invocation_cost : t -> Sim.Time.t
(** Cost of one method invocation across the relation: ~50 ns for the
    procedure call (an indirect call), plus ~15 us for a protected call
    (trap, protection-domain switch and return on a 1994 CPU) or the
    RPC round trip.  Maillon overhead is excluded — add it for
    handle-based calls. *)

val lookup_cost : t -> Sim.Time.t
(** Cost of one name-lookup request across the relation (a lookup is
    an invocation of the remote name server). *)
