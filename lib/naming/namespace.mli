(** Per-process name spaces, Plan-9 style.

    Every process starts with a name space, usually inherited from its
    parent and at least partly shared.  It has a {e local} part naming
    objects local to the process, and {e mounted} parts naming objects
    in other processes: a mount point holds a connection to a name
    space elsewhere, and resolution continues there by making lookup
    requests through the connection.

    There is deliberately no single root: the root of each tree is the
    most local thing, so local names are short and resolve fastest;
    longer paths generally name things further away.  Sharing works by
    convention (e.g. a subtree called [global]) rather than by a
    worldwide root. *)

type t

type resolution = {
  maillon : Maillon.t;
  cost : Sim.Time.t;  (** modelled resolution cost *)
  components : int;  (** path components walked *)
  mounts_crossed : int;
}

type error =
  | Not_found_at of string  (** the component that failed *)
  | Not_a_directory of string
  | Mount_cycle

val pp_error : Format.formatter -> error -> unit

val create : Sim.Metrics.t -> t
(** An empty name space counting its resolutions into the given
    registry ([naming/namespace.*]); {!fork}ed children count into the
    same one. *)

val bind : t -> path:string -> Maillon.t -> unit
(** Bind an object; intermediate directories are created.  Raises
    [Invalid_argument] if a directory already sits at [path]. *)

val mkdir : t -> path:string -> unit

val mount : t -> path:string -> target:t -> via:Relation.t -> unit
(** Graft another process's name space at [path].  Resolution crossing
    this point pays one {!Relation.lookup_cost} per lookup request. *)

val unmount : t -> path:string -> unit

val resolve : t -> string -> (resolution, error) result
(** Resolve a ['/']-separated path.  A leading '/' is permitted and
    ignored (the root is local). *)

val readdir : t -> string -> (string list, error) result
(** Names bound directly under a directory (in this namespace only —
    does not cross into mounts). *)

val fork : t -> t
(** A child's name space: starts as a copy of the parent's tree
    structure, sharing the same objects and mounts (the usual
    inherit-then-customise pattern). *)
