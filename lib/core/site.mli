(** A Pegasus site (paper Figure 4).

    One ATM backbone switch interconnecting multimedia workstations,
    compute servers, the storage server and Unix boxes.  The site also
    holds the conventional ["global"] name tree that every node mounts
    — global only in the sense that anything can be named through it,
    not because it is anyone's root. *)

type t

val create : Sim.Engine.t -> t
(** The backbone is a 32-port Fairisle-style switch. *)

val engine : t -> Sim.Engine.t
val net : t -> Atm.Net.t

val add_host : t -> name:string -> Atm.Net.node_id
(** Attach a plain host (e.g. a Unix box) to the backbone. *)

val add_switch : t -> name:string -> Atm.Net.node_id
(** Attach an 8-port subsidiary switch (a workstation's desk-area
    network). *)

val publish : t -> path:string -> Naming.Maillon.t -> unit
(** Bind an object into the site-wide name tree. *)

val mount_directory : t -> into:Naming.Namespace.t -> rtt:Sim.Time.t -> unit
(** Mount the site-wide name tree at ["global"] in a node's
    namespace. *)
