(** Object handles as maillons (Maisonneuve, Shapiro & Collet 1992).

    A maillon is an opaque, fixed-size object reference together with a
    function that returns the address of the object's interface when
    called with the reference.  The extra indirection lets connections
    be set up — or objects be fetched — lazily before first invocation,
    while in the common case (the object is there) it costs almost
    nothing: the resolved interface is cached. *)

(** An interface: an abstract data type presented as named methods.
    All methods take and return bytes, which keeps local and remote
    invocation uniform. *)
type iface

val iface : (string * (bytes -> bytes)) list -> iface
val methods : iface -> string list

type error = No_such_method of string

type t

val make : reference:string -> resolve:(string -> iface) -> t
(** [resolve] is called (once) with the reference on first use. *)

val of_iface : reference:string -> iface -> t
(** A maillon for an object that is already present. *)

val reference : t -> string

val resolved : t -> bool

val invoke : t -> meth:string -> bytes -> (bytes, error) result

val resolutions : t -> int
(** Times the resolver ran (0 or 1 unless {!invalidate}d). *)

val invocations : t -> int

val invalidate : t -> unit
(** Drop the cached interface — e.g. the object migrated; the next
    invocation re-resolves, possibly to different interface code. *)

(** {1 Connections}

    Passing an object handle to another process has the side effect of
    creating a connection through which the object can be invoked
    remotely.  [import] models the receiving side: a new maillon whose
    resolver sets up that connection. *)

val import : t -> wrap:(iface -> iface) -> t
(** The importer's maillon; [wrap] interposes whatever stub behaviour
    the domain relation requires (marshalling, caching clerk, ...). *)
