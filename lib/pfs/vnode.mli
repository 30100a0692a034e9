(** The Unix v-node interface over the log-structured core.

    "Higher-level services are being added; a Unix v-node interface is
    installed which allows the storage system to be used as a Unix
    file system."  This is that service stack: hierarchical
    directories, path-based operations and attributes, all stored in
    the log (directories are ordinary files of entries, so they become
    garbage and get cleaned like everything else).  The normal stack
    runs through the block {!Cache}; continuous files don't come
    through here. *)

type t

type error =
  [ `Not_found
  | `Not_a_directory
  | `Is_a_directory
  | `Already_exists
  | `Not_empty
  | `Lost ]

val pp_error : Format.formatter -> error -> unit

type attrs = {
  size : int;
  is_dir : bool;
  ctime : Sim.Time.t;
  mtime : Sim.Time.t;
}

val create : Sim.Engine.t -> log:Log.t -> t
(** Mount a fresh tree on the log, with a buffer cache of 2048 4 KB
    blocks (8 MB) consulted on reads. *)

val log : t -> Log.t
val cache : t -> Cache.t

(** All operations are continuation-passing; paths are '/'-separated
    and relative to the root. *)

val mkdir : t -> string -> ((unit, error) result -> unit) -> unit
val creat : t -> string -> ((unit, error) result -> unit) -> unit

val write :
  t -> string -> off:int -> ?data:bytes -> len:int ->
  ((unit, error) result -> unit) -> unit
(** Extends the file as needed.  Fails with [`Not_found] if the file
    does not exist (use {!creat} first). *)

val read :
  t -> string -> off:int -> len:int ->
  ((bytes option, error) result -> unit) -> unit
(** Bytes are returned when the RAID stores data.  Reads past the end
    are truncated; reading a hole yields zeros. *)

val unlink : t -> string -> ((unit, error) result -> unit) -> unit
(** Remove a file (not a directory). *)

val rmdir : t -> string -> ((unit, error) result -> unit) -> unit
(** Remove an empty directory. *)

val rename : t -> string -> string -> ((unit, error) result -> unit) -> unit
(** Move a file or directory; the destination must not exist. *)

val stat : t -> string -> ((attrs, error) result -> unit) -> unit
val readdir : t -> string -> ((string list, error) result -> unit) -> unit
val exists : t -> string -> bool
