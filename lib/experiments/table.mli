(** Result tables for the paper-claim experiments.

    Every experiment produces one of these; the CLI prints them, and
    EXPERIMENTS.md records them. *)

type t = {
  id : string;  (** e.g. "E1" *)
  title : string;
  claim : string;  (** the paper's words being checked *)
  columns : string list;
  rows : string list list;
  notes : string list;
}

val make :
  id:string ->
  title:string ->
  claim:string ->
  columns:string list ->
  ?notes:string list ->
  string list list ->
  t

val pp : Format.formatter -> t -> unit
(** Aligned, boxed rendering. *)

val cell_f : float -> string
(** Format a float compactly (3 significant-ish digits). *)

val cell_time_us : float -> string
(** Format a microsecond quantity with an adaptive unit. *)
