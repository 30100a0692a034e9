(** The instants of a window's consecutive cells, as runs.

    A run is [count] instants [first + j * step] for [j] in
    [\[0, count)].  The train path hands a window's cell instants from
    hop to hop in this form: a frame paced at line rate is one run
    however many cells it has, so a hop's cost follows the number of
    runs, not of cells.  Instants are absolute ns and non-decreasing
    across the whole sequence.  A value is immutable. *)

type t

val of_runs : ?shift:int -> int array -> t
(** Runs laid out three ints each, [first; step; count], every instant
    later by [shift] (default 0).  The array is taken, not copied: the
    caller must not write it afterwards.  Raises [Invalid_argument]
    when the layout is empty or not a multiple of three, or a run has
    [count < 1] or [step < 0]. *)

val shift : t -> int -> t
(** Every instant later by the given ns. *)

val cells : t -> int
(** Instants in all runs. *)

val first : t -> int
val last : t -> int

val runs : t -> int
val run_first : t -> int -> int
val run_step : t -> int -> int
val run_count : t -> int -> int
(** Run [r]'s first instant (shift included), step and count. *)

val count_after : t -> int -> int
(** Instants strictly after the given one: O(runs). *)

val iter : (int -> unit) -> t -> unit
(** Every instant, in order. *)
