(** Synthetic Unix file traffic calibrated to Baker et al. [1991].

    The measurement the paper leans on: 70 % of files are deleted or
    overwritten within 30 seconds of being written.  The generator
    creates files at a Poisson rate; each file draws a lognormal size
    and a lifetime from a two-population mixture (a short-lived mass
    below 30 s and a long-lived tail).  At end of life the file is
    deleted or overwritten (an overwrite restarts the lifetime
    clock). *)

(** What the generator drives — wire these to a file-system model. *)
type ops = {
  op_create : unit -> int;  (** returns the new file's id *)
  op_write : fid:int -> off:int -> len:int -> unit;
  op_overwrite : fid:int -> len:int -> unit;
  op_delete : fid:int -> unit;
}

type t

val create :
  Sim.Engine.t ->
  rng:Sim.Rng.t ->
  ops:ops ->
  ?create_rate:float ->
  ?short_mean:Sim.Time.t ->
  ?long_mean:Sim.Time.t ->
  ?size_median:int ->
  unit ->
  t
(** A life is short with probability 0.7 (the Baker figure), and half
    of deaths are overwrites.  Defaults: 2 files/s, short lives
    averaging 10 s (so the short mass falls within 30 s), long lives
    averaging 10 min, 8 KB median size. *)

val start : t -> unit
val stop : t -> unit
(** Stops creating; lifetimes already scheduled still play out. *)

val files_created : t -> int
val deletes : t -> int
val overwrites : t -> int

val short_lived_fraction : t -> float
(** Fraction of drawn lifetimes under 30 s (counted at draw time so a
    finite run does not censor the long tail) — should come out near
    0.7. *)
