(** Synthetic cross traffic for loading links and switches. *)

type t

val on_off :
  Sim.Engine.t ->
  vc:Net.vc ->
  peak_bps:int ->
  mean_on:Sim.Time.t ->
  mean_off:Sim.Time.t ->
  rng:Sim.Rng.t ->
  t
(** Bursty source: exponentially distributed ON periods at [peak_bps]
    alternating with silent OFF periods. *)

val start : t -> unit
val stop : t -> unit
val cells_sent : t -> int
