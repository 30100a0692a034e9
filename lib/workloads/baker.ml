type ops = {
  op_create : unit -> int;
  op_write : fid:int -> off:int -> len:int -> unit;
  op_overwrite : fid:int -> len:int -> unit;
  op_delete : fid:int -> unit;
}

type t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  ops : ops;
  create_rate : float;
  short_mean : float;  (* seconds *)
  long_mean : float;
  size_median : int;
  mutable running : bool;
  mutable created : int;
  mutable deleted : int;
  mutable overwritten : int;
  mutable lives_done : int;
  mutable lives_short : int;
}

(* Baker et al.'s figure: 70 % of files die young. *)
let p_short = 0.7

(* Half of the deaths are overwrites, half deletes. *)
let overwrite_fraction = 0.5

let create engine ~rng ~ops ?(create_rate = 2.0)
    ?(short_mean = Sim.Time.sec 10) ?(long_mean = Sim.Time.sec 600)
    ?(size_median = 8192) () =
  {
    engine;
    rng;
    ops;
    create_rate;
    short_mean = Sim.Time.to_sec_f short_mean;
    long_mean = Sim.Time.to_sec_f long_mean;
    size_median;
    running = false;
    created = 0;
    deleted = 0;
    overwritten = 0;
    lives_done = 0;
    lives_short = 0;
  }

let draw_size t =
  (* Lognormal around the median with sigma ~ 1.2: a few bytes to a
     few hundred kilobytes, like the Sprite traces. *)
  let mu = log (Float.of_int t.size_median) in
  Int.max 64 (Float.to_int (Sim.Rng.lognormal t.rng ~mu ~sigma:1.2))

let draw_lifetime t =
  if Sim.Rng.float t.rng < p_short then
    Sim.Rng.exponential t.rng ~mean:t.short_mean
  else Sim.Rng.exponential t.rng ~mean:t.long_mean

let note_life t seconds =
  t.lives_done <- t.lives_done + 1;
  if seconds < 30.0 then t.lives_short <- t.lives_short + 1

(* Schedule the end of a file's current life.  The lifetime is counted
   at draw time so that a finite run does not censor the long tail. *)
let rec schedule_death t fid =
  let life = draw_lifetime t in
  note_life t life;
  ignore
    (Sim.Engine.schedule t.engine ~delay:(Sim.Time.of_sec_f life) (fun () ->
         if Sim.Rng.float t.rng < overwrite_fraction then begin
           let size = draw_size t in
           t.overwritten <- t.overwritten + 1;
           t.ops.op_overwrite ~fid ~len:size;
           schedule_death t fid
         end
         else begin
           t.deleted <- t.deleted + 1;
           t.ops.op_delete ~fid
         end))

let rec arrival t =
  if t.running then begin
    let fid = t.ops.op_create () in
    let size = draw_size t in
    t.created <- t.created + 1;
    t.ops.op_write ~fid ~off:0 ~len:size;
    schedule_death t fid;
    let gap = Sim.Rng.exponential t.rng ~mean:(1.0 /. t.create_rate) in
    ignore
      (Sim.Engine.schedule t.engine ~delay:(Sim.Time.of_sec_f gap) (fun () ->
           arrival t))
  end

let start t =
  if not t.running then begin
    t.running <- true;
    arrival t
  end

let stop t = t.running <- false
let files_created t = t.created
let deletes t = t.deleted
let overwrites t = t.overwritten

let short_lived_fraction t =
  if t.lives_done = 0 then 0.0
  else Float.of_int t.lives_short /. Float.of_int t.lives_done
