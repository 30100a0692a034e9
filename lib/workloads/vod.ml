type ops = {
  op_read : client:int -> fid:int -> off:int -> len:int -> k:(unit -> unit) -> unit;
}

type t = {
  engine : Sim.Engine.t;
  ops : ops;
  client_rngs : Sim.Rng.t array;
  files : int;
  chunks : int;
  read_bytes : int;
  zipf_s : float;
  flip_at : Sim.Time.t option;
  stop_at : Sim.Time.t option;
  mutable started : int;
  mutable bytes : int;
}

(* Mean client think time between reads, in seconds. *)
let think_mean = Sim.Time.to_sec_f (Sim.Time.ms 40)

let create engine ~rng ~ops ~clients ~files ~file_bytes ?(read_bytes = 65_536)
    ?(zipf_s = 1.1) ?flip_at ?stop_at () =
  if clients < 1 then invalid_arg "Vod.create: clients must be >= 1";
  if files < 2 then invalid_arg "Vod.create: files must be >= 2";
  if read_bytes < 1 || read_bytes > file_bytes then
    invalid_arg "Vod.create: read_bytes must fit in file_bytes";
  {
    engine;
    ops;
    client_rngs = Array.init clients (fun _ -> Sim.Rng.split rng);
    files;
    chunks = file_bytes / read_bytes;
    read_bytes;
    zipf_s;
    flip_at;
    stop_at;
    started = 0;
    bytes = 0;
  }

let flipped t =
  match t.flip_at with
  | None -> false
  | Some at -> Sim.Time.(Sim.Engine.now t.engine >= at)

(* Rank 1 maps to file 0 before the flip and to the title half a
   catalogue away after it — the scripted flash crowd. *)
let rank_to_fid t rank =
  let shift = if flipped t then t.files / 2 else 0 in
  (rank - 1 + shift) mod t.files

let stopped t =
  match t.stop_at with
  | None -> false
  | Some at -> Sim.Time.(Sim.Engine.now t.engine >= at)

let client_loop t c =
  let rng = t.client_rngs.(c) in
  let rec think () =
    let delay = Sim.Time.of_sec_f (Sim.Rng.exponential rng ~mean:think_mean) in
    ignore (Sim.Engine.schedule t.engine ~delay request)
  and request () =
    if not (stopped t) then begin
      let rank = Sim.Rng.zipf rng ~n:t.files ~s:t.zipf_s in
      let fid = rank_to_fid t rank in
      let off = Sim.Rng.int rng t.chunks * t.read_bytes in
      t.started <- t.started + 1;
      t.ops.op_read ~client:c ~fid ~off ~len:t.read_bytes ~k:(fun () ->
          t.bytes <- t.bytes + t.read_bytes;
          think ())
    end
  in
  think ()

let start t =
  for c = 0 to Array.length t.client_rngs - 1 do
    client_loop t c
  done

let reads_started t = t.started
let bytes_read t = t.bytes
