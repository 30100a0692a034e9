type index = { mutable stamps : (Sim.Time.t * int) list (* newest first *) }

type t = {
  engine : Sim.Engine.t;
  log : Log.t;
  mutable admitted : int;
  indexes : (Log.fid, index) Hashtbl.t;
}

(* 128 Mbit/s = 16 MB/s, most of a 4-disk array. *)
let budget_bps = 128_000_000

let create engine ~log =
  {
    engine;
    log;
    admitted = 0;
    indexes = Hashtbl.create 16;
  }

let admitted_bps t = t.admitted

let admit t rate =
  if t.admitted + rate > budget_bps then false
  else begin
    t.admitted <- t.admitted + rate;
    true
  end

let release t rate = t.admitted <- t.admitted - rate

(* ---------------- Recording ---------------- *)

type recording = {
  r_owner : t;
  r_fid : Log.fid;
  r_rate : int;
  mutable r_pos : int;
  mutable r_live : bool;
}

let start_recording t ~rate_bps =
  if not (admit t rate_bps) then Error `Admission_denied
  else begin
    let fid = Log.create_file t.log ~kind:Log.Continuous () in
    Hashtbl.replace t.indexes fid { stamps = [] };
    Ok { r_owner = t; r_fid = fid; r_rate = rate_bps; r_pos = 0; r_live = true }
  end

let recording_fid r = r.r_fid

let write_chunk r ?data ~len k =
  let t = r.r_owner in
  Log.write t.log r.r_fid ~off:r.r_pos ?data ~len k;
  r.r_pos <- r.r_pos + len

let index_mark r ~stamp =
  let t = r.r_owner in
  match Hashtbl.find_opt t.indexes r.r_fid with
  | Some idx -> idx.stamps <- (stamp, r.r_pos) :: idx.stamps
  | None -> ()

let finish_recording t r =
  if r.r_live then begin
    r.r_live <- false;
    release t r.r_rate
  end

let index_size t ~fid =
  match Hashtbl.find_opt t.indexes fid with
  | Some idx -> List.length idx.stamps
  | None -> 0

(* ---------------- Playback ---------------- *)

type playback = {
  p_owner : t;
  p_fid : Log.fid;
  p_rate : int;
  p_chunk : int;
  mutable p_dir : [ `Forward | `Reverse ];
  mutable p_pos : int;
  mutable p_live : bool;
  mutable p_underruns : int;
  mutable p_played : int;
  p_on_chunk : (off:int -> unit) option;
  p_on_end : (unit -> unit) option;
}

let chunk_period p =
  Sim.Time.of_sec_f (Float.of_int (p.p_chunk * 8) /. Float.of_int p.p_rate)

let rec play_tick p =
  if p.p_live then begin
    let t = p.p_owner in
    let size = try Log.file_size t.log p.p_fid with Not_found -> 0 in
    let finished =
      match p.p_dir with
      | `Forward -> p.p_pos >= size
      | `Reverse -> p.p_pos < 0
    in
    if finished then begin
      p.p_live <- false;
      release t p.p_rate;
      match p.p_on_end with Some f -> f () | None -> ()
    end
    else begin
      let off = Stdlib.max 0 p.p_pos in
      let len = Stdlib.min p.p_chunk (size - off) in
      let deadline = Sim.Time.add (Sim.Engine.now t.engine) (chunk_period p) in
      Log.read t.log p.p_fid ~off ~len ~k:(fun _ ->
          if p.p_live then begin
            p.p_played <- p.p_played + 1;
            if Sim.Time.(Sim.Engine.now t.engine > deadline) then
              p.p_underruns <- p.p_underruns + 1;
            match p.p_on_chunk with Some f -> f ~off | None -> ()
          end);
      (match p.p_dir with
      | `Forward -> p.p_pos <- p.p_pos + p.p_chunk
      | `Reverse -> p.p_pos <- p.p_pos - p.p_chunk);
      ignore
        (Sim.Engine.schedule t.engine ~delay:(chunk_period p) (fun () ->
             play_tick p))
    end
  end

let start_playback t ~fid ~rate_bps ?(chunk_bytes = 65536)
    ?(direction = `Forward) ?on_chunk ?on_end () =
  if not (Log.file_exists t.log fid) then Error `No_such_file
  else if not (admit t rate_bps) then Error `Admission_denied
  else begin
    let size = Log.file_size t.log fid in
    let start = match direction with `Forward -> 0 | `Reverse -> size - chunk_bytes in
    let p =
      {
        p_owner = t;
        p_fid = fid;
        p_rate = rate_bps;
        p_chunk = chunk_bytes;
        p_dir = direction;
        p_pos = start;
        p_live = true;
        p_underruns = 0;
        p_played = 0;
        p_on_chunk = on_chunk;
        p_on_end = on_end;
      }
    in
    play_tick p;
    Ok p
  end

let seek_stamp p stamp =
  let t = p.p_owner in
  match Hashtbl.find_opt t.indexes p.p_fid with
  | None -> ()
  | Some idx ->
      (* Newest-first list: find the latest mark at or before [stamp]. *)
      let rec find best = function
        | [] -> best
        | (s, off) :: rest ->
            let best =
              match best with
              | Some (bs, _) when Sim.Time.(s <= stamp) && Sim.Time.(s > bs) ->
                  Some (s, off)
              | None when Sim.Time.(s <= stamp) -> Some (s, off)
              | other -> other
            in
            find best rest
      in
      (match find None idx.stamps with
      | Some (_, off) -> p.p_pos <- off
      | None -> p.p_pos <- 0)

let position p = p.p_pos

let stop_playback t p =
  if p.p_live then begin
    p.p_live <- false;
    release t p.p_rate
  end

let underruns p = p.p_underruns
let chunks_played p = p.p_played
