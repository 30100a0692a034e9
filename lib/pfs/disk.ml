(* The sustained media rate (6 MB/s), track-to-track and full-stroke
   seeks, half a turn at 7200 rpm, and the capacity in bytes. *)
let transfer_bps = 48_000_000
let min_seek = Sim.Time.ms 2
let max_seek = Sim.Time.ms 12
let half_rotation = Sim.Time.us 4170
let capacity = 2_000_000_000

type error = [ `Failed ]

type t = {
  engine : Sim.Engine.t;
  disk_name : string;
  mutable head : int;  (* byte position after the last operation *)
  mutable free_at : Sim.Time.t;  (* when the mechanism goes idle *)
  mutable is_failed : bool;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable wbytes : int;
  mutable busy : Sim.Time.t;
  mutable seeking : Sim.Time.t;
}

let create engine ~name =
  {
    engine;
    disk_name = name;
    head = 0;
    free_at = Sim.Time.zero;
    is_failed = false;
    n_reads = 0;
    n_writes = 0;
    wbytes = 0;
    busy = Sim.Time.zero;
    seeking = Sim.Time.zero;
  }


let transfer_time len =
  Sim.Time.of_sec_f (Float.of_int (len * 8) /. Float.of_int transfer_bps)

(* Seek from the current head position: zero when perfectly
   sequential, otherwise min_seek plus a square-root profile of the
   distance (arm acceleration), plus half a rotation. *)
let positioning_time t ~off =
  if off = t.head then Sim.Time.zero
  else begin
    let dist = Float.of_int (abs (off - t.head)) in
    let frac = sqrt (dist /. Float.of_int capacity) in
    let spread = Sim.Time.to_sec_f (Sim.Time.sub max_seek min_seek) *. frac in
    Sim.Time.add
      (Sim.Time.add min_seek (Sim.Time.of_sec_f spread))
      half_rotation
  end

let submit t ~flow ~off ~len ~k =
  if t.is_failed then k (Error `Failed)
  else begin
    let now = Sim.Engine.now t.engine in
    let start = Sim.Time.max now t.free_at in
    let seek = positioning_time t ~off in
    let xfer = transfer_time len in
    let finish = Sim.Time.add (Sim.Time.add start seek) xfer in
    t.free_at <- finish;
    t.head <- off + len;
    t.busy <- Sim.Time.add t.busy (Sim.Time.add seek xfer);
    t.seeking <- Sim.Time.add t.seeking seek;
    ignore
      (Sim.Engine.schedule_at t.engine ~at:finish (fun () ->
           (if flow >= 0 then
              let tr = Sim.Engine.trace t.engine in
              if Sim.Trace.flows_on tr then
                Sim.Trace.flow_step tr ~ts:finish ~sub:Sim.Subsystem.Pfs
                  ~cat:"pfs"
                  ~args:[ ("disk", Sim.Trace.Str t.disk_name) ]
                  ~flow "pfs.disk");
           if t.is_failed then k (Error `Failed) else k (Ok ())))
  end

let read ?(flow = Sim.Trace.no_flow) t ~off ~len ~k =
  t.n_reads <- t.n_reads + 1;
  submit t ~flow ~off ~len ~k

let write ?(flow = Sim.Trace.no_flow) t ~off ~len ~k =
  t.n_writes <- t.n_writes + 1;
  t.wbytes <- t.wbytes + len;
  submit t ~flow ~off ~len ~k

let fail t = t.is_failed <- true
let repair t = t.is_failed <- false
let failed t = t.is_failed

let fail_at t ~at =
  ignore
    (Sim.Engine.schedule_at t.engine
       ~at:(Sim.Time.max at (Sim.Engine.now t.engine))
       (fun () -> fail t))

let fail_for t ~at ~duration =
  let at = Sim.Time.max at (Sim.Engine.now t.engine) in
  ignore (Sim.Engine.schedule_at t.engine ~at (fun () -> fail t));
  ignore
    (Sim.Engine.schedule_at t.engine ~at:(Sim.Time.add at duration) (fun () ->
         repair t))

let head t = t.head
let reads t = t.n_reads
let writes t = t.n_writes
let bytes_written t = t.wbytes
let busy_time t = t.busy
let seek_time t = t.seeking
