type t = {
  engine : Sim.Engine.t;
  vc : Net.vc;
  peak_period : Sim.Time.t;
  mean_on_s : float;
  mean_off_s : float;
  rng : Sim.Rng.t;
  mutable on_until : Sim.Time.t;
  mutable running : bool;
  mutable sent : int;
}

let on_off engine ~vc ~peak_bps ~mean_on ~mean_off ~rng =
  {
    engine;
    vc;
    peak_period =
      Sim.Time.of_sec_f (Float.of_int Cell.wire_bits /. Float.of_int peak_bps);
    mean_on_s = Sim.Time.to_sec_f mean_on;
    mean_off_s = Sim.Time.to_sec_f mean_off;
    rng;
    on_until = Sim.Time.zero;
    running = false;
    sent = 0;
  }

let rec tick t =
  if t.running then begin
    let now = Sim.Engine.now t.engine in
    if Sim.Time.(now < t.on_until) then begin
      Net.send t.vc (Cell.make_blank ~vci:0 ~last:true);
      t.sent <- t.sent + 1;
      ignore
        (Sim.Engine.schedule t.engine ~delay:t.peak_period (fun () -> tick t))
    end
    else begin
      (* Begin an OFF period, then a fresh ON burst. *)
      let off = Sim.Rng.exponential t.rng ~mean:t.mean_off_s in
      let on = Sim.Rng.exponential t.rng ~mean:t.mean_on_s in
      let resume = Sim.Time.add now (Sim.Time.of_sec_f off) in
      t.on_until <- Sim.Time.add resume (Sim.Time.of_sec_f on);
      ignore (Sim.Engine.schedule_at t.engine ~at:resume (fun () -> tick t))
    end
  end

let start t =
  if not t.running then begin
    t.running <- true;
    let on = Sim.Rng.exponential t.rng ~mean:t.mean_on_s in
    t.on_until <- Sim.Time.add (Sim.Engine.now t.engine) (Sim.Time.of_sec_f on);
    tick t
  end

let stop t = t.running <- false
let cells_sent t = t.sent
