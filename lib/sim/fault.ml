type t = {
  engine : Engine.t;
  rng : Rng.t;
  m_events : Metrics.counter;
  mutable injected : int;
}

let create ?(seed = 0x0FA17FA17L) engine =
  {
    engine;
    rng = Rng.create ~seed ();
    m_events =
      Metrics.counter (Engine.metrics engine) ~sub:Subsystem.Sim
        ~help:"fault transitions injected (downs, ups, spike edges)"
        "fault.events";
    injected = 0;
  }

let rng t = t.rng
let events_injected t = t.injected

let mark t name =
  t.injected <- t.injected + 1;
  Metrics.incr t.m_events;
  let tr = Engine.trace t.engine in
  if Trace.enabled tr then
    Trace.instant tr ~ts:(Engine.now t.engine) ~sub:Subsystem.Sim ~cat:"fault"
      name

let window t ~at ~duration ~down ~up =
  let at = Time.max at (Engine.now t.engine) in
  ignore
    (Engine.schedule_at t.engine ~at (fun () ->
         mark t "window.down";
         down ()));
  ignore
    (Engine.schedule_at t.engine ~at:(Time.add at duration) (fun () ->
         mark t "window.up";
         up ()))

let draw_exp t mean =
  Time.of_sec_f (Rng.exponential t.rng ~mean:(Time.to_sec_f mean))

let outages t ~span ~mean_up ~mean_down ~down ~up () =
  let start = Engine.now t.engine in
  let stop = Time.add start span in
  let rec healthy_from at =
    let fail_at = Time.add at (draw_exp t mean_up) in
    if Time.(fail_at < stop) then
      ignore
        (Engine.schedule_at t.engine ~at:fail_at (fun () ->
             mark t "outage.down";
             down ();
             let heal_at = Time.min stop (Time.add fail_at (draw_exp t mean_down)) in
             ignore
               (Engine.schedule_at t.engine ~at:heal_at (fun () ->
                    mark t "outage.up";
                    up ();
                    healthy_from heal_at))))
  in
  healthy_from start
