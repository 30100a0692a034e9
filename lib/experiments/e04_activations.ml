(* One application domain sharing the CPU with a competitor: the app
   carries long decode jobs and a periodic urgent job with a tight
   deadline.  An Informed domain re-enters its user-level scheduler at
   every activation and runs EDF over its threads; an Opaque domain is
   resumed where it was preempted, like a suspended Unix process, so
   the urgent thread waits behind the decode. *)

let scenario ctx ~mode ~urgent_period ~duration =
  let e = Sim.Ctx.engine ctx in
  let k = Nemesis.Kernel.create e ~policy:(Nemesis.Policy.atropos ()) () in
  let app =
    Nemesis.Domain.create ~name:"app" ~mode ~period:(Sim.Time.ms 10)
      ~slice:(Sim.Time.ms 5) ~extra:false ()
  in
  let other =
    Nemesis.Domain.create ~name:"other" ~period:(Sim.Time.ms 10)
      ~slice:(Sim.Time.ms 4) ~extra:false ()
  in
  Nemesis.Kernel.add_domain k app;
  Nemesis.Kernel.add_domain k other;
  Nemesis.Kernel.submit k other
    (Nemesis.Job.make ~label:"competitor" ~work:(Sim.Time.sec 3600)
       ~created:Sim.Time.zero ());
  (* A stream of long best-effort decodes keeps the app busy... *)
  Sim.Engine.every ~daemon:true e ~period:(Sim.Time.ms 50) (fun () ->
      Nemesis.Kernel.submit k app
        (Nemesis.Job.make ~label:"decode" ~work:(Sim.Time.ms 20)
           ~created:(Sim.Engine.now e) ());
      true);
  (* ...while small urgent jobs arrive with tight deadlines. *)
  let urgent_latency = Sim.Stats.Samples.create () in
  Sim.Engine.every ~daemon:true e ~period:urgent_period (fun () ->
      let created = Sim.Engine.now e in
      Nemesis.Kernel.submit k app
        (Nemesis.Job.make ~label:"urgent" ~work:(Sim.Time.us 500)
           ~deadline:(Sim.Time.add created (Sim.Time.ms 10))
           ~on_complete:(fun () ->
             Sim.Stats.Samples.add urgent_latency
               (Sim.Time.to_us_f (Sim.Time.sub (Sim.Engine.now e) created)))
           ~created ());
      true);
  Sim.Engine.run e ~until:duration;
  let misses = Nemesis.Domain.deadline_misses app in
  let urgent_count = Sim.Stats.Samples.count urgent_latency in
  let p95 =
    if urgent_count = 0 then 0.0
    else Sim.Stats.Samples.percentile urgent_latency 95.0
  in
  (misses, urgent_count, p95, Nemesis.Domain.activations app)

let run ctx =
  let duration = Sim.Time.sec 10 in
  let case label mode =
    let misses, count, p95, activations =
      scenario ctx ~mode ~urgent_period:(Sim.Time.ms 25) ~duration
    in
    [
      label;
      string_of_int misses;
      string_of_int count;
      Table.cell_time_us p95;
      string_of_int activations;
    ]
  in
  Table.make ~id:"E4" ~title:"Scheduler activations vs transparent resumption"
    ~claim:
      "Telling the domain when it has the processor lets its user-level \
       scheduler run the urgent thread first; transparently resumed domains \
       finish whatever was preempted."
    ~columns:
      [
        "thread scheduling";
        "deadline misses";
        "urgent jobs";
        "urgent p95 latency";
        "activations";
      ]
    ~notes:
      [
        "Identical workload: a 20ms decode every 50ms plus a 0.5ms urgent job \
         every 25ms with a 10ms deadline, against a competing domain that \
         forces preemptions.";
      ]
    [
      case "informed (activation upcall)" Nemesis.Domain.Informed;
      case "opaque (resume where preempted)" Nemesis.Domain.Opaque;
    ]
