(* Two real-time domains consume ~40% of the CPU inside their
   guarantees.  Three best-effort domains with deliberately unequal
   (tiny) guaranteed shares ask for extra time.  The slack policy
   decides how the remaining ~60% is divided. *)

let scenario ctx ~slack ~duration =
  let e = Sim.Ctx.engine ctx in
  let k =
    Nemesis.Kernel.create e ~policy:(Nemesis.Policy.atropos ~slack ()) ()
  in
  let rt1 =
    Nemesis.Domain.create ~name:"video" ~period:(Sim.Time.ms 40)
      ~slice:(Sim.Time.ms 14) ~extra:false ()
  in
  let rt2 =
    Nemesis.Domain.create ~name:"audio" ~period:(Sim.Time.ms 10)
      ~slice:(Sim.Time.ms 1) ~extra:false ()
  in
  let batch =
    List.map
      (fun (name, slice) ->
        Nemesis.Domain.create ~name ~period:(Sim.Time.ms 100)
          ~slice:(Sim.Time.ms slice) ~extra:true ())
      [ ("batch-a", 1); ("batch-b", 2); ("batch-c", 4) ]
  in
  List.iter (Nemesis.Kernel.add_domain k) (rt1 :: rt2 :: batch);
  Sim.Engine.every ~daemon:true e ~period:(Sim.Time.ms 40) (fun () ->
      Nemesis.Kernel.submit k rt1
        (Nemesis.Job.make ~label:"frame" ~work:(Sim.Time.ms 12)
           ~deadline:(Sim.Time.add (Sim.Engine.now e) (Sim.Time.ms 40))
           ~created:(Sim.Engine.now e) ());
      true);
  Sim.Engine.every ~daemon:true e ~period:(Sim.Time.ms 10) (fun () ->
      Nemesis.Kernel.submit k rt2
        (Nemesis.Job.make ~label:"buffer" ~work:(Sim.Time.us 800)
           ~deadline:(Sim.Time.add (Sim.Engine.now e) (Sim.Time.ms 10))
           ~created:(Sim.Engine.now e) ());
      true);
  List.iter
    (fun d ->
      Nemesis.Kernel.submit k d
        (Nemesis.Job.make ~label:"churn" ~work:(Sim.Time.sec 3600)
           ~created:Sim.Time.zero ()))
    batch;
  Sim.Engine.run e ~until:duration;
  let pct d =
    100.0
    *. Sim.Time.to_sec_f (Nemesis.Domain.cpu_used d)
    /. Sim.Time.to_sec_f duration
  in
  let rt_misses =
    Nemesis.Domain.deadline_misses rt1 + Nemesis.Domain.deadline_misses rt2
  in
  (List.map pct batch, pct rt1 +. pct rt2, rt_misses,
   100.0 *. Sim.Time.to_sec_f (Nemesis.Kernel.idle_time k)
   /. Sim.Time.to_sec_f duration)

let run ?(quick = false) ctx =
  let duration = if quick then Sim.Time.sec 2 else Sim.Time.sec 10 in
  let row label slack =
    let batch_pcts, rt_pct, rt_misses, idle = scenario ctx ~slack ~duration in
    [
      label;
      (match batch_pcts with
      | [ a; b; c ] -> Printf.sprintf "%.1f / %.1f / %.1f %%" a b c
      | _ -> "-");
      Printf.sprintf "%.1f%%" rt_pct;
      string_of_int rt_misses;
      Printf.sprintf "%.1f%%" idle;
    ]
  in
  Table.make ~id:"A1" ~title:"Ablation: sharing out the slack"
    ~claim:
      "The policy for sharing out remaining resources is 'still the subject \
       of investigation' — so investigate: round-robin equalises, \
       proportional follows the guaranteed shares, and no-slack wastes the \
       machine, all without disturbing the guarantees."
    ~columns:
      [
        "slack policy";
        "batch a/b/c CPU (shares 1:2:4)";
        "RT CPU";
        "RT misses";
        "idle";
      ]
    [
      row "round robin" `Round_robin;
      row "proportional to share" `Proportional;
      row "none (idle instead)" `None;
    ]
