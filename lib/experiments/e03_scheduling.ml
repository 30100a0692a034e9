(* An overloaded workstation: a 25 fps video pipeline and a 100 Hz
   audio pipeline (both with real deadlines), plus compute domains that
   soak up every remaining cycle.  Total demand ~1.4 CPUs on 1 CPU.
   A scheduler earns its keep by keeping the admitted real-time
   domains' misses at zero while letting batch eat only the slack. *)

let periodic k d ~period ~work ~label =
  let e = Nemesis.Kernel.engine k in
  Sim.Engine.every ~daemon:true e ~period (fun () ->
      let now = Sim.Engine.now e in
      Nemesis.Kernel.submit k d
        (Nemesis.Job.make ~label ~work ~deadline:(Sim.Time.add now period)
           ~created:now ());
      true)

let scenario ctx ~policy ~duration =
  let e = Sim.Ctx.engine ctx in
  let k = Nemesis.Kernel.create e ~policy () in
  let video =
    Nemesis.Domain.create ~name:"video" ~period:(Sim.Time.ms 40)
      ~slice:(Sim.Time.ms 16) ~extra:false ~priority:5 ()
  in
  let audio =
    Nemesis.Domain.create ~name:"audio" ~period:(Sim.Time.ms 10)
      ~slice:(Sim.Time.ms 1) ~extra:false ~priority:6 ()
  in
  let batch1 =
    Nemesis.Domain.create ~name:"batch1" ~period:(Sim.Time.ms 100)
      ~slice:(Sim.Time.ms 10) ~extra:true ~priority:7 ()
  in
  let batch2 =
    Nemesis.Domain.create ~name:"batch2" ~period:(Sim.Time.ms 100)
      ~slice:(Sim.Time.ms 10) ~extra:true ~priority:4 ()
  in
  List.iter (Nemesis.Kernel.add_domain k) [ video; audio; batch1; batch2 ];
  (* 15ms of processing per 40ms frame; 0.8ms per 10ms audio buffer. *)
  periodic k video ~period:(Sim.Time.ms 40) ~work:(Sim.Time.ms 15) ~label:"frame";
  periodic k audio ~period:(Sim.Time.ms 10) ~work:(Sim.Time.us 800) ~label:"buffer";
  (* Batch: unbounded appetite, submitted as a stream of chunks that
     each CLAIM to be urgent — deadlines cost nothing to assert, which
     is exactly why a scheduler that believes them cannot protect the
     real-time domains. *)
  let greedy d label =
    let rec next () =
      Nemesis.Kernel.submit k d
        (Nemesis.Job.make ~label ~work:(Sim.Time.ms 5)
           ~deadline:(Sim.Time.add (Sim.Engine.now e) (Sim.Time.ms 1))
           ~created:(Sim.Engine.now e) ~on_complete:next ())
    in
    next ()
  in
  greedy batch1 "mine1";
  greedy batch2 "mine2";
  Sim.Engine.run e ~until:duration;
  let miss_pct d =
    let done_ = Nemesis.Domain.jobs_completed d in
    let missed = Nemesis.Domain.deadline_misses d in
    (* Jobs that never even completed within the run count against the
       scheduler too. *)
    let expected =
      Sim.Time.to_ns duration
      / Sim.Time.to_ns (Nemesis.Domain.params d).Nemesis.Domain.period
    in
    let not_done = Stdlib.max 0 (expected - done_) in
    100.0 *. Float.of_int (missed + not_done) /. Float.of_int (Stdlib.max 1 expected)
  in
  let batch_ms =
    Sim.Time.to_ms_f
      (Sim.Time.add (Nemesis.Domain.cpu_used batch1) (Nemesis.Domain.cpu_used batch2))
  in
  (miss_pct video, miss_pct audio, batch_ms /. Sim.Time.to_ms_f duration *. 100.0)

let run ctx =
  let duration = Sim.Time.sec 10 in
  let policies =
    [
      ("atropos (shares+EDF)", Nemesis.Policy.atropos ());
      ("plain EDF", Nemesis.Policy.edf ());
      ("fixed priority", Nemesis.Policy.fixed_priority ());
      ("round robin", Nemesis.Policy.round_robin ());
    ]
  in
  let rows =
    List.map
      (fun (label, policy) ->
        let video, audio, batch = scenario ctx ~policy ~duration in
        [
          label;
          Printf.sprintf "%.1f%%" video;
          Printf.sprintf "%.1f%%" audio;
          Printf.sprintf "%.1f%%" batch;
        ])
      policies
  in
  Table.make ~id:"E3" ~title:"Domain scheduling under overload"
    ~claim:
      "Weighted allocation consumed earliest-deadline-first keeps admitted \
       multimedia domains on schedule while batch work only absorbs slack; \
       priorities and time-slicing cannot express that."
    ~columns:
      [ "policy"; "video misses"; "audio misses"; "batch CPU share" ]
    ~notes:
      [
        "Load: video 15ms/40ms + audio 0.8ms/10ms guaranteed, plus two \
         unbounded batch domains (the system is heavily overcommitted).";
        "Batch domains submit their work as chunks claiming 1ms deadlines: \
         plain EDF believes them and starves the real-time domains, fixed \
         priority gives the highest-priority batch everything, round robin \
         time-slices misses onto everyone. Only the reservation makes the \
         claim irrelevant.";
      ]
    rows

(* The QoS manager at work: one adaptive application watches its grant
   as competitors come and go. *)
let run_qos ctx =
  let e = Sim.Ctx.engine ctx in
  let k = Nemesis.Kernel.create e ~policy:(Nemesis.Policy.atropos ()) () in
  let mk name =
    let d = Nemesis.Domain.create ~name ~period:(Sim.Time.ms 40) () in
    Nemesis.Kernel.add_domain k d;
    Nemesis.Kernel.submit k d
      (Nemesis.Job.make ~label:"spin" ~work:(Sim.Time.sec 3600)
         ~created:Sim.Time.zero ());
    d
  in
  let app = mk "editor" in
  let q = Nemesis.Qos.create k in
  let grants = ref [] in
  Nemesis.Qos.register q ~domain:app ~want:0.6
    ~adapt:(fun ~granted -> grants := granted :: !grants)
    ();
  let phase = Sim.Time.ms 2_000 in
  let rows = ref [] in
  let sample label =
    rows :=
      [
        label;
        Printf.sprintf "%.2f" (Nemesis.Qos.granted q ~domain:app);
        Printf.sprintf "%.2f" (Nemesis.Qos.utilisation q ~domain:app);
      ]
      :: !rows
  in
  Sim.Engine.run e ~until:phase;
  sample "alone, wants 0.60";
  let rival1 = mk "renderer" in
  Nemesis.Qos.register q ~domain:rival1 ~want:0.5 ();
  Sim.Engine.run e ~until:(Sim.Time.mul phase 2);
  sample "renderer arrives (wants 0.50)";
  let rival2 = mk "encoder" in
  Nemesis.Qos.register q ~domain:rival2 ~want:0.4 ();
  Sim.Engine.run e ~until:(Sim.Time.mul phase 3);
  sample "encoder arrives (wants 0.40)";
  Nemesis.Qos.unregister q ~domain:rival1;
  Nemesis.Qos.unregister q ~domain:rival2;
  Sim.Engine.run e ~until:(Sim.Time.mul phase 4);
  sample "rivals leave";
  let adaptations = List.length !grants in
  Table.make ~id:"E3b" ~title:"QoS manager: weights over time"
    ~claim:
      "A QoS-manager domain updates the scheduler weights on a longer time \
       scale, both as applications enter or leave and adaptively, smoothing \
       short-term variations."
    ~columns:[ "phase"; "granted fraction"; "smoothed utilisation" ]
    ~notes:
      [
        Printf.sprintf
          "The application's adapt callback fired %d times; each call is its \
           cue to switch algorithms (e.g. a cheaper codec) for the grant it \
           actually has."
          adaptations;
      ]
    (List.rev !rows)
