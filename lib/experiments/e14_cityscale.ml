(* E14: city-scale fabric — the QoS manager exercised at scale.

   A fixed leaf-spine Clos fabric (4 spines, 8 leaves, 8 hosts per
   leaf; 100 Mbit/s host links, 1 Gbit/s trunks) takes an offered load
   swept from 10 to 10,000 concurrent stream contracts, mixed evenly
   over the three classes (video 6 Mbit/s, audio 768 kbit/s, RPC
   128 kbit/s).  {!Atm.Qos_mgr} admits each at full rate when any of
   the four spine crossings has capacity, degrades it down its class
   ladder when only a lower tier fits, and rejects it otherwise.  Every
   fifth admitted contract then departs (churn), and three review
   passes renegotiate waiting degraded contracts upward into the freed
   capacity.

   A deterministic sample of the surviving contracts then carries real
   traffic — frames paced at each contract's granted rate with causal
   flow tracing on — and {!Sim.Audit} turns the capture into per-class
   end-to-end jitter plus a Jain fairness index over the video
   streams' delivered frames (1.0 when every sampled video stream got
   the same service; lower when degradation split the class).

   Each sweep row is an independent closed world on its own child of
   the run's context, so the rows fan out over OCaml domains through
   {!Sim.Ctx.map} with byte-identical output at every domain count.

   This sweep only works because signalling is leak-free: a rejected
   request must leave no reservation, route or VCI behind (see the
   rollback invariant in DESIGN.md section 10), and 10k open/close
   cycles must reuse VCIs rather than grow per-host state without
   bound. *)

type spec = {
  sp_class : Atm.Qos_mgr.stream_class;
  sp_bps : int;
  sp_frame_bytes : int;
}

let specs =
  [|
    { sp_class = Atm.Qos_mgr.Video; sp_bps = 6_000_000; sp_frame_bytes = 8_192 };
    { sp_class = Atm.Qos_mgr.Audio; sp_bps = 768_000; sp_frame_bytes = 320 };
    { sp_class = Atm.Qos_mgr.Rpc; sp_bps = 128_000; sp_frame_bytes = 256 };
  |]

let spines = 4
let leaves = 8
let hosts_per_leaf = 8
let churn_every = 5
let review_rounds = 3

(* Jain's fairness index: (sum x)^2 / (n * sum x^2); 1.0 = equal. *)
let jain = function
  | [] -> None
  | xs ->
      let n = float_of_int (List.length xs) in
      let s = List.fold_left ( +. ) 0.0 xs in
      let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
      if s2 = 0.0 then Some 1.0 else Some (s *. s /. (n *. s2))

type row_result = {
  rr_offered : int;
  rr_accepted : int;
  rr_degraded : int;
  rr_rejected : int;
  rr_upgraded : int;
  rr_jitter_us : (string * float option) list;  (* per class, mean of means *)
  rr_video_fairness : float option;
}

let row ~offered ctx =
  let tr = Sim.Ctx.trace ctx in
  Sim.Audit.capture tr;
  let e = Sim.Ctx.engine ctx in
  let net = Atm.Net.create e in
  let fabric = Atm.Net.clos net ~spines ~leaves ~hosts_per_leaf in
  let hosts = fabric.Atm.Net.cl_hosts in
  let nh = Array.length hosts in
  let qm = Atm.Qos_mgr.create ~path_attempts:spines net () in
  let rng = Sim.Rng.create ~seed:(Int64.of_int (0xE15FFF + offered)) () in
  (* Admission wave.  Every request gets a replaceable delivery sink so
     the contracts picked for the traffic phase can be wired up after
     admission decides which ones exist. *)
  let sinks = Hashtbl.create 64 in
  for _i = 0 to offered - 1 do
    let spec = specs.(_i mod Array.length specs) in
    let src = Sim.Rng.int rng nh in
    let d = Sim.Rng.int rng (nh - 1) in
    let dst = if d >= src then d + 1 else d in
    let sink = ref (fun ~flow:_ -> ()) in
    let cell_rx, train_rx =
      Atm.Net.frame_rx ~rx:(fun ~flow _ _ _ -> !sink ~flow) ()
    in
    match
      Atm.Qos_mgr.request qm ~cls:spec.sp_class ~bps:spec.sp_bps
        ~src:hosts.(src) ~dst:hosts.(dst) ~rx:cell_rx ~rx_train:train_rx ()
    with
    | Atm.Qos_mgr.Accepted c | Atm.Qos_mgr.Degraded c ->
        Hashtbl.replace sinks (Atm.Qos_mgr.contract_id c) sink
    | Atm.Qos_mgr.Rejected -> ()
  done;
  let accepted = Atm.Qos_mgr.accepted qm in
  let degraded = Atm.Qos_mgr.degraded qm in
  let rejected = Atm.Qos_mgr.rejected qm in
  (* Churn: every [churn_every]-th live contract departs, then reviews
     promote waiting degraded contracts into the freed capacity. *)
  List.iteri
    (fun k c -> if k mod churn_every = churn_every - 1 then Atm.Qos_mgr.teardown qm c)
    (Atm.Qos_mgr.live qm);
  for _r = 1 to review_rounds do
    Atm.Qos_mgr.review qm
  done;
  let upgraded = Atm.Qos_mgr.renegotiated qm in
  (* Traffic phase: [sample_per_class] surviving contracts of each
     class send frames paced at their granted rate, with causal flows
     from source to delivery.  The sample deliberately mixes service
     levels — up to half of it comes from contracts still degraded
     after review — so the fairness index sees the split the admission
     decisions created, not just the full-rate head of the queue. *)
  let sample_per_class = 6 in
  let duration = Sim.Time.ms 400 in
  let sampled =
    List.concat_map
      (fun cls ->
        let of_class =
          List.filter
            (fun c -> Atm.Qos_mgr.contract_class c = cls)
            (Atm.Qos_mgr.live qm)
        in
        let deg, full = List.partition Atm.Qos_mgr.is_degraded of_class in
        let rec take n = function
          | [] -> []
          | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
        in
        let deg_take = take (sample_per_class / 2) deg in
        take sample_per_class (deg_take @ full))
      [ Atm.Qos_mgr.Video; Atm.Qos_mgr.Audio; Atm.Qos_mgr.Rpc ]
  in
  List.iter
    (fun c ->
      let cls = Atm.Qos_mgr.contract_class c in
      let spec =
        (* specs is indexed by class; find the matching entry. *)
        Array.to_list specs |> List.find (fun s -> s.sp_class = cls)
      in
      let label =
        Printf.sprintf "%s:%05d"
          (Atm.Qos_mgr.class_name cls)
          (Atm.Qos_mgr.contract_id c)
      in
      let vc =
        match Atm.Qos_mgr.contract_vc c with
        | Some vc -> vc
        | None -> assert false  (* sampled from the live list *)
      in
      (match Hashtbl.find_opt sinks (Atm.Qos_mgr.contract_id c) with
      | Some sink ->
          sink :=
            fun ~flow ->
              if flow <> Sim.Trace.no_flow then
                Sim.Trace.flow_end tr ~ts:(Sim.Engine.now e)
                  ~sub:Sim.Subsystem.Atm ~cat:"e14" ~flow "deliver"
      | None -> assert false);
      let payload = Bytes.make spec.sp_frame_bytes 'e' in
      let period_ns =
        spec.sp_frame_bytes * 8 * 1_000_000_000 / Atm.Qos_mgr.granted_bps c
      in
      let phase_ns = Atm.Qos_mgr.contract_id c * 104_729 mod period_ns in
      let send () =
        let flow =
          if Sim.Trace.flows_on tr then begin
            let f = Sim.Trace.alloc_flow tr in
            Sim.Trace.flow_start tr ~ts:(Sim.Engine.now e)
              ~sub:Sim.Subsystem.Atm ~cat:"e14"
              ~args:[ ("stream", Sim.Trace.Str label) ]
              ~flow:f "qos.source";
            Some f
          end
          else None
        in
        Atm.Net.send_frame ?flow vc payload
      in
      let rec schedule_frames k =
        let at = Sim.Time.ns (phase_ns + (k * period_ns)) in
        if Sim.Time.(at < duration) then begin
          ignore (Sim.Engine.schedule_at e ~at send);
          schedule_frames (k + 1)
        end
      in
      schedule_frames 0)
    sampled;
  Sim.Engine.run e;
  let report = Sim.Audit.of_trace tr in
  let class_streams cls =
    let prefix = Atm.Qos_mgr.class_name cls ^ ":" in
    List.filter
      (fun st ->
        String.length st.Sim.Audit.st_label >= String.length prefix
        && String.sub st.Sim.Audit.st_label 0 (String.length prefix) = prefix)
      report.Sim.Audit.rp_streams
  in
  let mean_jitter cls =
    match class_streams cls with
    | [] -> None
    | sts ->
        let sum =
          List.fold_left (fun acc st -> acc +. st.Sim.Audit.st_jitter_mean_ns) 0.0 sts
        in
        Some (sum /. float_of_int (List.length sts) /. 1_000.0)
  in
  let video_fairness =
    jain
      (List.map
         (fun st -> float_of_int st.Sim.Audit.st_flows)
         (class_streams Atm.Qos_mgr.Video))
  in
  {
    rr_offered = offered;
    rr_accepted = accepted;
    rr_degraded = degraded;
    rr_rejected = rejected;
    rr_upgraded = upgraded;
    rr_jitter_us =
      List.map
        (fun cls -> (Atm.Qos_mgr.class_name cls, mean_jitter cls))
        [ Atm.Qos_mgr.Video; Atm.Qos_mgr.Audio; Atm.Qos_mgr.Rpc ];
    rr_video_fairness = video_fairness;
  }

let render r =
  let pct n =
    if r.rr_offered = 0 then "0%"
    else Printf.sprintf "%d (%.1f%%)" n (100.0 *. float_of_int n /. float_of_int r.rr_offered)
  in
  let jitter_cell =
    String.concat " / "
      (List.map
         (fun (_, j) ->
           match j with Some us -> Table.cell_time_us us | None -> "-")
         r.rr_jitter_us)
  in
  [
    string_of_int r.rr_offered;
    pct r.rr_accepted;
    pct r.rr_degraded;
    pct r.rr_rejected;
    string_of_int r.rr_upgraded;
    jitter_cell;
    (match r.rr_video_fairness with Some f -> Table.cell_f f | None -> "-");
  ]

let run ctx =
  let loads = [| 10; 100; 1_000; 10_000 |] in
  let rows =
    Sim.Ctx.map ctx
      (Array.map (fun offered ctx -> render (row ~offered ctx)) loads)
  in
  Table.make ~id:"E14"
    ~title:"City-scale fabric: contract admission from 10 to 10k streams"
    ~claim:
      "A QoS manager mediating between streams and a multi-stage fabric \
       accepts everything at low load, and under saturation produces a \
       mix of full-rate, degraded and rejected contracts rather than \
       collapsing; churn plus renegotiation promotes degraded contracts \
       into freed capacity, and admitted streams keep bounded jitter."
    ~columns:
      [
        "offered";
        "accepted";
        "degraded";
        "rejected";
        "upgraded";
        "jitter v/a/r";
        "video fairness";
      ]
    ~notes:
      [
        Printf.sprintf
          "Fabric: %d spines x %d leaves x %d hosts/leaf (Net.clos); 100 \
           Mbit/s host links, 1 Gbit/s trunks; admission tries all %d spine \
           crossings per tier."
          spines leaves hosts_per_leaf spines;
        "Classes round-robin video 6 Mbit/s / audio 768 kbit/s / RPC 128 \
         kbit/s with degradation ladders 1-1/2-1/4, 1-1/2 and \
         take-it-or-leave-it; every 5th admitted contract then departs and \
         three review passes upgrade waiting degraded contracts.";
        "Jitter and fairness come from Sim.Audit over a deterministic \
         sample of surviving contracts carrying paced traffic; fairness is \
         Jain's index over the sampled video streams' delivered frames.";
        "Each row is an independent world: with --domains N the rows run \
         on N OCaml domains, byte-identically.";
      ]
    (Array.to_list rows)
