(* Sharded multi-site fabric: the parallel-simulation showcase rig.

   The model is a metropolitan fabric of [sites], each a campus ATM
   switch with camera hosts streaming fixed-rate video to a local
   display over 10 Gbit/s links, joined in a ring by long-haul trunks
   whose propagation delay dwarfs anything on campus.  Each site is one
   {!Sim.Shard} shard with a private engine; every [cross_every]-th
   frame of stream 0 is also forwarded to the next site over the trunk,
   crossing shards through {!Sim.Shard.post} with the trunk delay.

   The trunk delay is not invented here: the topology is first built as
   a single-net blueprint, {!Atm.Net.partition} splits it per switch
   neighbourhood, and {!Atm.Net.cut_lookahead} reports the minimum
   propagation delay across the cut — which becomes the shard runner's
   lookahead.

   Every arrival folds into a per-site digest, so byte-equality of the
   output table means event-order equality of the whole run: the CI
   determinism job diffs this table across --domains 1/2/4, and the
   differential property test does the same across seeds. *)

type params = {
  sites : int;
  streams_per_site : int;
  frame_bytes : int;
  fps : int;
  cross_every : int;  (* every k-th frame of stream 0 goes to the next site *)
  trunk_prop : Sim.Time.t;  (* inter-site propagation = shard lookahead *)
  duration : Sim.Time.t;
  seed : int;
}

let default_params =
  {
    sites = 8;
    streams_per_site = 48;
    frame_bytes = 8_192;
    fps = 250;
    cross_every = 4;
    trunk_prop = Sim.Time.ms 2;
    duration = Sim.Time.ms 400;
    seed = 1;
  }

type rig = {
  shard : Sim.Shard.t;
  nets : Atm.Net.t array;
  local_frames : int array;
  remote_frames : int array;
  digests : int array;  (* per-site fold over (arrival, stream, origin) *)
}

type outcome = {
  p : params;
  local_frames : int array;  (* per site *)
  remote_frames : int array;
  digests : int array;
  epochs : int;
  messages : int;
  lookahead : Sim.Time.t;
}

let fold_digest d ~ns ~stream ~origin =
  (* A simple deterministic mixing fold; any reordering or retiming of
     arrivals changes the final value. *)
  let d = (d * 1000003) + ns in
  let d = (d * 1000003) + (stream * 31) + origin in
  d land max_int

(* The blueprint: the whole fabric as one (never-run) net, used to
   derive the partition and its lookahead. *)
let blueprint p =
  let e = Sim.Engine.create () in
  let net = Atm.Net.create e in
  let sws =
    Array.init p.sites (fun i ->
        Atm.Net.add_switch net ~name:(Printf.sprintf "sw%d" i)
          ~ports:(p.sites + 4))
  in
  for i = 0 to p.sites - 1 do
    let cam = Atm.Net.add_host net ~name:(Printf.sprintf "cam%d" i) in
    let disp = Atm.Net.add_host net ~name:(Printf.sprintf "disp%d" i) in
    let gw = Atm.Net.add_host net ~name:(Printf.sprintf "gw%d" i) in
    Atm.Net.connect net ~bandwidth_bps:10_000_000_000 cam sws.(i);
    Atm.Net.connect net ~bandwidth_bps:10_000_000_000 disp sws.(i);
    Atm.Net.connect net ~bandwidth_bps:10_000_000_000 gw sws.(i)
  done;
  if p.sites > 1 then
    for i = 0 to p.sites - 1 do
      Atm.Net.connect net ~bandwidth_bps:2_400_000_000 ~prop:p.trunk_prop
        sws.(i)
        sws.((i + 1) mod p.sites)
    done;
  let assign = Atm.Net.partition net ~parts:p.sites in
  let lookahead =
    match Atm.Net.cut_lookahead net ~assign with
    | Some l -> l
    | None -> p.trunk_prop  (* single site: nothing crosses the cut *)
  in
  (assign, lookahead)

let build ctx p =
  if p.sites < 1 then invalid_arg "Fabric: sites < 1";
  let _assign, lookahead = blueprint p in
  let shard = Sim.Shard.create ~lookahead ~shards:p.sites ctx in
  let local_frames = Array.make p.sites 0
  and remote_frames = Array.make p.sites 0
  and digests = Array.make p.sites 0 in
  let arrive counts e i ~stream ~origin =
    counts.(i) <- counts.(i) + 1;
    digests.(i) <-
      fold_digest digests.(i)
        ~ns:(Sim.Time.to_ns (Sim.Engine.now e))
        ~stream ~origin
  in
  let period_ns = 1_000_000_000 / p.fps in
  let payload = Bytes.make p.frame_bytes 'x' in
  (* Remote-ingress VC per site, filled in during the site builds below;
     the ring means site i posts into site (i+1) mod sites. *)
  let ingress = Array.make p.sites None in
  let sites_built =
    Array.init p.sites (fun i ->
        let e = Sim.Shard.engine shard i in
        let net = Atm.Net.create e in
        let sw = Atm.Net.add_switch net ~name:"sw" ~ports:8 in
        let cam = Atm.Net.add_host net ~name:"cam" in
        let disp = Atm.Net.add_host net ~name:"disp" in
        let gw = Atm.Net.add_host net ~name:"gw" in
        let q = Atm.Aal5.frame_cells p.frame_bytes + 64 in
        Atm.Net.connect net ~bandwidth_bps:10_000_000_000 ~queue_cells:q cam sw;
        Atm.Net.connect net ~bandwidth_bps:10_000_000_000 ~queue_cells:q disp
          sw;
        Atm.Net.connect net ~bandwidth_bps:10_000_000_000 ~queue_cells:q gw sw;
        let vcs =
          Array.init p.streams_per_site (fun s ->
              let cell_rx, train_rx =
                Atm.Net.frame_rx
                  ~rx:(fun ~flow:_ _ _ _ ->
                    arrive local_frames e i ~stream:s ~origin:i)
                  ()
              in
              Atm.Net.open_vc net ~src:cam ~dst:disp ~rx:cell_rx
                ~rx_train:train_rx)
        in
        let cell_rx, train_rx =
          Atm.Net.frame_rx
            ~rx:(fun ~flow:_ _ _ _ ->
              arrive remote_frames e i ~stream:(-1)
                ~origin:((i + p.sites - 1) mod p.sites))
            ()
        in
        ingress.(i) <-
          Some
            (Atm.Net.open_vc net ~src:gw ~dst:disp ~rx:cell_rx
               ~rx_train:train_rx);
        (net, vcs))
  in
  (* Sources: every stream paces frames at [fps], staggered by a
     seed-mixed deterministic phase so sites do not fire in lockstep. *)
  Array.iteri
    (fun i (net, vcs) ->
      let e = Atm.Net.engine net in
      Array.iteri
        (fun s vc ->
          let phase =
            ((p.seed * 1_000_003) + (i * 131_071) + (s * 7_919))
            mod period_ns
          in
          let frame = ref 0 in
          let rec tick () =
            Atm.Net.send_frame vc payload;
            (if s = 0 && !frame mod p.cross_every = 0 && p.sites > 1 then
               let dst = (i + 1) mod p.sites in
               let at = Sim.Time.add (Sim.Engine.now e) p.trunk_prop in
               let data = Bytes.copy payload in
               Sim.Shard.post shard ~src:i ~dst ~at (fun () ->
                   match ingress.(dst) with
                   | Some gvc -> Atm.Net.send_frame gvc data
                   | None -> assert false));
            incr frame;
            ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ns period_ns) tick)
          in
          ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ns phase) tick))
        vcs)
    sites_built;
  {
    shard;
    nets = Array.map fst sites_built;
    local_frames;
    remote_frames;
    digests;
  }

let execute ctx p =
  let r = build ctx p in
  Sim.Shard.run ~until:p.duration r.shard;
  {
    p;
    local_frames = r.local_frames;
    remote_frames = r.remote_frames;
    digests = r.digests;
    epochs = Sim.Shard.epochs r.shard;
    messages = Sim.Shard.messages r.shard;
    lookahead = Sim.Shard.lookahead r.shard;
  }

let run ?seed ctx =
  let p = default_params in
  let p = match seed with Some s -> { p with seed = s } | None -> p in
  let o = execute ctx p in
  let rows =
    List.init p.sites (fun i ->
        [
          Printf.sprintf "site %d" i;
          Printf.sprintf "%d local" o.local_frames.(i);
          Printf.sprintf "%d via trunk" o.remote_frames.(i);
          Printf.sprintf "%016x" o.digests.(i);
        ])
  in
  let total_frames =
    Array.fold_left ( + ) 0 o.local_frames
    + Array.fold_left ( + ) 0 o.remote_frames
  in
  Table.make ~id:"PAR"
    ~title:"Sharded fabric: conservative parallel simulation"
    ~claim:
      "A multi-site fabric partitioned per switch runs on any number of \
       domains with byte-identical results: trunk propagation delay is the \
       conservative lookahead, cross-site frames travel through bounded \
       mailboxes, and same-instant ties break on (site, sequence)."
    ~columns:[ "shard"; "frames delivered"; "remote frames"; "arrival digest" ]
    ~notes:
      [
        Printf.sprintf
          "%d sites x %d streams of %d B frames at %d fps for %.0f ms; \
           seed %d."
          p.sites p.streams_per_site p.frame_bytes p.fps
          (Sim.Time.to_ms_f p.duration)
          p.seed;
        Printf.sprintf
          "%d frames total; %d epochs, %d cross-shard messages; lookahead \
           %.1f us (= trunk propagation, from Net.cut_lookahead)."
          total_frames o.epochs o.messages
          (Sim.Time.to_us_f o.lookahead);
        "The digest folds every arrival instant: equality of this table \
         across --domains values is event-order equality of the runs.";
      ]
    rows
