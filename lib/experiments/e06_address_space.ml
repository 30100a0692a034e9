(* Three measurements:
   - the per-switch cost model (cache flush vs none), and its end-to-end
     effect on an IPC-heavy two-domain workload;
   - address reuse: collisions among hashed 32-bit image bases;
   - image load cost with and without a relocation-cache hit. *)

let pingpong_throughput ctx ~ctx_cost ~duration =
  let e = Sim.Ctx.engine ctx in
  let k = Nemesis.Kernel.create e ~policy:(Nemesis.Policy.atropos ())
      ~ctx_switch_cost:ctx_cost ()
  in
  let a = Nemesis.Domain.create ~name:"a" ~period:(Sim.Time.ms 10)
      ~slice:(Sim.Time.ms 4) ()
  in
  let b = Nemesis.Domain.create ~name:"b" ~period:(Sim.Time.ms 10)
      ~slice:(Sim.Time.ms 4) ()
  in
  Nemesis.Kernel.add_domain k a;
  Nemesis.Kernel.add_domain k b;
  let interactions = ref 0 in
  let chan_to = ref None and chan_back = ref None in
  let get r = match !r with Some c -> c | None -> assert false in
  let mk dst other =
    Nemesis.Kernel.channel k ~dst ~mode:`Sync
      ~closure:(fun () ->
        Some
          (Nemesis.Job.make ~label:"hop" ~work:(Sim.Time.us 20)
             ~created:(Sim.Engine.now e)
             ~on_complete:(fun () ->
               incr interactions;
               Nemesis.Kernel.send k (get other))
             ()))
      ()
  in
  chan_to := Some (mk b chan_back);
  chan_back := Some (mk a chan_to);
  Nemesis.Kernel.submit k a
    (Nemesis.Job.make ~label:"start" ~work:(Sim.Time.us 1)
       ~created:Sim.Time.zero
       ~on_complete:(fun () -> Nemesis.Kernel.send k (get chan_to))
       ());
  Sim.Engine.run e ~until:duration;
  Float.of_int !interactions /. Sim.Time.to_sec_f duration

let run ?(quick = false) ctx =
  let duration = if quick then Sim.Time.ms 500 else Sim.Time.sec 5 in
  let flush_cost = Nemesis.Vm.switch_cost ~aliases:true () in
  let no_flush_cost = Nemesis.Vm.switch_cost ~aliases:false () in
  let thr_flush = pingpong_throughput ctx ~ctx_cost:flush_cost ~duration in
  let thr_clean = pingpong_throughput ctx ~ctx_cost:no_flush_cost ~duration in
  let rng = Sim.Rng.create ~seed:2024L () in
  let collisions n = Nemesis.Vm.reuse_collisions rng ~images:n in
  let birthday n = Float.of_int n *. Float.of_int n /. 2.0 /. 4294967296.0 in
  let load_hit = Nemesis.Vm.load_cost ~relocs:20_000 ~cache_hit:true in
  let load_miss = Nemesis.Vm.load_cost ~relocs:20_000 ~cache_hit:false in
  Table.make ~id:"E6" ~title:"Single address space: switches and relocation"
    ~claim:
      "Removing virtual-address aliases removes the cache penalty from \
       context switches; the load-time relocation penalty is amortised by \
       reloading images at hashed addresses, where collisions are rare."
    ~columns:[ "quantity"; "separate spaces"; "single space" ]
    ~notes:
      [
        "IPC throughput: two domains bouncing the processor with synchronous \
         events; the only difference between columns is the per-switch cost \
         (cache refill vs none).";
        Printf.sprintf
          "Hashed 32-bit bases: %d collisions in 1k images (birthday bound \
           %.4f), %d in 10k (bound %.2f), %d in 100k (bound %.1f) — so a \
           program nearly always reloads where it ran before and skips \
           relocation."
          (collisions 1_000) (birthday 1_000) (collisions 10_000)
          (birthday 10_000) (collisions 100_000) (birthday 100_000);
      ]
    [
      [
        "context switch cost";
        Format.asprintf "%a" Sim.Time.pp flush_cost;
        Format.asprintf "%a" Sim.Time.pp no_flush_cost;
      ];
      [
        "IPC interactions/s";
        Printf.sprintf "%.0f" thr_flush;
        Printf.sprintf "%.0f" thr_clean;
      ];
      [
        "image load (20k relocs)";
        Format.asprintf "%a (relocate)" Sim.Time.pp load_miss;
        Format.asprintf "%a (cache hit)" Sim.Time.pp load_hit;
      ];
    ]
