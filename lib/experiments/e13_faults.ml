(* E13: deterministic fault injection across the stack.

   Part 1: an open-loop video source sends 8 KB tiles as AAL5 frames
   through a switch while a seeded fault plan drops cells on the
   links; a frame missing any cell fails reassembly, so the
   delivered-frame ratio falls monotonically as the loss rate rises —
   and identically on every run with the same seed.

   Part 2: RPC echo calls over the same lossy network.  At-most-once
   retransmission with capped, jittered backoff recovers lost
   requests, so goodput stays near one while the retransmission count
   shows the work done; a mid-run link outage is also survived.

   Part 3: a RAID array serving a read sweep while the plan fails
   disks under it: with one disk down reads are served degraded
   through parity, with two down they are lost.

   Each row is an independent closed world (its own engine, network,
   fault plan and seeds), so the ten rows run through {!Sim.Ctx.map}:
   each on a child of the run's context, over as many OCaml domains as
   the context allows, merged back in row order. *)

let tile_bytes = 8192
let frame_gap = Sim.Time.ms 40  (* 25 fps *)

let video_run ctx ~loss ~with_outages ~frames =
  let e = Sim.Ctx.engine ctx in
  let fault = Sim.Fault.create ~seed:0x13AB1EL e in
  let net = Atm.Net.create e in
  let sw = Atm.Net.add_switch net ~name:"sw" ~ports:4 in
  let cam = Atm.Net.add_host net ~name:"cam" in
  let disp = Atm.Net.add_host net ~name:"display" in
  Atm.Net.connect net cam sw;
  Atm.Net.connect net disp sw;
  let delivered = ref 0 in
  let rx, rx_train =
    Atm.Net.frame_rx ~rx:(fun ~flow:_ _ _ _ -> incr delivered) ()
  in
  let vc = Atm.Net.open_vc net ~src:cam ~dst:disp ~rx ~rx_train in
  if loss > 0.0 then Atm.Net.inject_loss net ~rng:(Sim.Fault.rng fault) loss;
  let span = Sim.Time.mul frame_gap (frames + 2) in
  if with_outages then
    Sim.Fault.outages fault ~span ~mean_up:(Sim.Time.ms 300)
      ~mean_down:(Sim.Time.ms 30)
      ~down:(fun () -> Atm.Net.set_link_down net cam sw true)
      ~up:(fun () -> Atm.Net.set_link_down net cam sw false)
      ();
  for i = 0 to frames - 1 do
    ignore
      (Sim.Engine.schedule e
         ~delay:(Sim.Time.mul frame_gap i)
         (fun () -> Atm.Net.send_frame vc (Bytes.make tile_bytes 'v')))
  done;
  Sim.Engine.run e;
  (!delivered, frames, Atm.Net.total_cells_lost net)

let rpc_run ctx ~loss ~with_outage ~calls =
  let e = Sim.Ctx.engine ctx in
  let fault = Sim.Fault.create ~seed:0x13FA11L e in
  let net = Atm.Net.create e in
  let ch = Atm.Net.add_host net ~name:"client" in
  let sh = Atm.Net.add_host net ~name:"server" in
  Atm.Net.connect net ch sh;
  let client = Rpc.endpoint net ~host:ch in
  let server = Rpc.endpoint net ~host:sh in
  Rpc.serve server ~iface:"echo" (fun ~meth:_ payload -> Ok payload);
  let conn =
    Rpc.connect net ~client ~server ~retransmit:(Sim.Time.ms 5) ~seed:7L
      ~max_tries:8 ()
  in
  if loss > 0.0 then Atm.Net.inject_loss net ~rng:(Sim.Fault.rng fault) loss;
  if with_outage then
    Sim.Fault.window fault
      ~at:(Sim.Time.ms (calls / 2))
      ~duration:(Sim.Time.ms 40)
      ~down:(fun () -> Atm.Net.set_link_down net ch sh true)
      ~up:(fun () -> Atm.Net.set_link_down net ch sh false);
  let ok = ref 0 in
  for i = 0 to calls - 1 do
    ignore
      (Sim.Engine.schedule e ~delay:(Sim.Time.ms i) (fun () ->
           Rpc.call conn ~iface:"echo" ~meth:"ping" (Bytes.make 64 'q')
             ~reply:(function Ok _ -> incr ok | Error _ -> ())))
  done;
  Sim.Engine.run e;
  (!ok, calls, Rpc.retransmissions conn)

type raid_fault = Raid_none | Raid_one_window | Raid_two_down

let raid_run ctx ~fault_kind ~segments =
  let e = Sim.Ctx.engine ctx in
  let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:65_536 () in
  let pattern seg = Bytes.make 65_536 (Char.chr (Char.code 'a' + (seg mod 26))) in
  for seg = 0 to segments - 1 do
    Pfs.Raid.write_segment raid ~seg ~data:(pattern seg) (fun _ -> ())
  done;
  Sim.Engine.run e;
  (* The read sweep is paced at 5 ms per segment; the failure windows
     land squarely inside it. *)
  let read_gap = Sim.Time.ms 5 in
  let sweep_span = Sim.Time.mul read_gap segments in
  let mid = Sim.Time.add (Sim.Engine.now e) (Sim.Time.div sweep_span 4) in
  let half = Sim.Time.div sweep_span 2 in
  (match fault_kind with
  | Raid_none -> ()
  | Raid_one_window -> Pfs.Raid.fail_disk_for raid 0 ~at:mid ~duration:half
  | Raid_two_down ->
      Pfs.Raid.fail_disk_for raid 0 ~at:mid ~duration:half;
      Pfs.Raid.fail_disk_for raid 1 ~at:mid ~duration:half);
  let ok = ref 0 in
  for seg = 0 to segments - 1 do
    ignore
      (Sim.Engine.schedule e
         ~delay:(Sim.Time.mul read_gap (seg + 1))
         (fun () ->
           Pfs.Raid.read_segment raid ~seg ~k:(function
             | Ok (Some data) when Bytes.equal data (pattern seg) -> incr ok
             | Ok _ | Error `Lost -> ())))
  done;
  Sim.Engine.run e;
  (!ok, segments, Pfs.Raid.degraded_reads raid)

let run ctx =
  let frames = 75 in
  let calls = 300 in
  let segments = 96 in
  let ratio a b = Table.cell_f (float_of_int a /. float_of_int b) in
  let video_row label ~loss ~with_outages ctx =
    let delivered, sent, cells_lost =
      video_run ctx ~loss ~with_outages ~frames
    in
    [
      "video 25fps 8KB tiles";
      label;
      Printf.sprintf "%d/%d frames" delivered sent;
      ratio delivered sent;
      Printf.sprintf "%d cells lost" cells_lost;
    ]
  in
  let rpc_row label ~loss ~with_outage ctx =
    let ok, sent, retrans = rpc_run ctx ~loss ~with_outage ~calls in
    [
      "rpc echo, 8 tries";
      label;
      Printf.sprintf "%d/%d calls" ok sent;
      ratio ok sent;
      Printf.sprintf "%d retransmissions" retrans;
    ]
  in
  let raid_row label fault_kind ctx =
    let ok, total, degraded = raid_run ctx ~fault_kind ~segments in
    [
      "raid 4+1 read sweep";
      label;
      Printf.sprintf "%d/%d segments" ok total;
      ratio ok total;
      Printf.sprintf "%d degraded reads" degraded;
    ]
  in
  Table.make ~id:"E13" ~title:"Graceful degradation under injected faults"
    ~claim:
      "Deterministic fault injection shows the stack degrading gracefully: \
       video frame delivery falls smoothly (and monotonically) with the cell \
       loss rate, RPC retransmission holds goodput near one through loss and \
       a link outage, and the RAID array keeps serving reads through a \
       single disk failure, losing data only when two disks are down at \
       once."
    ~columns:[ "workload"; "fault injected"; "delivered"; "ratio"; "recovery work" ]
    ~notes:
      [
        "Every row replays an identical fault plan from a fixed seed: two \
         runs of this experiment produce identical tables, and raising only \
         the loss rate drops a superset of the same cells.";
        "A video tile is an AAL5 frame of ~171 cells, so even 0.1% cell \
         loss costs whole frames; the display simply renders what arrives \
         (the paper's devices skip faulty tiles rather than stall).";
        "RAID reads during the one-disk window are served from parity \
         (degraded), bit-identical to the written data.";
      ]
    (Array.to_list
       (Sim.Ctx.map ctx
          [|
            video_row "none" ~loss:0.0 ~with_outages:false;
            video_row "cell loss p=0.001" ~loss:0.001 ~with_outages:false;
            video_row "cell loss p=0.01" ~loss:0.01 ~with_outages:false;
            video_row "cell loss p=0.05" ~loss:0.05 ~with_outages:false;
            video_row "loss p=0.01 + link outages" ~loss:0.01
              ~with_outages:true;
            rpc_row "cell loss p=0.01" ~loss:0.01 ~with_outage:false;
            rpc_row "loss p=0.05 + 40ms outage" ~loss:0.05 ~with_outage:true;
            raid_row "none" Raid_none;
            raid_row "1 disk down mid-sweep" Raid_one_window;
            raid_row "2 disks down mid-sweep" Raid_two_down;
          |]))
