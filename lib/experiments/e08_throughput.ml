(* Three sweeps:
   - one disk, alternating between the log head and a reader region
     (worst realistic seek pattern), I/O unit swept: seek overhead and
     achieved rate;
   - striped writes across 1..4 data disks (+ parity);
   - the same array serving a client across the 100 Mbit/s ATM network:
     the network becomes the bottleneck at ~10 MB/s. *)

let single_disk_rate ctx ~unit_bytes ~ops =
  let e = Sim.Ctx.engine ctx in
  let d = Pfs.Disk.create e ~name:"d" in
  for i = 0 to ops - 1 do
    let off =
      if i mod 2 = 0 then i / 2 * unit_bytes
      else 1_000_000_000 + (i / 2 * unit_bytes)
    in
    Pfs.Disk.write d ~off ~len:unit_bytes ~k:(fun _ -> ())
  done;
  Sim.Engine.run e;
  let busy = Sim.Time.to_sec_f (Pfs.Disk.busy_time d) in
  let rate = Float.of_int (Pfs.Disk.bytes_written d) /. busy /. 1e6 in
  let overhead = Sim.Time.to_sec_f (Pfs.Disk.seek_time d) /. busy *. 100.0 in
  (rate, overhead)

let striped_rate ctx ~data_disks ~segments =
  let e = Sim.Ctx.engine ctx in
  let raid = Pfs.Raid.create e ~data_disks ~segment_bytes:1_048_576 () in
  let t0 = Sim.Engine.now e in
  let finished = ref Sim.Time.zero in
  let rec go n =
    if n < segments then
      Pfs.Raid.write_segment raid ~seg:n (fun _ ->
          finished := Sim.Engine.now e;
          go (n + 1))
  in
  go 0;
  Sim.Engine.run e;
  Float.of_int (segments * 1_048_576)
  /. Sim.Time.to_sec_f (Sim.Time.sub !finished t0)
  /. 1e6

(* Stream segments from the array to a client over one 100 Mbit/s
   link: read segment n+1 while shipping segment n. *)
let networked_rate ctx ~segments =
  let e = Sim.Ctx.engine ctx in
  let net = Atm.Net.create e in
  let server = Atm.Net.add_host net ~name:"pfs" in
  let client = Atm.Net.add_host net ~name:"ws" in
  Atm.Net.connect net server client;
  let received = ref 0 in
  let finished = ref Sim.Time.zero in
  let rx, rx_train =
    Atm.Net.frame_rx
      ~rx:(fun ~flow:_ _ _ len ->
        received := !received + len;
        finished := Sim.Engine.now e)
      ()
  in
  let vc = Atm.Net.open_vc net ~src:server ~dst:client ~rx ~rx_train in
  let raid = Pfs.Raid.create e ~segment_bytes:1_048_576 () in
  let chunk = 8192 in
  let frames_per_seg = 1_048_576 / chunk in
  (* Ship each segment as paced 8KB AAL5 frames (the server's network
     interface naturally clocks them out at line rate) and overlap the
     next segment's disk read with the transmission. *)
  let cells_per_frame = Atm.Aal5.frame_cells chunk in
  let frame_time =
    Sim.Time.mul (Atm.Cell.tx_time ~bandwidth_bps:100_000_000) cells_per_frame
  in
  let ship_free = ref Sim.Time.zero in
  let rec pump n =
    if n < segments then
      Pfs.Raid.read_segment raid ~seg:n ~k:(fun _ ->
          (* Ship this segment as soon as the line is free, and start
             the next disk read immediately — reads overlap shipping. *)
          let start = Sim.Time.max (Sim.Engine.now e) !ship_free in
          for i = 0 to frames_per_seg - 1 do
            ignore
              (Sim.Engine.schedule_at e
                 ~at:(Sim.Time.add start (Sim.Time.mul frame_time i))
                 (fun () -> Atm.Net.send_frame vc (Bytes.create chunk)))
          done;
          ship_free := Sim.Time.add start (Sim.Time.mul frame_time frames_per_seg);
          pump (n + 1))
  in
  pump 0;
  Sim.Engine.run e;
  Float.of_int !received /. Sim.Time.to_sec_f !finished /. 1e6

let run ctx =
  let ops = 40 in
  let segments = 40 in
  let unit_rows =
    List.map
      (fun unit_bytes ->
        let rate, overhead = single_disk_rate ctx ~unit_bytes ~ops in
        [
          Printf.sprintf "1 disk, %dKB units" (unit_bytes / 1024);
          Printf.sprintf "%.2f MB/s" rate;
          Printf.sprintf "%.1f%%" overhead;
        ])
      [ 65_536; 262_144; 1_048_576; 4_194_304 ]
  in
  let stripe_rows =
    List.map
      (fun n ->
        [
          Printf.sprintf "%d-wide stripe + parity, 1MB segments" n;
          Printf.sprintf "%.2f MB/s" (striped_rate ctx ~data_disks:n ~segments);
          "-";
        ])
      [ 1; 2; 4 ]
  in
  let net_row =
    [
      "4-wide stripe read over 100 Mbit/s ATM";
      Printf.sprintf "%.2f MB/s" (networked_rate ctx ~segments);
      "-";
    ]
  in
  Table.make ~id:"E8" ~title:"Disk, stripe and network throughput"
    ~claim:
      "Whole-segment transfers keep seek overhead under 10% and at least 5 \
       MB/s per disk; four-way striping makes 20 MB/s possible; the 100 \
       Mbit/s ATM network caps delivery just over 10 MB/s."
    ~columns:[ "configuration"; "throughput"; "seek overhead" ]
    ~notes:
      [
        "Single-disk pattern alternates between two distant regions (log \
         head vs reader), so every operation pays a full seek — the unit \
         size is what buys the seeks back.";
      ]
    (unit_rows @ stripe_rows @ [ net_row ])
