(* Tests for the ATM network substrate and devices. *)

let ms = Sim.Time.ms
let us = Sim.Time.us
let time = Alcotest.testable Sim.Time.pp ( = )

(* The textbook CRC-32, one byte per step and one bit per inner step:
   the oracle for the folding and table kernels behind [Atm.Crc32].
   [crc_byte] advances the register past one byte. *)
let crc_byte c byte =
  let c = ref (c lxor byte) in
  for _ = 1 to 8 do
    c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
  done;
  !c

let crc_reference b ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := crc_byte !c (Char.code (Bytes.get b i))
  done;
  !c lxor 0xFFFFFFFF

let crc_tests =
  [
    Alcotest.test_case "known vector" `Quick (fun () ->
        (* CRC-32("123456789") = 0xCBF43926 *)
        Alcotest.(check int) "check value" 0xCBF43926
          (Atm.Crc32.digest_bytes (Bytes.of_string "123456789")));
    Alcotest.test_case "empty input" `Quick (fun () ->
        Alcotest.(check int) "crc" 0 (Atm.Crc32.digest_bytes Bytes.empty));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"single bit flip changes the digest" ~count:100
         QCheck2.Gen.(pair (string_size ~gen:char (int_range 1 200)) nat)
         (fun (s, flip) ->
           let b = Bytes.of_string s in
           let original = Atm.Crc32.digest_bytes b in
           let i = flip mod (Bytes.length b * 8) in
           let byte = i / 8 and bit = i mod 8 in
           Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
           Atm.Crc32.digest_bytes b <> original));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"digest equals the byte-at-a-time reference at every alignment"
         ~count:200
         QCheck2.Gen.(
           int_range 0 4096 >>= fun len ->
           map (fun s -> (len, s)) (string_size ~gen:char (return (len + 15))))
         (fun (len, s) ->
           let b = Bytes.of_string s in
           List.for_all
             (fun pos ->
               Atm.Crc32.digest b ~pos ~len = crc_reference b ~pos ~len)
             (List.init 16 Fun.id)));
    Alcotest.test_case "largest AAL5 payload matches the reference" `Quick
      (fun () ->
        let b =
          Bytes.init 65_535 (fun i -> Char.chr (((i * 7919) lxor (i lsr 8)) land 0xff))
        in
        Alcotest.(check int) "crc"
          (crc_reference b ~pos:0 ~len:65_535)
          (Atm.Crc32.digest_bytes b));
    Alcotest.test_case "a range whose end overflows is rejected" `Quick
      (fun () ->
        (* [pos + len] wraps to a negative int here; the check must not
           let the kernel read past the buffer. *)
        match Atm.Crc32.digest (Bytes.make 16 'a') ~pos:1 ~len:max_int with
        | exception Invalid_argument _ -> ()
        | crc -> Alcotest.failf "digest returned %#x" crc);
    Alcotest.test_case "fold boundaries match the reference" `Quick (fun () ->
        (* Every length 0-1 100 at every pos 0-15 crosses the 64-byte
           entry to the 128-bit fold and the 256-byte entry to the
           512-bit one, up to four 256-byte blocks, every
           count of 64-byte and 16-byte folds after them, and every 0-15
           byte tail; then every AAL5 CRC length (48k - 4 bytes) up to
           64 cells, plus the two largest frame sizes. *)
        let b =
          Bytes.init ((48 * 1366) + 16) (fun i ->
              Char.chr (((i * 7919) lxor (i lsr 5)) land 0xff))
        in
        let check ~pos ~len want =
          Alcotest.(check int)
            (Printf.sprintf "pos %d len %d" pos len)
            want
            (Atm.Crc32.digest b ~pos ~len)
        in
        for pos = 0 to 15 do
          let c = ref 0xFFFFFFFF in
          for len = 0 to 1_100 do
            check ~pos ~len (!c lxor 0xFFFFFFFF);
            c := crc_byte !c (Char.code (Bytes.get b (pos + len)))
          done
        done;
        List.iter
          (fun k ->
            let len = (48 * k) - 4 in
            check ~pos:0 ~len (crc_reference b ~pos:0 ~len))
          (List.init 64 succ @ [ 683; 1366 ]));
    Alcotest.test_case "the fold runs exactly where the CPU has it" `Quick
      (fun () ->
        (* A fold compiled out or never chosen would still pass every
           digest test above, on a narrower fold or the table loop. *)
        match
          In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
        with
        | exception Sys_error _ -> Alcotest.skip ()
        | cpuinfo ->
            let words =
              String.map (function '\t' | '\n' -> ' ' | c -> c) cpuinfo
              |> String.split_on_char ' '
            in
            let has flag = List.mem flag words in
            Alcotest.(check string) "kernel"
              (if not (has "pclmulqdq" && has "sse4_1") then "table"
               else if has "avx512f" && has "vpclmulqdq" then "vpclmul"
               else "clmul")
              Atm.Crc32.kernel);
  ]

let util_tests =
  [
    Alcotest.test_case "u16/u32/i64 round-trip" `Quick (fun () ->
        let b = Bytes.create 16 in
        Atm.Util.put_u16 b 0 0xBEEF;
        Atm.Util.put_u32 b 2 0xDEADBEEF;
        Atm.Util.put_i64 b 6 (Sim.Time.ns (-123456789));
        Alcotest.(check int) "u16" 0xBEEF (Atm.Util.get_u16 b 0);
        Alcotest.(check int) "u32" 0xDEADBEEF (Atm.Util.get_u32 b 2);
        Alcotest.check time "i64" (Sim.Time.ns (-123456789)) (Atm.Util.get_i64 b 6));
  ]

let cell_tests =
  [
    Alcotest.test_case "cells are 53 bytes, 424 bits" `Quick (fun () ->
        Alcotest.(check int) "total" 53 Atm.Cell.total_bytes;
        Alcotest.(check int) "bits" 424 Atm.Cell.wire_bits);
    Alcotest.test_case "payload size is enforced" `Quick (fun () ->
        Alcotest.check_raises "short"
          (Invalid_argument "Cell.view: payload range out of bounds")
          (fun () ->
            ignore
              (Atm.Cell.view ~vci:1 ~last:false (Bytes.create 10) ~off:0)));
    Alcotest.test_case "tx time at 100 Mbit/s is 4.24us" `Quick (fun () ->
        Alcotest.check time "4240ns" (Sim.Time.ns 4240)
          (Atm.Cell.tx_time ~bandwidth_bps:100_000_000));
  ]

(* The reassembler's callbacks as a result: the view is copied inside
   the callback, as a receiver that keeps the bytes does. *)
let push_cell r c =
  let res = ref None in
  Atm.Aal5.Reassembler.push r c
    ~ok:(fun buf off len -> res := Some (Ok (Bytes.sub buf off len)))
    ~err:(fun e -> res := Some (Error e));
  !res

(* A tile packet's frame, built by the writer the camera uses. *)
let tile_pdu (p : Atm.Tile.packet) =
  Atm.Tile.pdu ~x:p.x ~y:p.y ~frame:p.frame ~count:p.count
    ~bytes_per_tile:p.bytes_per_tile ~captured_at:p.captured_at (fun buf ->
      Bytes.blit p.data 0 buf 0 (Bytes.length p.data))

let tile_cells ~vci p =
  let train = Atm.Train.make ~vci (tile_pdu p) in
  List.init (Atm.Train.count train) (Atm.Train.cell train)

let aal5_tests =
  [
    Alcotest.test_case "frame_cells accounts for the trailer" `Quick (fun () ->
        Alcotest.(check int) "0 bytes" 1 (Atm.Aal5.frame_cells 0);
        Alcotest.(check int) "40 bytes" 1 (Atm.Aal5.frame_cells 40);
        Alcotest.(check int) "41 bytes" 2 (Atm.Aal5.frame_cells 41);
        Alcotest.(check int) "88 bytes" 2 (Atm.Aal5.frame_cells 88));
    Alcotest.test_case "only the final cell is marked last" `Quick (fun () ->
        let cells = Atm.Aal5.segment ~vci:5 (Bytes.create 100) in
        Alcotest.(check int) "count" 3 (List.length cells);
        List.iteri
          (fun i (c : Atm.Cell.t) ->
            Alcotest.(check bool) "last flag" (i = 2) c.last;
            Alcotest.(check int) "vci" 5 c.vci)
          cells);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"segment/reassemble round-trips" ~count:200
         QCheck2.Gen.(string_size ~gen:char (int_range 0 5000))
         (fun s ->
           let payload = Bytes.of_string s in
           let cells = Atm.Aal5.segment ~vci:1 payload in
           let r = Atm.Aal5.Reassembler.create () in
           let rec feed = function
             | [] -> false
             | [ c ] -> begin
                 match push_cell r c with
                 | Some (Ok b) -> Bytes.equal b payload
                 | Some (Error _) | None -> false
               end
             | c :: rest ->
                 (match push_cell r c with
                 | None -> feed rest
                 | Some _ -> false)
           in
           feed cells));
    Alcotest.test_case "corruption is detected" `Quick (fun () ->
        let cells = Atm.Aal5.segment ~vci:1 (Bytes.of_string "hello, pegasus") in
        let r = Atm.Aal5.Reassembler.create () in
        (match cells with
        | [ c ] ->
            Bytes.set c.buf (c.off + 3) 'X';
            (match push_cell r c with
            | Some (Error Atm.Aal5.Crc_mismatch) -> ()
            | _ -> Alcotest.fail "expected CRC mismatch")
        | _ -> Alcotest.fail "expected one cell"));
    Alcotest.test_case "reassembler recovers after an error" `Quick (fun () ->
        let r = Atm.Aal5.Reassembler.create () in
        let bad = Atm.Aal5.segment ~vci:1 (Bytes.of_string "corrupt me") in
        (match bad with
        | [ c ] ->
            Bytes.set c.buf (c.off + 0) '!';
            ignore (push_cell r c)
        | _ -> Alcotest.fail "one cell expected");
        let ok = Atm.Aal5.segment ~vci:1 (Bytes.of_string "clean frame") in
        let result =
          List.fold_left (fun _ c -> push_cell r c) None ok
        in
        match result with
        | Some (Ok b) -> Alcotest.(check string) "payload" "clean frame" (Bytes.to_string b)
        | _ -> Alcotest.fail "expected clean reassembly");
    Alcotest.test_case "build lays out payload, padding, length and CRC"
      `Quick (fun () ->
        (* The CPCS-PDU written out from its definition: the payload,
           zeros up to a whole number of cells with UU and CPI among
           them, the 16-bit length, then the CRC-32 of all before it. *)
        List.iter
          (fun len ->
            let payload = Bytes.init len (fun i -> Char.chr ((i * 29) land 0xff)) in
            let n = Atm.Aal5.frame_cells len * Atm.Cell.payload_bytes in
            let want = Bytes.make n '\000' in
            Bytes.blit payload 0 want 0 len;
            Bytes.set_uint16_be want (n - 6) len;
            Bytes.set_int32_be want (n - 4)
              (Int32.of_int (crc_reference want ~pos:0 ~len:(n - 4)));
            Alcotest.(check bytes) (Printf.sprintf "%d bytes" len) want
              (Atm.Aal5.build len (fun pdu -> Bytes.blit payload 0 pdu 0 len)))
          [ 0; 1; 39; 40; 41; 916; 65_535 ];
        Alcotest.check_raises "too long"
          (Invalid_argument "Aal5.build: payload length out of range")
          (fun () -> ignore (Atm.Aal5.build 65_536 ignore)));
    Alcotest.test_case "oversized frame reports Too_long" `Quick (fun () ->
        let r = Atm.Aal5.Reassembler.create ~max_frame:96 () in
        let cell () = Atm.Cell.make_blank ~vci:1 ~last:false in
        ignore (push_cell r (cell ()));
        ignore (push_cell r (cell ()));
        match push_cell r (cell ()) with
        | Some (Error Atm.Aal5.Too_long) -> ()
        | _ -> Alcotest.fail "expected Too_long");
  ]

(* A one-link rig: sender closure + received cells with arrival times. *)
let link_rig ?(bandwidth_bps = 100_000_000) ?(prop = us 5) ?(queue_cells = 256) ()
    =
  let e = Sim.Engine.create () in
  let received = ref [] in
  let link =
    Atm.Link.create e ~bandwidth_bps ~prop ~queue_cells
      ~rx:(fun c -> received := (Sim.Engine.now e, c) :: !received)
      ()
  in
  (e, link, received)

let link_tests =
  [
    Alcotest.test_case "delivery = serialisation + propagation" `Quick (fun () ->
        let e, link, received = link_rig () in
        Atm.Link.send link (Atm.Cell.make_blank ~vci:1 ~last:true);
        Sim.Engine.run e;
        match !received with
        | [ (at, _) ] ->
            Alcotest.check time "arrival"
              (Sim.Time.add (Sim.Time.ns 4240) (us 5))
              at
        | _ -> Alcotest.fail "expected one cell");
    Alcotest.test_case "back-to-back cells serialise in turn" `Quick (fun () ->
        let e, link, received = link_rig () in
        Atm.Link.send link (Atm.Cell.make_blank ~vci:1 ~last:false);
        Atm.Link.send link (Atm.Cell.make_blank ~vci:1 ~last:true);
        Sim.Engine.run e;
        match List.rev !received with
        | [ (t1, _); (t2, _) ] ->
            Alcotest.check time "spacing" (Sim.Time.ns 4240) (Sim.Time.sub t2 t1)
        | _ -> Alcotest.fail "expected two cells");
    Alcotest.test_case "queue overflow drops and counts" `Quick (fun () ->
        let e, link, received = link_rig ~queue_cells:4 () in
        for _ = 1 to 10 do
          Atm.Link.send link (Atm.Cell.make_blank ~vci:1 ~last:true)
        done;
        Sim.Engine.run e;
        Alcotest.(check int) "dropped" 6 (Atm.Link.cells_dropped link);
        Alcotest.(check int) "delivered" 4 (List.length !received);
        Alcotest.(check int) "sent counter" 4 (Atm.Link.cells_sent link));
    Alcotest.test_case "utilisation reflects busy time" `Quick (fun () ->
        let e, link, _ = link_rig () in
        (* 100 cells at 4.24us each = 424us busy *)
        for _ = 1 to 100 do
          Atm.Link.send link (Atm.Cell.make_blank ~vci:1 ~last:true)
        done;
        Sim.Engine.run e ~until:(ms 1);
        let u = Atm.Link.utilisation link ~since:Sim.Time.zero in
        Alcotest.(check bool) "~42%" true (u > 0.40 && u < 0.45));
  ]

(* Minor words per train through one switch with [streams] streams in
   flight.  Stream [s] enters port 0 on VCI [s] and leaves by its own
   port and link, so only the switch sees how many streams there are.
   Every 10 us one stream, in turn, hands over a 4-cell train whose
   arrivals span [streams] periods. *)
let words_per_switched_train streams =
  let e = Sim.Engine.create () in
  let sw = Atm.Switch.create e ~name:"sw" ~ports:(streams + 1) in
  for s = 0 to streams - 1 do
    let link =
      Atm.Link.create e
        ~rx:(fun _ -> ())
        ~rx_train:(Atm.Link.Frame_end (fun _ -> ()))
        ()
    in
    Atm.Switch.attach_output sw (s + 1) link;
    Atm.Switch.add_route sw ~in_port:0 ~in_vci:s ~out_port:(s + 1) ~out_vci:s
  done;
  let period = 10_000 and cells = 4 in
  let pdu = Bytes.create (cells * Atm.Cell.payload_bytes) in
  let trains = ref 0 in
  Sim.Engine.every e ~period:(Sim.Time.ns period) (fun () ->
      let now = Sim.Time.to_ns (Sim.Engine.now e) in
      let train = Atm.Train.make ~vci:(!trains mod streams) pdu in
      let arrivals =
        Atm.Cell_times.of_runs [| now; streams * period / cells; cells |]
      in
      Atm.Switch.input_train sw 0 train ~arrivals;
      incr trains;
      true);
  (* Warm up: the engine, the queue and the pending list grow. *)
  Sim.Engine.run e ~until:(Sim.Time.ns (20 * streams * period));
  let trains0 = !trains and minor0 = Gc.minor_words () in
  Sim.Engine.run e ~until:(Sim.Time.ns (40 * streams * period));
  let minor1 = Gc.minor_words () in
  ignore (Atm.Switch.cells_switched sw);
  (minor1 -. minor0) /. Float.of_int (!trains - trains0)

let switch_tests =
  [
    Alcotest.test_case "routes and rewrites VCIs" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let got = ref [] in
        let out =
          Atm.Link.create e ~rx:(fun c -> got := c.Atm.Cell.vci :: !got) ()
        in
        let sw = Atm.Switch.create e ~name:"sw" ~ports:4 in
        Atm.Switch.attach_output sw 1 out;
        Atm.Switch.add_route sw ~in_port:0 ~in_vci:42 ~out_port:1 ~out_vci:99;
        Atm.Switch.input sw 0 (Atm.Cell.make_blank ~vci:42 ~last:true);
        Sim.Engine.run e;
        Alcotest.(check (list int)) "rewritten" [ 99 ] !got;
        Alcotest.(check int) "switched" 1 (Atm.Switch.cells_switched sw));
    Alcotest.test_case "unroutable cells are dropped" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let sw = Atm.Switch.create e ~name:"sw" ~ports:2 in
        Atm.Switch.input sw 0 (Atm.Cell.make_blank ~vci:7 ~last:true);
        Sim.Engine.run e;
        Alcotest.(check int) "unroutable" 1 (Atm.Switch.cells_unroutable sw));
    Alcotest.test_case "duplicate route rejected, removal works" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let sw = Atm.Switch.create e ~name:"sw" ~ports:2 in
        Atm.Switch.add_route sw ~in_port:0 ~in_vci:1 ~out_port:1 ~out_vci:2;
        Alcotest.check_raises "dup" (Invalid_argument "Switch.add_route: route exists")
          (fun () ->
            Atm.Switch.add_route sw ~in_port:0 ~in_vci:1 ~out_port:1 ~out_vci:3);
        Atm.Switch.remove_route sw ~in_port:0 ~in_vci:1;
        Alcotest.(check bool) "gone" true
          (Atm.Switch.route sw ~in_port:0 ~in_vci:1 = None));
    (* The table keys a (port, VCI) pair by one int: it must still tell
       every pair apart, at the ends of the port range and for VCIs far
       beyond 16 bits. *)
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"routes agree with a table keyed by (port, VCI) pairs"
         ~count:200
         QCheck2.Gen.(
           let ports = int_range 1 70 in
           let vci =
             oneof [ oneofl [ 0; 1; 65_535; 1 lsl 40 ]; int_bound 40 ]
           in
           let op = triple (int_bound 2) (pair bool vci) (int_bound 1_000) in
           pair ports (list_size (int_range 1 200) op))
         (fun (nports, ops) ->
           let e = Sim.Engine.create () in
           let sw = Atm.Switch.create e ~name:"sw" ~ports:nports in
           let model = Hashtbl.create 16 in
           List.for_all
             (fun (kind, (high_port, in_vci), out_vci) ->
               (* Ports 0 and [nports - 1] only: the ends of the range. *)
               let in_port = if high_port then nports - 1 else 0 in
               let key = (in_port, in_vci) in
               match kind with
               | 0 ->
                   let raised =
                     match
                       Atm.Switch.add_route sw ~in_port ~in_vci ~out_port:0
                         ~out_vci
                     with
                     | () -> false
                     | exception Invalid_argument _ -> true
                   in
                   let dup = Hashtbl.mem model key in
                   if not dup then Hashtbl.replace model key (0, out_vci);
                   raised = dup
               | 1 ->
                   Atm.Switch.remove_route sw ~in_port ~in_vci;
                   Hashtbl.remove model key;
                   Atm.Switch.route sw ~in_port ~in_vci = None
               | _ ->
                   Hashtbl.fold
                     (fun (in_port, in_vci) r ok ->
                       ok && Atm.Switch.route sw ~in_port ~in_vci = Some r)
                     model true
                   && Atm.Switch.route sw ~in_port ~in_vci
                      = Hashtbl.find_opt model key)
             ops));
    Alcotest.test_case "a train's words stay flat from 8 to 256 streams" `Quick
      (fun () ->
        (* A stream's burst stays in flight for three quarters of as
           many periods as there are streams, so the switch holds that
           many pending bursts.  Copying the list of them on every
           train read 109 minor words a train at 8 streams and 667 at
           256; pruning it when it has doubled reads about 80 at
           both. *)
        let w8 = words_per_switched_train 8
        and w256 = words_per_switched_train 256 in
        Printf.printf "minor words per train: %.1f at 8 streams, %.1f at 256\n"
          w8 w256;
        Alcotest.(check bool)
          (Printf.sprintf "%.1f -> %.1f words per train" w8 w256)
          true
          (w256 <= (1.25 *. w8) +. 8.0));
  ]

(* Standard two-host, one-switch rig used by several suites. *)
let star_net ?queue_cells () =
  let e = Sim.Engine.create () in
  let net = Atm.Net.create e in
  let sw = Atm.Net.add_switch net ~name:"fairisle" ~ports:8 in
  let a = Atm.Net.add_host net ~name:"hosta" in
  let b = Atm.Net.add_host net ~name:"hostb" in
  Atm.Net.connect net ?queue_cells a sw;
  Atm.Net.connect net ?queue_cells b sw;
  (e, net, a, b)

(* A star whose queues hold a whole 32 KB frame. *)
let pipe_net () = star_net ~queue_cells:(Atm.Aal5.frame_cells 32_768 + 64) ()

(* [len] bytes that differ from byte to byte and from [k] to [k]. *)
let pattern len k = Bytes.init len (fun i -> Char.chr (((i * 7) + k) land 0xff))

(* After a warm-up frame has built the PDU and the receive buffer of
   its length, 64 more 32 KB frames on a fresh pipe of [net] allocate
   nothing directly in the major heap: the pipe copies the checked
   payload into that buffer and lends it to [rx].  A fresh copy per
   frame reads 4 098 words.  [Gc.counters] reads this domain's live
   counters; [Gc.quick_stat]'s copy is sampled and can lag a major
   slice behind. *)
let lend_words e net a b =
  let payload = Bytes.make 32_768 'p' in
  let intact = ref 0 in
  let vc =
    Atm.Net.open_pipe net ~src:a ~dst:b ~rx:(fun ~flow:_ p ->
        if Bytes.equal p payload then incr intact)
  in
  let frame () =
    Atm.Net.send_frame vc payload;
    Sim.Engine.run e
  in
  frame ();
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let frames = 64 in
  let w0 = direct () in
  for _ = 1 to frames do
    frame ()
  done;
  let per_frame = (direct () -. w0) /. Float.of_int frames in
  Printf.printf "%.1f major words per frame\n" per_frame;
  Alcotest.(check int) "every frame arrived intact" (frames + 1) !intact;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f major words per frame, under 64" per_frame)
    true (per_frame < 64.0)

let net_tests =
  [
    Alcotest.test_case "frame crosses a switched path" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let got = ref None in
        let rx, _ =
          Atm.Net.frame_rx
            ~rx:(fun ~flow:_ buf off len ->
              got := Some (Bytes.sub_string buf off len))
            ()
        in
        let vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx in
        Alcotest.(check int) "two hops" 2 (Atm.Net.vc_hops vc);
        Atm.Net.send_frame vc (Bytes.of_string "over the fabric");
        Sim.Engine.run e;
        Alcotest.(check (option string)) "payload" (Some "over the fabric") !got);
    Alcotest.test_case "open_pipe hands each frame a private copy" `Quick
      (fun () ->
        (* Two frames of one payload buffer share one PDU in flight, and
           each arrives whole, to be checked in place on it.  A receiver
           that overwrites what it got must not change the next
           delivery. *)
        let e, net, a, b = star_net () in
        let got = ref [] in
        let vc =
          Atm.Net.open_pipe net ~src:a ~dst:b ~rx:(fun ~flow:_ p ->
              got := Bytes.to_string p :: !got;
              Bytes.fill p 0 (Bytes.length p) 'X')
        in
        let text = "one payload buffer, sent twice" in
        let payload = Bytes.of_string text in
        Atm.Net.send_frame vc payload;
        Atm.Net.send_frame vc payload;
        Sim.Engine.run e;
        Alcotest.(check (list string)) "both deliveries intact" [ text; text ]
          !got);
    Alcotest.test_case "open_pipe lends a 32 KB frame without allocating it"
      `Quick (fun () ->
        let e, net, a, b = pipe_net () in
        lend_words e net a b);
    Alcotest.test_case "a receiver that raised leaves the pipes lending"
      `Quick (fun () ->
        (* The exception leaves [Engine.run] from inside the lend; the
           frames after it, on another pipe of the same net, are still
           lent the net's buffer, not each given a fresh copy. *)
        let e, net, a, b = pipe_net () in
        let bad =
          Atm.Net.open_pipe net ~src:a ~dst:b ~rx:(fun ~flow:_ _ ->
              failwith "rx")
        in
        Atm.Net.send_frame bad (Bytes.make 32_768 'r');
        Alcotest.check_raises "escapes the run" (Failure "rx") (fun () ->
            Sim.Engine.run e);
        lend_words e net a b);
    Alcotest.test_case "frames of two lengths on two pipes arrive whole"
      `Quick (fun () ->
        (* 64-byte and 32 KB frames interleaved on two pipes of one net,
           each of its own content, then lengths enough to cycle every
           receive buffer the net keeps.  Each delivery has its own
           length and bytes, whatever the net lent before it. *)
        let e, net, a, b = pipe_net () in
        let got = Array.make 2 [] and sent = Array.make 2 [] in
        let pipes =
          Array.init 2 (fun i ->
              Atm.Net.open_pipe net ~src:a ~dst:b ~rx:(fun ~flow:_ p ->
                  got.(i) <- Bytes.to_string p :: got.(i)))
        in
        let send i payload =
          sent.(i) <- Bytes.to_string payload :: sent.(i);
          Atm.Net.send_frame pipes.(i) payload
        in
        for k = 0 to 7 do
          send 0 (pattern 64 k);
          send 1 (pattern 32_768 k);
          Sim.Engine.run e
        done;
        List.iteri
          (fun k len ->
            send (k mod 2) (pattern len k);
            Sim.Engine.run e)
          [ 100; 1_000; 5_000; 48; 20_000; 64; 0; 32_768; 100 ];
        let check i what =
          let lengths l = List.rev_map String.length l in
          Alcotest.(check (list int))
            (what ^ ": lengths") (lengths sent.(i)) (lengths got.(i));
          Alcotest.(check bool)
            (what ^ ": bytes") true
            (List.equal String.equal sent.(i) got.(i))
        in
        check 0 "first pipe";
        check 1 "second pipe");
    Alcotest.test_case "independent VCs get distinct VCIs at the sink" `Quick
      (fun () ->
        let _, net, a, b = star_net () in
        let vc1 = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> ()) in
        let vc2 = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> ()) in
        Alcotest.(check bool) "distinct" true
          (Atm.Net.vc_dst_vci vc1 <> Atm.Net.vc_dst_vci vc2));
    Alcotest.test_case "close_vc stops delivery" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let count = ref 0 in
        let vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> incr count) in
        Atm.Net.send vc (Atm.Cell.make_blank ~vci:0 ~last:true);
        Sim.Engine.run e;
        Atm.Net.close_vc net vc;
        Atm.Net.send vc (Atm.Cell.make_blank ~vci:0 ~last:true);
        Sim.Engine.run e;
        Alcotest.(check int) "one delivery" 1 !count);
    Alcotest.test_case "no path raises" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let net = Atm.Net.create e in
        let a = Atm.Net.add_host net ~name:"a" in
        let b = Atm.Net.add_host net ~name:"b" in
        Alcotest.check_raises "no path" (Failure "Net.open_vc: no path") (fun () ->
            ignore (Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> ()))));
    Alcotest.test_case "find looks nodes up by name" `Quick (fun () ->
        let _, net, a, _ = star_net () in
        Alcotest.(check string) "name" "hosta"
          (Atm.Net.node_name net (Atm.Net.find net "hosta"));
        Alcotest.(check bool) "same node" true (Atm.Net.find net "hosta" = a));
    Alcotest.test_case "multi-switch path installs all hops" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let net = Atm.Net.create e in
        let s1 = Atm.Net.add_switch net ~name:"s1" ~ports:4 in
        let s2 = Atm.Net.add_switch net ~name:"s2" ~ports:4 in
        let s3 = Atm.Net.add_switch net ~name:"s3" ~ports:4 in
        let a = Atm.Net.add_host net ~name:"a" in
        let b = Atm.Net.add_host net ~name:"b" in
        Atm.Net.connect net a s1;
        Atm.Net.connect net s1 s2;
        Atm.Net.connect net s2 s3;
        Atm.Net.connect net s3 b;
        let got = ref 0 in
        let vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> incr got) in
        Alcotest.(check int) "hops" 4 (Atm.Net.vc_hops vc);
        Atm.Net.send vc (Atm.Cell.make_blank ~vci:0 ~last:true);
        Sim.Engine.run e;
        Alcotest.(check int) "delivered" 1 !got);
  ]

let tile_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"tile packet PDU round-trips in place" ~count:200
         QCheck2.Gen.(
           tup5 (int_range 0 200) (int_range 0 100) (int_range 0 10000)
             (int_range 1 16) (int_range 2 64))
         (fun (x, y, frame, count, bpt) ->
           let data = Bytes.init (count * bpt) (fun i -> Char.chr (i land 0xff)) in
           let p =
             {
               Atm.Tile.x;
               y;
               frame;
               count;
               bytes_per_tile = bpt;
               captured_at = Sim.Time.us 123;
               data;
             }
           in
           (* Through a reassembler, read where the view lands. *)
           let r = Atm.Aal5.Reassembler.create () in
           let read = ref None in
           Atm.Aal5.Reassembler.push_train r
             (Atm.Train.make ~vci:1 (tile_pdu p))
             ~ok:(fun buf off len ->
               read :=
                 Some
                   ( Atm.Tile.well_formed buf off len,
                     ( Atm.Tile.x buf off len,
                       Atm.Tile.y buf off len,
                       Atm.Tile.frame buf off len,
                       Atm.Tile.count buf off len,
                       Atm.Tile.bytes_per_tile buf off len ),
                     Atm.Tile.captured_at buf off len,
                     Atm.Tile.copy buf off len ))
             ~err:(fun _ -> ());
           match !read with
           | Some (true, fields, stamp, copy) ->
               fields = (x, y, frame, count, bpt)
               && stamp = Sim.Time.us 123
               && copy = p
           | Some (false, _, _, _) | None -> false));
    Alcotest.test_case "the trailer check rejects junk" `Quick (fun () ->
        Alcotest.(check bool) "short" false
          (Atm.Tile.well_formed (Bytes.create 3) 0 3);
        (* count x bytes_per_tile = 0x2a2a x 0x2a2a, not the 20 bytes
           before the trailer *)
        Alcotest.(check bool) "inconsistent" false
          (Atm.Tile.well_formed (Bytes.make 40 '\042') 0 40);
        (* The check reads the view, not the buffer around it. *)
        let p =
          {
            Atm.Tile.x = 1;
            y = 2;
            frame = 3;
            count = 2;
            bytes_per_tile = 8;
            captured_at = Sim.Time.zero;
            data = Bytes.make 16 'd';
          }
        in
        let pdu = tile_pdu p in
        let len = 16 + 20 in
        Alcotest.(check bool) "well formed" true (Atm.Tile.well_formed pdu 0 len);
        let shifted = Bytes.cat (Bytes.make 5 'j') pdu in
        Alcotest.(check bool) "at an offset" true
          (Atm.Tile.well_formed shifted 5 len);
        Alcotest.(check bool) "one byte short" false
          (Atm.Tile.well_formed pdu 0 (len - 1));
        (* A frame that passes AAL5 but is no tile packet is faulty at
           the display, and paints nothing. *)
        let e = Sim.Engine.create () in
        let d = Atm.Display.create e () in
        Atm.Display.add_window d ~vci:1 ~x:0 ~y:0 ~width:64 ~height:64;
        let junk = Bytes.make 40 '\042' in
        let train =
          Atm.Train.make ~vci:1
            (Atm.Aal5.build 40 (fun b -> Bytes.blit junk 0 b 0 40))
        in
        Atm.Display.train_rx d train;
        Alcotest.(check int) "faulty" 1 (Atm.Display.faulty_frames d);
        Alcotest.(check int) "blitted" 0 (Atm.Display.tiles_blitted d ~vci:1));
  ]

(* Camera wired to display across the star network. *)
let video_rig ?mode ?release ?(width = 64) ?(height = 48) () =
  let e, net, a, b = star_net () in
  let display = Atm.Display.create e () in
  let vc =
    Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun c -> Atm.Display.cell_rx display c)
  in
  let camera =
    Atm.Camera.create e ~vc ~width ~height ~fps:25 ?mode ?release ()
  in
  Atm.Display.add_window display ~vci:(Atm.Net.vc_dst_vci vc) ~x:100 ~y:50
    ~width ~height;
  (e, net, camera, display, Atm.Net.vc_dst_vci vc)

(* Minor words per raw 14-tile packet, camera -> switch -> display on
   the train path, in steady state.  Each packet is written once into
   its PDU, which the display blits from in place. *)
let words_per_raw_packet () =
  let width = 14 * Atm.Tile.size and height = 8 * Atm.Tile.size in
  let e, net, a, b = star_net () in
  let display =
    Atm.Display.create e ~screen_width:width ~screen_height:height ()
  in
  let vc =
    Atm.Net.open_vc net ~src:a ~dst:b ~rx:(Atm.Display.cell_rx display)
      ~rx_train:(Atm.Display.train_rx display)
  in
  let vci = Atm.Net.vc_dst_vci vc in
  Atm.Display.add_window display ~vci ~x:0 ~y:0 ~width ~height;
  let camera = Atm.Camera.create e ~vc ~width ~height ~fps:25 () in
  Atm.Camera.start camera;
  (* Warm up: the engine, the display's maps and the samples grow. *)
  Sim.Engine.run e ~until:(ms 400);
  let sent0 = Atm.Camera.packets_sent camera in
  let minor0 = Gc.minor_words () in
  Sim.Engine.run e ~until:(ms 1_400);
  let minor1 = Gc.minor_words () in
  let packets = Atm.Camera.packets_sent camera - sent0 in
  Alcotest.(check int) "no faulty frames" 0 (Atm.Display.faulty_frames display);
  Alcotest.(check bool) "every tile blitted" true
    (Atm.Display.tiles_blitted display ~vci
    >= 14 * (Atm.Camera.packets_sent camera - 8));
  (minor1 -. minor0) /. Float.of_int packets

let camera_display_tests =
  [
    Alcotest.test_case
      "a raw tile packet reaches the framebuffer through one payload buffer"
      `Quick (fun () ->
        (* A 14-tile packet's PDU is 20 cells, 121 words; the rest is
           events and trains.  It reads 285 words in the dev profile,
           and the bound is that plus 10%.  With a (port, VCI) tuple
           and an option per switch and display lookup, an option per
           link event and the switch's pending bursts copied per train,
           it read 305; with boxed [int64] times, 387.  Copying the
           tiles through a tile buffer, a marshalled packet, a framed
           PDU, the reassembler's payload and the unmarshalled data
           read 870. *)
        let words = words_per_raw_packet () in
        Printf.printf "minor words per raw packet: %.1f\n" words;
        Alcotest.(check bool)
          (Printf.sprintf "%.1f minor words per packet <= 314" words)
          true (words <= 314.));
    Alcotest.test_case "video flows camera to display untouched by hosts" `Quick
      (fun () ->
        let e, _, camera, display, vci = video_rig () in
        Atm.Camera.start camera;
        Sim.Engine.run e ~until:(ms 90);
        Atm.Camera.stop camera;
        Alcotest.(check int) "frames captured" 2 (Atm.Camera.frames_captured camera);
        (* 64x48 = 8x6 tiles; all should be inside the window. *)
        Alcotest.(check bool) "tiles blitted" true
          (Atm.Display.tiles_blitted display ~vci >= 48);
        Alcotest.(check int) "nothing clipped" 0
          (Atm.Display.tiles_clipped display ~vci);
        Alcotest.(check int) "no faulty frames" 0 (Atm.Display.faulty_frames display));
    Alcotest.test_case "pixels land at the window offset" `Quick (fun () ->
        let e, _, camera, display, _ = video_rig () in
        Atm.Camera.start camera;
        Sim.Engine.run e ~until:(ms 90);
        (* Window is at (100,50); the framebuffer should be non-zero there
           and untouched at the origin. *)
        let painted = ref false in
        for dx = 0 to 63 do
          if Atm.Display.screen_byte display ~x:(100 + dx) ~y:51 <> 0 then
            painted := true
        done;
        Alcotest.(check bool) "window painted" true !painted;
        Alcotest.(check int) "outside untouched" 0
          (Atm.Display.screen_byte display ~x:0 ~y:0));
    Alcotest.test_case "moving a window redirects subsequent tiles" `Quick
      (fun () ->
        let e, _, camera, display, vci = video_rig () in
        Atm.Camera.start camera;
        Sim.Engine.run e ~until:(ms 45);
        Atm.Display.move_window display ~vci ~x:500 ~y:500;
        Sim.Engine.run e ~until:(ms 90);
        let painted = ref false in
        for dx = 0 to 63 do
          if Atm.Display.screen_byte display ~x:(500 + dx) ~y:501 <> 0 then
            painted := true
        done;
        Alcotest.(check bool) "new position painted" true !painted);
    Alcotest.test_case "resize clips out-of-window tiles" `Quick (fun () ->
        let e, _, camera, display, vci = video_rig () in
        Atm.Display.resize_window display ~vci ~width:32 ~height:24;
        Atm.Camera.start camera;
        Sim.Engine.run e ~until:(ms 45);
        Alcotest.(check bool) "clipped" true
          (Atm.Display.tiles_clipped display ~vci > 0));
    Alcotest.test_case "tile release beats whole-frame release on latency" `Quick
      (fun () ->
        let run release =
          let e, _, camera, display, vci = video_rig ~release () in
          Atm.Camera.start camera;
          Sim.Engine.run e ~until:(ms 200);
          Sim.Stats.Samples.percentile
            (Atm.Display.staging_latency_us display ~vci)
            50.0
        in
        let tile = run `Tile_row and frame = run `Whole_frame in
        Alcotest.(check bool)
          (Printf.sprintf "tile %.0fus << frame %.0fus" tile frame)
          true
          (tile *. 10.0 < frame));
    Alcotest.test_case "JPEG shrinks the data rate" `Quick (fun () ->
        let e, _, camera, display, _ =
          video_rig ~mode:(Atm.Camera.Jpeg { ratio = 8.0 }) ()
        in
        ignore display;
        Atm.Camera.start camera;
        Sim.Engine.run e ~until:(ms 90);
        let raw_rate = 64. *. 48. *. 8. *. 25. in
        Alcotest.(check bool) "about 8x less" true
          (Atm.Camera.data_rate_bps camera < raw_rate /. 7.0));
    Alcotest.test_case "frame callback fires per frame" `Quick (fun () ->
        let e, _, camera, _, _ = video_rig () in
        let frames = ref [] in
        Atm.Camera.on_frame camera (fun ~frame ~captured_at:_ ->
            frames := frame :: !frames);
        Atm.Camera.start camera;
        Sim.Engine.run e ~until:(ms 130);
        Alcotest.(check (list int)) "frames" [ 0; 1; 2 ] (List.rev !frames));
    Alcotest.test_case "camera pixel bytes follow the tile pattern" `Quick
      (fun () ->
        (* 16 tiles a row: a 14-tile packet (896 raw bytes, the pattern
           wraps three times) and a 2-tile one. *)
        List.iter
          (fun (name, mode) ->
            let e, _, camera, display, _ =
              video_rig ~mode ~width:128 ~height:48 ()
            in
            let packets = ref 0 in
            Atm.Display.on_blit display (fun ~vci:_ (p : Atm.Tile.packet) ->
                if p.frame < 3 then begin
                  incr packets;
                  Bytes.iteri
                    (fun i c ->
                      let want = (p.y + p.x + p.frame + i) land 0xff in
                      if Char.code c <> want then
                        Alcotest.failf
                          "%s frame %d row %d tile %d: byte %d is %d, want %d"
                          name p.frame p.y p.x i (Char.code c) want)
                    p.data
                end);
            Atm.Camera.start camera;
            Sim.Engine.run e ~until:(ms 130);
            Alcotest.(check int) (name ^ ": packets of frames 0-2") (3 * 6 * 2)
              !packets)
          [ ("raw", Atm.Camera.Raw); ("jpeg", Atm.Camera.Jpeg { ratio = 8.0 }) ]);
  ]

let audio_tests =
  [
    Alcotest.test_case "audio arrives with sequence integrity" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let sink = Atm.Audio.Sink.create e () in
        let vc =
          Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun c -> Atm.Audio.Sink.cell_rx sink c)
        in
        let src = Atm.Audio.Source.create e ~vc () in
        Atm.Audio.Source.start src;
        Sim.Engine.run e ~until:(ms 100);
        Atm.Audio.Source.stop src;
        Sim.Engine.run e;
        Alcotest.(check int) "all cells" (Atm.Audio.Source.cells_sent src)
          (Atm.Audio.Sink.cells_received sink);
        Alcotest.(check int) "no loss" 0 (Atm.Audio.Sink.lost_cells sink);
        Alcotest.(check int) "no late cells" 0 (Atm.Audio.Sink.late_cells sink);
        Alcotest.(check bool) "sent plenty" true (Atm.Audio.Source.cells_sent src > 200));
    Alcotest.test_case "idle network keeps jitter tiny" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let sink = Atm.Audio.Sink.create e () in
        let vc =
          Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun c -> Atm.Audio.Sink.cell_rx sink c)
        in
        let src = Atm.Audio.Source.create e ~vc () in
        Atm.Audio.Source.start src;
        Sim.Engine.run e ~until:(ms 100);
        Alcotest.(check bool) "sub-microsecond" true
          (Atm.Audio.Sink.jitter_us sink < 1.0));
    Alcotest.test_case "playout callbacks are isochronous" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let sink = Atm.Audio.Sink.create e () in
        let vc =
          Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun c -> Atm.Audio.Sink.cell_rx sink c)
        in
        let src = Atm.Audio.Source.create e ~vc () in
        let times = ref [] in
        Atm.Audio.Sink.on_playout sink (fun ~seq:_ ~stamp:_ ->
            times := Sim.Engine.now e :: !times);
        Atm.Audio.Source.start src;
        Sim.Engine.run e ~until:(ms 20);
        let rec gaps = function
          | a :: (b :: _ as rest) -> Sim.Time.sub a b :: gaps rest
          | _ -> []
        in
        let all_equal = function
          | [] -> true
          | g :: rest -> List.for_all (fun x -> x = g) rest
        in
        Alcotest.(check bool) "even spacing" true (all_equal (gaps !times));
        Alcotest.(check bool) "some playout" true (List.length !times > 10));
  ]

let control_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"control messages round-trip" ~count:100
         QCheck2.Gen.(
           oneof
             [
               return Atm.Control.Start;
               return Atm.Control.Stop;
               map3
                 (fun s u t ->
                   Atm.Control.Sync { stream = s; unit_id = u; stamp = Sim.Time.us t })
                 (int_range 0 100) (int_range 0 10000) (int_range 0 1000000);
               map3
                 (fun s o t ->
                   Atm.Control.Index_mark
                     { stream = s; offset = o; stamp = Sim.Time.us t })
                 (int_range 0 100) (int_range 0 1000000) (int_range 0 1000000);
             ])
         (fun msg -> Atm.Control.unmarshal (Atm.Control.marshal msg) = Some msg));
    Alcotest.test_case "merger combines control streams" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let got = ref [] in
        let out_rx, _ =
          Atm.Net.frame_rx
            ~rx:(fun ~flow:_ buf off len ->
              match Atm.Control.unmarshal (Bytes.sub buf off len) with
              | Some m -> got := m :: !got
              | None -> ())
            ()
        in
        let out = Atm.Net.open_vc net ~src:a ~dst:b ~rx:out_rx in
        let merger = Atm.Control.Merger.create ~out () in
        (* Two device control VCs loop back into the merger on host a. *)
        let dev1 = Atm.Net.open_vc net ~src:b ~dst:a ~rx:(Atm.Control.Merger.rx merger) in
        let dev2 = Atm.Net.open_vc net ~src:b ~dst:a ~rx:(Atm.Control.Merger.rx merger) in
        Atm.Net.send_frame dev1
          (Atm.Control.marshal
             (Atm.Control.Sync { stream = 1; unit_id = 7; stamp = Sim.Time.us 10 }));
        Atm.Net.send_frame dev2
          (Atm.Control.marshal
             (Atm.Control.Sync { stream = 2; unit_id = 7; stamp = Sim.Time.us 10 }));
        Sim.Engine.run e;
        Alcotest.(check int) "forwarded" 2 (Atm.Control.Merger.forwarded merger);
        Alcotest.(check int) "received" 2 (List.length !got));
    Alcotest.test_case "playback controller measures skew" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let pb = Atm.Control.Playback.create e () in
        (* Stream 1 renders 1 ms after capture, stream 2 renders 3 ms after. *)
        for u = 0 to 9 do
          let stamp = Sim.Time.ms (10 * (u + 1)) in
          List.iter
            (fun cell -> Atm.Control.Playback.control_rx pb cell)
            (Atm.Aal5.segment ~vci:1
               (Atm.Control.marshal
                  (Atm.Control.Sync { stream = 1; unit_id = u; stamp })));
          List.iter
            (fun cell -> Atm.Control.Playback.control_rx pb cell)
            (Atm.Aal5.segment ~vci:1
               (Atm.Control.marshal
                  (Atm.Control.Sync { stream = 2; unit_id = u; stamp })));
          ignore
            (Sim.Engine.schedule_at e
               ~at:(Sim.Time.add stamp (Sim.Time.ms 1))
               (fun () -> Atm.Control.Playback.data_event pb ~stream:1 ~unit_id:u));
          ignore
            (Sim.Engine.schedule_at e
               ~at:(Sim.Time.add stamp (Sim.Time.ms 3))
               (fun () -> Atm.Control.Playback.data_event pb ~stream:2 ~unit_id:u))
        done;
        Sim.Engine.run e;
        let skew = Atm.Control.Playback.skew_us pb ~a:1 ~b:2 in
        Alcotest.(check int) "pairs" 10 (Sim.Stats.Samples.count skew);
        Alcotest.(check (float 1.0)) "2ms skew" 2000.0
          (Sim.Stats.Samples.percentile skew 50.0));
  ]

let traffic_tests =
  [
    Alcotest.test_case "on/off source alternates" `Quick (fun () ->
        let e, net, a, b = star_net () in
        let vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> ()) in
        let rng = Sim.Rng.create ~seed:2L () in
        let source =
          Atm.Traffic.on_off e ~vc ~peak_bps:84_800_000 ~mean_on:(ms 2)
            ~mean_off:(ms 2) ~rng
        in
        Atm.Traffic.start source;
        Sim.Engine.run e ~until:(ms 100);
        Atm.Traffic.stop source;
        Sim.Engine.run e;
        let sent = Atm.Traffic.cells_sent source in
        (* Peak would be 20000 cells in 100ms; ~50% duty cycle expected. *)
        Alcotest.(check bool)
          (Printf.sprintf "duty cycled (%d)" sent)
          true
          (sent > 3000 && sent < 17000));
  ]

let reservation_tests =
  [
    Alcotest.test_case "reserved VC keeps its latency under load" `Quick
      (fun () ->
        let run reserved =
          let e, net, a, b = star_net () in
          let arrivals = Sim.Stats.Samples.create () in
          let stamps = Hashtbl.create 64 in
          let next = ref 0 in
          let vc =
            Atm.Net.open_vc
              ?reserve_bps:(if reserved then Some 1_000_000 else None)
              net ~src:a ~dst:b
              ~rx:(fun c ->
                (match Hashtbl.find_opt stamps c.Atm.Cell.vci with
                | Some _ -> ()
                | None -> ());
                Sim.Stats.Samples.add arrivals
                  (Sim.Time.to_us_f (Sim.Engine.now e)))
          in
          (* competing best-effort flood on the same path *)
          let cross_vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> ()) in
          let rng = Sim.Rng.create ~seed:3L () in
          let cross =
            Atm.Traffic.on_off e ~vc:cross_vc ~peak_bps:300_000_000
              ~mean_on:(Sim.Time.us 500) ~mean_off:(Sim.Time.ms 1) ~rng
          in
          Atm.Traffic.start cross;
          (* one probe cell every ms; jitter = spread of inter-arrivals *)
          let sent = Sim.Stats.Samples.create () in
          Sim.Engine.every e ~period:(Sim.Time.ms 1) (fun () ->
              incr next;
              Sim.Stats.Samples.add sent (Sim.Time.to_us_f (Sim.Engine.now e));
              Atm.Net.send vc (Atm.Cell.make_blank ~vci:0 ~last:true);
              !next < 100);
          Sim.Engine.run e ~until:(Sim.Time.ms 150);
          Atm.Traffic.stop cross;
          (* per-cell one-way delay spread *)
          let n = min (Sim.Stats.Samples.count sent) (Sim.Stats.Samples.count arrivals) in
          let s = Sim.Stats.Samples.to_array sent
          and r = Sim.Stats.Samples.to_array arrivals in
          let delays = Sim.Stats.Summary.create () in
          for i = 0 to n - 1 do
            Sim.Stats.Summary.add delays (r.(i) -. s.(i))
          done;
          Sim.Stats.Summary.stddev delays
        in
        let best_effort = run false and reserved = run true in
        Alcotest.(check bool)
          (Printf.sprintf "reserved %.1fus << best-effort %.1fus" reserved
             best_effort)
          true
          (reserved *. 5.0 < best_effort));
    Alcotest.test_case "admission control refuses over-subscription" `Quick
      (fun () ->
        let _, net, a, b = star_net () in
        ignore (Atm.Net.open_vc ~reserve_bps:60_000_000 net ~src:a ~dst:b ~rx:(fun _ -> ()));
        Alcotest.check_raises "refused"
          (Failure "Net.open_vc: reservation refused (admission)") (fun () ->
            ignore
              (Atm.Net.open_vc ~reserve_bps:40_000_000 net ~src:a ~dst:b
                 ~rx:(fun _ -> ()))));
    Alcotest.test_case "closing a reserved VC returns the bandwidth" `Quick
      (fun () ->
        let _, net, a, b = star_net () in
        let vc =
          Atm.Net.open_vc ~reserve_bps:60_000_000 net ~src:a ~dst:b
            ~rx:(fun _ -> ())
        in
        Alcotest.(check (option int)) "recorded" (Some 60_000_000)
          (Atm.Net.vc_reserved vc);
        Atm.Net.close_vc net vc;
        (* now the second reservation fits *)
        ignore
          (Atm.Net.open_vc ~reserve_bps:60_000_000 net ~src:a ~dst:b
             ~rx:(fun _ -> ())));
  ]

let stacking_tests =
  [
    Alcotest.test_case "a higher window occludes; raising repairs" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let d = Atm.Display.create e () in
        Atm.Display.add_window d ~vci:1 ~x:0 ~y:0 ~width:64 ~height:64;
        Atm.Display.add_window d ~vci:2 ~x:0 ~y:0 ~width:64 ~height:64;
        let packet vci tag =
          let data = Bytes.make (Atm.Tile.raw_bytes * 2) tag in
          let p =
            {
              Atm.Tile.x = 0;
              y = 0;
              frame = 0;
              count = 2;
              bytes_per_tile = Atm.Tile.raw_bytes;
              captured_at = Sim.Time.zero;
              data;
            }
          in
          List.iter (fun c -> Atm.Display.cell_rx d c) (tile_cells ~vci p)
        in
        (* window 2 is newer = on top: it wins the shared pixels *)
        packet 1 'a';
        packet 2 'b';
        Alcotest.(check int) "top window shows" (Char.code 'b')
          (Atm.Display.screen_byte d ~x:3 ~y:3);
        Alcotest.(check bool) "occluded pixels counted" true
          (Atm.Display.pixels_occluded d ~vci:1 = 0);
        packet 1 'a';
        Alcotest.(check bool) "bottom window occluded now" true
          (Atm.Display.pixels_occluded d ~vci:1 > 0);
        Alcotest.(check int) "still shows top" (Char.code 'b')
          (Atm.Display.screen_byte d ~x:3 ~y:3);
        (* raise window 1: the next repaint takes the pixels over *)
        Atm.Display.raise_window d ~vci:1;
        packet 1 'a';
        Alcotest.(check int) "raised window repaired" (Char.code 'a')
          (Atm.Display.screen_byte d ~x:3 ~y:3));
    Alcotest.test_case "lower_window yields the pixels on repaint" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let d = Atm.Display.create e () in
        Atm.Display.add_window d ~vci:1 ~x:0 ~y:0 ~width:16 ~height:16;
        Atm.Display.add_window d ~vci:2 ~x:0 ~y:0 ~width:16 ~height:16;
        Atm.Display.lower_window d ~vci:2;
        Alcotest.(check bool) "2 below 1" true
          (Atm.Display.z_order d ~vci:2 < Atm.Display.z_order d ~vci:1));
    Alcotest.test_case "window-manager decoration is paintable over" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let d = Atm.Display.create e () in
        Atm.Display.decorate d ~x:0 ~y:0 ~width:100 ~height:10 ~value:0xEE;
        Alcotest.(check int) "title bar drawn" 0xEE
          (Atm.Display.screen_byte d ~x:50 ~y:5);
        Atm.Display.add_window d ~vci:1 ~x:0 ~y:0 ~width:64 ~height:64;
        let data = Bytes.make Atm.Tile.raw_bytes 'w' in
        let p =
          {
            Atm.Tile.x = 0;
            y = 0;
            frame = 0;
            count = 1;
            bytes_per_tile = Atm.Tile.raw_bytes;
            captured_at = Sim.Time.zero;
            data;
          }
        in
        List.iter (fun c -> Atm.Display.cell_rx d c) (tile_cells ~vci:1 p);
        Alcotest.(check int) "window paints over decoration" (Char.code 'w')
          (Atm.Display.screen_byte d ~x:3 ~y:3));
  ]

(* Oracle for the display's line-clipped blit: a model screen painted
   pixel by pixel, with every bounds and ownership check made per
   pixel.  Window stacking is read from the display under test, so the
   two share one z-order. *)
type model_screen = {
  ms_w : int;
  ms_h : int;
  ms_fb : Bytes.t;
  ms_owners : int array;
  ms_occluded : (int, int) Hashtbl.t;
}

let model_may_paint d m ~vci ~idx =
  let owner = m.ms_owners.(idx) in
  if owner = -1 || owner = vci then true
  else
    match Atm.Display.z_order d ~vci:owner with
    | z -> z <= Atm.Display.z_order d ~vci
    | exception Invalid_argument _ -> true

let model_blit_tile d m ~vci ~sx ~sy data off =
  for line = 0 to Atm.Tile.size - 1 do
    let y = sy + line in
    if y >= 0 && y < m.ms_h then
      for px = 0 to Atm.Tile.size - 1 do
        let x = sx + px in
        if x >= 0 && x < m.ms_w
           && off + (line * Atm.Tile.size) + px < Bytes.length data
        then begin
          let idx = (y * m.ms_w) + x in
          if model_may_paint d m ~vci ~idx then begin
            m.ms_owners.(idx) <- vci;
            Bytes.set m.ms_fb idx
              (Bytes.get data (off + (line * Atm.Tile.size) + px))
          end
          else
            Hashtbl.replace m.ms_occluded vci
              (1 + Option.value ~default:0 (Hashtbl.find_opt m.ms_occluded vci))
        end
      done
  done

(* [Display.render]'s window clip, then the model blit. *)
let model_render d m ~vci ~wx ~wy ~ww ~wh (p : Atm.Tile.packet) =
  for i = 0 to p.count - 1 do
    let tile_px = (p.x + i) * Atm.Tile.size and tile_py = p.y * Atm.Tile.size in
    if
      tile_px + Atm.Tile.size <= ww
      && tile_py + Atm.Tile.size <= wh
      && tile_px >= 0 && tile_py >= 0
      && p.bytes_per_tile = Atm.Tile.raw_bytes
    then
      model_blit_tile d m ~vci ~sx:(wx + tile_px) ~sy:(wy + tile_py) p.data
        (i * p.bytes_per_tile)
  done

let model_create ~sw ~sh =
  {
    ms_w = sw;
    ms_h = sh;
    ms_fb = Bytes.make (sw * sh) '\000';
    ms_owners = Array.make (sw * sh) (-1);
    ms_occluded = Hashtbl.create 4;
  }

(* [Display.decorate] on the model. *)
let model_decorate m ~x ~y ~width ~height ~value =
  for py = Int.max 0 y to Int.min m.ms_h (y + height) - 1 do
    for px = Int.max 0 x to Int.min m.ms_w (x + width) - 1 do
      let idx = (py * m.ms_w) + px in
      m.ms_owners.(idx) <- -2;
      Bytes.set m.ms_fb idx (Char.chr (value land 0xff))
    done
  done

(* Every pixel of the screen, and each listed window's occluded count,
   against the model. *)
let check_model d m ~what vcis =
  for y = 0 to m.ms_h - 1 do
    for x = 0 to m.ms_w - 1 do
      let want = Char.code (Bytes.get m.ms_fb ((y * m.ms_w) + x)) in
      let got = Atm.Display.screen_byte d ~x ~y in
      if got <> want then
        Alcotest.failf "%s: pixel (%d,%d) is %d, reference %d" what x y got
          want
    done
  done;
  List.iter
    (fun vci ->
      Alcotest.(check int)
        (Printf.sprintf "%s: pixels occluded on %d" what vci)
        (Option.value ~default:0 (Hashtbl.find_opt m.ms_occluded vci))
        (Atm.Display.pixels_occluded d ~vci))
    vcis

(* One frame of a window at (wx, wy), clipped to ww x wh: one packet per
   tile row, one tile wider than the window so the window clip drops the
   last tile.  The bytes depend on the frame, so a stale copy shows.
   Each packet goes to the display and to the model. *)
let paint_window d m ~frame (vci, (wx, wy, ww, wh)) =
  for row = 0 to (wh / Atm.Tile.size) - 1 do
    let count = (ww / Atm.Tile.size) + 1 in
    let data =
      Bytes.init (count * Atm.Tile.raw_bytes) (fun i ->
          Char.chr (((vci * 97) + (frame * 31) + (row * 7) + i) land 0xff))
    in
    let p =
      {
        Atm.Tile.x = 0;
        y = row;
        frame;
        count;
        bytes_per_tile = Atm.Tile.raw_bytes;
        captured_at = Sim.Time.zero;
        data;
      }
    in
    List.iter (Atm.Display.cell_rx d) (tile_cells ~vci p);
    model_render d m ~vci ~wx ~wy ~ww ~wh p
  done

(* After each event, [frames] steady frames of every window in
   [windows] (VCI -> geometry), alternating the paint order, each
   checked against the model. *)
let paint_after_events d m windows ~frames events =
  let frame = ref 0 in
  List.iter
    (fun (event, change) ->
      change ();
      for _ = 1 to frames do
        let order = List.sort compare (List.of_seq (Hashtbl.to_seq windows)) in
        let order = if !frame mod 2 = 0 then order else List.rev order in
        List.iter (paint_window d m ~frame:!frame) order;
        check_model d m
          ~what:(Printf.sprintf "frame %d after %s" !frame event)
          (List.map fst order);
        incr frame
      done)
    events

let blit_differential_tests =
  [
    Alcotest.test_case "line-clipped blit equals the per-pixel reference" `Quick
      (fun () ->
        let sw = 64 and sh = 48 in
        let e = Sim.Engine.create () in
        let d = Atm.Display.create e ~screen_width:sw ~screen_height:sh () in
        let m = model_create ~sw ~sh in
        (* Window 1 hangs off the top-left corner, window 2 off the
           bottom-right; neither offset is a multiple of the tile size,
           so edge tiles are cut mid-line.  They overlap in the middle,
           where a title bar painted by the window manager also sits. *)
        let windows = [ (1, (-13, -10, 48, 40)); (2, (27, 19, 48, 40)) ] in
        List.iter
          (fun (vci, (x, y, width, height)) ->
            Atm.Display.add_window d ~vci ~x ~y ~width ~height)
          windows;
        Atm.Display.decorate d ~x:20 ~y:22 ~width:30 ~height:3 ~value:0xEE;
        model_decorate m ~x:20 ~y:22 ~width:30 ~height:3 ~value:0xEE;
        let restack =
          [|
            (fun () -> ());
            (fun () -> Atm.Display.raise_window d ~vci:1);
            (fun () -> Atm.Display.lower_window d ~vci:1);
            (fun () -> Atm.Display.raise_window d ~vci:1);
            (fun () -> Atm.Display.lower_window d ~vci:2);
            (fun () -> Atm.Display.raise_window d ~vci:2);
          |]
        in
        Array.iteri
          (fun frame change ->
            change ();
            let order = if frame mod 2 = 0 then windows else List.rev windows in
            List.iter (paint_window d m ~frame) order;
            check_model d m
              ~what:(Printf.sprintf "frame %d" frame)
              (List.map fst windows))
          restack;
        (* The scenario is not vacuous: both windows lost pixels to each
           other at some point. *)
        List.iter
          (fun (vci, _) ->
            Alcotest.(check bool)
              (Printf.sprintf "window %d was occluded" vci)
              true
              (Atm.Display.pixels_occluded d ~vci > 0))
          windows);
    Alcotest.test_case "verified-tile copies equal the per-pixel reference"
      `Quick (fun () ->
        let sw = 96 and sh = 64 in
        let e = Sim.Engine.create () in
        let d = Atm.Display.create e ~screen_width:sw ~screen_height:sh () in
        let m = model_create ~sw ~sh in
        let wm = Pegasus.Wm.create d in
        let windows = Hashtbl.create 4 in
        let place vci g = Hashtbl.replace windows vci g in
        (* Window 1 hangs off the left and top edges, window 2 off the
           right and bottom; window 3, managed by [Wm] with its title
           bar above it, lies wholly on screen, overlaps both, and is
           not a whole number of tiles wide. *)
        List.iter
          (fun (vci, ((x, y, width, height) as g)) ->
            Atm.Display.add_window d ~vci ~x ~y ~width ~height;
            place vci g)
          [ (1, (-13, -10, 48, 40)); (2, (67, 35, 48, 40)) ];
        let w3 =
          Pegasus.Wm.manage wm ~vci:3 ~title:"three" ~x:28 ~y:24 ~width:44
            ~height:26
        in
        (* [Wm] just drew window 3's title bar [width] wide; the model
           paints the same rectangle in the colour read back. *)
        let title_bar width =
          let y = 24 - Pegasus.Wm.title_bar_height in
          model_decorate m ~x:28 ~y ~width ~height:Pegasus.Wm.title_bar_height
            ~value:(Atm.Display.screen_byte d ~x:28 ~y)
        in
        place 3 (28, 24, 44, 26);
        title_bar 44;
        let move vci ~x ~y =
          Atm.Display.move_window d ~vci ~x ~y;
          let _, _, ww, wh = Hashtbl.find windows vci in
          place vci (x, y, ww, wh)
        and resize vci ~width ~height =
          Atm.Display.resize_window d ~vci ~width ~height;
          let wx, wy, _, _ = Hashtbl.find windows vci in
          place vci (wx, wy, width, height)
        in
        let events =
          [
            ("nothing", fun () -> ());
            ("move 1", fun () -> move 1 ~x:(-5) ~y:(-3));
            ("move 2 under 3", fun () -> move 2 ~x:60 ~y:30);
            ("shrink 1", fun () -> resize 1 ~width:21 ~height:19);
            ("grow 1", fun () -> resize 1 ~width:56 ~height:44);
            ( "iconize 3",
              fun () ->
                Pegasus.Wm.iconize wm w3;
                place 3 (28, 24, 16, 16);
                title_bar 16 );
            ( "restore 3",
              fun () ->
                Pegasus.Wm.restore wm w3;
                place 3 (28, 24, 44, 26);
                title_bar 44 );
            ( "decorate",
              fun () ->
                Atm.Display.decorate d ~x:4 ~y:18 ~width:80 ~height:20
                  ~value:0x5A;
                model_decorate m ~x:4 ~y:18 ~width:80 ~height:20 ~value:0x5A
            );
            ( "remove 2",
              fun () ->
                Atm.Display.remove_window d ~vci:2;
                Hashtbl.remove windows 2 );
            ( "add 2",
              fun () ->
                Atm.Display.add_window d ~vci:2 ~x:52 ~y:27 ~width:40
                  ~height:32;
                place 2 (52, 27, 40, 32);
                Hashtbl.remove m.ms_occluded 2 );
            ("lower 3", fun () -> Atm.Display.lower_window d ~vci:3);
            ("raise 1", fun () -> Atm.Display.raise_window d ~vci:1);
            ("lower 1", fun () -> Atm.Display.lower_window d ~vci:1);
            ("raise 3", fun () -> Atm.Display.raise_window d ~vci:3);
            (* Window 2's grid loses a column, so its tile numbers
               shift: tile (0, 1), under window 3, takes the number
               that tile (4, 0), which was verified, had. *)
            ("shrink 2", fun () -> resize 2 ~width:32 ~height:32);
            ("grow 2", fun () -> resize 2 ~width:40 ~height:32);
          ]
        in
        paint_after_events d m windows ~frames:3 events;
        (* Not vacuous: every window copied some tiles whole. *)
        Hashtbl.iter
          (fun vci _ ->
            Alcotest.(check bool)
              (Printf.sprintf "window %d copied tiles" vci)
              true
              (Atm.Display.tiles_checked d ~vci
              < Atm.Display.tiles_blitted d ~vci))
          windows);
    Alcotest.test_case "steady-state tiles skip the ownership check" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let d = Atm.Display.create e ~screen_width:128 ~screen_height:96 () in
        let m = model_create ~sw:128 ~sh:96 in
        (* Two disjoint 4x4-tile windows. *)
        let windows = Hashtbl.create 4 in
        let add vci ((x, y, width, height) as g) =
          Atm.Display.add_window d ~vci ~x ~y ~width ~height;
          Hashtbl.replace windows vci g
        in
        add 1 (8, 16, 32, 32);
        add 2 (72, 16, 32, 32);
        let frame = ref 0 in
        let checked vci = Atm.Display.tiles_checked d ~vci in
        (* Paint every window once, check the screen against the model,
           and return the tiles each window checked. *)
        let step () =
          let vcis =
            List.sort compare (List.of_seq (Hashtbl.to_seq_keys windows))
          in
          let before = List.map checked vcis in
          List.iter
            (fun vci ->
              paint_window d m ~frame:!frame (vci, Hashtbl.find windows vci))
            vcis;
          check_model d m ~what:(Printf.sprintf "frame %d" !frame) vcis;
          incr frame;
          List.map2 (fun vci b -> checked vci - b) vcis before
        in
        let expect what want =
          Alcotest.(check (list int)) what want (step ())
        in
        expect "frame 1: every raw tile" [ 16; 16 ];
        expect "frame 2" [ 0; 0 ];
        expect "frame 3" [ 0; 0 ];
        expect "frame 4" [ 0; 0 ];
        Atm.Display.move_window d ~vci:1 ~x:8 ~y:56;
        Hashtbl.replace windows 1 (8, 56, 32, 32);
        expect "moved window" [ 16; 0 ];
        expect "after the move" [ 0; 0 ];
        (* A title bar above the windows: no tile pixel changes hands,
           yet every verified tile is voided. *)
        Atm.Display.decorate d ~x:8 ~y:4 ~width:96 ~height:12 ~value:0xDD;
        model_decorate m ~x:8 ~y:4 ~width:96 ~height:12 ~value:0xDD;
        expect "decorated" [ 16; 16 ];
        expect "after the decoration" [ 0; 0 ];
        (* Window 3, newer and so on top, covers 6 of window 1's tiles
           in part. *)
        add 3 (16, 40, 32, 32);
        ignore (step ());
        ignore (step ());
        for _ = 1 to 3 do
          expect "overlapped: only window 1's covered tiles" [ 6; 0; 0 ]
        done);
  ]

(* The owner map holds 16-bit codes, one per VCI that has had a window,
   while the model keeps each pixel's VCI in an int. *)
let owner_code_tests =
  [
    Alcotest.test_case "VCIs 0, 65 535 and 2^40 clip like the reference"
      `Quick (fun () ->
        let sw = 64 and sh = 48 in
        let e = Sim.Engine.create () in
        let d = Atm.Display.create e ~screen_width:sw ~screen_height:sh () in
        let m = model_create ~sw ~sh in
        let lo = 0 and mid = 65_535 and hi = 1 lsl 40 in
        (* Three overlapping windows, the newest on top, and a title bar
           across all three. *)
        let windows =
          Hashtbl.of_seq
            (List.to_seq
               [
                 (lo, (-5, -3, 40, 32));
                 (mid, (14, 10, 40, 32));
                 (hi, (27, 19, 40, 32));
               ])
        in
        List.iter
          (fun vci ->
            let x, y, width, height = Hashtbl.find windows vci in
            Atm.Display.add_window d ~vci ~x ~y ~width ~height)
          [ lo; mid; hi ];
        Atm.Display.decorate d ~x:10 ~y:16 ~width:40 ~height:4 ~value:0xEE;
        model_decorate m ~x:10 ~y:16 ~width:40 ~height:4 ~value:0xEE;
        let events =
          [
            ("nothing", fun () -> ());
            ("raise 0", fun () -> Atm.Display.raise_window d ~vci:lo);
            ("lower 2^40", fun () -> Atm.Display.lower_window d ~vci:hi);
            (* The removed window's pixels keep its code: nobody paints
               on 65 535, so the others may take them over... *)
            ( "remove 65 535",
              fun () ->
                Atm.Display.remove_window d ~vci:mid;
                Hashtbl.remove windows mid );
            (* ... and the window re-added on it, on top, owns the ones
               they left at once: the others are occluded there. *)
            ( "re-add 65 535",
              fun () ->
                Atm.Display.add_window d ~vci:mid ~x:14 ~y:10 ~width:40
                  ~height:32;
                Hashtbl.replace windows mid (14, 10, 40, 32);
                Hashtbl.remove m.ms_occluded mid );
            ( "decorate",
              fun () ->
                Atm.Display.decorate d ~x:0 ~y:24 ~width:64 ~height:3
                  ~value:0x11;
                model_decorate m ~x:0 ~y:24 ~width:64 ~height:3 ~value:0x11 );
            ("lower 65 535", fun () -> Atm.Display.lower_window d ~vci:mid);
            ("raise 65 535", fun () -> Atm.Display.raise_window d ~vci:mid);
            (* A window on a new VCI, on top where 65 535 was, does not
               inherit its pixels: 0, painted first, takes them. *)
            ( "swap 65 535 for 7",
              fun () ->
                Atm.Display.remove_window d ~vci:mid;
                Hashtbl.remove windows mid;
                Atm.Display.add_window d ~vci:7 ~x:14 ~y:10 ~width:24
                  ~height:24;
                Hashtbl.replace windows 7 (14, 10, 24, 24) );
            ("raise 2^40", fun () -> Atm.Display.raise_window d ~vci:hi);
          ]
        in
        paint_after_events d m windows ~frames:2 events;
        (* Not vacuous: every window lost pixels to another. *)
        List.iter
          (fun vci ->
            Alcotest.(check bool)
              (Printf.sprintf "window %d was occluded" vci)
              true
              (Atm.Display.pixels_occluded d ~vci > 0))
          [ lo; 7; hi ];
        (* Hand-overs move the verified-tile epoch exactly as they did
           with int owners: these counts were read from that display. *)
        List.iter
          (fun (vci, want) ->
            Alcotest.(check int)
              (Printf.sprintf "tiles checked on %d" vci)
              want
              (Atm.Display.tiles_checked d ~vci))
          [ (lo, 346); (7, 27); (hi, 384) ]);
    Alcotest.test_case "add_window refuses a negative VCI" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let d = Atm.Display.create e ~screen_width:64 ~screen_height:48 () in
        List.iter
          (fun vci ->
            match
              Atm.Display.add_window d ~vci ~x:0 ~y:0 ~width:8 ~height:8
            with
            | () -> Alcotest.failf "VCI %d accepted" vci
            | exception Invalid_argument _ -> ())
          [ -1; -2; min_int ];
        Alcotest.(check int) "no window" 0 (Atm.Display.window_count d));
    Alcotest.test_case "a display takes 65 534 distinct VCIs, not 65 535"
      `Quick (fun () ->
        let e = Sim.Engine.create () in
        let d = Atm.Display.create e ~screen_width:16 ~screen_height:16 () in
        let add vci =
          Atm.Display.add_window d ~vci ~x:0 ~y:0 ~width:8 ~height:8
        in
        (* Every VCI keeps its code after its window goes. *)
        for i = 0 to 65_533 do
          add (3 * i);
          Atm.Display.remove_window d ~vci:(3 * i)
        done;
        (match add 1 with
        | () -> Alcotest.fail "a 65 535th VCI accepted"
        | exception Invalid_argument _ -> ());
        Alcotest.(check int) "the refused VCI has no window" 0
          (Atm.Display.window_count d);
        (* A VCI that has a code may come back. *)
        add (3 * 65_533);
        Alcotest.(check int) "re-added" 1 (Atm.Display.window_count d));
    Alcotest.test_case "a 640x480 display holds 3 bytes a pixel" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let major () =
          let _, _, w = Gc.counters () in
          w
        in
        (* Nothing left in the minor heap to promote meanwhile. *)
        Gc.minor ();
        let before = major () in
        let d = Atm.Display.create e ~screen_width:640 ~screen_height:480 () in
        let bytes = (major () -. before) *. 8.0 in
        ignore (Sys.opaque_identity d);
        let pixels = 640 * 480 in
        Printf.printf "%.0f bytes, %.3f a pixel\n" bytes
          (bytes /. Float.of_int pixels);
        Alcotest.(check bool)
          (Printf.sprintf "%.0f bytes <= 3 a pixel + 16 KB" bytes)
          true
          (bytes <= Float.of_int ((3 * pixels) + 16_384)));
  ]

let conservation_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"frames are conserved through the fabric under light load"
         ~count:50
         QCheck2.Gen.(list_size (int_range 1 20) (int_range 1 2000))
         (fun sizes ->
           let e, net, a, b = star_net () in
           let received = ref 0 and received_bytes = ref 0 in
           let vc =
             Atm.Net.open_vc net ~src:a ~dst:b
               ~rx:
                 (fst
                    (Atm.Net.frame_rx
                       ~rx:(fun ~flow:_ _ _ len ->
                         incr received;
                         received_bytes := !received_bytes + len)
                       ()))
           in
           (* spaced 1ms apart: far below line rate, nothing may drop *)
           List.iteri
             (fun i size ->
               ignore
                 (Sim.Engine.schedule e ~delay:(Sim.Time.ms i) (fun () ->
                      Atm.Net.send_frame vc (Bytes.create size))))
             sizes;
           Sim.Engine.run e;
           !received = List.length sizes
           && !received_bytes = List.fold_left ( + ) 0 sizes
           && Atm.Net.total_cells_dropped net = 0));
  ]

let () =
  Alcotest.run "atm"
    [
      ("crc32", crc_tests);
      ("util", util_tests);
      ("cell", cell_tests);
      ("aal5", aal5_tests);
      ("link", link_tests);
      ("switch", switch_tests);
      ("net", net_tests);
      ("tile", tile_tests);
      ("camera-display", camera_display_tests);
      ("audio", audio_tests);
      ("control", control_tests);
      ("traffic", traffic_tests);
      ("reservation", reservation_tests);
      ("stacking", stacking_tests);
      ("blit", blit_differential_tests);
      ("owners", owner_code_tests);
      ("conservation", conservation_tests);
    ]
