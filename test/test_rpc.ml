(* Tests for the RPC layer (request/response over AAL5 over ATM). *)

let ms = Sim.Time.ms

let rig () =
  let e = Sim.Engine.create () in
  let net = Atm.Net.create e in
  let sw = Atm.Net.add_switch net ~name:"sw" ~ports:8 in
  let a = Atm.Net.add_host net ~name:"client" in
  let b = Atm.Net.add_host net ~name:"server" in
  Atm.Net.connect net a sw;
  Atm.Net.connect net b sw;
  (e, net, Rpc.endpoint net ~host:a, Rpc.endpoint net ~host:b)

(* A server whose handler replies [delay] after the request arrives
   (server compute time). *)
let serve_delayed e ep ~iface ~delay f =
  Rpc.serve_flow ep ~iface (fun ~meth ~flow:_ payload ~reply ->
      ignore
        (Sim.Engine.schedule e ~delay (fun () -> reply (f ~meth payload))))

let wire_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"wire messages round-trip" ~count:200
         QCheck2.Gen.(
           tup5 (int_range 1 3) (int_range 0 100000) (string_size (int_range 0 30))
             (string_size (int_range 0 30))
             (string_size ~gen:char (int_range 0 2000)))
         (fun (k, call_id, iface, meth, payload) ->
           let kind =
             match k with
             | 1 -> Rpc.Wire.Request
             | 2 -> Rpc.Wire.Reply
             | _ -> Rpc.Wire.Error_reply
           in
           let msg =
             {
               Rpc.Wire.kind;
               call_id;
               iface;
               meth;
               payload = Bytes.of_string payload;
             }
           in
           Rpc.Wire.unmarshal (Rpc.Wire.marshal msg) = Some msg));
    Alcotest.test_case "junk does not unmarshal" `Quick (fun () ->
        Alcotest.(check bool) "short" true (Rpc.Wire.unmarshal (Bytes.create 3) = None);
        let b = Bytes.make 20 '\255' in
        Alcotest.(check bool) "bad kind" true (Rpc.Wire.unmarshal b = None));
  ]

let call_tests =
  [
    Alcotest.test_case "a call round-trips over the network" `Quick (fun () ->
        let e, net, client, server = rig () in
        Rpc.serve server ~iface:"echo" (fun ~meth payload ->
            Alcotest.(check string) "method" "shout" meth;
            Ok (Bytes.of_string (String.uppercase_ascii (Bytes.to_string payload))));
        let conn = Rpc.connect net ~client ~server () in
        let result = ref None in
        Rpc.call conn ~iface:"echo" ~meth:"shout" (Bytes.of_string "pegasus")
          ~reply:(fun r -> result := Some r);
        Sim.Engine.run e;
        (match !result with
        | Some (Ok b) -> Alcotest.(check string) "reply" "PEGASUS" (Bytes.to_string b)
        | _ -> Alcotest.fail "expected a reply");
        Alcotest.(check int) "one send" 1 (Rpc.calls_sent conn);
        Alcotest.(check int) "no retransmissions" 0 (Rpc.retransmissions conn));
    Alcotest.test_case "reply latency is a plausible network RTT" `Quick
      (fun () ->
        let e, net, client, server = rig () in
        Rpc.serve server ~iface:"null" (fun ~meth:_ _ -> Ok Bytes.empty);
        let conn = Rpc.connect net ~client ~server () in
        let done_at = ref Sim.Time.zero in
        Rpc.call conn ~iface:"null" ~meth:"null" Bytes.empty ~reply:(fun _ ->
            done_at := Sim.Engine.now e);
        Sim.Engine.run e;
        let rtt = Sim.Time.to_us_f !done_at in
        (* two switch crossings, four link hops, one cell each way *)
        Alcotest.(check bool) (Printf.sprintf "rtt=%.1fus" rtt) true
          (rtt > 20.0 && rtt < 100.0));
    Alcotest.test_case "unknown interface is reported" `Quick (fun () ->
        let e, net, client, server = rig () in
        let conn = Rpc.connect net ~client ~server () in
        let result = ref None in
        Rpc.call conn ~iface:"nothing" ~meth:"x" Bytes.empty ~reply:(fun r ->
            result := Some r);
        Sim.Engine.run e;
        match !result with
        | Some (Error (Rpc.No_such_interface "nothing")) -> ()
        | _ -> Alcotest.fail "expected No_such_interface");
    Alcotest.test_case "handler errors come back as Remote_error" `Quick
      (fun () ->
        let e, net, client, server = rig () in
        Rpc.serve server ~iface:"flaky" (fun ~meth:_ _ -> Error "boom");
        let conn = Rpc.connect net ~client ~server () in
        let result = ref None in
        Rpc.call conn ~iface:"flaky" ~meth:"x" Bytes.empty ~reply:(fun r ->
            result := Some r);
        Sim.Engine.run e;
        match !result with
        | Some (Error (Rpc.Remote_error "boom")) -> ()
        | _ -> Alcotest.fail "expected Remote_error");
    Alcotest.test_case "slow server causes retransmission, not re-execution"
      `Quick (fun () ->
        let e, net, client, server = rig () in
        let executions = ref 0 in
        serve_delayed e server ~iface:"slow" ~delay:(ms 25)
          (fun ~meth:_ _ ->
            incr executions;
            Ok Bytes.empty);
        let conn = Rpc.connect net ~client ~server ~retransmit:(ms 10) () in
        let replies = ref 0 in
        Rpc.call conn ~iface:"slow" ~meth:"x" Bytes.empty ~reply:(fun _ ->
            incr replies);
        Sim.Engine.run e;
        Alcotest.(check bool) "retransmitted" true (Rpc.retransmissions conn >= 1);
        Alcotest.(check int) "executed once" 1 !executions;
        Alcotest.(check int) "one reply" 1 !replies);
    Alcotest.test_case "duplicate requests are answered from the reply cache"
      `Quick (fun () ->
        let e, net, client, server = rig () in
        let executions = ref 0 in
        (* Reply just after the first retransmission fires. *)
        serve_delayed e server ~iface:"dup" ~delay:(ms 12) (fun ~meth:_ _ ->
            incr executions;
            Ok (Bytes.of_string "once"));
        let conn = Rpc.connect net ~client ~server ~retransmit:(ms 10) () in
        Rpc.call conn ~iface:"dup" ~meth:"x" Bytes.empty ~reply:(fun _ -> ());
        Sim.Engine.run e;
        Alcotest.(check int) "executed once" 1 !executions;
        Alcotest.(check bool) "duplicate suppressed" true
          (Rpc.duplicates_suppressed server >= 1));
    Alcotest.test_case "exhausted retries time out" `Quick (fun () ->
        let e, net, client, server = rig () in
        (* Server replies far after the single try's patience. *)
        serve_delayed e server ~iface:"dead" ~delay:(Sim.Time.sec 5)
          (fun ~meth:_ _ -> Ok Bytes.empty);
        let conn =
          Rpc.connect net ~client ~server ~retransmit:(ms 10) ~max_tries:1 ()
        in
        let result = ref None in
        Rpc.call conn ~iface:"dead" ~meth:"x" Bytes.empty ~reply:(fun r ->
            result := Some r);
        Sim.Engine.run e ~until:(ms 100);
        match !result with
        | Some (Error Rpc.Timed_out) -> ()
        | _ -> Alcotest.fail "expected Timed_out");
    Alcotest.test_case "concurrent calls multiplex on one connection" `Quick
      (fun () ->
        let e, net, client, server = rig () in
        Rpc.serve server ~iface:"id" (fun ~meth:_ p -> Ok p);
        let conn = Rpc.connect net ~client ~server () in
        let got = ref [] in
        for i = 0 to 9 do
          Rpc.call conn ~iface:"id" ~meth:"x"
            (Bytes.of_string (string_of_int i))
            ~reply:(fun r ->
              match r with
              | Ok b -> got := Bytes.to_string b :: !got
              | Error _ -> Alcotest.fail "call failed")
        done;
        Sim.Engine.run e;
        Alcotest.(check (list string)) "all replies"
          [ "0"; "1"; "2"; "3"; "4"; "5"; "6"; "7"; "8"; "9" ]
          (List.sort compare !got));
  ]

let recovery_tests =
  [
    Alcotest.test_case "error payload decoding requires the tag colon" `Quick
      (fun () ->
        let check name want s =
          Alcotest.(check bool) name true (Rpc.error_of_payload s = want)
        in
        check "iface tag" (Rpc.No_such_interface "tty") "I:tty";
        check "method tag" (Rpc.No_such_method "read") "M:read";
        check "error tag" (Rpc.Remote_error "boom") "E:boom";
        (* Untagged strings starting with a tag letter must survive
           whole, not lose their first two characters. *)
        check "bare I word" (Rpc.Remote_error "Ignored") "Ignored";
        check "bare E word" (Rpc.Remote_error "Eaten") "Eaten";
        check "unknown tag" (Rpc.Remote_error "X:ray") "X:ray";
        check "empty" (Rpc.Remote_error "") "";
        check "one char" (Rpc.Remote_error "I") "I";
        check "empty detail" (Rpc.No_such_interface "") "I:");
    Alcotest.test_case "the reply cache is bounded" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let net = Atm.Net.create e in
        let a = Atm.Net.add_host net ~name:"client" in
        let b = Atm.Net.add_host net ~name:"server" in
        Atm.Net.connect net a b;
        let client = Rpc.endpoint net ~host:a in
        let server = Rpc.endpoint ~reply_cache_cap:8 net ~host:b in
        Rpc.serve server ~iface:"id" (fun ~meth:_ p -> Ok p);
        let conn = Rpc.connect net ~client ~server () in
        let ok = ref 0 in
        for i = 0 to 99 do
          ignore
            (Sim.Engine.schedule e ~delay:(ms i) (fun () ->
                 Rpc.call conn ~iface:"id" ~meth:"x" Bytes.empty
                   ~reply:(function Ok _ -> incr ok | Error _ -> ())))
        done;
        Sim.Engine.run e;
        Alcotest.(check int) "all calls answered" 100 !ok;
        Alcotest.(check bool) "cache held at its cap" true
          (Rpc.reply_cache_size server <= 8);
        Alcotest.(check int) "nothing left in progress" 0
          (Rpc.in_progress_size server));
    Alcotest.test_case "calls recover under injected cell loss" `Quick
      (fun () ->
        let e, net, client, server = rig () in
        let fault = Sim.Fault.create ~seed:3L e in
        Atm.Net.inject_loss net ~rng:(Sim.Fault.rng fault) 0.05;
        let executions = ref 0 in
        Rpc.serve server ~iface:"echo" (fun ~meth:_ p ->
            incr executions;
            Ok p);
        let conn =
          Rpc.connect net ~client ~server ~retransmit:(ms 5) ~max_tries:8
            ~seed:11L ()
        in
        let ok = ref 0 in
        for i = 0 to 49 do
          ignore
            (Sim.Engine.schedule e
               ~delay:(ms (2 * i))
               (fun () ->
                 Rpc.call conn ~iface:"echo" ~meth:"x"
                   (Bytes.of_string (string_of_int i))
                   ~reply:(function Ok _ -> incr ok | Error _ -> ())))
        done;
        Sim.Engine.run e;
        Alcotest.(check int) "every call completed within max_tries" 50 !ok;
        Alcotest.(check bool) "loss forced retransmissions" true
          (Rpc.retransmissions conn > 0);
        Alcotest.(check bool) "cells really were lost" true
          (Atm.Net.total_cells_lost net > 0);
        (* Retransmitted duplicates are answered from the reply cache,
           never re-executed. *)
        Alcotest.(check int) "each call executed once" 50 !executions);
    Alcotest.test_case "a link outage mid-call is survived by retransmission"
      `Quick (fun () ->
        let e, net, client, server = rig () in
        let fault = Sim.Fault.create e in
        Rpc.serve server ~iface:"echo" (fun ~meth:_ p -> Ok p);
        let conn =
          Rpc.connect net ~client ~server ~retransmit:(ms 5) ~max_tries:8 ()
        in
        let ca = Atm.Net.find net "client" and sw = Atm.Net.find net "sw" in
        Sim.Fault.window fault ~at:(ms 1) ~duration:(ms 10)
          ~down:(fun () -> Atm.Net.set_link_down net ca sw true)
          ~up:(fun () -> Atm.Net.set_link_down net ca sw false);
        let result = ref None in
        ignore
          (Sim.Engine.schedule e ~delay:(ms 2) (fun () ->
               Rpc.call conn ~iface:"echo" ~meth:"x" (Bytes.of_string "hi")
                 ~reply:(fun r -> result := Some r)));
        Sim.Engine.run e;
        (match !result with
        | Some (Ok b) -> Alcotest.(check string) "reply" "hi" (Bytes.to_string b)
        | _ -> Alcotest.fail "call did not survive the outage");
        Alcotest.(check bool) "retransmitted through the outage" true
          (Rpc.retransmissions conn >= 1));
  ]

let bulk_rig ?mtu ?window ?consume_rate_bps ?prop () =
  let e = Sim.Engine.create () in
  let net = Atm.Net.create e in
  let a = Atm.Net.add_host net ~name:"src" in
  let b = Atm.Net.add_host net ~name:"dst" in
  Atm.Net.connect net ?prop a b;
  let chunks = ref [] in
  let sender, receiver =
    Rpc.Bulk.establish net ~src:a ~dst:b ?mtu ?window ?consume_rate_bps
      ~on_data:(fun b -> chunks := Bytes.to_string b :: !chunks)
      ()
  in
  (e, sender, receiver, chunks)

let bulk_tests =
  [
    Alcotest.test_case "bytes arrive complete and in order" `Quick (fun () ->
        let e, sender, receiver, chunks = bulk_rig ~mtu:100 () in
        let message = String.init 1050 (fun i -> Char.chr (i land 0xff)) in
        Rpc.Bulk.send sender (Bytes.of_string message);
        let finished = ref false in
        Rpc.Bulk.finish sender ~on_done:(fun () -> finished := true);
        Sim.Engine.run e;
        Alcotest.(check bool) "finished" true !finished;
        Alcotest.(check int) "all delivered" 1050
          (Rpc.Bulk.bytes_delivered receiver);
        Alcotest.(check string) "reassembled" message
          (String.concat "" (List.rev !chunks));
        Alcotest.(check int) "credits restored" 8
          (Rpc.Bulk.credits_available sender));
    Alcotest.test_case "a slow consumer throttles the sender" `Quick (fun () ->
        (* 8 Mbit/s consumer against a 100 Mbit/s line: delivery takes
           ~ bytes*8/8e6 seconds, not line time. *)
        let e, sender, receiver, _ =
          bulk_rig ~consume_rate_bps:8_000_000 ()
        in
        let total = 1_000_000 in
        Rpc.Bulk.send sender (Bytes.create total);
        let done_at = ref Sim.Time.zero in
        Rpc.Bulk.finish sender ~on_done:(fun () -> done_at := Sim.Engine.now e);
        Sim.Engine.run e;
        let secs = Sim.Time.to_sec_f !done_at in
        Alcotest.(check int) "delivered" total (Rpc.Bulk.bytes_delivered receiver);
        Alcotest.(check bool)
          (Printf.sprintf "paced to the consumer (%.2fs)" secs)
          true
          (secs > 0.9 && secs < 1.3));
    Alcotest.test_case "in-flight frames never exceed the window" `Quick
      (fun () ->
        let e, sender, _, _ = bulk_rig ~window:4 ~consume_rate_bps:1_000_000 () in
        Rpc.Bulk.send sender (Bytes.create 200_000);
        let violations = ref 0 in
        Sim.Engine.every e ~period:(Sim.Time.ms 1) (fun () ->
            if Rpc.Bulk.frames_in_flight sender > 4 then incr violations;
            Rpc.Bulk.frames_in_flight sender > 0 || Rpc.Bulk.credits_available sender < 4);
        Rpc.Bulk.finish sender ~on_done:(fun () -> ());
        Sim.Engine.run e ~until:(Sim.Time.sec 3);
        Alcotest.(check int) "window respected" 0 !violations);
    Alcotest.test_case "throughput follows the window law" `Quick (fun () ->
        (* Across a 2ms-propagation path the pipe is deep: a window of
           one drains between credits (throughput ~ mtu/rtt), a wide
           window fills the line. *)
        let run window =
          let e, sender, receiver, _ =
            bulk_rig ~window ~prop:(Sim.Time.ms 2) ()
          in
          Rpc.Bulk.send sender (Bytes.create 500_000);
          let done_at = ref Sim.Time.zero in
          Rpc.Bulk.finish sender ~on_done:(fun () -> done_at := Sim.Engine.now e);
          Sim.Engine.run e;
          ignore receiver;
          Float.of_int 500_000 /. Sim.Time.to_sec_f !done_at
        in
        let narrow = run 1 and wide = run 16 in
        Alcotest.(check bool)
          (Printf.sprintf "wide %.1f MB/s >> narrow %.1f MB/s" (wide /. 1e6)
             (narrow /. 1e6))
          true
          (wide > narrow *. 3.0));
  ]

let () =
  Alcotest.run "rpc"
    [
      ("wire", wire_tests);
      ("calls", call_tests);
      ("recovery", recovery_tests);
      ("bulk", bulk_tests);
    ]
