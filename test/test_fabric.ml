(* Tests for the fabric-scale Net features: signalling rollback, VCI
   reuse, host-transparent routing, the Clos generator and the network
   QoS manager. *)

let reserved_on net a b =
  match Atm.Net.links_between net a b with
  | [ l ] -> Atm.Link.reserved_bps l
  | ls -> Alcotest.failf "expected one link, got %d" (List.length ls)

(* a - s1 - s2 - b, plus a probe host c on s2 whose circuits exhaust
   b's VCI pool so an a->b open fails on its *last* hop, after a switch
   route is already installed. *)
let rollback_tests =
  [
    Alcotest.test_case "failed open leaves no reservation, route or VCI"
      `Quick (fun () ->
        let e = Sim.Engine.create () in
        (* vci_limit 33 leaves two VCIs (32, 33) per (node, port). *)
        let net = Atm.Net.create ~vci_limit:33 e in
        let s1 = Atm.Net.add_switch net ~name:"s1" ~ports:4 in
        let s2 = Atm.Net.add_switch net ~name:"s2" ~ports:4 in
        let a = Atm.Net.add_host net ~name:"a" in
        let b = Atm.Net.add_host net ~name:"b" in
        let c = Atm.Net.add_host net ~name:"c" in
        Atm.Net.connect net a s1;
        Atm.Net.connect net s1 s2;
        Atm.Net.connect net s2 b;
        Atm.Net.connect net c s2;
        (* Two probe circuits c->b consume both of b's VCIs. *)
        let p1 = Atm.Net.open_vc net ~src:c ~dst:b ~rx:(fun _ -> ()) in
        let p2 = Atm.Net.open_vc net ~src:c ~dst:b ~rx:(fun _ -> ()) in
        ignore p1;
        (* a->b now reserves all three links and installs a route at s1
           before discovering b's pool is empty at the final hop. *)
        (match
           Atm.Net.open_vc net ~reserve_bps:10_000_000 ~src:a ~dst:b
             ~rx:(fun _ -> ())
         with
        | _ -> Alcotest.fail "open should have failed"
        | exception Failure _ -> ());
        Alcotest.(check int) "a->s1 released" 0 (reserved_on net a s1);
        Alcotest.(check int) "s1->s2 released" 0 (reserved_on net s1 s2);
        Alcotest.(check int) "s2->b released" 0 (reserved_on net s2 b);
        (* Free one VCI at b and retry.  The free lists are LIFO, so the
           retry claims exactly the VCIs the failed attempt briefly held;
           it can only succeed if the rollback removed the s1 route
           (Switch.add_route raises on a clash). *)
        Atm.Net.close_vc net p2;
        let got = ref None in
        let vc =
          Atm.Net.open_vc net ~reserve_bps:10_000_000 ~src:a ~dst:b
            ~rx:
              (fst
                 (Atm.Net.frame_rx
                    ~rx:(fun ~flow:_ buf off len ->
                      got := Some (Bytes.sub_string buf off len))
                    ()))
        in
        Alcotest.(check int) "hops" 3 (Atm.Net.vc_hops vc);
        Alcotest.(check int) "reservation held" 10_000_000
          (reserved_on net a s1);
        Atm.Net.send_frame vc (Bytes.of_string "after rollback");
        Sim.Engine.run e;
        Alcotest.(check (option string)) "delivered" (Some "after rollback")
          !got);
    Alcotest.test_case "admission refusal rolls back partial reservations"
      `Quick (fun () ->
        let e = Sim.Engine.create () in
        let net = Atm.Net.create e in
        let s1 = Atm.Net.add_switch net ~name:"s1" ~ports:4 in
        let s2 = Atm.Net.add_switch net ~name:"s2" ~ports:4 in
        let a = Atm.Net.add_host net ~name:"a" in
        let b = Atm.Net.add_host net ~name:"b" in
        Atm.Net.connect net a s1;
        (* The middle link is the thin one: admission gets past a->s1,
           then must give that reservation back. *)
        Atm.Net.connect net ~bandwidth_bps:10_000_000 s1 s2;
        Atm.Net.connect net s2 b;
        (match
           Atm.Net.open_vc net ~reserve_bps:50_000_000 ~src:a ~dst:b
             ~rx:(fun _ -> ())
         with
        | _ -> Alcotest.fail "open should have failed"
        | exception Failure _ -> ());
        Alcotest.(check int) "a->s1 released" 0 (reserved_on net a s1);
        Alcotest.(check int) "s1->s2 released" 0 (reserved_on net s1 s2));
  ]

(* Hosts must never relay: a multi-homed host offering a shortcut is
   skipped by the path search even at the cost of a longer route. *)
let transparency_tests =
  [
    Alcotest.test_case "paths route around a multi-homed host" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let net = Atm.Net.create e in
        let s1 = Atm.Net.add_switch net ~name:"s1" ~ports:4 in
        let s2 = Atm.Net.add_switch net ~name:"s2" ~ports:4 in
        let s3 = Atm.Net.add_switch net ~name:"s3" ~ports:4 in
        let s4 = Atm.Net.add_switch net ~name:"s4" ~ports:4 in
        let a = Atm.Net.add_host net ~name:"a" in
        let b = Atm.Net.add_host net ~name:"b" in
        let m = Atm.Net.add_host net ~name:"m" in
        Atm.Net.connect net a s1;
        (* The shortcut attaches first, so a naive BFS would take it:
           a-s1-m-s4-b is 4 hops against 5 through the switches. *)
        Atm.Net.connect net s1 m;
        Atm.Net.connect net m s4;
        Atm.Net.connect net b s4;
        Atm.Net.connect net s1 s2;
        Atm.Net.connect net s2 s3;
        Atm.Net.connect net s3 s4;
        let got = ref None in
        let vc =
          Atm.Net.open_vc net ~src:a ~dst:b
            ~rx:
              (fst
                 (Atm.Net.frame_rx
                    ~rx:(fun ~flow:_ buf off len ->
                      got := Some (Bytes.sub_string buf off len))
                    ()))
        in
        Alcotest.(check int) "switch path, not the host shortcut" 5
          (Atm.Net.vc_hops vc);
        Atm.Net.send_frame vc (Bytes.of_string "via switches");
        Sim.Engine.run e;
        Alcotest.(check (option string)) "delivered" (Some "via switches")
          !got;
        (* The multi-homed host is still a valid endpoint. *)
        let vm = Atm.Net.open_vc net ~src:m ~dst:b ~rx:(fun _ -> ()) in
        Alcotest.(check int) "m->b direct" 2 (Atm.Net.vc_hops vm));
  ]

let churn_tests =
  [
    Alcotest.test_case "VCIs are reused and rx tables stay pinned" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let net = Atm.Net.create e in
        let s = Atm.Net.add_switch net ~name:"s" ~ports:4 in
        let a = Atm.Net.add_host net ~name:"a" in
        let b = Atm.Net.add_host net ~name:"b" in
        Atm.Net.connect net a s;
        Atm.Net.connect net b s;
        let vc0 = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> ()) in
        let vci0 = Atm.Net.vc_dst_vci vc0 in
        Alcotest.(check bool) "live" true (Atm.Net.vc_live vc0);
        Atm.Net.close_vc net vc0;
        Alcotest.(check bool) "closed" false (Atm.Net.vc_live vc0);
        let cap0 = Atm.Net.host_rx_capacity net b in
        for _ = 1 to 200 do
          let vc = Atm.Net.open_vc net ~src:a ~dst:b ~rx:(fun _ -> ()) in
          Alcotest.(check int) "same vci every cycle" vci0
            (Atm.Net.vc_dst_vci vc);
          Atm.Net.close_vc net vc
        done;
        Alcotest.(check int) "rx table did not grow" cap0
          (Atm.Net.host_rx_capacity net b));
  ]

let clos_tests =
  [
    Alcotest.test_case "generator shape and path lengths" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let net = Atm.Net.create e in
        let cl = Atm.Net.clos net ~spines:2 ~leaves:3 ~hosts_per_leaf:2 in
        Alcotest.(check int) "spines" 2 (Array.length cl.Atm.Net.cl_spines);
        Alcotest.(check int) "leaves" 3 (Array.length cl.Atm.Net.cl_leaves);
        Alcotest.(check int) "hosts" 6 (Array.length cl.Atm.Net.cl_hosts);
        Alcotest.(check string) "leaf-major host naming" "h2.1"
          (Atm.Net.node_name net cl.Atm.Net.cl_hosts.(5));
        (* Every leaf reaches every spine. *)
        Array.iter
          (fun leaf ->
            Array.iter
              (fun spine ->
                Alcotest.(check int) "trunk" 1
                  (List.length (Atm.Net.links_between net leaf spine)))
              cl.Atm.Net.cl_spines)
          cl.Atm.Net.cl_leaves;
        (match Atm.Net.links_between net cl.Atm.Net.cl_leaves.(0)
                 cl.Atm.Net.cl_spines.(0)
         with
        | [ l ] ->
            Alcotest.(check int) "trunk rate" 1_000_000_000
              (Atm.Link.bandwidth_bps l)
        | _ -> Alcotest.fail "missing trunk");
        let same_leaf =
          Atm.Net.open_vc net ~src:cl.Atm.Net.cl_hosts.(0)
            ~dst:cl.Atm.Net.cl_hosts.(1) ~rx:(fun _ -> ())
        in
        Alcotest.(check int) "same leaf: 2 hops" 2 (Atm.Net.vc_hops same_leaf);
        let cross_leaf =
          Atm.Net.open_vc net ~src:cl.Atm.Net.cl_hosts.(0)
            ~dst:cl.Atm.Net.cl_hosts.(4) ~rx:(fun _ -> ())
        in
        Alcotest.(check int) "cross leaf: 4 hops" 4
          (Atm.Net.vc_hops cross_leaf);
        (* path_sel spreads cross-leaf circuits over distinct spines. *)
        let spine_links sel =
          let vc =
            Atm.Net.open_vc net ~path_sel:sel ~src:cl.Atm.Net.cl_hosts.(2)
              ~dst:cl.Atm.Net.cl_hosts.(5) ~rx:(fun _ -> ())
          in
          Atm.Net.vc_path_links vc
        in
        Alcotest.(check bool) "distinct equal-cost crossings" false
          (List.for_all2 ( == ) (spine_links 0) (spine_links 1)));
  ]

(* Conservation: at any instant, every link's reserved bandwidth equals
   the sum of the reservations of the live VCs that cross it — and zero
   once every VC is closed.  Exercised over random open/close sequences
   with random rates and path selectors on a small Clos. *)
let conservation_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"admission conservation over open/close churn"
       ~count:60
       QCheck2.Gen.(
         list_size (int_range 1 60)
           (pair (pair nat nat) (pair nat nat)))
       (fun ops ->
         let e = Sim.Engine.create () in
         let net = Atm.Net.create e in
         let cl = Atm.Net.clos net ~spines:2 ~leaves:2 ~hosts_per_leaf:2 in
         let nh = Array.length cl.Atm.Net.cl_hosts in
         let live = ref [] in
         let consistent () =
           List.for_all
             (fun l ->
               let expected =
                 List.fold_left
                   (fun acc (vc, bps) ->
                     if List.memq l (Atm.Net.vc_path_links vc) then acc + bps
                     else acc)
                   0 !live
               in
               Atm.Link.reserved_bps l = expected)
             (Atm.Net.links net)
         in
         List.iter
           (fun ((op, x), (y, z)) ->
             if op mod 4 = 0 && !live <> [] then begin
               let n = List.length !live in
               let (vc, _) = List.nth !live (x mod n) in
               Atm.Net.close_vc net vc;
               live := List.filter (fun (vc', _) -> vc' != vc) !live
             end
             else
               let src = cl.Atm.Net.cl_hosts.(x mod nh) in
               let dst = cl.Atm.Net.cl_hosts.(y mod nh) in
               let bps = 1 + (z mod 30_000_000) in
               if src <> dst then
                 match
                   Atm.Net.open_vc net ~reserve_bps:bps ~path_sel:(op mod 2)
                     ~src ~dst ~rx:(fun _ -> ())
                 with
                 | vc -> live := (vc, bps) :: !live
                 | exception Failure _ -> ())
           ops;
         let mid = consistent () in
         List.iter (fun (vc, _) -> Atm.Net.close_vc net vc) !live;
         live := [];
         mid && consistent ()))

let qos_mgr_tests =
  [
    Alcotest.test_case "admit, degrade, reject across a saturating link"
      `Quick (fun () ->
        let e = Sim.Engine.create () in
        let net = Atm.Net.create e in
        let s = Atm.Net.add_switch net ~name:"s" ~ports:4 in
        let a = Atm.Net.add_host net ~name:"a" in
        let b = Atm.Net.add_host net ~name:"b" in
        Atm.Net.connect net a s;
        Atm.Net.connect net b s;
        let qm = Atm.Qos_mgr.create net () in
        let ask () =
          Atm.Qos_mgr.request qm ~cls:Atm.Qos_mgr.Video ~bps:60_000_000 ~src:a
            ~dst:b
            ~rx:(fun _ -> ())
            ()
        in
        (* 90 Mbit/s reservable on the 100 Mbit/s host link: 60 fits,
           then only the half-rate tier, then nothing. *)
        let c1 =
          match ask () with
          | Atm.Qos_mgr.Accepted c -> c
          | _ -> Alcotest.fail "first request should be accepted"
        in
        let c2 =
          match ask () with
          | Atm.Qos_mgr.Degraded c -> c
          | _ -> Alcotest.fail "second request should be degraded"
        in
        (match ask () with
        | Atm.Qos_mgr.Rejected -> ()
        | _ -> Alcotest.fail "third request should be rejected");
        Alcotest.(check int) "granted full" 60_000_000
          (Atm.Qos_mgr.granted_bps c1);
        Alcotest.(check int) "granted half" 30_000_000
          (Atm.Qos_mgr.granted_bps c2);
        Alcotest.(check bool) "degraded flag" true (Atm.Qos_mgr.is_degraded c2);
        Alcotest.(check int) "offered" 3 (Atm.Qos_mgr.offered qm);
        Alcotest.(check int) "accepted" 1 (Atm.Qos_mgr.accepted qm);
        Alcotest.(check int) "degraded" 1 (Atm.Qos_mgr.degraded qm);
        Alcotest.(check int) "rejected" 1 (Atm.Qos_mgr.rejected qm);
        (* Departure frees capacity; review renegotiates upward. *)
        Atm.Qos_mgr.teardown qm c1;
        Atm.Qos_mgr.teardown qm c1;
        Alcotest.(check int) "teardown is idempotent" 1
          (Atm.Qos_mgr.released qm);
        Atm.Qos_mgr.review qm;
        Alcotest.(check int) "promoted to full rate" 60_000_000
          (Atm.Qos_mgr.granted_bps c2);
        Alcotest.(check bool) "no longer degraded" false
          (Atm.Qos_mgr.is_degraded c2);
        Alcotest.(check int) "one upgrade" 1 (Atm.Qos_mgr.upgrades c2);
        Alcotest.(check int) "renegotiated" 1 (Atm.Qos_mgr.renegotiated qm);
        Alcotest.(check int) "link tracks the upgrade" 60_000_000
          (reserved_on net a s);
        Atm.Qos_mgr.teardown qm c2;
        Alcotest.(check int) "all released" 0 (reserved_on net a s));
    Alcotest.test_case "reservation renegotiation on a raw VC" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let net = Atm.Net.create e in
        let s = Atm.Net.add_switch net ~name:"s" ~ports:4 in
        let a = Atm.Net.add_host net ~name:"a" in
        let b = Atm.Net.add_host net ~name:"b" in
        Atm.Net.connect net a s;
        Atm.Net.connect net b s;
        let vc =
          Atm.Net.open_vc net ~reserve_bps:10_000_000 ~src:a ~dst:b
            ~rx:(fun _ -> ())
        in
        Alcotest.(check bool) "shrink succeeds" true
          (Atm.Net.vc_adjust_reservation vc ~bps:5_000_000);
        Alcotest.(check int) "released the difference" 5_000_000
          (reserved_on net a s);
        Alcotest.(check bool) "over-capacity grow refused" false
          (Atm.Net.vc_adjust_reservation vc ~bps:1_000_000_000);
        Alcotest.(check int) "refusal changed nothing" 5_000_000
          (reserved_on net a s);
        Alcotest.(check bool) "grow succeeds" true
          (Atm.Net.vc_adjust_reservation vc ~bps:50_000_000);
        Alcotest.(check int) "grown" 50_000_000 (reserved_on net a s);
        Atm.Net.close_vc net vc;
        Alcotest.(check bool) "closed VC refuses" false
          (Atm.Net.vc_adjust_reservation vc ~bps:20_000_000));
  ]

let () =
  Alcotest.run "fabric"
    [
      ("signalling rollback", rollback_tests);
      ("host transparency", transparency_tests);
      ("vci churn", churn_tests);
      ("clos generator", clos_tests);
      ("conservation", [ conservation_prop ]);
      ("qos manager", qos_mgr_tests);
    ]
