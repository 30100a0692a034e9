(* Tests for naming: namespaces, mounts, maillons, clerks. *)

let namespace ?name () = Naming.Namespace.create ?name (Sim.Metrics.create ())

let obj name =
  Naming.Maillon.of_iface ~reference:name
    (Naming.Maillon.iface
       [ ("name", fun _ -> Bytes.of_string name); ("echo", fun b -> b) ])

let check_resolves ns path expected =
  match Naming.Namespace.resolve ns path with
  | Ok r ->
      Alcotest.(check string) ("resolve " ^ path) expected
        (Naming.Maillon.reference r.Naming.Namespace.maillon);
      r
  | Error e ->
      Alcotest.failf "resolve %s: %a" path Naming.Namespace.pp_error e

let namespace_tests =
  [
    Alcotest.test_case "bind then resolve is identity" `Quick (fun () ->
        let ns = namespace () in
        Naming.Namespace.bind ns ~path:"dev/camera" (obj "cam0");
        let r = check_resolves ns "dev/camera" "cam0" in
        Alcotest.(check int) "two components" 2 r.Naming.Namespace.components;
        Alcotest.(check int) "no mounts" 0 r.Naming.Namespace.mounts_crossed);
    Alcotest.test_case "leading slash is tolerated" `Quick (fun () ->
        let ns = namespace () in
        Naming.Namespace.bind ns ~path:"svc/fs" (obj "pfs");
        ignore (check_resolves ns "/svc/fs" "pfs"));
    Alcotest.test_case "resolution cost grows with depth" `Quick (fun () ->
        let ns = namespace () in
        Naming.Namespace.bind ns ~path:"a" (obj "shallow");
        Naming.Namespace.bind ns ~path:"x/y/z/w/deep" (obj "deep");
        let shallow = check_resolves ns "a" "shallow" in
        let deep = check_resolves ns "x/y/z/w/deep" "deep" in
        Alcotest.(check bool) "deeper costs more" true
          Sim.Time.(shallow.Naming.Namespace.cost < deep.Naming.Namespace.cost));
    Alcotest.test_case "missing names report the failing component" `Quick
      (fun () ->
        let ns = namespace () in
        Naming.Namespace.bind ns ~path:"a/b" (obj "x");
        (match Naming.Namespace.resolve ns "a/zzz" with
        | Error (Naming.Namespace.Not_found_at "zzz") -> ()
        | _ -> Alcotest.fail "expected Not_found_at zzz");
        match Naming.Namespace.resolve ns "a/b/c" with
        | Error (Naming.Namespace.Not_a_directory "b") -> ()
        | _ -> Alcotest.fail "expected Not_a_directory b");
    Alcotest.test_case "mounted namespaces resolve transparently" `Quick
      (fun () ->
        let local = namespace ~name:"local" () in
        let fileserver = namespace ~name:"pfs" () in
        Naming.Namespace.bind fileserver ~path:"media/film" (obj "film1");
        Naming.Namespace.mount local ~path:"fs" ~target:fileserver
          ~via:(Naming.Relation.Remote (Sim.Time.us 500));
        let r = check_resolves local "fs/media/film" "film1" in
        Alcotest.(check int) "one mount crossed" 1 r.Naming.Namespace.mounts_crossed;
        Alcotest.(check bool) "pays the RPC lookup" true
          Sim.Time.(r.Naming.Namespace.cost > Sim.Time.us 500));
    Alcotest.test_case "local names are cheaper than mounted ones" `Quick
      (fun () ->
        let local = namespace () in
        let remote = namespace () in
        Naming.Namespace.bind local ~path:"obj" (obj "here");
        Naming.Namespace.bind remote ~path:"obj" (obj "there");
        Naming.Namespace.mount local ~path:"far" ~target:remote
          ~via:(Naming.Relation.Remote (Sim.Time.us 500));
        let here = check_resolves local "obj" "here" in
        let there = check_resolves local "far/obj" "there" in
        Alcotest.(check bool) "local wins by >10x" true
          Sim.Time.(
            Sim.Time.mul here.Naming.Namespace.cost 10
            < there.Naming.Namespace.cost));
    Alcotest.test_case "mounts chain across two hops" `Quick (fun () ->
        let a = namespace ~name:"a" () in
        let b = namespace ~name:"b" () in
        let c = namespace ~name:"c" () in
        Naming.Namespace.bind c ~path:"leaf" (obj "end");
        Naming.Namespace.mount b ~path:"next" ~target:c
          ~via:Naming.Relation.Same_machine;
        Naming.Namespace.mount a ~path:"next" ~target:b
          ~via:Naming.Relation.Same_machine;
        let r = check_resolves a "next/next/leaf" "end" in
        Alcotest.(check int) "two mounts" 2 r.Naming.Namespace.mounts_crossed);
    Alcotest.test_case "mount cycles are detected" `Quick (fun () ->
        let a = namespace ~name:"a" () in
        let b = namespace ~name:"b" () in
        Naming.Namespace.mount a ~path:"b" ~target:b ~via:Naming.Relation.Same_domain;
        Naming.Namespace.mount b ~path:"a" ~target:a ~via:Naming.Relation.Same_domain;
        match Naming.Namespace.resolve a "b/a/b/a/b/a/b/a/b/a/b/a/b/a/b/a/b/a/b/a/b/a/b/a/b/a/b/a/b/a/b/a/b/a/b/a/x" with
        | Error Naming.Namespace.Mount_cycle -> ()
        | Error e -> Alcotest.failf "unexpected error %a" Naming.Namespace.pp_error e
        | Ok _ -> Alcotest.fail "expected cycle detection");
    Alcotest.test_case "readdir lists local entries" `Quick (fun () ->
        let ns = namespace () in
        Naming.Namespace.bind ns ~path:"dev/camera" (obj "c");
        Naming.Namespace.bind ns ~path:"dev/audio" (obj "a");
        Naming.Namespace.mkdir ns ~path:"dev/empty";
        (match Naming.Namespace.readdir ns "dev" with
        | Ok names ->
            Alcotest.(check (list string)) "names" [ "audio"; "camera"; "empty" ] names
        | Error _ -> Alcotest.fail "readdir failed"));
    Alcotest.test_case "a forked namespace is independent" `Quick (fun () ->
        let parent = namespace ~name:"parent" () in
        Naming.Namespace.bind parent ~path:"shared/svc" (obj "svc");
        let child = Naming.Namespace.fork parent ~name:"child" in
        ignore (check_resolves child "shared/svc" "svc");
        Naming.Namespace.bind child ~path:"private/thing" (obj "mine");
        ignore (check_resolves child "private/thing" "mine");
        match Naming.Namespace.resolve parent "private/thing" with
        | Error (Naming.Namespace.Not_found_at _) -> ()
        | _ -> Alcotest.fail "child bind leaked into parent");
    Alcotest.test_case "unmount detaches the remote tree" `Quick (fun () ->
        let local = namespace () in
        let remote = namespace () in
        Naming.Namespace.bind remote ~path:"x" (obj "x");
        Naming.Namespace.mount local ~path:"r" ~target:remote
          ~via:Naming.Relation.Same_domain;
        ignore (check_resolves local "r/x" "x");
        Naming.Namespace.unmount local ~path:"r";
        match Naming.Namespace.resolve local "r/x" with
        | Error (Naming.Namespace.Not_found_at _) -> ()
        | _ -> Alcotest.fail "mount survived unmount");
    Alcotest.test_case "the /global convention is just another subtree" `Quick
      (fun () ->
        (* Two processes agree by convention on a "global" subtree; the
           same object is reachable in both, under the same name. *)
        let universe = namespace ~name:"universe" () in
        Naming.Namespace.bind universe ~path:"org/pegasus/fs" (obj "pfs");
        let p1 = namespace ~name:"p1" () in
        let p2 = namespace ~name:"p2" () in
        Naming.Namespace.mount p1 ~path:"global" ~target:universe
          ~via:(Naming.Relation.Remote (Sim.Time.ms 2));
        Naming.Namespace.mount p2 ~path:"global" ~target:universe
          ~via:(Naming.Relation.Remote (Sim.Time.ms 5));
        ignore (check_resolves p1 "global/org/pegasus/fs" "pfs");
        ignore (check_resolves p2 "global/org/pegasus/fs" "pfs"));
  ]

let maillon_tests =
  [
    Alcotest.test_case "resolution is lazy and cached" `Quick (fun () ->
        let m =
          Naming.Maillon.make ~reference:"r"
            ~resolve:(fun _ -> Naming.Maillon.iface [ ("f", fun b -> b) ])
        in
        Alcotest.(check bool) "not yet resolved" false (Naming.Maillon.resolved m);
        Alcotest.(check int) "0 resolutions" 0 (Naming.Maillon.resolutions m);
        ignore (Naming.Maillon.invoke m ~meth:"f" Bytes.empty);
        ignore (Naming.Maillon.invoke m ~meth:"f" Bytes.empty);
        Alcotest.(check int) "1 resolution" 1 (Naming.Maillon.resolutions m);
        Alcotest.(check int) "2 invocations" 2 (Naming.Maillon.invocations m));
    Alcotest.test_case "unknown method is an error" `Quick (fun () ->
        let m = obj "o" in
        match Naming.Maillon.invoke m ~meth:"zzz" Bytes.empty with
        | Error (Naming.Maillon.No_such_method "zzz") -> ()
        | _ -> Alcotest.fail "expected No_such_method");
    Alcotest.test_case "invalidate forces re-resolution (object migrated)"
      `Quick (fun () ->
        let where = ref "host-a" in
        let m =
          Naming.Maillon.make ~reference:"mobile"
            ~resolve:(fun _ ->
              let location = !where in
              Naming.Maillon.iface
                [ ("where", fun _ -> Bytes.of_string location) ])
        in
        let call () =
          match Naming.Maillon.invoke m ~meth:"where" Bytes.empty with
          | Ok b -> Bytes.to_string b
          | Error _ -> Alcotest.fail "call failed"
        in
        Alcotest.(check string) "before" "host-a" (call ());
        where := "host-b";
        Alcotest.(check string) "stale cache" "host-a" (call ());
        Naming.Maillon.invalidate m;
        Alcotest.(check string) "after migration" "host-b" (call ());
        Alcotest.(check int) "re-resolved" 2 (Naming.Maillon.resolutions m));
    Alcotest.test_case "import interposes a stub" `Quick (fun () ->
        let m = obj "o" in
        let wrapped_calls = ref 0 in
        let wrap i =
          Naming.Maillon.iface
            (List.map
               (fun meth ->
                 ( meth,
                   fun b ->
                     incr wrapped_calls;
                     match Naming.Maillon.invoke m ~meth b with
                     | Ok r -> r
                     | Error _ -> Bytes.empty ))
               (Naming.Maillon.methods i))
        in
        let imported = Naming.Maillon.import m ~wrap in
        (match Naming.Maillon.invoke imported ~meth:"echo" (Bytes.of_string "hi") with
        | Ok b -> Alcotest.(check string) "through stub" "hi" (Bytes.to_string b)
        | Error _ -> Alcotest.fail "failed");
        Alcotest.(check int) "stub ran" 1 !wrapped_calls);
    Alcotest.test_case "invocation cost ladder is ordered" `Quick (fun () ->
        let local = Naming.Relation.invocation_cost Naming.Relation.Same_domain in
        let protected_ =
          Naming.Relation.invocation_cost Naming.Relation.Same_machine
        in
        let remote =
          Naming.Relation.invocation_cost (Naming.Relation.Remote (Sim.Time.us 400))
        in
        Alcotest.(check bool) "local << protected" true
          Sim.Time.(Sim.Time.mul local 10 < protected_);
        Alcotest.(check bool) "protected < remote" true
          Sim.Time.(protected_ < remote);
        Alcotest.(check bool) "maillon overhead is tiny" true
          Sim.Time.(Naming.Relation.maillon_overhead < local));
  ]

let clerk_tests =
  [
    Alcotest.test_case "clerk caches within the TTL" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let backend_calls = ref 0 in
        let m =
          Naming.Maillon.of_iface ~reference:"svc"
            (Naming.Maillon.iface
               [
                 ( "get",
                   fun _ ->
                     incr backend_calls;
                     Bytes.of_string "v" );
               ])
        in
        let clerk =
          Naming.Clerk.wrap m ~ttl:(Sim.Time.ms 10)
            ~clock:(fun () -> Sim.Engine.now e)
        in
        ignore (Naming.Clerk.invoke clerk ~meth:"get" Bytes.empty);
        ignore (Naming.Clerk.invoke clerk ~meth:"get" Bytes.empty);
        ignore (Naming.Clerk.invoke clerk ~meth:"get" Bytes.empty);
        Alcotest.(check int) "backend once" 1 !backend_calls;
        Alcotest.(check int) "hits" 2 (Naming.Clerk.hits clerk);
        (* Advance past the TTL: the next call misses. *)
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 20) (fun () -> ()));
        Sim.Engine.run e;
        ignore (Naming.Clerk.invoke clerk ~meth:"get" Bytes.empty);
        Alcotest.(check int) "backend again" 2 !backend_calls);
    Alcotest.test_case "distinct arguments are distinct entries" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let m = obj "o" in
        let clerk =
          Naming.Clerk.wrap m ~ttl:(Sim.Time.sec 1)
            ~clock:(fun () -> Sim.Engine.now e)
        in
        ignore (Naming.Clerk.invoke clerk ~meth:"echo" (Bytes.of_string "a"));
        ignore (Naming.Clerk.invoke clerk ~meth:"echo" (Bytes.of_string "b"));
        Alcotest.(check int) "both missed" 2 (Naming.Clerk.misses clerk));
    Alcotest.test_case "invalidate clears the cache" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let m = obj "o" in
        let clerk =
          Naming.Clerk.wrap m ~ttl:(Sim.Time.sec 1)
            ~clock:(fun () -> Sim.Engine.now e)
        in
        ignore (Naming.Clerk.invoke clerk ~meth:"echo" (Bytes.of_string "a"));
        Naming.Clerk.invalidate clerk;
        ignore (Naming.Clerk.invoke clerk ~meth:"echo" (Bytes.of_string "a"));
        Alcotest.(check int) "no hits" 0 (Naming.Clerk.hits clerk));
    Alcotest.test_case "errors are not cached" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let m = obj "o" in
        let clerk =
          Naming.Clerk.wrap m ~ttl:(Sim.Time.sec 1)
            ~clock:(fun () -> Sim.Engine.now e)
        in
        (match Naming.Clerk.invoke clerk ~meth:"nope" Bytes.empty with
        | Error (Naming.Maillon.No_such_method _) -> ()
        | Ok _ -> Alcotest.fail "expected error");
        Alcotest.(check int) "miss recorded" 1 (Naming.Clerk.misses clerk);
        match Naming.Clerk.invoke clerk ~meth:"nope" Bytes.empty with
        | Error _ -> Alcotest.(check int) "missed again" 2 (Naming.Clerk.misses clerk)
        | Ok _ -> Alcotest.fail "expected error");
  ]

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"bind/resolve identity on arbitrary paths"
         ~count:200
         QCheck2.Gen.(
           list_size (int_range 1 6)
             (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)))
         (fun segments ->
           let path = String.concat "/" segments in
           let ns = namespace () in
           Naming.Namespace.bind ns ~path
             (Naming.Maillon.of_iface ~reference:path (Naming.Maillon.iface []));
           match Naming.Namespace.resolve ns path with
           | Ok r ->
               Naming.Maillon.reference r.Naming.Namespace.maillon = path
               && r.Naming.Namespace.components = List.length segments
           | Error _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"resolution cost is monotone in depth" ~count:50
         QCheck2.Gen.(int_range 1 10)
         (fun depth ->
           let ns = namespace () in
           let path d = String.concat "/" (List.init d (Printf.sprintf "c%d")) in
           Naming.Namespace.bind ns ~path:(path depth)
             (Naming.Maillon.of_iface ~reference:"deep" (Naming.Maillon.iface []));
           Naming.Namespace.bind ns ~path:"x"
             (Naming.Maillon.of_iface ~reference:"shallow" (Naming.Maillon.iface []));
           match
             ( Naming.Namespace.resolve ns "x",
               Naming.Namespace.resolve ns (path depth) )
           with
           | Ok a, Ok b ->
               depth = 1
               || Sim.Time.(a.Naming.Namespace.cost < b.Naming.Namespace.cost)
           | _ -> false));
  ]

let () =
  Alcotest.run "naming"
    [
      ("namespace", namespace_tests);
      ("maillon", maillon_tests);
      ("clerk", clerk_tests);
      ("properties", property_tests);
    ]
