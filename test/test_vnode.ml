(* Tests for the Unix v-node interface over the log-structured core. *)

let time = Alcotest.testable Sim.Time.pp ( = )

let rig () =
  let e = Sim.Engine.create () in
  let raid = Pfs.Raid.create e ~store_data:true ~segment_bytes:65536 () in
  let log = Pfs.Log.create e ~raid () in
  let fs = Pfs.Vnode.create e ~log in
  (e, fs)

let ok e what k_f =
  let result = ref None in
  k_f (fun r -> result := Some r);
  Sim.Engine.run e;
  match !result with
  | Some (Ok v) -> v
  | Some (Error err) -> Alcotest.failf "%s: %a" what Pfs.Vnode.pp_error err
  | None -> Alcotest.failf "%s never completed" what

let expect_err e what expected k_f =
  let result = ref None in
  k_f (fun r -> result := Some r);
  Sim.Engine.run e;
  match !result with
  | Some (Error err) when err = expected -> ()
  | Some (Error err) ->
      Alcotest.failf "%s: wrong error %a" what Pfs.Vnode.pp_error err
  | Some (Ok _) -> Alcotest.failf "%s unexpectedly succeeded" what
  | None -> Alcotest.failf "%s never completed" what

let basic_tests =
  [
    Alcotest.test_case "create, write, read back through paths" `Quick
      (fun () ->
        let e, fs = rig () in
        ok e "mkdir" (Pfs.Vnode.mkdir fs "home");
        ok e "mkdir2" (Pfs.Vnode.mkdir fs "home/sape");
        ok e "creat" (Pfs.Vnode.creat fs "home/sape/paper.tex");
        let data = Bytes.of_string "\\section{Kernel Support}" in
        ok e "write"
          (Pfs.Vnode.write fs "home/sape/paper.tex" ~off:0 ~data
             ~len:(Bytes.length data));
        (match
           ok e "read"
             (Pfs.Vnode.read fs "home/sape/paper.tex" ~off:0 ~len:(Bytes.length data))
         with
        | Some b -> Alcotest.(check bytes) "content" data b
        | None -> Alcotest.fail "no data");
        let attrs = ok e "stat" (Pfs.Vnode.stat fs "home/sape/paper.tex") in
        Alcotest.(check int) "size" (Bytes.length data) attrs.Pfs.Vnode.size;
        Alcotest.(check bool) "file" false attrs.Pfs.Vnode.is_dir);
    Alcotest.test_case "reads are truncated at end of file" `Quick (fun () ->
        let e, fs = rig () in
        ok e "creat" (Pfs.Vnode.creat fs "f");
        ok e "write" (Pfs.Vnode.write fs "f" ~off:0 ~len:100);
        match ok e "read" (Pfs.Vnode.read fs "f" ~off:50 ~len:1000) with
        | Some b -> Alcotest.(check int) "clamped" 50 (Bytes.length b)
        | None -> Alcotest.fail "no data");
    Alcotest.test_case "readdir and stat on directories" `Quick (fun () ->
        let e, fs = rig () in
        ok e "mkdir" (Pfs.Vnode.mkdir fs "etc");
        ok e "creat1" (Pfs.Vnode.creat fs "etc/passwd");
        ok e "creat2" (Pfs.Vnode.creat fs "etc/motd");
        Alcotest.(check (list string))
          "entries" [ "motd"; "passwd" ]
          (ok e "readdir" (Pfs.Vnode.readdir fs "etc"));
        let attrs = ok e "stat" (Pfs.Vnode.stat fs "etc") in
        Alcotest.(check bool) "is dir" true attrs.Pfs.Vnode.is_dir);
    Alcotest.test_case "unlink removes files, not directories" `Quick
      (fun () ->
        let e, fs = rig () in
        ok e "mkdir" (Pfs.Vnode.mkdir fs "d");
        ok e "creat" (Pfs.Vnode.creat fs "d/f");
        ok e "unlink" (Pfs.Vnode.unlink fs "d/f");
        Alcotest.(check bool) "gone" false (Pfs.Vnode.exists fs "d/f");
        expect_err e "unlink dir" `Is_a_directory (Pfs.Vnode.unlink fs "d"));
    Alcotest.test_case "rmdir refuses non-empty directories" `Quick (fun () ->
        let e, fs = rig () in
        ok e "mkdir" (Pfs.Vnode.mkdir fs "d");
        ok e "creat" (Pfs.Vnode.creat fs "d/f");
        expect_err e "rmdir" `Not_empty (Pfs.Vnode.rmdir fs "d");
        ok e "unlink" (Pfs.Vnode.unlink fs "d/f");
        ok e "rmdir now" (Pfs.Vnode.rmdir fs "d");
        Alcotest.(check bool) "gone" false (Pfs.Vnode.exists fs "d"));
    Alcotest.test_case "rename moves across directories" `Quick (fun () ->
        let e, fs = rig () in
        ok e "mkdir a" (Pfs.Vnode.mkdir fs "a");
        ok e "mkdir b" (Pfs.Vnode.mkdir fs "b");
        ok e "creat" (Pfs.Vnode.creat fs "a/f");
        ok e "write" (Pfs.Vnode.write fs "a/f" ~off:0 ~data:(Bytes.of_string "x") ~len:1);
        ok e "rename" (Pfs.Vnode.rename fs "a/f" "b/g");
        Alcotest.(check bool) "source gone" false (Pfs.Vnode.exists fs "a/f");
        (match ok e "read" (Pfs.Vnode.read fs "b/g" ~off:0 ~len:1) with
        | Some b -> Alcotest.(check string) "content" "x" (Bytes.to_string b)
        | None -> Alcotest.fail "no data");
        expect_err e "rename onto existing" `Already_exists
          (Pfs.Vnode.rename fs "b/g" "b/g"));
    Alcotest.test_case "errors: missing paths and wrong kinds" `Quick
      (fun () ->
        let e, fs = rig () in
        ok e "creat" (Pfs.Vnode.creat fs "plain");
        expect_err e "read missing" `Not_found
          (Pfs.Vnode.read fs "nope" ~off:0 ~len:1);
        expect_err e "creat dup" `Already_exists (Pfs.Vnode.creat fs "plain");
        expect_err e "descend through file" `Not_a_directory
          (Pfs.Vnode.creat fs "plain/sub");
        expect_err e "readdir of file" `Not_a_directory
          (Pfs.Vnode.readdir fs "plain"));
    Alcotest.test_case "directory churn becomes log garbage" `Quick (fun () ->
        let e, fs = rig () in
        let log = Pfs.Vnode.log fs in
        ok e "mkdir" (Pfs.Vnode.mkdir fs "tmp");
        let before = Pfs.Log.garbage_bytes_created log in
        for i = 0 to 9 do
          ok e "creat" (Pfs.Vnode.creat fs (Printf.sprintf "tmp/f%d" i))
        done;
        (* Ten directory-file rewrites obsolete nine earlier versions. *)
        Alcotest.(check bool) "garbage grew" true
          (Pfs.Log.garbage_bytes_created log > before));
  ]

let cache_tests =
  [
    Alcotest.test_case "re-reads are served from the buffer cache" `Quick
      (fun () ->
        let e, fs = rig () in
        ok e "creat" (Pfs.Vnode.creat fs "hot");
        ok e "write" (Pfs.Vnode.write fs "hot" ~off:0 ~len:8192);
        (* Writing primed the cache; a read of the same range needs no
           disk time. *)
        let t0 = Sim.Engine.now e in
        ignore (ok e "read" (Pfs.Vnode.read fs "hot" ~off:0 ~len:8192));
        let dt = Sim.Time.sub (Sim.Engine.now e) t0 in
        Alcotest.check time "instant (cache hit)" Sim.Time.zero dt;
        Alcotest.(check bool) "hits recorded" true
          (Pfs.Cache.hits (Pfs.Vnode.cache fs) > 0));
    Alcotest.test_case "cold reads touch the disk" `Quick (fun () ->
        let e, fs = rig () in
        ok e "creat" (Pfs.Vnode.creat fs "cold");
        ok e "write" (Pfs.Vnode.write fs "cold" ~off:0 ~len:200_000);
        (* Push the file's blocks out with other traffic. *)
        ok e "creat2" (Pfs.Vnode.creat fs "noise");
        ok e "write2" (Pfs.Vnode.write fs "noise" ~off:0 ~len:9_000_000);
        Pfs.Log.sync (Pfs.Vnode.log fs) ~k:(fun _ -> ());
        Sim.Engine.run e;
        let t0 = Sim.Engine.now e in
        ignore (ok e "read" (Pfs.Vnode.read fs "cold" ~off:0 ~len:65536));
        let dt = Sim.Time.sub (Sim.Engine.now e) t0 in
        Alcotest.(check bool) "took disk time" true Sim.Time.(dt > Sim.Time.ms 1));
    Alcotest.test_case "unlink invalidates the file's cached blocks" `Quick
      (fun () ->
        let e, fs = rig () in
        ok e "creat" (Pfs.Vnode.creat fs "f");
        ok e "write" (Pfs.Vnode.write fs "f" ~off:0 ~len:8192);
        let c = Pfs.Vnode.cache fs in
        let size_before = Pfs.Cache.size c in
        ok e "unlink" (Pfs.Vnode.unlink fs "f");
        Alcotest.(check bool) "blocks dropped" true (Pfs.Cache.size c < size_before));
  ]

let () =
  Alcotest.run "vnode" [ ("basic", basic_tests); ("cache", cache_tests) ]
