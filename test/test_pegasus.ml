(* Integration tests: the assembled Pegasus architecture. *)

let ms = Sim.Time.ms

(* A tile packet's frame as one train, built by the writer the camera
   uses. *)
let tile_train ~vci (p : Atm.Tile.packet) =
  Atm.Train.make ~vci
    (Atm.Tile.pdu ~x:p.x ~y:p.y ~frame:p.frame ~count:p.count
       ~bytes_per_tile:p.bytes_per_tile ~captured_at:p.captured_at (fun buf ->
         Bytes.blit p.data 0 buf 0 (Bytes.length p.data)))

let site_rig () =
  let e = Sim.Engine.create () in
  let site = Pegasus.Site.create e in
  (e, site)

let workstation_tests =
  [
    Alcotest.test_case "devices appear under short local names" `Quick
      (fun () ->
        let _, site = site_rig () in
        let ws = Pegasus.Workstation.create site ~name:"ws1" ~cameras:2 () in
        let ns = Pegasus.Workstation.namespace ws in
        let resolve path =
          match Naming.Namespace.resolve ns path with
          | Ok r -> Naming.Maillon.reference r.Naming.Namespace.maillon
          | Error e -> Alcotest.failf "resolve %s: %a" path Naming.Namespace.pp_error e
        in
        Alcotest.(check string) "camera0" "ws1.cam0" (resolve "dev/camera0");
        Alcotest.(check string) "camera1" "ws1.cam1" (resolve "dev/camera1");
        Alcotest.(check string) "display" "ws1.disp" (resolve "dev/display");
        Alcotest.(check string) "audio" "ws1.dsp" (resolve "dev/audio"));
    Alcotest.test_case "workstations see each other through /global" `Quick
      (fun () ->
        let _, site = site_rig () in
        let ws1 = Pegasus.Workstation.create site ~name:"ws1" () in
        let _ws2 = Pegasus.Workstation.create site ~name:"ws2" () in
        let ns = Pegasus.Workstation.namespace ws1 in
        match Naming.Namespace.resolve ns "global/ws/ws2" with
        | Ok r ->
            Alcotest.(check int) "one mount crossed" 1
              r.Naming.Namespace.mounts_crossed
        | Error e -> Alcotest.failf "resolve: %a" Naming.Namespace.pp_error e);
    Alcotest.test_case "a compute server has no devices" `Quick (fun () ->
        let _, site = site_rig () in
        let cs =
          Pegasus.Workstation.create site ~name:"compute" ~cameras:0
            ~display:false ~audio:false ()
        in
        Alcotest.(check int) "no cameras" 0 (Pegasus.Workstation.camera_count cs);
        Alcotest.(check bool) "no display" true
          (Pegasus.Workstation.display cs = None));
  ]

let av_tests =
  [
    Alcotest.test_case "a videophone session shows frames with low latency"
      `Quick (fun () ->
        let e, site = site_rig () in
        let alice = Pegasus.Workstation.create site ~name:"alice" () in
        let bob = Pegasus.Workstation.create site ~name:"bob" () in
        let session = Pegasus.Av_session.create ~from_:alice ~to_:bob () in
        Pegasus.Av_session.start session;
        Sim.Engine.run e ~until:(ms 500);
        Pegasus.Av_session.stop session;
        Sim.Engine.run e ~until:(ms 600);
        Alcotest.(check bool) "frames shown" true
          (Pegasus.Av_session.frames_shown session >= 10);
        let p50 =
          Sim.Stats.Samples.percentile
            (Pegasus.Av_session.video_staging_latency_us session)
            50.0
        in
        (* Tile-grained release: well under one frame time (40ms). *)
        Alcotest.(check bool)
          (Printf.sprintf "median staging %.0fus" p50)
          true (p50 < 5_000.0);
        Alcotest.(check bool) "audio jitter small" true
          (Pegasus.Av_session.audio_jitter_us session < 100.0);
        Alcotest.(check int) "no late audio" 0
          (Pegasus.Av_session.audio_late_cells session));
    Alcotest.test_case "play-back controller keeps A/V skew bounded" `Quick
      (fun () ->
        let e, site = site_rig () in
        let alice = Pegasus.Workstation.create site ~name:"alice" () in
        let bob = Pegasus.Workstation.create site ~name:"bob" () in
        let session = Pegasus.Av_session.create ~from_:alice ~to_:bob () in
        Pegasus.Av_session.start session;
        Sim.Engine.run e ~until:(Sim.Time.sec 1);
        let skew = Pegasus.Av_session.av_sync_skew_us session in
        Alcotest.(check bool) "matched sync pairs" true
          (Sim.Stats.Samples.count skew > 5);
        let p90 = Sim.Stats.Samples.percentile skew 90.0 in
        (* Lip-sync tolerance is ~80ms; the DAN keeps it far tighter. *)
        Alcotest.(check bool)
          (Printf.sprintf "p90 skew %.0fus" p90)
          true (p90 < 40_000.0));
    Alcotest.test_case "video-only sessions work without DSP nodes" `Quick
      (fun () ->
        let e, site = site_rig () in
        let a = Pegasus.Workstation.create site ~name:"a" ~audio:false () in
        let b = Pegasus.Workstation.create site ~name:"b" ~audio:false () in
        let session =
          Pegasus.Av_session.create ~from_:a ~to_:b ~with_audio:false ()
        in
        Pegasus.Av_session.start session;
        Sim.Engine.run e ~until:(ms 200);
        Alcotest.(check bool) "frames" true
          (Pegasus.Av_session.frames_shown session > 0));
    Alcotest.test_case "sessions to a display-less node are rejected" `Quick
      (fun () ->
        let _, site = site_rig () in
        let a = Pegasus.Workstation.create site ~name:"a" () in
        let b = Pegasus.Workstation.create site ~name:"b" ~display:false () in
        Alcotest.check_raises "no display"
          (Invalid_argument "Av_session: receiver has no display") (fun () ->
            ignore (Pegasus.Av_session.create ~from_:a ~to_:b ())));
  ]

let fs_rig ?(store_data = true) () =
  let e, site = site_rig () in
  let ws = Pegasus.Workstation.create site ~name:"client" () in
  let fs =
    Pegasus.Fileserver.create site ~name:"pfs" ~segment_bytes:65536 ~store_data ()
  in
  let conn, agent = Pegasus.Fileserver.connect_client fs ws in
  (e, site, ws, fs, conn, agent)

let call_ok e conn ~meth payload =
  let result = ref None in
  Rpc.call conn ~iface:"pfs" ~meth payload ~reply:(fun r -> result := Some r);
  Sim.Engine.run e;
  match !result with
  | Some (Ok b) -> b
  | Some (Error err) -> Alcotest.failf "%s failed: %a" meth Rpc.pp_error err
  | None -> Alcotest.failf "%s never replied" meth

let fileserver_tests =
  [
    Alcotest.test_case "files round-trip over the RPC interface" `Quick
      (fun () ->
        let e, _, _, _, conn, _ = fs_rig () in
        let fid =
          Pegasus.Fileserver.decode_u32 (call_ok e conn ~meth:"create" Bytes.empty) 0
        in
        let data = Bytes.of_string "multimedia is only real if..." in
        let args = Pegasus.Fileserver.encode_u32s [ fid; 0; Bytes.length data ] in
        let payload = Bytes.cat args data in
        ignore (call_ok e conn ~meth:"write" payload);
        let back =
          call_ok e conn ~meth:"read"
            (Pegasus.Fileserver.encode_u32s [ fid; 0; Bytes.length data ])
        in
        Alcotest.(check string) "data" (Bytes.to_string data) (Bytes.to_string back);
        let size =
          Pegasus.Fileserver.decode_u32
            (call_ok e conn ~meth:"size" (Pegasus.Fileserver.encode_u32s [ fid ]))
            0
        in
        Alcotest.(check int) "size" (Bytes.length data) size;
        ignore
          (call_ok e conn ~meth:"delete" (Pegasus.Fileserver.encode_u32s [ fid ])));
    Alcotest.test_case "errors travel back to the client" `Quick (fun () ->
        let e, _, _, _, conn, _ = fs_rig () in
        let result = ref None in
        Rpc.call conn ~iface:"pfs" ~meth:"size"
          (Pegasus.Fileserver.encode_u32s [ 999 ])
          ~reply:(fun r -> result := Some r);
        Sim.Engine.run e;
        match !result with
        | Some (Error (Rpc.Remote_error "no such file")) -> ()
        | _ -> Alcotest.fail "expected remote error");
    Alcotest.test_case "recording builds a seekable index from control syncs"
      `Quick (fun () ->
        let e, site, ws, fs, _, _ = fs_rig ~store_data:false () in
        let net = Pegasus.Site.net site in
        let recorder =
          match Pegasus.Fileserver.start_recorder fs ~rate_bps:10_000_000 with
          | Ok r -> r
          | Error `Admission_denied -> Alcotest.fail "admission denied"
        in
        (* Camera data and control streams point at the file server,
           exactly as they would at a display. *)
        let data_vc =
          Atm.Net.open_vc net
            ~src:(Pegasus.Workstation.camera_host ws 0)
            ~dst:(Pegasus.Fileserver.host fs)
            ~rx:(Pegasus.Fileserver.recorder_data_rx recorder)
        in
        let ctl_vc =
          Atm.Net.open_vc net
            ~src:(Pegasus.Workstation.camera_host ws 0)
            ~dst:(Pegasus.Fileserver.host fs)
            ~rx:(Pegasus.Fileserver.recorder_control_rx recorder)
        in
        let camera =
          Atm.Camera.create e ~vc:data_vc ~width:160 ~height:120 ~fps:25
            ~mode:(Atm.Camera.Jpeg { ratio = 8.0 }) ()
        in
        Atm.Camera.on_frame camera (fun ~frame ~captured_at ->
            Atm.Net.send_frame ctl_vc
              (Atm.Control.marshal
                 (Atm.Control.Sync { stream = 1; unit_id = frame; stamp = captured_at })));
        Atm.Camera.start camera;
        Sim.Engine.run e ~until:(ms 500);
        Atm.Camera.stop camera;
        Sim.Engine.run e ~until:(ms 600);
        let fid = Pegasus.Fileserver.recorder_fid recorder in
        Pegasus.Fileserver.finish_recorder fs recorder;
        Alcotest.(check bool) "bytes recorded" true
          (Pegasus.Fileserver.recorder_bytes recorder > 10_000);
        Alcotest.(check bool) "index entries" true
          (Pfs.Stream.index_size (Pegasus.Fileserver.streams fs) ~fid >= 10);
        (* The recording is nameable through the server's namespace. *)
        (match
           Naming.Namespace.resolve
             (Pegasus.Fileserver.namespace fs)
             (Printf.sprintf "media/rec%d" fid)
         with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "recording not bound in namespace");
        (* And it plays back with a guaranteed rate. *)
        let p =
          match
            Pfs.Stream.start_playback
              (Pegasus.Fileserver.streams fs)
              ~fid ~rate_bps:10_000_000 ()
          with
          | Ok p -> p
          | Error _ -> Alcotest.fail "playback denied"
        in
        Sim.Engine.run e;
        Alcotest.(check bool) "chunks played" true (Pfs.Stream.chunks_played p > 0);
        Alcotest.(check int) "no underruns" 0 (Pfs.Stream.underruns p));
    Alcotest.test_case "buffered client writes survive a server crash" `Quick
      (fun () ->
        let e, _, _, fs, _, agent = fs_rig () in
        let server = Pegasus.Fileserver.write_server fs in
        let fid = Pfs.Client_agent.Server.create_file server in
        ignore (Pfs.Client_agent.Agent.write agent ~fid ~off:0 ~len:8192 ());
        Sim.Engine.run e ~until:(Sim.Time.sec 2);
        Pfs.Client_agent.Server.crash server;
        Pfs.Client_agent.Server.recover server;
        Pfs.Client_agent.Agent.replay agent;
        Sim.Engine.run e ~until:(Sim.Time.sec 120);
        let a = Pfs.Client_agent.audit server in
        Alcotest.(check int) "nothing lost" 0 a.Pfs.Client_agent.lost;
        Alcotest.(check int) "durable" 1 a.Pfs.Client_agent.durable);
  ]

let workload_tests =
  [
    Alcotest.test_case "baker traffic hits the 70% short-lived figure" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let rng = Sim.Rng.create ~seed:42L () in
        let next_fid = ref 0 in
        let ops =
          {
            Workloads.Baker.op_create =
              (fun () ->
                incr next_fid;
                !next_fid);
            op_write = (fun ~fid:_ ~off:_ ~len:_ -> ());
            op_overwrite = (fun ~fid:_ ~len:_ -> ());
            op_delete = (fun ~fid:_ -> ());
          }
        in
        let gen =
          Workloads.Baker.create e ~rng ~ops ~create_rate:20.0 ()
        in
        Workloads.Baker.start gen;
        Sim.Engine.run e ~until:(Sim.Time.sec 600);
        Workloads.Baker.stop gen;
        Alcotest.(check bool) "created plenty" true
          (Workloads.Baker.files_created gen > 5000);
        let f = Workloads.Baker.short_lived_fraction gen in
        Alcotest.(check bool)
          (Printf.sprintf "short-lived fraction %.2f" f)
          true
          (f > 0.62 && f < 0.78);
        Alcotest.(check bool) "deletes and overwrites happen" true
          (Workloads.Baker.deletes gen > 100 && Workloads.Baker.overwrites gen > 100));
  ]

let remote_object_tests =
  [
    Alcotest.test_case "a passed handle becomes a remote connection" `Quick
      (fun () ->
        let e, site = site_rig () in
        let ws1 = Pegasus.Workstation.create site ~name:"owner" () in
        let ws2 = Pegasus.Workstation.create site ~name:"user" () in
        (* owner has a local object... *)
        let counter = ref 0 in
        let obj =
          Naming.Maillon.of_iface ~reference:"counter-0"
            (Naming.Maillon.iface
               [
                 ( "incr",
                   fun _ ->
                     incr counter;
                     Bytes.of_string (string_of_int !counter) );
               ])
        in
        (* ...exports it and passes the reference to ws2, which imports
           it over a connection. *)
        let reference =
          Pegasus.Remote_objects.export (Pegasus.Workstation.rpc ws1) obj
        in
        Alcotest.(check int) "exported" 1
          (Pegasus.Remote_objects.exported_count (Pegasus.Workstation.rpc ws1));
        let conn =
          Rpc.connect (Pegasus.Site.net site)
            ~client:(Pegasus.Workstation.rpc ws2)
            ~server:(Pegasus.Workstation.rpc ws1)
            ()
        in
        let proxy = Pegasus.Remote_objects.import conn ~reference in
        Alcotest.(check string) "the proxy carries the reference" reference
          (Pegasus.Remote_objects.reference proxy);
        let got = ref None in
        Pegasus.Remote_objects.invoke proxy ~meth:"incr" Bytes.empty
          ~reply:(fun r -> got := Some r);
        Sim.Engine.run e;
        (match !got with
        | Some (Ok b) -> Alcotest.(check string) "result" "1" (Bytes.to_string b)
        | _ -> Alcotest.fail "remote invoke failed");
        Alcotest.(check int) "object really ran at the owner" 1 !counter);
    Alcotest.test_case "unknown references and methods fail cleanly" `Quick
      (fun () ->
        let e, site = site_rig () in
        let ws1 = Pegasus.Workstation.create site ~name:"owner" () in
        let ws2 = Pegasus.Workstation.create site ~name:"user" () in
        ignore
          (Pegasus.Remote_objects.export (Pegasus.Workstation.rpc ws1)
             (Naming.Maillon.of_iface ~reference:"real"
                (Naming.Maillon.iface [ ("f", fun b -> b) ])));
        let conn =
          Rpc.connect (Pegasus.Site.net site)
            ~client:(Pegasus.Workstation.rpc ws2)
            ~server:(Pegasus.Workstation.rpc ws1)
            ()
        in
        let bogus = Pegasus.Remote_objects.import conn ~reference:"ghost" in
        let got = ref None in
        Pegasus.Remote_objects.invoke bogus ~meth:"f" Bytes.empty
          ~reply:(fun r -> got := Some r);
        Sim.Engine.run e;
        (match !got with
        | Some (Error (Rpc.Remote_error msg)) ->
            Alcotest.(check string) "names the ghost" "no such object: ghost" msg
        | _ -> Alcotest.fail "expected remote error");
        let real = Pegasus.Remote_objects.import conn ~reference:"real" in
        let got2 = ref None in
        Pegasus.Remote_objects.invoke real ~meth:"zzz" Bytes.empty
          ~reply:(fun r -> got2 := Some r);
        Sim.Engine.run e;
        match !got2 with
        | Some (Error (Rpc.Remote_error "no such method: zzz")) -> ()
        | _ -> Alcotest.fail "expected method error");
  ]

let wm_tests =
  [
    Alcotest.test_case "manage draws a title bar and clips the stream" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let display = Atm.Display.create e () in
        let wm = Pegasus.Wm.create display in
        let w =
          Pegasus.Wm.manage wm ~vci:7 ~title:"camera one" ~x:100 ~y:100
            ~width:64 ~height:64
        in
        Alcotest.(check (list (pair string int))) "managed"
          [ ("camera one", 7) ]
          (Pegasus.Wm.managed wm);
        (* the title bar sits above the content area *)
        Alcotest.(check int) "title pixels" 0x88
          (Atm.Display.screen_byte display ~x:110 ~y:95);
        Pegasus.Wm.focus wm w;
        Alcotest.(check int) "highlighted on focus" 0xDD
          (Atm.Display.screen_byte display ~x:110 ~y:95));
    Alcotest.test_case "iconize discards the stream, restore brings it back"
      `Quick (fun () ->
        let e = Sim.Engine.create () in
        let display = Atm.Display.create e () in
        let wm = Pegasus.Wm.create display in
        let w =
          Pegasus.Wm.manage wm ~vci:7 ~title:"feed" ~x:0 ~y:50 ~width:64
            ~height:64
        in
        let packet () =
          let p =
            {
              Atm.Tile.x = 4;
              y = 4;
              frame = 0;
              count = 1;
              bytes_per_tile = Atm.Tile.raw_bytes;
              captured_at = Sim.Time.zero;
              data = Bytes.make Atm.Tile.raw_bytes 'v';
            }
          in
          Atm.Display.train_rx display (tile_train ~vci:7 p)
        in
        packet ();
        Alcotest.(check int) "blitted" 1 (Atm.Display.tiles_blitted display ~vci:7);
        Pegasus.Wm.iconize wm w;
        Alcotest.(check bool) "iconized" true (Pegasus.Wm.iconized w);
        packet ();
        Alcotest.(check int) "clipped while iconized" 1
          (Atm.Display.tiles_clipped display ~vci:7);
        Pegasus.Wm.restore wm w;
        packet ();
        Alcotest.(check int) "blits again" 2
          (Atm.Display.tiles_blitted display ~vci:7));
    Alcotest.test_case "focus raises above an overlapping window" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let display = Atm.Display.create e () in
        let wm = Pegasus.Wm.create display in
        let a =
          Pegasus.Wm.manage wm ~vci:1 ~title:"a" ~x:0 ~y:50 ~width:64 ~height:64
        in
        let _b =
          Pegasus.Wm.manage wm ~vci:2 ~title:"b" ~x:0 ~y:50 ~width:64 ~height:64
        in
        Alcotest.(check bool) "b newer = on top" true
          (Atm.Display.z_order display ~vci:2 > Atm.Display.z_order display ~vci:1);
        Pegasus.Wm.focus wm a;
        Alcotest.(check bool) "a now on top" true
          (Atm.Display.z_order display ~vci:1 > Atm.Display.z_order display ~vci:2));
    Alcotest.test_case "close removes the descriptor" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let display = Atm.Display.create e () in
        let wm = Pegasus.Wm.create display in
        let w =
          Pegasus.Wm.manage wm ~vci:9 ~title:"gone" ~x:0 ~y:50 ~width:32
            ~height:32
        in
        Pegasus.Wm.close wm w;
        Alcotest.(check (list (pair string int))) "unmanaged" []
          (Pegasus.Wm.managed wm);
        Alcotest.(check int) "no window" 0 (Atm.Display.window_count display));
    Alcotest.test_case "move, resize and lower edit the descriptor" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let display = Atm.Display.create e () in
        let wm = Pegasus.Wm.create display in
        let _a =
          Pegasus.Wm.manage wm ~vci:1 ~title:"a" ~x:0 ~y:50 ~width:64 ~height:64
        in
        let b =
          Pegasus.Wm.manage wm ~vci:2 ~title:"b" ~x:200 ~y:50 ~width:64
            ~height:64
        in
        (* One raw tile of vci 2 at tile position (tx, ty). *)
        let tile ~tx ~ty =
          let p =
            {
              Atm.Tile.x = tx;
              y = ty;
              frame = 0;
              count = 1;
              bytes_per_tile = Atm.Tile.raw_bytes;
              captured_at = Sim.Time.zero;
              data = Bytes.make Atm.Tile.raw_bytes 'v';
            }
          in
          Atm.Display.train_rx display (tile_train ~vci:2 p)
        in
        let geometry = Alcotest.(pair (pair int int) (pair int int)) in
        let geometry_of w =
          let x, y, width, height = Pegasus.Wm.geometry w in
          ((x, y), (width, height))
        in
        Alcotest.(check string) "title" "b" (Pegasus.Wm.title b);
        Pegasus.Wm.move wm b ~x:100 ~y:150;
        Alcotest.check geometry "moved" ((100, 150), (64, 64)) (geometry_of b);
        Alcotest.(check int) "title bar follows" 0x88
          (Atm.Display.screen_byte display ~x:110 ~y:145);
        tile ~tx:0 ~ty:0;
        Alcotest.(check int) "pixels land at the new offset" (Char.code 'v')
          (Atm.Display.screen_byte display ~x:100 ~y:150);
        Pegasus.Wm.resize wm b ~width:32 ~height:32;
        Alcotest.check geometry "resized" ((100, 150), (32, 32))
          (geometry_of b);
        tile ~tx:5 ~ty:5;
        Alcotest.(check int) "clip shrank with the window" 1
          (Atm.Display.tiles_clipped display ~vci:2);
        Pegasus.Wm.focus wm b;
        Pegasus.Wm.lower wm b;
        Alcotest.(check bool) "lowered beneath a" true
          (Atm.Display.z_order display ~vci:2
          < Atm.Display.z_order display ~vci:1);
        Alcotest.(check int) "title bar repainted plain" 0x88
          (Atm.Display.screen_byte display ~x:110 ~y:145));
  ]

let () =
  Alcotest.run "pegasus"
    [
      ("workstation", workstation_tests);
      ("av-session", av_tests);
      ("fileserver", fileserver_tests);
      ("workloads", workload_tests);
      ("remote-objects", remote_object_tests);
      ("window-manager", wm_tests);
    ]
