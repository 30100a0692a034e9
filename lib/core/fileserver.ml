type t = {
  fs_name : string;
  fs_site : Site.t;
  host : Atm.Net.node_id;
  rpc_ep : Rpc.endpoint;
  raid : Pfs.Raid.t;
  log : Pfs.Log.t;
  streams : Pfs.Stream.t;
  wserver : Pfs.Client_agent.Server.t;
  ns : Naming.Namespace.t;
}

let encode_u32s ints =
  let b = Bytes.create (4 * List.length ints) in
  List.iteri (fun i v -> Atm.Util.put_u32 b (4 * i) v) ints;
  b

let decode_u32 b i = Atm.Util.get_u32 b (4 * i)

let serve_pfs t =
  (* The request's causal flow (allocated by Rpc.call when flow tracing
     is on) is threaded into the log so the audit can attribute a call's
     latency across log, RAID and disk stages. *)
  Rpc.serve_flow t.rpc_ep ~iface:"pfs" (fun ~meth ~flow payload ~reply ->
      match meth with
      | "create" ->
          let fid = Pfs.Log.create_file t.log () in
          reply (Ok (encode_u32s [ fid ]))
      | "write" ->
          let fid = decode_u32 payload 0
          and off = decode_u32 payload 1
          and len = decode_u32 payload 2 in
          let data =
            if Bytes.length payload > 12 then
              Some (Bytes.sub payload 12 (Bytes.length payload - 12))
            else None
          in
          Pfs.Log.write t.log fid ~off ?data ~flow ~len (function
            | Ok () -> reply (Ok Bytes.empty)
            | Error `No_such_file -> reply (Error "no such file")
            | Error `Lost -> reply (Error "storage lost"))
      | "read" ->
          let fid = decode_u32 payload 0
          and off = decode_u32 payload 1
          and len = decode_u32 payload 2 in
          Pfs.Log.read_flow t.log fid ~off ~len ~flow ~k:(function
            | Ok (Some data) -> reply (Ok data)
            | Ok None -> reply (Ok (Bytes.make len '\000'))
            | Error `No_such_file -> reply (Error "no such file")
            | Error `Lost -> reply (Error "storage lost"))
      | "delete" ->
          let fid = decode_u32 payload 0 in
          Pfs.Log.delete t.log fid ~k:(function
            | Ok () -> reply (Ok Bytes.empty)
            | Error `No_such_file -> reply (Error "no such file")
            | Error `Lost -> reply (Error "storage lost"))
      | "size" ->
          let fid = decode_u32 payload 0 in
          (try reply (Ok (encode_u32s [ Pfs.Log.file_size t.log fid ]))
           with Not_found -> reply (Error "no such file"))
      | other -> reply (Error ("unknown method " ^ other)))

let create site ~name ?(segment_bytes = 1 lsl 20) ?(store_data = false)
    ?(write_delay = Sim.Time.sec 30) () =
  let engine = Site.engine site in
  let host = Site.add_host site ~name in
  let raid = Pfs.Raid.create engine ~store_data ~segment_bytes () in
  let log = Pfs.Log.create engine ~raid () in
  let streams = Pfs.Stream.create engine ~log () in
  let wserver = Pfs.Client_agent.Server.create engine ~log ~write_delay () in
  let ns = Naming.Namespace.create ~name (Sim.Engine.metrics engine) in
  let t =
    {
      fs_name = name;
      fs_site = site;
      host;
      rpc_ep = Rpc.endpoint (Site.net site) ~host;
      raid;
      log;
      streams;
      wserver;
      ns;
    }
  in
  serve_pfs t;
  let ctl =
    Naming.Maillon.of_iface ~reference:name
      (Naming.Maillon.iface
         [
           ("kind", fun _ -> Bytes.of_string "fileserver");
           ( "segments",
             fun _ -> Bytes.of_string (string_of_int (Pfs.Log.total_segments log))
           );
         ])
  in
  Naming.Namespace.bind ns ~path:"ctl" ctl;
  Site.publish site ~path:("fs/" ^ name) ctl;
  t

let name t = t.fs_name
let host t = t.host
let rpc t = t.rpc_ep
let log t = t.log
let raid t = t.raid
let streams t = t.streams
let write_server t = t.wserver
let namespace t = t.ns

let connect_client t ws =
  let conn =
    Rpc.connect (Site.net t.fs_site) ~client:(Workstation.rpc ws)
      ~server:t.rpc_ep ()
  in
  let agent =
    Pfs.Client_agent.Agent.create (Site.engine t.fs_site) ~server:t.wserver ()
  in
  (conn, agent)

type recorder = {
  r_owner : t;
  recording : Pfs.Stream.recording;
  data_reassembler : Atm.Aal5.Reassembler.t;
  ctl_reassembler : Atm.Aal5.Reassembler.t;
  mutable bytes : int;
}

let start_recorder t ~rate_bps =
  match Pfs.Stream.start_recording t.streams ~rate_bps with
  | Error `Admission_denied -> Error `Admission_denied
  | Ok recording ->
      Ok
        {
          r_owner = t;
          recording;
          data_reassembler = Atm.Aal5.Reassembler.create ();
          ctl_reassembler = Atm.Aal5.Reassembler.create ();
          bytes = 0;
        }

let recorder_data_rx r cell =
  match Atm.Aal5.Reassembler.push r.data_reassembler cell with
  | Some (Ok payload) ->
      let len = Bytes.length payload in
      let data =
        if Pfs.Raid.stores_data (Pfs.Log.raid (log r.r_owner)) then Some payload
        else None
      in
      r.bytes <- r.bytes + len;
      Pfs.Stream.write_chunk r.recording ?data ~len (fun _ -> ())
  | Some (Error _) | None -> ()

let recorder_control_rx r cell =
  match Atm.Aal5.Reassembler.push r.ctl_reassembler cell with
  | Some (Ok payload) -> begin
      match Atm.Control.unmarshal payload with
      | Some (Atm.Control.Sync { stamp; _ })
      | Some (Atm.Control.Index_mark { stamp; _ }) ->
          Pfs.Stream.index_mark r.recording ~stamp
      | Some (Atm.Control.Start | Atm.Control.Stop) | None -> ()
    end
  | Some (Error _) | None -> ()

let recorder_fid r = Pfs.Stream.recording_fid r.recording
let recorder_bytes r = r.bytes

let finish_recorder t r =
  Pfs.Stream.finish_recording t.streams r.recording;
  (* Make the recording nameable. *)
  let fid = recorder_fid r in
  Naming.Namespace.bind t.ns
    ~path:(Printf.sprintf "media/rec%d" fid)
    (Naming.Maillon.of_iface ~reference:(Printf.sprintf "rec%d" fid)
       (Naming.Maillon.iface
          [ ("fid", fun _ -> Bytes.of_string (string_of_int fid)) ]))
