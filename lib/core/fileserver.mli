(** The Pegasus storage server as a network node.

    Behind the scenes it is the log-structured core over a 4+1 RAID
    ({!Pfs}); towards the site it is (a) an RPC interface ["pfs"] for
    ordinary file traffic, (b) a multimedia device: point a camera's
    data and control streams at it and it records, building the index
    that later supports seeking and fast-forward, and (c) a name space
    other nodes mount. *)

type t

val create :
  Site.t ->
  name:string ->
  ?segment_bytes:int ->
  ?store_data:bool ->
  ?write_delay:Sim.Time.t ->
  unit ->
  t
(** Defaults: 1 MB segments, timing-only storage, 30 s write-behind. *)

val host : t -> Atm.Net.node_id
val log : t -> Pfs.Log.t
val streams : t -> Pfs.Stream.t
val write_server : t -> Pfs.Client_agent.Server.t
val namespace : t -> Naming.Namespace.t

val connect_client :
  t -> Workstation.t -> Rpc.conn * Pfs.Client_agent.Agent.t
(** An RPC connection plus a write-buffering client agent for a
    workstation. *)

(** {1 The RPC interface}

    Interface ["pfs"], binary arguments big-endian:
    - [create] () -> fid(u32)
    - [write] fid(u32) off(u32) len(u32) [data] -> ()
    - [read] fid(u32) off(u32) len(u32) -> data
    - [delete] fid(u32) -> ()
    - [size] fid(u32) -> u32 *)

val encode_u32s : int list -> bytes
val decode_u32 : bytes -> int -> int

(** {1 Recording continuous media} *)

type recorder

val start_recorder :
  t -> rate_bps:int -> (recorder, [ `Admission_denied ]) result

val recorder_data_rx : recorder -> Atm.Cell.t -> unit
(** Attach as the rx of the media data VC: every AAL5 frame is
    appended to the recording. *)

val recorder_control_rx : recorder -> Atm.Cell.t -> unit
(** Attach as the rx of the control VC: synchronisation marks become
    index entries mapping source time to byte offset. *)

val recorder_fid : recorder -> Pfs.Log.fid
val recorder_bytes : recorder -> int
val finish_recorder : t -> recorder -> unit
