(** A Pegasus multimedia workstation (paper Figure 1).

    The conventional part — CPU, memory, network interface — hangs off
    a local desk-area switch, and so do the multimedia devices: camera
    nodes, the tile display, the audio/DSP node.  The switch is under
    the workstation's control, so media flows device-to-device without
    the CPU touching a pixel.  The CPU runs a Nemesis kernel with a QoS
    manager, a per-machine namespace (with the site tree mounted at
    ["global"]), and an RPC endpoint. *)

type t

val create :
  Site.t ->
  name:string ->
  ?cameras:int ->
  ?display:bool ->
  ?audio:bool ->
  unit ->
  t
(** The kernel schedules with Atropos.  Defaults: 1 camera, a display,
    an audio node. *)

val site : t -> Site.t
val kernel : t -> Nemesis.Kernel.t
val qos : t -> Nemesis.Qos.t
val namespace : t -> Naming.Namespace.t
val rpc : t -> Rpc.endpoint

val cpu : t -> Atm.Net.node_id
(** The conventional host (where managers and the RPC endpoint live). *)

val camera_host : t -> int -> Atm.Net.node_id
(** The [i]th camera device node.  Raises [Invalid_argument] when the
    workstation has fewer cameras. *)

val camera_count : t -> int

val display_host : t -> Atm.Net.node_id option
val display : t -> Atm.Display.t option

val audio_host : t -> Atm.Net.node_id option
(** The DSP node (capture and play-out). *)
