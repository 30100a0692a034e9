(** Topology builder and virtual-circuit signalling.

    A network is a graph of hosts and switches joined by bidirectional
    link pairs.  {!open_vc} plays the role of ATM signalling: it finds a
    shortest path, allocates a VCI per hop, installs the switch routing
    entries, and hands back a handle for sending cells or whole AAL5
    frames.  In Pegasus this signalling runs in a management process on
    the workstation rather than in the devices; here it is a library
    call made by whatever component manages the device. *)

type t

type node_id

type vc

val create : ?vci_limit:int -> Sim.Engine.t -> t
(** [vci_limit] (default 65535, minimum 32) caps the VCI space of every
    (node, port) pair: signalling fails — and rolls back — when a hop's
    space is exhausted.  Closed VCs return their VCIs for reuse, so only
    the peak number of concurrently open VCs through a port counts
    against the limit. *)

val engine : t -> Sim.Engine.t

val add_switch : t -> name:string -> ports:int -> node_id
val add_host : t -> name:string -> node_id

val find : t -> string -> node_id
(** Look a node up by name.  Raises [Not_found]. *)

val node_name : t -> node_id -> string

val connect :
  t ->
  ?bandwidth_bps:int ->
  ?prop:Sim.Time.t ->
  ?queue_cells:int ->
  node_id ->
  node_id ->
  unit
(** Join two nodes with a pair of links (one per direction) with the
    given characteristics (defaults as in {!Link.create}). *)

val open_vc :
  ?reserve_bps:int ->
  ?rx_train:(Train.t -> unit) ->
  ?path_sel:int ->
  t ->
  src:node_id ->
  dst:node_id ->
  rx:(Cell.t -> unit) ->
  vc
(** Establish a unidirectional VC from [src] to [dst]; [rx] runs at the
    destination host for each arriving cell.  [reserve_bps] asks the
    signalling for a bandwidth reservation on every link of the path:
    the VC's cells then travel with priority and bounded jitter.
    [rx_train] receives whole train windows on the fast path (at the
    window's completion instant); without it, windows are fanned out to
    [rx] cell by cell at that same instant.

    Path search is host-transparent (intermediate hops are always
    switches) and [path_sel] rotates the edge-iteration order at every
    expanded node, so a QoS manager can deterministically spread
    equal-cost circuits over a multi-spine fabric; [path_sel = 0] (the
    default) is plain attach-order BFS.

    Raises [Failure] if no path exists, either endpoint is a switch,
    admission control refuses the reservation, or a hop's VCI space is
    exhausted.  A failed open is all-or-nothing: any reservations,
    VCIs and switch routes already installed are rolled back. *)

val close_vc : t -> vc -> unit
(** Tear the VC down: releases its reservation, removes its switch
    routes and host handler, and returns every hop's VCI to the free
    pool for reuse.  Idempotent. *)

val vc_adjust_reservation : vc -> bps:int -> bool
(** Renegotiate the VC's reservation to a new total of [bps]: shrinking
    always succeeds and releases the difference on every path link;
    growing reserves the difference on every link, all-or-nothing (on
    refusal nothing changes and the result is [false]).  Returns [false]
    on a closed VC.  Raises [Invalid_argument] when [bps <= 0] or the VC
    was opened without a reservation. *)

val send : vc -> Cell.t -> unit
(** Send one cell (the VCI field is overwritten). *)

val send_frame : ?flow:int -> vc -> bytes -> unit
(** AAL5-frame a payload and send its PDU with {!send_pdu}.  [flow] is
    stamped on every cell of the frame; it is simulation metadata (no
    wire bytes), so traced and untraced runs are timing-identical.

    Each payload buffer is framed once: the net keeps the PDUs it built
    for the payload buffers it sent most recently ({!Aal5.Framer}) and
    sends a resent buffer's PDU again once it has checked that the PDU
    still matches the payload.  The table belongs to this net alone. *)

val send_pdu : ?flow:int -> vc -> bytes -> unit
(** Send a built PDU ({!Aal5.build}) as it is: as one zero-copy
    {!Train.t} on the fast path (the default), or cell by cell when the
    train path is disabled with {!set_train_path}.  The cells are views
    of the buffer, so nobody may write it once it is sent.  [flow] as
    for {!send_frame}. *)

val set_train_path : t -> bool -> unit
(** Toggle the cell-train fast path (default [true]).  Off, every frame
    moves through the per-cell path; simulation results are identical
    either way — only event counts and wall-clock speed differ. *)

val vc_hops : vc -> int
(** Number of links traversed. *)

val vc_src_vci : vc -> int

val vc_reserved : vc -> int option

val vc_dst_vci : vc -> int
(** The VCI under which cells arrive at the destination — the display
    device, for instance, uses it to index window descriptors. *)

val vc_path_links : vc -> Link.t list
(** The directed links the VC crosses, source first — the links its
    reservation (if any) is held on. *)

val vc_live : vc -> bool
(** [false] once the VC has been closed. *)

val host_rx_capacity : t -> node_id -> int
(** Size of the host's dense VCI-indexed receive-dispatch array — a
    diagnostic for the churn tests: with VCI reuse it stays pinned
    across open/close cycles.  Raises [Invalid_argument] on a switch. *)

val frame_rx :
  rx:(flow:int -> bytes -> int -> int -> unit) ->
  ?on_error:(Aal5.error -> unit) ->
  unit ->
  (Cell.t -> unit) * (Train.t -> unit)
(** A cell handler and a train handler sharing one AAL5 reassembler —
    pass both to {!open_vc} so frames arriving as trains are checked
    with at most one blit.  [rx ~flow buf off len] receives each checked
    payload as the view [buf.[off, off + len)] with the causal flow id
    carried by the frame's cells ({!Sim.Trace.no_flow} when the sender
    attached none).  The view is valid until [rx] returns, and [rx] must
    not write it ({!Aal5.Reassembler}): a receiver that keeps the bytes
    copies them there.  Frames with CRC or length errors go to
    [on_error] (default: ignored — the paper's devices simply avoid
    rendering faulty tiles). *)

(** {1 Multi-server attach and frame pipes} *)

val fan :
  ?bandwidth_bps:int ->
  ?queue_cells:int ->
  t ->
  switch:node_id ->
  prefix:string ->
  n:int ->
  node_id array
(** Attach [n] hosts (named [prefix0], [prefix1], ...) to [switch],
    each over its own link pair with the given characteristics and
    {!connect}'s 5 us propagation delay — the one-switch counterpart of
    {!clos} for server-fleet rigs.  Names and attach order are
    deterministic.  Raises [Invalid_argument] when [n < 1]. *)

val open_pipe :
  t ->
  src:node_id ->
  dst:node_id ->
  rx:(flow:int -> bytes -> unit) ->
  vc
(** {!open_vc} for callers that deal in whole AAL5 frames: a shared
    reassembler is pre-wired on both the per-cell path and the train
    fast path ({!frame_rx}), and [rx] receives each frame's payload
    with the causal flow id its cells carried ({!Sim.Trace.no_flow}
    when the sender attached none).  The payload is lent, not given:
    the pipe copies the checked view into the receive buffer the net
    keeps for that payload length and lends it to [rx] until [rx]
    returns.  The next frame of that length overwrites it, so a
    receiver that keeps the bytes copies them inside [rx]; whatever
    [rx] writes there changes no other delivery.  Frames with CRC or
    length errors are dropped silently, as the paper's devices do. *)

(** {1 Clos / leaf-spine fabric generation} *)

type clos = {
  cl_spines : node_id array;
  cl_leaves : node_id array;
  cl_hosts : node_id array;
      (** Leaf-major: the hosts of leaf [l] occupy indices
          [l * hosts_per_leaf .. (l+1) * hosts_per_leaf - 1]. *)
}

val clos : t -> spines:int -> leaves:int -> hosts_per_leaf:int -> clos
(** Generate a two-tier folded Clos (leaf-spine) fabric: every leaf
    switch connects to every spine switch over a 1 Gbit/s, 10 us trunk,
    and [hosts_per_leaf] hosts hang off each leaf over 100 Mbit/s, 5 us
    links; every queue holds 256 cells.  Construction is O(V+E); names
    ([spine0], [leaf3], [h3.5]) and edge attach order are
    deterministic, so paths — and therefore experiment tables — are
    reproducible.  Host-to-host paths across leaves are 4 hops
    (host, leaf, spine, leaf, host); {!open_vc}'s [path_sel] picks among
    the [spines] equal-cost spine crossings.  Raises [Invalid_argument]
    when any dimension is [< 1]. *)

(** {1 Fault injection}

    Per-link loss and outage injection, driven by a {!Sim.Fault} plan
    (or any deterministic RNG). *)

val links_between : t -> node_id -> node_id -> Link.t list
(** The directed links from the first node to the second (normally one
    per [connect]); empty when not adjacent. *)

val set_link_down : t -> node_id -> node_id -> bool -> unit
(** Take both directions of the link pair between two adjacent nodes
    down (or back up).  Raises [Invalid_argument] if not adjacent. *)

val inject_loss : t -> rng:Sim.Rng.t -> float -> unit
(** Install independent Bernoulli wire-loss streams at the given rate
    on every link, each split off [rng] (deterministic given the RNG's
    seed and the link creation order).  A rate [<= 0] clears loss. *)

val clear_faults : t -> unit
(** Clear every injected fault on every link: outage flags and loss
    streams. *)

(** {1 Statistics} *)

val total_cells_dropped : t -> int
(** Sum of queue drops over every link in the network. *)

val total_cells_lost : t -> int
(** Sum of fault-injected losses over every link. *)

val switches : t -> Switch.t list
val links : t -> Link.t list

(** {1 Topology partitioning}

    Support for sharded parallel simulation ({!Sim.Shard}): split the
    topology into per-switch-neighbourhood parts and compute the
    conservative lookahead of the cut. *)

val partition : t -> parts:int -> int array
(** Assign every node a part in [0, parts): switches are split into
    contiguous blocks in creation order and each host joins its nearest
    switch's part (multi-source BFS, deterministic).  With fewer
    switches than [parts], the extra parts stay empty; with no switches
    everything lands in part 0.  Raises [Invalid_argument] when
    [parts < 1]. *)

val cut_lookahead : t -> assign:int array -> Sim.Time.t option
(** Minimum propagation delay over the links whose endpoints sit in
    different parts of [assign] — the largest lookahead a conservative
    sharded run of this topology can use.  [None] when no link crosses
    the cut.  Raises [Invalid_argument] if [assign] does not cover every
    node. *)
