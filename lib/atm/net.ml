type node_id = int

type edge = {
  dst : node_id;
  out_port : int;  (* port (switch) or NIC index (host) at the source *)
  in_port : int;  (* port or NIC index at the destination *)
  link : Link.t;  (* src -> dst *)
}

(* Host receive dispatch is a dense array indexed by VCI: signalling
   allocates small consecutive integers (from 32), so an option array
   replaces the per-cell Hashtbl probe of the old implementation. *)
type node_kind =
  | Switch_node of Switch.t
  | Host_node of {
      mutable rx_cells : (Cell.t -> unit) option array;
      mutable rx_trains : (Train.t -> unit) option array;
    }

(* Adjacency is a growable array (first [edge_count] slots live, in
   attach order) so [connect] appends in O(1) and an E-edge fabric
   builds in O(V+E); iteration order is attach order, exactly what the
   old list gave, so experiment tables are unchanged. *)
type node = {
  node_name : string;
  kind : node_kind;
  mutable edges : edge array;
  mutable edge_count : int;
  mutable nic_count : int;
}

(* Per-(node, receiving port) VCI allocator.  Closed VCs push their VCI
   onto [free] (LIFO, so churn reuses the same small integers and the
   dense host rx arrays stay bounded); [next] only advances when the
   free list is empty.  [Net.create]'s [vci_limit] caps [next]: ATM VCI
   space is finite, and exhausting it mid-signalling must roll back. *)
type vci_pool = { mutable vp_next : int; mutable vp_free : int list }

type t = {
  engine : Sim.Engine.t;
  mutable nodes : node array;
  mutable node_count : int;
  by_name : (string, node_id) Hashtbl.t;
  vci_pools : (node_id * int, vci_pool) Hashtbl.t;
  vci_limit : int;
  mutable all_links : Link.t list;
  mutable all_switches : Switch.t list;
  mutable use_trains : bool;
  framer : Aal5.Framer.t;  (* the PDUs [send_frame] built lately *)
}

let create ?(vci_limit = 65_535) engine =
  if vci_limit < 32 then invalid_arg "Net.create: vci_limit < 32";
  {
    engine;
    nodes = [||];
    node_count = 0;
    by_name = Hashtbl.create 16;
    vci_pools = Hashtbl.create 64;
    vci_limit;
    all_links = [];
    all_switches = [];
    use_trains = true;
    framer = Aal5.Framer.create ();
  }

let set_train_path t on = t.use_trains <- on

let engine t = t.engine

let add_node t node =
  if Hashtbl.mem t.by_name node.node_name then
    invalid_arg ("Net: duplicate node name " ^ node.node_name);
  if t.node_count = Array.length t.nodes then begin
    let ncap = if t.node_count = 0 then 8 else t.node_count * 2 in
    let narr = Array.make ncap node in
    Array.blit t.nodes 0 narr 0 t.node_count;
    t.nodes <- narr
  end;
  t.nodes.(t.node_count) <- node;
  let id = t.node_count in
  t.node_count <- t.node_count + 1;
  Hashtbl.add t.by_name node.node_name id;
  id

let add_switch t ~name ~ports =
  let sw = Switch.create t.engine ~name ~ports in
  t.all_switches <- sw :: t.all_switches;
  add_node t
    { node_name = name; kind = Switch_node sw; edges = [||]; edge_count = 0; nic_count = 0 }

let add_host t ~name =
  add_node t
    {
      node_name = name;
      kind = Host_node { rx_cells = Array.make 64 None; rx_trains = Array.make 64 None };
      edges = [||];
      edge_count = 0;
      nic_count = 0;
    }

let find t name =
  match Hashtbl.find_opt t.by_name name with
  | Some id -> id
  | None -> raise Not_found

let node_name t id = t.nodes.(id).node_name

let append_edge node e =
  if node.edge_count = Array.length node.edges then begin
    let ncap = if node.edge_count = 0 then 4 else node.edge_count * 2 in
    let narr = Array.make ncap e in
    Array.blit node.edges 0 narr 0 node.edge_count;
    node.edges <- narr
  end;
  node.edges.(node.edge_count) <- e;
  node.edge_count <- node.edge_count + 1

let iter_edges f node =
  for k = 0 to node.edge_count - 1 do
    f node.edges.(k)
  done

let slot arr vci = if vci >= 0 && vci < Array.length arr then arr.(vci) else None

let grown arr vci =
  if vci < Array.length arr then arr
  else begin
    let narr = Array.make (Int.max (vci + 1) (2 * Array.length arr)) None in
    Array.blit arr 0 narr 0 (Array.length arr);
    narr
  end

let host_rx t id (cell : Cell.t) =
  match t.nodes.(id).kind with
  | Host_node h -> begin
      match slot h.rx_cells cell.vci with
      | Some handler -> handler cell
      | None -> ()  (* cell for a closed VC: dropped on the floor *)
    end
  | Switch_node _ -> assert false

let host_rx_train t id (train : Train.t) =
  match t.nodes.(id).kind with
  | Host_node h -> begin
      match slot h.rx_trains train.Train.vci with
      | Some handler -> handler train
      | None -> (
          (* No train-aware handler: fan the window out to the cell
             handler at its completion instant. *)
          match slot h.rx_cells train.Train.vci with
          | Some handler ->
              for i = 0 to Train.count train - 1 do
                handler (Train.cell train i)
              done
          | None -> ())
    end
  | Switch_node _ -> assert false

let host_rx_capacity t id =
  match t.nodes.(id).kind with
  | Host_node h -> Array.length h.rx_cells
  | Switch_node _ -> invalid_arg "Net.host_rx_capacity: not a host"

(* Allocate the attachment point for one end of a new link pair and
   return its port/NIC index. *)
let alloc_port t id =
  let node = t.nodes.(id) in
  match node.kind with
  | Switch_node sw ->
      let used = node.edge_count in
      if used >= Switch.ports sw then
        invalid_arg ("Net.connect: switch " ^ node.node_name ^ " is full");
      used
  | Host_node _ ->
      let idx = node.nic_count in
      node.nic_count <- idx + 1;
      idx

let rx_for t id port =
  match t.nodes.(id).kind with
  | Switch_node sw -> fun cell -> Switch.input sw port cell
  | Host_node _ -> fun cell -> host_rx t id cell

let rx_train_for t id port =
  match t.nodes.(id).kind with
  | Switch_node sw ->
      Link.Stream (fun train ~arrivals -> Switch.input_train sw port train ~arrivals)
  | Host_node _ -> Link.Frame_end (fun train -> host_rx_train t id train)

let connect t ?(bandwidth_bps = 100_000_000) ?(prop = Sim.Time.us 5)
    ?(queue_cells = 256) a b =
  let pa = alloc_port t a and pb = alloc_port t b in
  let link_ab =
    Link.create t.engine ~bandwidth_bps ~prop ~queue_cells ~rx:(rx_for t b pb)
      ~rx_train:(rx_train_for t b pb) ()
  in
  let link_ba =
    Link.create t.engine ~bandwidth_bps ~prop ~queue_cells ~rx:(rx_for t a pa)
      ~rx_train:(rx_train_for t a pa) ()
  in
  (match t.nodes.(a).kind with
  | Switch_node sw -> Switch.attach_output sw pa link_ab
  | Host_node _ -> ());
  (match t.nodes.(b).kind with
  | Switch_node sw -> Switch.attach_output sw pb link_ba
  | Host_node _ -> ());
  append_edge t.nodes.(a) { dst = b; out_port = pa; in_port = pb; link = link_ab };
  append_edge t.nodes.(b) { dst = a; out_port = pb; in_port = pa; link = link_ba };
  t.all_links <- link_ab :: link_ba :: t.all_links

(* Breadth-first path search, host-transparent: only the source (and
   switches) are expanded, so a multi-homed host can never be chosen as
   an intermediate hop — it is an endpoint, not a through-route.  [sel]
   rotates the starting edge at every expanded node, giving signalling a
   deterministic way to spread equal-cost paths over a multi-spine
   fabric ([sel = 0] reproduces plain attach-order BFS exactly). *)
let shortest_path ?(sel = 0) t ~src ~dst =
  let prev = Array.make t.node_count None in
  let visited = Array.make t.node_count false in
  visited.(src) <- true;
  let q = Queue.create () in
  Queue.add src q;
  let found = ref (src = dst) in
  while (not !found) && not (Queue.is_empty q) do
    let u = Queue.pop q in
    let n = t.nodes.(u) in
    let expand =
      u = src
      || match n.kind with Switch_node _ -> true | Host_node _ -> false
    in
    if expand then begin
      let deg = n.edge_count in
      let start = if deg = 0 then 0 else sel mod deg in
      for k = 0 to deg - 1 do
        let e = n.edges.((start + k) mod deg) in
        if not visited.(e.dst) then begin
          visited.(e.dst) <- true;
          prev.(e.dst) <- Some (u, e);
          if e.dst = dst then found := true else Queue.add e.dst q
        end
      done
    end
  done;
  if not !found then None
  else begin
    let rec walk acc v =
      match prev.(v) with
      | None -> acc
      | Some (u, e) -> walk (e :: acc) u
    in
    Some (walk [] dst)
  end

let pool_for t id port =
  let key = (id, port) in
  match Hashtbl.find_opt t.vci_pools key with
  | Some p -> p
  | None ->
      let p = { vp_next = 32; vp_free = [] } in
      Hashtbl.add t.vci_pools key p;
      p

let alloc_vci t id port =
  let pool = pool_for t id port in
  match pool.vp_free with
  | vci :: rest ->
      pool.vp_free <- rest;
      vci
  | [] ->
      if pool.vp_next > t.vci_limit then
        failwith
          (Printf.sprintf "Net: VCI space exhausted on %s port %d"
             t.nodes.(id).node_name port);
      let vci = pool.vp_next in
      pool.vp_next <- vci + 1;
      vci

let free_vci t id port vci =
  let pool = pool_for t id port in
  pool.vp_free <- vci :: pool.vp_free

type vc = {
  vc_net : t;
  net_src : node_id;
  net_dst : node_id;
  first_link : Link.t;
  src_vci : int;
  dst_vci : int;
  hops : int;
  mutable reserved : int option;  (* bps reserved on every link of the path *)
  path_links : Link.t list;
  (* per-hop VCI allocations (receiving node, receiving port, vci) *)
  allocs : (node_id * int * int) array;
  (* switch routing entries and the host rx entry, for teardown *)
  entries : (Switch.t * int * int) list;
  mutable live : bool;
}

let open_vc ?reserve_bps ?rx_train ?(path_sel = 0) t ~src ~dst ~rx =
  (match (t.nodes.(src).kind, t.nodes.(dst).kind) with
  | Host_node _, Host_node _ -> ()
  | _ -> failwith "Net.open_vc: endpoints must be hosts");
  match shortest_path ~sel:path_sel t ~src ~dst with
  | None | Some [] -> failwith "Net.open_vc: no path"
  | Some (first :: _ as path) ->
      let links = List.map (fun e -> e.link) path in
      let path_arr = Array.of_list path in
      let n = Array.length path_arr in
      (* The host-transparent path search guarantees every intermediate
         node is a switch; check before touching any state so a bad path
         can never half-install. *)
      for i = 0 to n - 2 do
        match t.nodes.(path_arr.(i).dst).kind with
        | Switch_node _ -> ()
        | Host_node _ -> failwith "Net.open_vc: path crosses a host"
      done;
      (match reserve_bps with
      | None -> ()
      | Some bps ->
          (* Admission along the whole path, rolled back on refusal. *)
          let rec admit done_ = function
            | [] -> ()
            | l :: rest ->
                if Link.reserve l ~bps then admit (l :: done_) rest
                else begin
                  List.iter (fun l' -> Link.release l' ~bps) done_;
                  failwith "Net.open_vc: reservation refused (admission)"
                end
          in
          admit [] links);
      let priority = reserve_bps <> None in
      (* Allocate a VCI per hop (at the receiving side) and install the
         switch routes as we go: the cell enters node path_arr.(i).dst
         with vcis.(i) and must leave via edge path_arr.(i+1).  Any
         failure past admission — VCI space exhausted, a clashing route —
         unwinds every route, VCI and reservation already made, so a
         failed open leaves no trace (the admission-leak fix). *)
      let vcis = Array.make n (-1) in
      let entries = ref [] in
      let rollback () =
        List.iter
          (fun (sw, in_port, in_vci) -> Switch.remove_route sw ~in_port ~in_vci)
          !entries;
        for i = 0 to n - 1 do
          if vcis.(i) >= 0 then
            free_vci t path_arr.(i).dst path_arr.(i).in_port vcis.(i)
        done;
        match reserve_bps with
        | Some bps -> List.iter (fun l -> Link.release l ~bps) links
        | None -> ()
      in
      (try
         for i = 0 to n - 1 do
           vcis.(i) <- alloc_vci t path_arr.(i).dst path_arr.(i).in_port;
           if i > 0 then
             match t.nodes.(path_arr.(i - 1).dst).kind with
             | Switch_node sw ->
                 Switch.add_route ~priority sw ~in_port:path_arr.(i - 1).in_port
                   ~in_vci:vcis.(i - 1) ~out_port:path_arr.(i).out_port
                   ~out_vci:vcis.(i);
                 entries := (sw, path_arr.(i - 1).in_port, vcis.(i - 1)) :: !entries
             | Host_node _ -> assert false  (* checked above *)
         done
       with e ->
         rollback ();
         raise e);
      let dst_vci = vcis.(n - 1) in
      (match t.nodes.(dst).kind with
      | Host_node h ->
          h.rx_cells <- grown h.rx_cells dst_vci;
          h.rx_cells.(dst_vci) <- Some rx;
          h.rx_trains <- grown h.rx_trains dst_vci;
          h.rx_trains.(dst_vci) <- rx_train
      | Switch_node _ -> assert false);
      {
        vc_net = t;
        net_src = src;
        net_dst = dst;
        first_link = first.link;
        src_vci = vcis.(0);
        dst_vci;
        hops = n;
        reserved = reserve_bps;
        path_links = links;
        allocs =
          Array.mapi (fun i e -> (e.dst, e.in_port, vcis.(i))) path_arr;
        entries = !entries;
        live = true;
      }

let close_vc t vc =
  if vc.live then begin
    vc.live <- false;
    (match vc.reserved with
    | Some bps -> List.iter (fun l -> Link.release l ~bps) vc.path_links
    | None -> ());
    List.iter
      (fun (sw, in_port, in_vci) -> Switch.remove_route sw ~in_port ~in_vci)
      vc.entries;
    (match t.nodes.(vc.net_dst).kind with
    | Host_node h ->
        if vc.dst_vci < Array.length h.rx_cells then
          h.rx_cells.(vc.dst_vci) <- None;
        if vc.dst_vci < Array.length h.rx_trains then
          h.rx_trains.(vc.dst_vci) <- None
    | Switch_node _ -> ());
    (* Return every hop's VCI to its pool so churn reuses the same small
       integers instead of growing the dense rx arrays without bound. *)
    Array.iter (fun (id, port, vci) -> free_vci t id port vci) vc.allocs
  end

let vc_adjust_reservation vc ~bps =
  if bps <= 0 then invalid_arg "Net.vc_adjust_reservation: bps <= 0";
  match vc.reserved with
  | None -> invalid_arg "Net.vc_adjust_reservation: VC has no reservation"
  | Some old ->
      if not vc.live then false
      else if bps = old then true
      else if bps < old then begin
        List.iter (fun l -> Link.release l ~bps:(old - bps)) vc.path_links;
        vc.reserved <- Some bps;
        true
      end
      else begin
        (* Grow by the delta on every link, all or nothing. *)
        let delta = bps - old in
        let rec grow done_ = function
          | [] -> true
          | l :: rest ->
              if Link.reserve l ~bps:delta then grow (l :: done_) rest
              else begin
                List.iter (fun l' -> Link.release l' ~bps:delta) done_;
                false
              end
        in
        if grow [] vc.path_links then begin
          vc.reserved <- Some bps;
          true
        end
        else false
      end

let send vc (cell : Cell.t) =
  cell.vci <- vc.src_vci;
  Link.send ~priority:(vc.reserved <> None) vc.first_link cell

let send_pdu ?flow vc pdu =
  let priority = vc.reserved <> None in
  let train = Train.make ~vci:vc.src_vci ?flow pdu in
  if vc.vc_net.use_trains then Link.send_train ~priority vc.first_link train
  else
    for i = 0 to Train.count train - 1 do
      Link.send ~priority vc.first_link (Train.cell train i)
    done

let send_frame ?flow vc payload =
  send_pdu ?flow vc (Aal5.Framer.pdu vc.vc_net.framer payload)

let vc_hops vc = vc.hops
let vc_reserved vc = vc.reserved
let vc_src_vci vc = vc.src_vci
let vc_dst_vci vc = vc.dst_vci
let vc_path_links vc = vc.path_links
let vc_live vc = vc.live

let frame_rx ~rx ?(on_error = fun _ -> ()) () =
  let reassembler = Aal5.Reassembler.create () in
  let ok buf off len =
    rx ~flow:(Aal5.Reassembler.last_flow reassembler) buf off len
  in
  ( (fun cell -> Aal5.Reassembler.push reassembler cell ~ok ~err:on_error),
    fun train -> Aal5.Reassembler.push_train reassembler train ~ok ~err:on_error
  )

(* {1 Multi-server attach and frame pipes}

   Helpers for rigs that hang a fleet of hosts off one switch (the
   file-service experiments): [fan] attaches and links n named hosts
   in one deterministic sweep, [open_pipe] is open_vc with a shared
   AAL5 reassembler pre-wired on both the cell path and the train fast
   path, so the caller deals in whole frames and flow ids.  The pipe
   copies each checked payload out of its view for the caller to keep. *)

let fan ?bandwidth_bps ?queue_cells t ~switch ~prefix ~n =
  if n < 1 then invalid_arg "Net.fan: n must be >= 1";
  Array.init n (fun i ->
      let h = add_host t ~name:(Printf.sprintf "%s%d" prefix i) in
      connect t ?bandwidth_bps ?queue_cells switch h;
      h)

let open_pipe t ~src ~dst ~rx =
  let cell_rx, train_rx =
    frame_rx ~rx:(fun ~flow buf off len -> rx ~flow (Bytes.sub buf off len)) ()
  in
  open_vc ~rx_train:train_rx t ~src ~dst ~rx:cell_rx

let total_cells_dropped t =
  List.fold_left (fun acc l -> acc + Link.cells_dropped l) 0 t.all_links

let total_cells_lost t =
  List.fold_left (fun acc l -> acc + Link.cells_lost l) 0 t.all_links

let switches t = t.all_switches
let links t = t.all_links

(* {1 Clos / leaf-spine fabric generation}

   A two-tier folded Clos: every leaf connects to every spine, hosts
   hang off the leaves.  All construction is O(V+E) (edge append is
   amortised O(1)), names and port assignments are deterministic, and
   the attach order — all spine trunks of leaf 0, then leaf 0's hosts,
   then leaf 1 ... — fixes the BFS edge order that path selection
   rotates over. *)

type clos = {
  cl_spines : node_id array;
  cl_leaves : node_id array;
  cl_hosts : node_id array;  (* leaf-major: hosts of leaf l start at l * hosts_per_leaf *)
}

(* The leaf-spine trunks; host links take {!connect}'s defaults. *)
let spine_bps = 1_000_000_000
let spine_prop = Sim.Time.us 10

let clos t ~spines ~leaves ~hosts_per_leaf =
  if spines < 1 || leaves < 1 || hosts_per_leaf < 1 then
    invalid_arg "Net.clos: spines, leaves and hosts_per_leaf must be >= 1";
  let cl_spines =
    Array.init spines (fun s ->
        add_switch t ~name:(Printf.sprintf "spine%d" s) ~ports:leaves)
  in
  let cl_leaves =
    Array.init leaves (fun l ->
        add_switch t
          ~name:(Printf.sprintf "leaf%d" l)
          ~ports:(spines + hosts_per_leaf))
  in
  let cl_hosts =
    Array.init (leaves * hosts_per_leaf) (fun i ->
        add_host t
          ~name:(Printf.sprintf "h%d.%d" (i / hosts_per_leaf) (i mod hosts_per_leaf)))
  in
  Array.iteri
    (fun l leaf ->
      Array.iter
        (fun spine ->
          connect t ~bandwidth_bps:spine_bps ~prop:spine_prop leaf spine)
        cl_spines;
      for h = 0 to hosts_per_leaf - 1 do
        connect t cl_hosts.((l * hosts_per_leaf) + h) leaf
      done)
    cl_leaves;
  { cl_spines; cl_leaves; cl_hosts }

(* {1 Topology partitioning}

   Sharding a simulation along switch boundaries: switches are split
   into [parts] contiguous blocks (in creation order, so the assignment
   is deterministic), and every host joins the part of its nearest
   switch via a multi-source BFS seeded from the switches in id order.
   Hosts with no switch in reach fall into part 0. *)

let partition t ~parts =
  if parts < 1 then invalid_arg "Net.partition: parts < 1";
  let assign = Array.make t.node_count 0 in
  let sw_ids = ref [] in
  for id = t.node_count - 1 downto 0 do
    match t.nodes.(id).kind with
    | Switch_node _ -> sw_ids := id :: !sw_ids
    | Host_node _ -> ()
  done;
  let sw_ids = Array.of_list !sw_ids in
  let nsw = Array.length sw_ids in
  if nsw = 0 then assign
  else begin
    let visited = Array.make t.node_count false in
    let q = Queue.create () in
    Array.iteri
      (fun k id ->
        (* Contiguous blocks: switch k of nsw goes to part k*parts/nsw,
           so parts beyond the switch count are left empty rather than
           splitting one switch's neighbourhood. *)
        assign.(id) <- k * parts / nsw;
        visited.(id) <- true;
        Queue.add id q)
      sw_ids;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      iter_edges
        (fun e ->
          if not visited.(e.dst) then begin
            visited.(e.dst) <- true;
            assign.(e.dst) <- assign.(u);
            Queue.add e.dst q
          end)
        t.nodes.(u)
    done;
    assign
  end

let cut_lookahead t ~assign =
  if Array.length assign <> t.node_count then
    invalid_arg "Net.cut_lookahead: assignment size mismatch";
  let best = ref None in
  for u = 0 to t.node_count - 1 do
    iter_edges
      (fun e ->
        if assign.(u) <> assign.(e.dst) then
          let p = Link.prop e.link in
          match !best with
          | Some b when Sim.Time.(b <= p) -> ()
          | _ -> best := Some p)
      t.nodes.(u)
  done;
  !best

(* {1 Fault injection} *)

let links_between t a b =
  let out = ref [] in
  iter_edges (fun e -> if e.dst = b then out := e.link :: !out) t.nodes.(a);
  List.rev !out

let set_link_down t a b down =
  let pair = links_between t a b @ links_between t b a in
  if pair = [] then invalid_arg "Net.set_link_down: nodes are not adjacent";
  List.iter (fun l -> Link.set_down l down) pair

let inject_loss t ~rng rate =
  List.iter (fun l -> Link.set_loss_rate l ~rng rate) t.all_links

let clear_faults t =
  List.iter
    (fun l ->
      Link.set_down l false;
      Link.set_loss l None)
    t.all_links
