type port = int

(* A burst whose counters were bumped at handover time: cells with
   arrival instants still in the future are subtracted back out by the
   accessors, so reads always match the per-cell path, which counts
   each cell at its own arrival event.  [pa] holds the cells' arrival
   instants at this input port. *)
type pend = { pa : Cell_times.t; pun : bool }

type entry = { out_port : port; out_vci : int; priority : bool }

type t = {
  engine : Sim.Engine.t;
  name : string;
  hop : string;  (* the flow-step name, built once so every step passes
                    the same string to the trace's interner *)
  nports : int;
  max_vci : int;  (* the largest VCI whose key does not overflow *)
  outputs : Link.t option array;
  table : entry Sim.Int_table.t;  (* by [key] *)
  mutable switched : int;
  mutable unroutable : int;
  (* Every burst with a cell still to arrive, and some with none: a
     burst is dropped only when the list is pruned, which happens when
     it has doubled since the last prune and when an accessor reads it.
     A burst with no cell to come counts nothing, so the accessors read
     the same either way, and a train costs O(1) amortized however many
     bursts are in flight. *)
  mutable pending : pend list;
  mutable pending_len : int;
  mutable prune_at : int;
  m_switched : Sim.Metrics.counter;
  m_unroutable : Sim.Metrics.counter;
}

(* Fabric transit: one cell time at 100 Mbit/s, matching Fairisle's
   cell-pipelined fabric. *)
let fabric_delay = Sim.Time.ns 4240

(* The least length at which [pending] is pruned. *)
let min_pending = 8

let create engine ~name ~ports =
  let metrics = Sim.Engine.metrics engine in
  {
    engine;
    name;
    hop = "sw:" ^ name;
    nports = ports;
    max_vci = (max_int - ports) / Int.max 1 ports;
    outputs = Array.make ports None;
    table = Sim.Int_table.create 64;
    switched = 0;
    unroutable = 0;
    pending = [];
    pending_len = 0;
    prune_at = min_pending;
    m_switched =
      Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Atm
        ~help:"cells forwarded across all switch fabrics"
        "switch.cells_switched";
    m_unroutable =
      Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Atm
        ~help:"cells dropped for lack of a routing-table entry"
        "switch.cells_unroutable";
  }

let ports t = t.nports

let attach_output t port link =
  if port < 0 || port >= t.nports then invalid_arg "Switch.attach_output: bad port";
  match t.outputs.(port) with
  | Some _ -> invalid_arg "Switch.attach_output: port already attached"
  | None -> t.outputs.(port) <- Some link

(* The one int that keys (in_port, in_vci) in the table, or -1 when no
   route can have them: [in_vci * nports + in_port] is a different int
   for every port in [\[0, nports)] and VCI in [\[0, max_vci\]]. *)
let key t in_port in_vci =
  if in_port >= 0 && in_port < t.nports && in_vci >= 0 && in_vci <= t.max_vci
  then (in_vci * t.nports) + in_port
  else -1

let add_route ?(priority = false) t ~in_port ~in_vci ~out_port ~out_vci =
  let k = key t in_port in_vci in
  if k < 0 then invalid_arg "Switch.add_route: bad port or VCI";
  if Sim.Int_table.mem t.table k then
    invalid_arg "Switch.add_route: route exists";
  Sim.Int_table.add t.table k { out_port; out_vci; priority }

let remove_route t ~in_port ~in_vci =
  Sim.Int_table.remove t.table (key t in_port in_vci)

let route t ~in_port ~in_vci =
  match Sim.Int_table.find t.table (key t in_port in_vci) with
  | r -> Some (r.out_port, r.out_vci)
  | exception Not_found -> None

let drop_unroutable t in_port (cell : Cell.t) =
  t.unroutable <- t.unroutable + 1;
  Sim.Metrics.incr t.m_unroutable;
  let tr = Sim.Engine.trace t.engine in
  if Sim.Trace.enabled tr then
    Sim.Trace.instant tr
      ~ts:(Sim.Engine.now t.engine)
      ~sub:Sim.Subsystem.Atm ~cat:"switch"
      ~args:
        [
          ("switch", Sim.Trace.Str t.name);
          ("port", Sim.Trace.Int in_port);
          ("vci", Sim.Trace.Int cell.Cell.vci);
        ]
      "cell_unroutable"

let input t in_port (cell : Cell.t) =
  match Sim.Int_table.find t.table (key t in_port cell.vci) with
  | exception Not_found -> drop_unroutable t in_port cell
  | { out_port; out_vci; priority } -> begin
      match t.outputs.(out_port) with
      | None -> drop_unroutable t in_port cell
      | Some link ->
          t.switched <- t.switched + 1;
          Sim.Metrics.incr t.m_switched;
          (* One causal hop per frame: the stage ends when the frame's
             last cell reaches this switch's input. *)
          let tr = Sim.Engine.trace t.engine in
          if cell.last && Sim.Trace.flows_on tr && cell.flow >= 0 then
            Sim.Trace.flow_step tr
              ~ts:(Sim.Engine.now t.engine)
              ~sub:Sim.Subsystem.Atm ~cat:"hop" ~flow:cell.flow t.hop;
          cell.vci <- out_vci;
          let forward () = Link.send ~priority link cell in
          ignore (Sim.Engine.schedule t.engine ~delay:fabric_delay forward)
    end

let now_ns t = Sim.Time.to_ns (Sim.Engine.now t.engine)

let prune_pending t =
  let now = now_ns t in
  t.pending <- List.filter (fun p -> Cell_times.last p.pa > now) t.pending;
  t.pending_len <- List.length t.pending;
  t.prune_at <- Int.max min_pending (2 * t.pending_len)

(* Cells counted at handover whose arrival has not happened yet. *)
let future_cells t pred =
  let now = now_ns t in
  List.fold_left
    (fun acc p -> if pred p then acc + Cell_times.count_after p.pa now else acc)
    0 t.pending

let note_pending t pa pun =
  if Cell_times.last pa > now_ns t then begin
    t.pending <- { pa; pun } :: t.pending;
    t.pending_len <- t.pending_len + 1;
    if t.pending_len >= t.prune_at then prune_pending t
  end

(* The train path only runs without cell-detail tracing, so counting
   the burst is all the per-cell path would have done. *)
let drop_train t n arrivals =
  t.unroutable <- t.unroutable + n;
  Sim.Metrics.incr ~by:n t.m_unroutable;
  note_pending t arrivals true

(* The train fast path: one routing lookup for a whole burst, and no
   fabric-transit event at all.  [arrivals] (each cell's arrival at this
   input port), shifted by the fabric delay, becomes the virtual offer
   sequence the output link schedules against — so per-cell timing is
   preserved exactly, at a cost that follows the arrivals' runs. *)
let input_train t in_port (train : Train.t) ~arrivals =
  let n = Train.count train in
  match Sim.Int_table.find t.table (key t in_port train.Train.vci) with
  | exception Not_found -> drop_train t n arrivals
  | { out_port; out_vci; priority } -> begin
      match t.outputs.(out_port) with
      | None -> drop_train t n arrivals
      | Some link ->
          t.switched <- t.switched + n;
          Sim.Metrics.incr ~by:n t.m_switched;
          (* Same causal hop as the per-cell path: stamped with the last
             cell's (possibly future) arrival at this input, so the audit
             sees identical stage boundaries whichever path ran. *)
          let tr = Sim.Engine.trace t.engine in
          if
            Train.contains_last train
            && Sim.Trace.flows_on tr
            && Train.flow train >= 0
          then
            Sim.Trace.flow_step tr
              ~ts:(Sim.Time.ns (Cell_times.last arrivals))
              ~sub:Sim.Subsystem.Atm ~cat:"hop" ~flow:(Train.flow train)
              t.hop;
          train.Train.vci <- out_vci;
          note_pending t arrivals false;
          (* Commit downstream immediately with the (future)
             fabric-shifted instants as virtual offers: the output link
             reveals each cell only once its offer passes, so no
             fabric-transit event per burst is needed at all. *)
          Link.send_train ~priority
            ~offers:(Cell_times.shift arrivals (Sim.Time.to_ns fabric_delay))
            link train
    end

let cells_switched t =
  prune_pending t;
  t.switched - future_cells t (fun p -> not p.pun)

let cells_unroutable t =
  prune_pending t;
  t.unroutable - future_cells t (fun p -> p.pun)
