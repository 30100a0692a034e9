type train_rx =
  | Stream of (Train.t -> arrivals:Cell_times.t -> unit)
  | Frame_end of (Train.t -> unit)

(* A committed train window.

   [send_train] computes every cell's start slot analytically at commit
   time against the same horizons the per-cell path uses, then advances
   the horizon for the whole burst at once.  Cells keep a *virtual
   offer* instant, the time the per-cell path would have offered them,
   and a start slot, or none when the cell would have been dropped at
   the queue.  Nothing downstream learns of a cell before its virtual
   offer has passed, so any interferer that arrives mid-window can still
   split the un-offered remainder back to the per-cell path and the two
   simulations stay byte-identical.

   A window stores its cells as runs, five ints each in [ot_runs]: the
   first offer, the offer step, the first start (-1 for a run of
   dropped cells), the start step and the number of cells.  Cell [j] of
   a run is offered at [offer + j * offer_step] and starts at [start + j
   * start_step].  A frame paced at line rate keeps both steps constant,
   so a window is usually one run, and everything below works run by
   run and finds a cell within a run by division.

   Counters and metrics are applied when cells are *processed* (at
   delivery events); the public accessors add the correction for cells
   whose virtual offer has passed but whose processing event has not
   fired yet, so reads always match the per-cell path. *)
type otrain = {
  mutable ot_train : Train.t;  (* extended in place by continuation merges *)
  ot_prio : bool;
  mutable ot_runs : int array;  (* [0, 5 * ot_nr) in use *)
  mutable ot_nr : int;  (* runs; their cells add up to [ot_n] *)
  ot_cap : int;  (* cells the window may grow to by continuation merges *)
  ot_h0 : int;  (* the class horizon before this commit, ns *)
  ot_lat : int;  (* cell_time + prop, ns *)
  mutable ot_n : int;  (* cells still owned (splits truncate this) *)
  mutable ot_done : int;  (* cells already processed *)
  mutable ot_r : int;  (* the run holding cell [ot_done] (see [sync]) *)
  mutable ot_r0 : int;  (* the index of run [ot_r]'s first cell *)
  mutable ot_ev : Sim.Engine.event_id option;
}

type t = {
  engine : Sim.Engine.t;
  bandwidth_bps : int;
  cell_time : Sim.Time.t;
  cell_time_ns : int;
  prop : Sim.Time.t;
  prop_ns : int;
  queue_cells : int;
  q_lim : int;  (* a best-effort cell is queued iff horizon - offer <= q_lim *)
  rx : Cell.t -> unit;
  rx_train : train_rx option;
  mutable next_free : Sim.Time.t;  (* when the transmitter goes idle *)
  mutable res_next_free : Sim.Time.t;  (* reserved traffic's horizon *)
  mutable reserved_bps : int;
  mutable sent : int;
  mutable dropped : int;
  mutable lost : int;  (* injected: outage drops + wire loss *)
  mutable is_down : bool;  (* fault injection: link outage *)
  mutable loss : (unit -> bool) option;  (* per-cell loss decision *)
  mutable busy : Sim.Time.t;
  mutable opens : otrain list;  (* open train windows, oldest first *)
  mutable pending_reoffers : int;  (* split cells awaiting per-cell re-offer *)
  m_sent : Sim.Metrics.counter;
  m_dropped : Sim.Metrics.counter;
  m_lost : Sim.Metrics.counter;
  m_queue_delay : Sim.Metrics.dist;
  m_queue_delay_win : Sim.Metrics.observer;
}

let create engine ?(bandwidth_bps = 100_000_000) ?(prop = Sim.Time.us 5)
    ?(queue_cells = 256) ~rx ?rx_train () =
  if queue_cells < 1 then invalid_arg "Link.create: queue_cells < 1";
  let metrics = Sim.Engine.metrics engine in
  let cell_time = Cell.tx_time ~bandwidth_bps in
  let cell_time_ns = Sim.Time.to_ns cell_time in
  {
    engine;
    bandwidth_bps;
    cell_time;
    cell_time_ns;
    prop;
    prop_ns = Sim.Time.to_ns prop;
    queue_cells;
    (* The queue holds [ceil ((horizon - offer) / cell_time)] cells, and
       that is below [queue_cells] exactly when [horizon - offer <=
       (queue_cells - 1) * cell_time]: one compare, no division. *)
    q_lim = (queue_cells - 1) * cell_time_ns;
    rx;
    rx_train;
    next_free = Sim.Time.zero;
    res_next_free = Sim.Time.zero;
    reserved_bps = 0;
    sent = 0;
    dropped = 0;
    lost = 0;
    is_down = false;
    loss = None;
    busy = Sim.Time.zero;
    opens = [];
    pending_reoffers = 0;
    m_sent =
      Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Atm
        ~help:"cells transmitted over all links" "link.cells_sent";
    m_dropped =
      Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Atm
        ~help:"best-effort cells dropped at full output queues"
        "link.cells_dropped";
    m_lost =
      Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Atm
        ~help:"cells lost to injected faults (outages, wire loss)"
        "link.cells_lost";
    m_queue_delay =
      Sim.Metrics.dist metrics ~sub:Sim.Subsystem.Atm
        ~help:"us a cell waits before its transmission starts"
        "link.queue_delay_us";
    m_queue_delay_win =
      Sim.Metrics.observer metrics ~sub:Sim.Subsystem.Atm
        ~help:"windowed queue-delay samples for SLO monitors"
        "link.queue_delay_win_us";
  }

let now_ns t = Sim.Time.to_ns (Sim.Engine.now t.engine)

let rec last_open = function
  | [] -> None
  | [ x ] -> Some x
  | _ :: r -> last_open r

(* Cells [0, n) of a run from [o] at step [d] whose instant is at most
   [x]. *)
let[@inline] upto o d n x =
  if o > x then 0 else if d = 0 then n else Int.min n (((x - o) / d) + 1)

let last_offer ot =
  let b = 5 * (ot.ot_nr - 1) in
  ot.ot_runs.(b) + ((ot.ot_runs.(b + 4) - 1) * ot.ot_runs.(b + 1))

(* Move the cursor on to the run holding cell [ot_done]: processing and
   truncation can leave it at the end of a run.  With every cell done
   it rests at [ot_nr]. *)
let sync ot =
  while
    ot.ot_r < ot.ot_nr && ot.ot_done >= ot.ot_r0 + ot.ot_runs.((5 * ot.ot_r) + 4)
  do
    ot.ot_r0 <- ot.ot_r0 + ot.ot_runs.((5 * ot.ot_r) + 4);
    ot.ot_r <- ot.ot_r + 1
  done

(* The end of the last sent cell of [ot] whose offer is at most [now],
   or -1 when there is none. *)
let last_sent_end t ot now =
  let a = ot.ot_runs in
  let r = ref (ot.ot_nr - 1) and found = ref (-1) in
  while !found < 0 && !r >= 0 do
    let b = 5 * !r in
    let m = upto a.(b) a.(b + 1) a.(b + 4) now in
    if m > 0 && a.(b + 2) >= 0 then
      found := a.(b + 2) + ((m - 1) * a.(b + 3)) + t.cell_time_ns
    else decr r
  done;
  !found

(* The per-cell-equivalent transmitter horizon: an open train commits
   its whole burst into [next_free] at once, so while cells of open
   windows are still virtually un-offered the horizon a per-cell reader
   would see is the end of the last *offered* sent cell.  Open windows
   are commit-ordered and their offer ranges do not overlap (each
   commit's flush truncates everything past its first offer), so scan
   newest to oldest. *)
let virtual_horizon t ~prio now =
  let actual =
    Sim.Time.to_ns (if prio then t.res_next_free else t.next_free)
  in
  let cls = List.filter (fun ot -> ot.ot_prio = prio) t.opens in
  match last_open cls with
  | Some newest when newest.ot_n > 0 && last_offer newest > now ->
      let rec back ot older =
        let h = last_sent_end t ot now in
        if h >= 0 then h
        else
          match last_open older with
          | Some o -> back o (List.filter (fun x -> x != o) older)
          | None -> ot.ot_h0
      in
      back newest (List.filter (fun x -> x != newest) cls)
  | _ -> actual

let queue_depth t =
  let now = now_ns t in
  let nf = virtual_horizon t ~prio:false now in
  if nf <= now then 0
  else (nf - now + t.cell_time_ns - 1) / t.cell_time_ns

(* Reserved cells are scheduled against their own horizon and suffer at
   most one cell time of non-preemptive interference from whatever is
   on the wire; best-effort cells queue behind everything.  This is the
   per-VC guarantee the ATM signalling hands out. *)
let lose t cell ~why =
  t.lost <- t.lost + 1;
  Sim.Metrics.incr t.m_lost;
  let tr = Sim.Engine.trace t.engine in
  if Sim.Trace.enabled tr then
    Sim.Trace.instant tr ~ts:(Sim.Engine.now t.engine) ~sub:Sim.Subsystem.Atm
      ~cat:"fault"
      ~args:[ ("vci", Sim.Trace.Int cell.Cell.vci) ]
      why

let cancel_ev t ot =
  match ot.ot_ev with
  | Some ev ->
      ignore (Sim.Engine.cancel t.engine ev);
      ot.ot_ev <- None
  | None -> ()

(* Append [n] cells offered from [o] at step [od] and starting from [s]
   at step [sd] ([s = -1]: dropped).  Cells that carry on the last run's
   steps extend it, so a window holds as few runs as its cells allow;
   a one-cell run takes whatever steps join it to the next cells. *)
let push ot o od s sd n =
  let a = ot.ot_runs and b = 5 * (ot.ot_nr - 1) in
  let n' = if b < 0 then 0 else a.(b + 4) in
  let od' = if n' = 1 then o - a.(b) else if n' > 1 then a.(b + 1) else 0 in
  let sd' = if n' = 1 then s - a.(b + 2) else if n' > 1 then a.(b + 3) else 0 in
  if
    n' > 0
    && (a.(b + 2) < 0) = (s < 0)
    && o = a.(b) + (n' * od')
    && (n = 1 || od = od')
    && (s < 0 || (s = a.(b + 2) + (n' * sd') && (n = 1 || sd = sd')))
  then begin
    a.(b + 1) <- od';
    a.(b + 3) <- (if s < 0 then 0 else sd');
    a.(b + 4) <- n' + n
  end
  else begin
    if b + 5 = Array.length a then begin
      let g = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 g 0 (Array.length a);
      ot.ot_runs <- g
    end;
    let a = ot.ot_runs and b = b + 5 in
    a.(b) <- o;
    a.(b + 1) <- od;
    a.(b + 2) <- s;
    a.(b + 3) <- (if s < 0 then 0 else sd);
    a.(b + 4) <- n;
    ot.ot_nr <- ot.ot_nr + 1
  end

(* The instant of an open window's next processing event: for a
   [Stream] receiver, the arrival of the first unprocessed delivered
   cell (chunks hand over as early as safety allows); for a
   [Frame_end] receiver (or plain fan-out) the arrival of the *last*
   delivered cell, which is the only externally visible instant at an
   endpoint.  When only dropped cells remain, their last virtual offer
   closes the window. *)
let next_event_ns t ot =
  sync ot;
  let a = ot.ot_runs and found = ref (-1) in
  (match t.rx_train with
  | Some (Stream _) ->
      let r = ref ot.ot_r and k = ref (ot.ot_done - ot.ot_r0) in
      while !found < 0 && !r < ot.ot_nr do
        let b = 5 * !r in
        if a.(b + 2) >= 0 then found := a.(b + 2) + (!k * a.(b + 3))
        else begin
          incr r;
          k := 0
        end
      done
  | Some (Frame_end _) | None ->
      let r = ref (ot.ot_nr - 1) in
      while !found < 0 && !r >= ot.ot_r do
        let b = 5 * !r in
        if a.(b + 2) >= 0 then
          found := a.(b + 2) + ((a.(b + 4) - 1) * a.(b + 3))
        else decr r
      done);
  if !found >= 0 then !found + ot.ot_lat else last_offer ot

(* A queue-delay sample: the dist takes integer ns; the windowed
   observer's µs float is only computed when a sink wants it. *)
let[@inline] book_delay t qd_ns =
  Sim.Metrics.observe t.m_queue_delay qd_ns;
  if Sim.Metrics.enabled t.m_queue_delay_win then
    Sim.Metrics.sample t.m_queue_delay_win (Float.of_int qd_ns /. 1e3)

(* A run's queue delays, [first + j * step] ns for [count] cells: one
   dist update for the run, and the windowed observer's samples one per
   cell, in cell order, only when a sink wants them. *)
let book_delays t ~first ~step ~count =
  Sim.Metrics.observe_run t.m_queue_delay ~first ~step ~count;
  if Sim.Metrics.enabled t.m_queue_delay_win then
    for j = 0 to count - 1 do
      Sim.Metrics.sample t.m_queue_delay_win
        (Float.of_int (first + (j * step)) /. 1e3)
    done

(* The arrival instants of [count] sent cells that begin at cell [k0] of
   run [r0] and span [pieces] runs. *)
let arrivals ot r0 k0 pieces count =
  let a = ot.ot_runs in
  (* A literal is allocated inline; [Array.make] is a C call. *)
  let out = if pieces = 1 then [| 0; 0; 0 |] else Array.make (3 * pieces) 0 in
  let left = ref count in
  for p = 0 to pieces - 1 do
    let b = 5 * (r0 + p) and k = if p = 0 then k0 else 0 in
    let m = Int.min (a.(b + 4) - k) !left in
    out.(3 * p) <- a.(b + 2) + (k * a.(b + 3));
    out.((3 * p) + 1) <- a.(b + 3);
    out.((3 * p) + 2) <- m;
    left := !left - m
  done;
  Cell_times.of_runs ~shift:ot.ot_lat out

let rec send ?(priority = false) t cell =
  if t.opens <> [] then flush t;
  let now = Sim.Engine.now t.engine in
  let now_ns = Sim.Time.to_ns now in
  if t.is_down then lose t cell ~why:"cell_lost_link_down"
  else if
    (not priority) && virtual_horizon t ~prio:false now_ns - now_ns > t.q_lim
  then begin
    t.dropped <- t.dropped + 1;
    Sim.Metrics.incr t.m_dropped;
    let tr = Sim.Engine.trace t.engine in
    if Sim.Trace.enabled tr then
      Sim.Trace.instant tr ~ts:now ~sub:Sim.Subsystem.Atm ~cat:"link"
        ~args:[ ("vci", Sim.Trace.Int cell.Cell.vci) ]
        "cell_dropped"
  end
  else begin
    let start =
      if priority then
        (* one cell may be mid-transmission: bounded interference *)
        Sim.Time.add (Sim.Time.max now t.res_next_free) t.cell_time
      else Sim.Time.max (Sim.Time.max now t.next_free) t.res_next_free
    in
    let tx_end = Sim.Time.add start t.cell_time in
    if priority then t.res_next_free <- tx_end else t.next_free <- tx_end;
    t.sent <- t.sent + 1;
    Sim.Metrics.incr t.m_sent;
    book_delay t (Sim.Time.to_ns (Sim.Time.sub start now));
    t.busy <- Sim.Time.add t.busy t.cell_time;
    (* Injected wire loss: the cell still occupies line time, it just
       never arrives.  Physical loss does not respect reservations. *)
    let dropped_on_wire =
      match t.loss with Some decide -> decide () | None -> false
    in
    if dropped_on_wire then lose t cell ~why:"cell_lost_on_wire"
    else begin
      let deliver () = t.rx cell in
      let arrival = Sim.Time.add tx_end t.prop in
      ignore (Sim.Engine.schedule_at t.engine ~at:arrival deliver)
    end
  end

(* Offer [cell] to the per-cell path at the instant [at] (ns). *)
and reoffer t ~priority cell at =
  t.pending_reoffers <- t.pending_reoffers + 1;
  ignore
    (Sim.Engine.schedule_at t.engine ~at:(Sim.Time.ns at) (fun () ->
         t.pending_reoffers <- t.pending_reoffers - 1;
         send ~priority t cell))

(* Split every open window at [boundary_ns]: cells whose virtual offer
   has passed stay committed, the remainder is cancelled — the class
   horizon rewinds to the prefix end — and re-offered through the
   per-cell path at exactly its virtual offer instants.  Equivalence is
   by construction: the re-offered cells traverse [send] at the same
   instants the per-cell simulation would have offered them. *)
and flush ?boundary_ns t =
  match t.opens with
  | [] -> ()
  | opens ->
      let b = match boundary_ns with Some b -> b | None -> now_ns t in
      let rolled_be = ref false and rolled_pr = ref false in
      let truncated = ref [] in
      List.iter
        (fun ot ->
          (* Keep the cells offered by [b]: [nr] runs, the last of them
             cut to [keep] cells. *)
          let a = ot.ot_runs in
          let nr = ref ot.ot_nr and n = ref ot.ot_n and keep = ref 0 in
          while !nr > 0 && a.(5 * (!nr - 1)) > b do
            decr nr;
            n := !n - a.((5 * !nr) + 4)
          done;
          if !nr > 0 then begin
            let rb = 5 * (!nr - 1) in
            keep := upto a.(rb) a.(rb + 1) a.(rb + 4) b;
            n := !n - (a.(rb + 4) - !keep)
          end;
          if !n < ot.ot_n then begin
            truncated := ot :: !truncated;
            let rolled = if ot.ot_prio then rolled_pr else rolled_be in
            if not !rolled then begin
              rolled := true;
              let h = last_sent_end t ot b in
              let h = Sim.Time.ns (if h < 0 then ot.ot_h0 else h) in
              if ot.ot_prio then t.res_next_free <- h else t.next_free <- h
            end;
            let i = ref !n in
            for r = Int.max 0 (!nr - 1) to ot.ot_nr - 1 do
              let rb = 5 * r in
              for j = (if r = !nr - 1 then !keep else 0) to a.(rb + 4) - 1 do
                reoffer t ~priority:ot.ot_prio (Train.cell ot.ot_train !i)
                  (a.(rb) + (j * a.(rb + 1)));
                incr i
              done
            done;
            if !nr > 0 then a.((5 * (!nr - 1)) + 4) <- !keep;
            ot.ot_nr <- !nr;
            ot.ot_n <- !n
          end)
        opens;
      match !truncated with
      | [] -> ()
      | cut ->
          List.iter
            (fun ot -> if ot.ot_done >= ot.ot_n then cancel_ev t ot)
            cut;
          t.opens <- List.filter (fun ot -> ot.ot_done < ot.ot_n) t.opens;
          List.iter (fun ot -> if ot.ot_done < ot.ot_n then reschedule t ot) cut

and reschedule t ot =
  cancel_ev t ot;
  (* A truncated [Frame_end] window's new last arrival may already be in
     the past (its event was pinned to the old, later last cell): fire
     now.  Harmless — a truncated window can no longer complete a
     frame, so late processing is externally invisible. *)
  let at = Sim.Time.max (Sim.Time.ns (next_event_ns t ot)) (Sim.Engine.now t.engine) in
  ot.ot_ev <-
    Some
      (Sim.Engine.schedule_at t.engine ~at (fun () ->
           ot.ot_ev <- None;
           fire t ot))

(* A receiver that re-entered the link during [process_upto] may have
   closed the window already ([flush] drops a window it empties), or
   given it a new event. *)
and fire t ot =
  process_upto t ot (now_ns t);
  if List.memq ot t.opens then
    if ot.ot_done >= ot.ot_n then begin
      cancel_ev t ot;
      t.opens <- List.filter (fun o -> o != ot) t.opens
    end
    else reschedule t ot

(* Hand [count] delivered cells of a window, from cell [first] (cell
   [k0] of run [r0], over [pieces] runs), to the receiver as one
   zero-copy sub-train.  The run's busy time is booked once, before the
   receiver sees the run, so a read from inside the receiver counts
   every cell delivered so far, as the per-cell path would. *)
and deliver_run t ot first count r0 k0 pieces =
  t.busy <- Sim.Time.add t.busy (Sim.Time.mul t.cell_time count);
  let sub = Train.sub ot.ot_train ~first ~count in
  match t.rx_train with
  | Some (Stream f) -> f sub ~arrivals:(arrivals ot r0 k0 pieces count)
  | Some (Frame_end f) -> f sub
  | None ->
      for k = 0 to count - 1 do
        t.rx (Train.cell sub k)
      done

(* Process committed cells whose virtual offer has passed [w], one
   maximal span of sent or of dropped cells at a time: a span of sent
   cells books its queue delays run by run, then its counters once, and
   is delivered as one sub-train; a span of dropped cells books its
   counters once.  [ot_done] moves past a span before the receiver sees
   it, so [pending_counts] does not count the span a second time for a
   receiver that reads the counters.  A receiver may re-enter the link
   and truncate the window ([flush]), so the runs are read afresh after
   every span. *)
and process_upto t ot w =
  sync ot;
  let go = ref true in
  while !go && ot.ot_done < ot.ot_n do
    let a = ot.ot_runs in
    let r0 = ot.ot_r and k0 = ot.ot_done - ot.ot_r0 in
    if a.(5 * r0) + (k0 * a.((5 * r0) + 1)) > w then go := false
    else begin
      let sent = a.((5 * r0) + 2) >= 0 in
      let first = ot.ot_done and pieces = ref 0 and more = ref true in
      while !more && ot.ot_r < ot.ot_nr do
        let b = 5 * ot.ot_r in
        let k = ot.ot_done - ot.ot_r0 and len = a.(b + 4) in
        let m =
          if (a.(b + 2) >= 0) <> sent then 0
          else upto (a.(b) + (k * a.(b + 1))) a.(b + 1) (len - k) w
        in
        if m = 0 then more := false
        else begin
          if sent then
            book_delays t
              ~first:(a.(b + 2) + (k * a.(b + 3)) - a.(b) - (k * a.(b + 1)))
              ~step:(a.(b + 3) - a.(b + 1))
              ~count:m;
          incr pieces;
          ot.ot_done <- ot.ot_done + m;
          if k + m = len then begin
            ot.ot_r0 <- ot.ot_r0 + len;
            ot.ot_r <- ot.ot_r + 1
          end
          else more := false
        end
      done;
      let count = ot.ot_done - first in
      if sent then begin
        t.sent <- t.sent + count;
        Sim.Metrics.incr ~by:count t.m_sent;
        deliver_run t ot first count r0 k0 !pieces
      end
      else begin
        t.dropped <- t.dropped + count;
        Sim.Metrics.incr ~by:count t.m_dropped
      end;
      sync ot
    end
  done

(* The per-cell path's start computation for [count] cells offered
   from [o0] at step [d], appended to [ot]'s runs one branch of its
   [max] at a time, from the class horizon given to the one returned.
   Each branch lasts a number of cells that one division finds.

   Reserved: a cell starts a cell time after [max o rf] and moves [rf]
   a cell time past its start, so behind the horizon starts are two
   cell times apart and the backlog [rf - o] changes by [2 ctn - d] a
   cell; ahead of it a cell starts a cell time after its offer. *)
let analyze_reserved t ot o0 d count rf =
  let ctn = t.cell_time_ns in
  let rf = ref rf and i = ref 0 in
  while !i < count do
    let o = o0 + (!i * d) and left = count - !i in
    if !rf >= o then begin
      let k =
        if d <= 2 * ctn then left
        else Int.min left (((!rf - o) / (d - (2 * ctn))) + 1)
      in
      push ot o d (!rf + ctn) (2 * ctn) k;
      rf := !rf + (2 * ctn * k);
      i := !i + k
    end
    else begin
      let k = if d > 2 * ctn then left else 1 in
      push ot o d (o + ctn) d k;
      rf := o + ((k - 1) * d) + (2 * ctn);
      i := !i + k
    end
  done;
  !rf

(* Best effort: a cell whose backlog [nf - o] exceeds [q_lim] is
   dropped and leaves [nf] alone.  Otherwise it starts at [max o nf rf]
   and moves [nf] a cell time past its start: behind the horizon starts
   are a cell time apart and the backlog changes by [ctn - d] a cell;
   on an idle line a cell starts at its offer.  [rf] does not move
   here, so it can be the [max] for one cell only. *)
let analyze_best_effort t ot o0 d count nf =
  let ctn = t.cell_time_ns and lim = t.q_lim in
  let rf = Sim.Time.to_ns t.res_next_free in
  let nf = ref nf and i = ref 0 in
  while !i < count do
    let o = o0 + (!i * d) and left = count - !i in
    if !nf - o > lim then begin
      let k = if d = 0 then left else Int.min left ((!nf - lim - o + d - 1) / d) in
      push ot o d (-1) 0 k;
      i := !i + k
    end
    else if rf > o && rf > !nf then begin
      push ot o d rf ctn 1;
      nf := rf + ctn;
      i := !i + 1
    end
    else if !nf >= o then begin
      let backlog = !nf - o in
      let k =
        if d < ctn then Int.min left (((lim - backlog) / (ctn - d)) + 1)
        else if d = ctn then left
        else Int.min left ((backlog / (d - ctn)) + 1)
      in
      push ot o d !nf ctn k;
      nf := !nf + (k * ctn);
      i := !i + k
    end
    else begin
      let k = if d >= ctn then left else 1 in
      push ot o d o d k;
      nf := o + ((k - 1) * d) + ctn;
      i := !i + k
    end
  done;
  !nf

(* Commit [offers] (every cell offered [now] without them) against the
   class horizon. *)
let analyze t ot ~priority ~now offers n =
  let step = if priority then analyze_reserved else analyze_best_effort in
  let h =
    ref (Sim.Time.to_ns (if priority then t.res_next_free else t.next_free))
  in
  (match offers with
  | None -> h := step t ot now 0 n !h
  | Some o ->
      for r = 0 to Cell_times.runs o - 1 do
        h :=
          step t ot (Cell_times.run_first o r) (Cell_times.run_step o r)
            (Cell_times.run_count o r) !h
      done);
  if priority then t.res_next_free <- Sim.Time.ns !h
  else t.next_free <- Sim.Time.ns !h

let send_train ?(priority = false) ?offers t train =
  let n = Train.count train in
  (match offers with
  | Some o when Cell_times.cells o <> n ->
      invalid_arg "Link.send_train: offers length mismatch"
  | _ -> ());
  let now = now_ns t in
  let first_offer = match offers with Some o -> Cell_times.first o | None -> now in
  if t.opens <> [] then flush ~boundary_ns:first_offer t;
  let tracing = Sim.Trace.cell_detail_on (Sim.Engine.trace t.engine) in
  if t.is_down || t.loss <> None || tracing || t.pending_reoffers > 0 then begin
    (* Per-cell fidelity required (loss streams draw an RNG decision per
       cell in offer order; outages may lift mid-window; cell-detail
       tracing stamps per-cell instants — flow-only tracing does NOT
       force this fallback, trains carry their flow id intact; pending
       re-offered cells from an earlier split must win same-instant
       ties against this commit, exactly as their earlier injection
       order would under the per-cell path): run every cell through the
       per-cell path at its virtual offer instant. *)
    let offer i o =
      if o <= now then send ~priority t (Train.cell train i)
      else reoffer t ~priority (Train.cell train i) o
    in
    match offers with
    | None ->
        for i = 0 to n - 1 do
          offer i now
        done
    | Some o ->
        let i = ref 0 in
        Cell_times.iter
          (fun at ->
            offer !i at;
            incr i)
          o
  end
  else begin
    let lat = t.cell_time_ns + t.prop_ns in
    let continuation =
      (* A chunk continuing the newest open window's frame (switches
         hand a frame over in wire-rate chunks): extend that window in
         place rather than opening — and scheduling an event for — a new
         one.  The key is the frame, not its buffer: every frame of one
         payload shares a PDU, and a frame whose tail [flush] re-offered
         must not absorb the next frame's chunk at the same offset. *)
      match last_open t.opens with
      | Some ot
        when ot.ot_prio = priority
             && ot.ot_lat = lat
             && ot.ot_train.Train.frame == train.Train.frame
             && ot.ot_train.Train.vci = train.Train.vci
             && ot.ot_train.Train.first + ot.ot_n = train.Train.first
             && ot.ot_n + n <= ot.ot_cap
             && (ot.ot_n = 0 || first_offer >= last_offer ot) ->
          Some ot
      | _ -> None
    in
    match continuation with
    | Some ot ->
        analyze t ot ~priority ~now offers n;
        ot.ot_train <- { ot.ot_train with Train.count = ot.ot_n + n };
        ot.ot_n <- ot.ot_n + n;
        reschedule t ot
    | None ->
        let h0 =
          Sim.Time.to_ns (if priority then t.res_next_free else t.next_free)
        in
        let ot =
          {
            ot_train = train;
            ot_prio = priority;
            (* Room for two runs, as a literal ([arrivals] says why);
               [push] grows it. *)
            ot_runs = [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 |];
            ot_nr = 0;
            (* Room for the frame's remaining cells, so continuation
               chunks can extend the window. *)
            ot_cap = Stdlib.max n (Train.total train - Train.first train);
            ot_h0 = h0;
            ot_lat = lat;
            ot_n = n;
            ot_done = 0;
            ot_r = 0;
            ot_r0 = 0;
            ot_ev = None;
          }
        in
        analyze t ot ~priority ~now offers n;
        t.opens <- t.opens @ [ ot ];
        reschedule t ot
  end

let reserve t ~bps =
  if t.reserved_bps + bps > t.bandwidth_bps * 9 / 10 then false
  else begin
    t.reserved_bps <- t.reserved_bps + bps;
    true
  end

let release t ~bps = t.reserved_bps <- Stdlib.max 0 (t.reserved_bps - bps)
let reserved_bps t = t.reserved_bps

let bandwidth_bps t = t.bandwidth_bps
let prop t = t.prop

(* Counter corrections: cells of open windows whose virtual offer has
   passed but whose processing event has not fired yet.  The per-cell
   path would already have counted them. *)
let pending_counts t =
  match t.opens with
  | [] -> (0, 0)
  | opens ->
      let now = now_ns t in
      let s = ref 0 and d = ref 0 in
      List.iter
        (fun ot ->
          sync ot;
          let a = ot.ot_runs in
          let r = ref ot.ot_r and k = ref (ot.ot_done - ot.ot_r0) in
          while !r < ot.ot_nr do
            let b = 5 * !r in
            let len = a.(b + 4) in
            let m = upto (a.(b) + (!k * a.(b + 1))) a.(b + 1) (len - !k) now in
            if a.(b + 2) >= 0 then s := !s + m else d := !d + m;
            if !k + m < len then r := ot.ot_nr
            else begin
              incr r;
              k := 0
            end
          done)
        opens;
      (!s, !d)

let cells_sent t = t.sent + fst (pending_counts t)
let cells_dropped t = t.dropped + snd (pending_counts t)
let cells_lost t = t.lost

let busy_time t =
  Sim.Time.add t.busy (Sim.Time.mul t.cell_time (fst (pending_counts t)))

(* {1 Fault injection} *)

let set_down t down =
  if t.opens <> [] then flush t;
  t.is_down <- down

let set_loss t decide =
  if t.opens <> [] then flush t;
  t.loss <- decide

let set_loss_rate t ~rng rate =
  if t.opens <> [] then flush t;
  if rate <= 0.0 then t.loss <- None
  else begin
    let stream = Sim.Rng.split rng in
    t.loss <- Some (fun () -> Sim.Rng.float stream < rate)
  end

let utilisation t ~since =
  let now = Sim.Engine.now t.engine in
  let span = Sim.Time.to_sec_f (Sim.Time.sub now since) in
  if span <= 0.0 then 0.0 else Sim.Time.to_sec_f (busy_time t) /. span
