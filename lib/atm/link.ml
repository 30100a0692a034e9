type train_rx =
  | Stream of (Train.t -> arrivals_ns:int array -> unit)
  | Frame_end of (Train.t -> unit)

(* A committed train window.

   [send_train] computes every cell's start slot analytically at commit
   time against the same horizons the per-cell path uses, then advances
   the horizon for the whole burst at once.  Cells keep a *virtual
   offer* instant [ot_offers.(i)] — the time the per-cell path would
   have offered them — and a start [ot_starts.(i)] (-1 when the cell
   would have been dropped at the queue).  Nothing downstream learns of
   a cell before its virtual offer has passed, so any interferer that
   arrives mid-window can still split the un-offered remainder back to
   the per-cell path and the two simulations stay byte-identical.

   Counters and metrics are applied when cells are *processed* (at
   delivery events); the public accessors add the correction for cells
   whose virtual offer has passed but whose processing event has not
   fired yet, so reads always match the per-cell path.

   The two arrays come from the link's pool and may be longer than
   [ot_cap]; only [0, ot_n) is ever read. *)
type otrain = {
  mutable ot_train : Train.t;  (* extended in place by continuation merges *)
  ot_prio : bool;
  ot_offers : int array;  (* virtual offer instants, absolute ns *)
  ot_starts : int array;  (* start slots, ns; -1 = dropped at the queue *)
  ot_cap : int;  (* cells the window may grow to by continuation merges *)
  ot_h0 : int;  (* the class horizon before this commit, ns *)
  ot_lat : int;  (* cell_time + prop + extra_prop at commit, ns *)
  mutable ot_n : int;  (* cells still owned (splits truncate this) *)
  mutable ot_done : int;  (* cells already processed *)
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
  mutable extra_prop : Sim.Time.t;  (* fault injection: latency spike *)
  mutable busy : Sim.Time.t;
  mutable opens : otrain list;  (* open train windows, oldest first *)
  mutable spare : (int array * int array) list;  (* pooled window arrays *)
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
    extra_prop = Sim.Time.zero;
    busy = Sim.Time.zero;
    opens = [];
    spare = [];
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
  | Some newest when newest.ot_n > 0 && newest.ot_offers.(newest.ot_n - 1) > now
    ->
      let rec back ot i older =
        if i < 0 then
          match last_open older with
          | Some o -> back o (o.ot_n - 1) (List.filter (fun x -> x != o) older)
          | None -> ot.ot_h0
        else if ot.ot_offers.(i) > now then back ot (i - 1) older
        else if ot.ot_starts.(i) >= 0 then ot.ot_starts.(i) + t.cell_time_ns
        else back ot (i - 1) older
      in
      back newest (newest.ot_n - 1) (List.filter (fun x -> x != newest) cls)
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

(* Window arrays come from a per-link pool.  A window takes the
   smallest spare pair that holds [cap] cells.  When none does it takes
   a new pair and drops one spare that is too small, so a link never
   holds more pairs than it has had windows open at once. *)
let no_pair = ([||], [||])

let rec best_fit cap best = function
  | [] -> best
  | ((o, _) as p) :: rest ->
      let fits =
        Array.length o >= cap
        && (best == no_pair || Array.length o < Array.length (fst best))
      in
      best_fit cap (if fits then p else best) rest

let rec without p = function
  | [] -> []
  | q :: rest -> if q == p then rest else q :: without p rest

let take_arrays t cap =
  let p = best_fit cap no_pair t.spare in
  if p != no_pair then begin
    t.spare <- without p t.spare;
    p
  end
  else begin
    (match t.spare with _ :: rest -> t.spare <- rest | [] -> ());
    (Array.make cap 0, Array.make cap (-1))
  end

(* A window that has left [opens] for good hands its arrays back; no
   event or closure reads them afterwards. *)
let retire t ot = t.spare <- (ot.ot_offers, ot.ot_starts) :: t.spare

let cancel_ev t ot =
  match ot.ot_ev with
  | Some ev ->
      ignore (Sim.Engine.cancel t.engine ev);
      ot.ot_ev <- None
  | None -> ()

(* The instant of an open window's next processing event: for a
   [Stream] receiver, the arrival of the first unprocessed delivered
   cell (chunks hand over as early as safety allows); for a
   [Frame_end] receiver (or plain fan-out) the arrival of the *last*
   delivered cell, which is the only externally visible instant at an
   endpoint.  When only dropped cells remain, their last virtual offer
   closes the window. *)
let next_event_ns t ot =
  let stream = match t.rx_train with Some (Stream _) -> true | _ -> false in
  let found = ref (-1) in
  (if stream then begin
     let i = ref ot.ot_done in
     while !found < 0 && !i < ot.ot_n do
       if ot.ot_starts.(!i) >= 0 then found := !i;
       incr i
     done
   end
   else begin
     let i = ref (ot.ot_n - 1) in
     while !found < 0 && !i >= ot.ot_done do
       if ot.ot_starts.(!i) >= 0 then found := !i;
       decr i
     done
   end);
  if !found >= 0 then ot.ot_starts.(!found) + ot.ot_lat
  else ot.ot_offers.(ot.ot_n - 1)

(* A queue-delay sample: the dist takes integer ns; the windowed
   observer's µs float is only computed when a sink wants it. *)
let[@inline] book_delay t qd_ns =
  Sim.Metrics.observe t.m_queue_delay qd_ns;
  if Sim.Metrics.enabled t.m_queue_delay_win then
    Sim.Metrics.sample t.m_queue_delay_win (Float.of_int qd_ns /. 1e3)

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
      let arrival = Sim.Time.add (Sim.Time.add tx_end t.prop) t.extra_prop in
      ignore (Sim.Engine.schedule_at t.engine ~at:arrival deliver)
    end
  end

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
          let k = ref ot.ot_n in
          while !k > 0 && ot.ot_offers.(!k - 1) > b do
            decr k
          done;
          if !k < ot.ot_n then begin
            truncated := ot :: !truncated;
            let rolled = if ot.ot_prio then rolled_pr else rolled_be in
            if not !rolled then begin
              rolled := true;
              let rec back i =
                if i < 0 then ot.ot_h0
                else if ot.ot_starts.(i) >= 0 then
                  ot.ot_starts.(i) + t.cell_time_ns
                else back (i - 1)
              in
              let h = Sim.Time.ns (back (!k - 1)) in
              if ot.ot_prio then t.res_next_free <- h else t.next_free <- h
            end;
            for i = !k to ot.ot_n - 1 do
              let cell = Train.cell ot.ot_train i in
              let at = Sim.Time.ns ot.ot_offers.(i) in
              let prio = ot.ot_prio in
              t.pending_reoffers <- t.pending_reoffers + 1;
              ignore
                (Sim.Engine.schedule_at t.engine ~at (fun () ->
                     t.pending_reoffers <- t.pending_reoffers - 1;
                     send ~priority:prio t cell))
            done;
            ot.ot_n <- !k
          end)
        opens;
      match !truncated with
      | [] -> ()
      | cut ->
          List.iter
            (fun ot ->
              if ot.ot_done >= ot.ot_n then begin
                cancel_ev t ot;
                retire t ot
              end)
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
   closed the window already ([flush] retires a window it empties), or
   given it a new event. *)
and fire t ot =
  process_upto t ot (now_ns t);
  if List.memq ot t.opens then
    if ot.ot_done >= ot.ot_n then begin
      cancel_ev t ot;
      t.opens <- List.filter (fun o -> o != ot) t.opens;
      retire t ot
    end
    else reschedule t ot

(* Hand the delivered cells [first..last] of a window to the receiver
   as one zero-copy sub-train.  The run's busy time is booked once,
   before the receiver sees the run, so a read from inside the receiver
   counts every cell delivered so far, as the per-cell path would. *)
and deliver_run t ot first last =
  let count = last - first + 1 in
  t.busy <- Sim.Time.add t.busy (Sim.Time.mul t.cell_time count);
  let sub = Train.sub ot.ot_train ~first ~count in
  match t.rx_train with
  | Some (Stream f) ->
      let arrivals = Array.make count 0 in
      for k = 0 to count - 1 do
        arrivals.(k) <- ot.ot_starts.(first + k) + ot.ot_lat
      done;
      f sub ~arrivals_ns:arrivals
  | Some (Frame_end f) -> f sub
  | None ->
      for k = 0 to count - 1 do
        t.rx (Train.cell sub k)
      done

(* Process committed cells whose virtual offer has passed [w], one
   maximal run at a time: a run of sent cells books its queue delays,
   then its counters once, and is delivered as one sub-train; a run of
   dropped cells books its counters once.  [ot_done] moves past a run
   before the receiver sees it, so [pending_counts] does not count the
   run a second time for a receiver that reads the counters.  A
   receiver may re-enter the link and truncate the window ([flush]),
   so [ot_n] is read afresh after every run. *)
and process_upto t ot w =
  let offers = ot.ot_offers and starts = ot.ot_starts in
  let i = ref ot.ot_done in
  while !i < ot.ot_n && offers.(!i) <= w do
    let first = !i in
    if starts.(first) >= 0 then begin
      while !i < ot.ot_n && offers.(!i) <= w && starts.(!i) >= 0 do
        book_delay t (starts.(!i) - offers.(!i));
        incr i
      done;
      let count = !i - first in
      t.sent <- t.sent + count;
      Sim.Metrics.incr ~by:count t.m_sent;
      ot.ot_done <- !i;
      deliver_run t ot first (!i - 1)
    end
    else begin
      while !i < ot.ot_n && offers.(!i) <= w && starts.(!i) < 0 do
        incr i
      done;
      let count = !i - first in
      t.dropped <- t.dropped + count;
      Sim.Metrics.incr ~by:count t.m_dropped;
      ot.ot_done <- !i
    end
  done

(* A window's offers, [n] from [base]: plain int stores, where
   [Array.blit] and [Array.fill] would call [caml_modify] per element on
   these major-heap arrays. *)
let copy_offers offers_ns ~now (dst : int array) base n =
  match offers_ns with
  | Some (o : int array) ->
      for i = 0 to n - 1 do
        dst.(base + i) <- o.(i)
      done
  | None ->
      for i = base to base + n - 1 do
        dst.(i) <- now
      done

let send_train ?(priority = false) ?offers_ns t train =
  let n = Train.count train in
  (match offers_ns with
  | Some o when Array.length o <> n ->
      invalid_arg "Link.send_train: offers length mismatch"
  | _ -> ());
  let now = now_ns t in
  let first_offer = match offers_ns with Some o -> o.(0) | None -> now in
  if t.opens <> [] then flush ~boundary_ns:first_offer t;
  let tracing = Sim.Trace.cell_detail_on (Sim.Engine.trace t.engine) in
  if t.is_down || t.loss <> None || tracing || t.pending_reoffers > 0 then
    (* Per-cell fidelity required (loss streams draw an RNG decision per
       cell in offer order; outages may lift mid-window; cell-detail
       tracing stamps per-cell instants — flow-only tracing does NOT
       force this fallback, trains carry their flow id intact; pending
       re-offered cells from an earlier split must win same-instant
       ties against this commit, exactly as their earlier injection
       order would under the per-cell path): run every cell through the
       per-cell path at its virtual offer instant. *)
    for i = 0 to n - 1 do
      let o = match offers_ns with Some ofs -> ofs.(i) | None -> now in
      if o <= now then send ~priority t (Train.cell train i)
      else begin
        let cell = Train.cell train i in
        t.pending_reoffers <- t.pending_reoffers + 1;
        ignore
          (Sim.Engine.schedule_at t.engine ~at:(Sim.Time.ns o) (fun () ->
               t.pending_reoffers <- t.pending_reoffers - 1;
               send ~priority t cell))
      end
    done
  else begin
    let ctn = t.cell_time_ns in
    let lat = ctn + t.prop_ns + Sim.Time.to_ns t.extra_prop in
    (* The same start computation the per-cell path makes, one cell at a
       time, applied to [offers.(base .. base+n-1)] against the current
       class horizons. *)
    let analyze offers starts base =
      if priority then begin
        let rf = ref (Sim.Time.to_ns t.res_next_free) in
        for i = base to base + n - 1 do
          let s = Int.max offers.(i) !rf + ctn in
          starts.(i) <- s;
          rf := s + ctn
        done;
        t.res_next_free <- Sim.Time.ns !rf
      end
      else begin
        let nf = ref (Sim.Time.to_ns t.next_free) in
        let rf = Sim.Time.to_ns t.res_next_free in
        let lim = t.q_lim in
        for i = base to base + n - 1 do
          let o = offers.(i) in
          if !nf - o <= lim then begin
            let s = Int.max (Int.max o !nf) rf in
            starts.(i) <- s;
            nf := s + ctn
          end
          else starts.(i) <- -1
        done;
        t.next_free <- Sim.Time.ns !nf
      end
    in
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
             && (ot.ot_n = 0 || first_offer >= ot.ot_offers.(ot.ot_n - 1)) ->
          Some ot
      | _ -> None
    in
    match continuation with
    | Some ot ->
        let base = ot.ot_n in
        copy_offers offers_ns ~now ot.ot_offers base n;
        analyze ot.ot_offers ot.ot_starts base;
        ot.ot_train <- { ot.ot_train with Train.count = base + n };
        ot.ot_n <- base + n;
        reschedule t ot
    | None ->
        let h0 =
          Sim.Time.to_ns (if priority then t.res_next_free else t.next_free)
        in
        (* Room for the frame's remaining cells, so continuation chunks
           append without reallocating. *)
        let cap = Stdlib.max n (Train.total train - Train.first train) in
        let offers, starts = take_arrays t cap in
        copy_offers offers_ns ~now offers 0 n;
        analyze offers starts 0;
        let ot =
          {
            ot_train = train;
            ot_prio = priority;
            ot_offers = offers;
            ot_starts = starts;
            ot_cap = cap;
            ot_h0 = h0;
            ot_lat = lat;
            ot_n = n;
            ot_done = 0;
            ot_ev = None;
          }
        in
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
let cell_time t = t.cell_time
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
          let i = ref ot.ot_done in
          while !i < ot.ot_n && ot.ot_offers.(!i) <= now do
            if ot.ot_starts.(!i) >= 0 then incr s else incr d;
            incr i
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

let is_down t = t.is_down

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

let set_extra_prop t extra =
  if t.opens <> [] then flush t;
  t.extra_prop <- extra

let extra_prop t = t.extra_prop

let utilisation t ~since =
  let now = Sim.Engine.now t.engine in
  let span = Sim.Time.to_sec_f (Sim.Time.sub now since) in
  if span <= 0.0 then 0.0 else Sim.Time.to_sec_f (busy_time t) /. span
