(** Unidirectional ATM link with serialisation, propagation delay and a
    bounded output queue.

    The transmitter is modelled as a virtual queue: a cell offered while
    the line is busy waits its turn; if the backlog would exceed
    [queue_cells], the cell is dropped (and counted).  Delivery happens
    one serialisation time plus the propagation delay after transmission
    starts. *)

type t

type train_rx =
  | Stream of (Train.t -> arrivals:Cell_times.t -> unit)
      (** a mid-path hop (switch): sub-trains are handed over as soon as
          their cells are irrevocably committed, with the cells'
          absolute arrival instants in ns, as runs *)
  | Frame_end of (Train.t -> unit)
      (** an endpoint (host NIC): the window is delivered once, at the
          arrival instant of its last transmitted cell — the only
          externally visible instant at an endpoint *)

val create :
  Sim.Engine.t ->
  ?bandwidth_bps:int ->
  ?prop:Sim.Time.t ->
  ?queue_cells:int ->
  rx:(Cell.t -> unit) ->
  ?rx_train:train_rx ->
  unit ->
  t
(** Defaults: 100 Mbit/s (the paper's network), 5 us propagation,
    256-cell queue.  Without [rx_train], trains are fanned out to [rx]
    cell by cell at the window's completion instant. *)

val send : ?priority:bool -> t -> Cell.t -> unit
(** [priority] cells belong to a reserved VC: they are never dropped
    and see at most one cell time of interference from best-effort
    traffic (non-preemptive line). *)

val send_train : ?priority:bool -> ?offers:Cell_times.t -> t -> Train.t -> unit
(** The fast path: offer a whole train with one call and (usually) one
    scheduled delivery event, instead of one event per cell.

    [offers] gives the instants at which the per-cell path would have
    offered the train's cells to this link (default: every cell now),
    one per cell.  They must be non-decreasing and must not precede
    now.  Start slots, queue-overflow drops, counters and delivery
    instants are computed analytically against the same transmitter
    horizons the per-cell path uses, so the result is byte-identical by
    construction (one known exception, same-instant ties between VCs,
    is described in DESIGN.md §7).  When per-cell fidelity is genuinely
    required — the link is down, a loss stream is active, cell-detail
    tracing is on (flow-only tracing is not enough), or cells an
    earlier split re-offered are still pending — the train
    transparently falls back to per-cell [send]s at the virtual offer
    instants; interference arriving mid-window splits the un-offered
    remainder back to the per-cell path, cell by cell.

    A committed window keeps its cells' offer and start instants as
    runs of constant step, so its bookkeeping (start slots, queue-delay
    samples, counters, splits, the instants handed to a [Stream]
    receiver) costs O(runs), not O(cells); a frame paced at line rate is
    one run.  A chunk that continues the newest open window of the same
    frame (one {!Train.frame}, not merely the same PDU) extends it in
    place.  Raises [Invalid_argument] when [offers] does not hold one
    instant per cell. *)

val reserve : t -> bps:int -> bool
(** Admission control: reserve bandwidth for a VC crossing this link;
    refuses beyond 90% of line rate. *)

val release : t -> bps:int -> unit
val reserved_bps : t -> int

val bandwidth_bps : t -> int

val prop : t -> Sim.Time.t
(** Propagation delay as configured at creation.  A cell offered to the
    link is never seen by the far end earlier than this, which makes it
    the per-link lookahead a conservative parallel partition can bank
    on (see {!Net.cut_lookahead}). *)

(** {1 Fault injection}

    Hooks for {!Sim.Fault} plans.  A down link loses every cell offered
    to it; wire loss drops individual cells after transmission (the
    cell still occupies line time — physical loss does not respect
    reservations).  All injected losses are counted in {!cells_lost}
    and the [atm/link.cells_lost] metric. *)

val set_down : t -> bool -> unit

val set_loss : t -> (unit -> bool) option -> unit
(** Install a per-cell loss decision stream (e.g. {!Sim.Fault.bernoulli});
    [None] clears it. *)

val set_loss_rate : t -> rng:Sim.Rng.t -> float -> unit
(** Convenience: Bernoulli loss at the given rate from a stream split
    off [rng]; a rate [<= 0] clears injection. *)

(** {1 Statistics} *)

val cells_sent : t -> int

val cells_dropped : t -> int
(** Best-effort cells dropped at a full output queue. *)

val cells_lost : t -> int
(** Cells lost to injected faults (outages and wire loss). *)

val busy_time : t -> Sim.Time.t
val utilisation : t -> since:Sim.Time.t -> float
(** Fraction of the interval [since .. now] spent transmitting. *)

val queue_depth : t -> int
(** Cells currently waiting or in transmission. *)
