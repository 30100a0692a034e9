(* What every workload hands to the round runner in perfbench.ml. *)

type outcome = {
  ops : int;  (** operations completed *)
  attempted : int;
  failed : int;  (** returned [Error], dropped, lost or never completed *)
  checks : (string * bool) list;  (** named correctness checks *)
  sim_lines : string list;
      (** canonical text of the simulated outputs; hashed into the
          workload's [sim_digest] *)
}

type rig = {
  engine : Sim.Engine.t;
  run : unit -> outcome;  (** the timed phase *)
}

type t = {
  name : string;
  op : string;  (** what one operation is *)
  depth_period : Sim.Time.t;
      (** queue-depth sampling period of the traced run, in simulated
          time *)
  copy_weight : float;
      (** how much the memory-bandwidth reference kernel weighs in the
          round's host-speed scale, from 0 to 1 (see reference.ml) *)
  setup : seed:int -> short:bool -> traced:bool -> rig;
      (** build the rig (and preload it) from the seed; [short] shrinks
          the simulated run for the digest self-test *)
}

(* Span names shared by the workloads. *)
let sp_run = Span.name "sim.run"
let sp_rx = Span.name "atm.rx"
let sp_send = Span.name "atm.send"
let sp_write = Span.name "pfs.write"
let sp_sync = Span.name "pfs.sync"
let sp_recover = Span.name "pfs.recover"
let sp_clean = Span.name "pfs.clean"
let sp_dir_read = Span.name "pfs.dir_read"
let sp_read_done = Span.name "vod.read_done"
let sp_audit = Span.name "trace.audit"
let () = Span.keep_durations sp_write

let fresh_engine ?trace () =
  let trace =
    match trace with Some t -> t | None -> Sim.Trace.create ~enabled:false ()
  in
  Sim.Engine.create ~trace ~metrics:(Sim.Metrics.create ()) ()

(* Events per engine slice: between slices an untraced round may run a
   reference tick (see reference.ml). *)
let slice_events = 64

(* [Engine.run ?until e], in slices of [slice_events] events.  Slicing
   changes nothing simulated: a run cut short by its event budget
   leaves the clock at the last event, and the next slice goes on from
   there.  [Engine.run] is timed in every round: the span is entered
   once per call, so its two clock reads cost nothing measurable. *)
let run_engine ?until e =
  let fired =
    Sim.Metrics.counter (Sim.Engine.metrics e) ~sub:Sim.Subsystem.Sim
      "engine.events_fired"
  in
  Span.enter sp_run;
  let rec go () =
    let before = Sim.Metrics.value fired in
    Sim.Engine.run ?until ~max_events:slice_events e;
    Reference.maybe_tick ();
    if Sim.Metrics.value fired - before = slice_events then go ()
  in
  go ();
  Span.leave ()

(* Bracket [f x] with a span only in the traced run.  The choice is
   made once, when the rig wires its callbacks. *)
let traced1 ~traced sp f =
  if traced then (fun x ->
    Span.enter sp;
    f x;
    Span.leave ())
  else f

let hex f = Printf.sprintf "%h" f
