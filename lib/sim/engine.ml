(* The event loop is the innermost loop of every experiment, so the
   per-event path performs no allocation in steady state:

   - Event records live in an int arena: parallel arrays indexed by
     slot, with state, daemon flag and a generation counter packed
     into one [int] word and the callback in a companion array.  The
     priority queue carries only the slot index (an immediate), and
     the public {!event_id} is [(generation lsl 31) lor slot] — also
     an immediate — so scheduling, cancelling and firing touch no
     minor heap.  Freed slots are recycled through a stack; the
     generation bumps on every free, so a stale handle held across a
     slot reuse simply fails its generation check and {!cancel}
     returns [false] (no ABA).

   - Cancellation is a tombstone: the slot word flips to [Cancelled]
     and the queue entry is discarded when the queue delivers it.

   - The [queue_depth] gauge is sampled every [depth_sample_mask + 1]
     schedule/cancel/fire transitions (and at the end of every {!run})
     through the gauge's flat float cell rather than boxed-float
     written on every one.

   The queue is a {!Calendar} queue, which sizes its buckets from the
   traffic and extracts the exact [(key, seq)] minimum, so event order
   — and therefore every experiment table — depends only on the
   schedule, never on the queue's geometry. *)

(* Arena slot word layout: bits 0-1 state, bit 2 daemon flag, bits 3+
   a 31-bit generation counter. *)
let st_pending = 1
let st_cancelled = 2
let state_mask = 3
let daemon_bit = 4
let gen_shift = 3
let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl slot_bits) - 1
let max_slots = 1 lsl slot_bits

type event_id = int

(* A live handle's generation is never negative, so no slot word
   matches this one. *)
let no_event = -1

type t = {
  mutable clock : Time.t;
  q : Calendar.t;
  mutable next_id : int;
  mutable live : int;
  mutable live_user : int;
  mutable depth_ops : int;
  mutable running : bool;  (* inside {!run_loop} *)
  (* Arena: a_word.(s) packs state/daemon/generation, a_fn.(s) is the
     callback.  [free] is a stack of recyclable slots; every slot is
     either live in the queue or on the stack, so the stack never
     overflows its arena-sized array. *)
  mutable a_word : int array;
  mutable a_fn : (unit -> unit) array;
  mutable free : int array;
  mutable free_top : int;
  trace : Trace.t;
  metrics : Metrics.t;
  m_fired : Metrics.counter;
  m_cancelled : Metrics.counter;
  m_queue_depth : Metrics.gauge;
  depth_cell : floatarray;  (* the gauge's cell, for unboxed writes *)
}

(* Power-of-two-minus-one: sample the gauge every 256 transitions. *)
let depth_sample_mask = 255

let dummy_fn () = ()

let create ?(trace = Trace.create ~enabled:false ())
    ?(metrics = Metrics.create ()) () =
  let m_queue_depth =
    Metrics.gauge metrics ~sub:Subsystem.Sim
      ~help:"scheduled, uncancelled events (sampled)" "engine.queue_depth"
  in
  {
    clock = Time.zero;
    q = Calendar.create ();
    next_id = 0;
    live = 0;
    live_user = 0;
    depth_ops = 0;
    running = false;
    a_word = [||];
    a_fn = [||];
    free = [||];
    free_top = 0;
    trace;
    metrics;
    m_fired =
      Metrics.counter metrics ~sub:Subsystem.Sim
        ~help:"callbacks executed by the event loop" "engine.events_fired";
    m_cancelled =
      Metrics.counter metrics ~sub:Subsystem.Sim
        ~help:"events cancelled before firing" "engine.events_cancelled";
    m_queue_depth;
    depth_cell = Metrics.cell m_queue_depth;
  }

let now t = t.clock
let trace t = t.trace
let metrics t = t.metrics

let sample_depth t =
  t.depth_ops <- t.depth_ops + 1;
  if t.depth_ops land depth_sample_mask = 0 then
    Float.Array.set t.depth_cell 0 (Float.of_int t.live)

let flush_depth t = Float.Array.set t.depth_cell 0 (Float.of_int t.live)

(* Public entry point for the sharded runner: {!sample_depth} writes the
   queue-depth gauge only every 256 transitions, so at a shard-epoch
   boundary the gauge can lag the true depth by up to 255 events.
   {!Shard} calls this at every barrier so monitors evaluating a window
   never read a stale gauge. *)
let flush_gauges t = flush_depth t

(* ------------------------------------------------------------------ *)
(* Arena. *)

(* Only called with an empty free stack, so nothing on it to copy. *)
let grow_arena t =
  let cap = Array.length t.a_word in
  let ncap = if cap = 0 then 16 else cap * 2 in
  if ncap > max_slots then invalid_arg "Engine: arena exceeds 2^31 slots";
  let nword = Array.make ncap 0 in
  let nfn = Array.make ncap dummy_fn in
  Array.blit t.a_word 0 nword 0 cap;
  Array.blit t.a_fn 0 nfn 0 cap;
  t.a_word <- nword;
  t.a_fn <- nfn;
  t.free <- Array.make ncap 0;
  t.free_top <- 0;
  (* Descending, so fresh slots are handed out in ascending order. *)
  for s = ncap - 1 downto cap do
    t.free.(t.free_top) <- s;
    t.free_top <- t.free_top + 1
  done

let alloc_slot t =
  if t.free_top = 0 then grow_arena t;
  t.free_top <- t.free_top - 1;
  t.free.(t.free_top)

(* Bump the generation (invalidating every outstanding handle to this
   slot), clear state and daemon bits, drop the callback reference. *)
let free_slot t slot w =
  t.a_word.(slot) <- (((w asr gen_shift) + 1) land gen_mask) lsl gen_shift;
  t.a_fn.(slot) <- dummy_fn;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

(* ------------------------------------------------------------------ *)
(* Scheduling. *)

let schedule_at ?(daemon = false) t ~at f =
  if Time.(at < t.clock) then
    invalid_arg
      (Format.asprintf "Engine.schedule_at: %a is before now (%a)" Time.pp at
         Time.pp t.clock);
  if Time.to_ns at > Calendar.max_key then
    invalid_arg
      (Format.asprintf "Engine.schedule_at: %a is beyond the 2^61 ns horizon"
         Time.pp at);
  let slot = alloc_slot t in
  let w = t.a_word.(slot) in
  (* [w] is a freed word: state 0, daemon clear, generation intact. *)
  t.a_word.(slot) <-
    w lor st_pending lor (if daemon then daemon_bit else 0);
  t.a_fn.(slot) <- f;
  let seq = t.next_id in
  t.next_id <- t.next_id + 1;
  Calendar.push_ns t.q ~key:(Time.to_ns at) ~seq slot;
  t.live <- t.live + 1;
  if not daemon then t.live_user <- t.live_user + 1;
  sample_depth t;
  ((w asr gen_shift) lsl slot_bits) lor slot

let schedule ?daemon t ~delay f =
  schedule_at ?daemon t ~at:(Time.add t.clock delay) f

let cancel t h =
  let slot = h land slot_mask in
  if slot >= Array.length t.a_word then false
  else begin
    let w = t.a_word.(slot) in
    if w land state_mask = st_pending && w asr gen_shift = h asr slot_bits
    then begin
      t.a_word.(slot) <- (w land lnot state_mask) lor st_cancelled;
      Metrics.incr t.m_cancelled;
      t.live <- t.live - 1;
      if w land daemon_bit = 0 then t.live_user <- t.live_user - 1;
      sample_depth t;
      true
    end
    else false
  end

let pending t = t.live
let pending_user t = t.live_user

let next_at t = Time.ns (Calendar.min_key_ns t.q)

(* ------------------------------------------------------------------ *)
(* Execution. *)

(* Deliver the queue minimum: advance the clock, recycle the arena
   slot, then run the callback unless the entry was a tombstone.  The
   slot is freed *before* the callback runs, so a self-rescheduling
   event reuses its own slot and a long steady-state run touches a
   bounded arena; the callback itself was read out first.  Returns
   [true] when the callback actually ran. *)
let exec_min t =
  let at = Calendar.min_key_ns t.q in
  let slot = Calendar.pop_min t.q in
  t.clock <- Time.ns at;
  let w = t.a_word.(slot) in
  let fn = t.a_fn.(slot) in
  free_slot t slot w;
  if w land state_mask = st_pending then begin
    t.live <- t.live - 1;
    if w land daemon_bit = 0 then t.live_user <- t.live_user - 1;
    Metrics.incr t.m_fired;
    sample_depth t;
    fn ();
    true
  end
  else false

(* The loop proper, over immediates only ([has_until] instead of an
   option, [max_int] as "no budget") so {!Shard}'s epoch loop can run
   it without allocating anything per epoch.  A callback that ran the
   loop again would fire events while its own caller still assumes one
   event at a time, so the loop refuses to nest.  [running] drops when
   a callback's exception leaves the loop, so the engine stays
   runnable; the handler allocates nothing. *)
let run_loop t ~until ~has_until ~max_ev =
  if t.running then invalid_arg "Engine.run: called from inside a callback";
  t.running <- true;
  let until_ns = Time.to_ns until in
  let fired = ref 0 in
  let continue = ref true in
  (try
     while !continue do
       if !fired >= max_ev then continue := false
         (* Without a time bound, daemon events (periodic managers and
            the like) do not keep the run alive: stop once only daemons
            remain. *)
       else if (not has_until) && t.live_user = 0 then continue := false
       else begin
         let at = Calendar.min_key_ns t.q in
         if at = max_int then continue := false
         else if has_until && at > until_ns then continue := false
         else if exec_min t then incr fired
       end
     done
   with e ->
     t.running <- false;
     raise e);
  t.running <- false;
  flush_depth t;
  (* Advance the clock to [until] only when the run stopped for lack
     of earlier events, not when it was cut short by [max_ev]. *)
  if has_until && Time.(t.clock < until) then begin
    let nk = Calendar.min_key_ns t.q in
    if nk > until_ns then t.clock <- until
  end

let run ?until ?max_events t =
  let max_ev = match max_events with Some m -> m | None -> max_int in
  match until with
  | Some until -> run_loop t ~until ~has_until:true ~max_ev
  | None -> run_loop t ~until:(Time.ns max_int) ~has_until:false ~max_ev

let run_until t until = run_loop t ~until ~has_until:true ~max_ev:max_int

let every ?daemon t ~period f =
  if Time.(period <= Time.zero) then
    invalid_arg "Engine.every: period must be positive";
  let rec tick () =
    if f () then ignore (schedule ?daemon t ~delay:period tick)
  in
  ignore (schedule ?daemon t ~delay:period tick)
