(* Conservative parallel discrete-event simulation over engine shards.

   Each shard owns a private {!Engine.t} (its own heap, clock, trace and
   metrics), and shards exchange timestamped callbacks through one inbox
   per (src, dst) pair.  Synchronisation is barrier-epoch conservative
   PDES: with [L] the minimum cross-shard latency
   (lookahead), any message created by an event at time [t] carries a
   timestamp [>= t + L], so once every shard's earliest queue entry is
   known to be [>= t_min], every event strictly below [t_min + L] can be
   executed without hearing from any other shard.  Each epoch therefore

     1. computes [horizon = t_min + L] from state published at the last
        barrier (identically on every worker — no coordinator),
     2. runs every shard's engine up to [horizon - 1ns] (an event
        scheduled exactly at the horizon must wait for the next epoch:
        a message can still arrive at that instant),
     3. meets at a barrier, then drains each shard's inboxes, ordering
        messages by [(timestamp, source shard, post order)] so
        delivery order — and hence the destination engine's own
        scheduling order — is a pure function of the simulation,
     4. publishes each shard's earliest-event time and meets at the
        second barrier.

   Shards are distributed over domains statically ([shard mod workers]),
   and nothing in the epoch protocol depends on the worker count, so
   results are byte-identical at --domains 1, 2 and 4 — the property CI
   enforces.  Worker 0 is the calling domain; with one worker the same
   epoch loop runs sequentially.  Each shard records into its own child
   of the run's context, and the children merge back in shard order
   when the run ends, so what the context records does not depend on
   the worker count either.

   An inbox is a plain list, newest first: only shard [src]'s worker
   conses onto it, strictly before the epoch barrier, and only shard
   [dst]'s worker takes it, strictly after it.  The barrier publishes
   the writes, so no per-message synchronisation is needed. *)

type msg = { msg_at : Time.t; msg_src : int; msg_fn : unit -> unit }

type t = {
  ctx : Ctx.t;
  kids : Ctx.t array;  (* one child context per shard *)
  engines : Engine.t array;
  lookahead : Time.t;
  boxes : msg list array array;  (* boxes.(src).(dst), newest first *)
  (* Published per-shard state: written only by the owning worker in the
     drain phase, read by every worker after the barrier. *)
  next_at : Time.t array;  (* [no_event] when the queue is empty *)
  user_live : int array;
  delivered : int array;  (* cross-shard messages scheduled, per dst *)
  mutable epochs : int;
  mutable ran : bool;
}

let no_event = Time.ns max_int

let create ?(lookahead = Time.us 1) ~shards:n ctx =
  if n < 1 then invalid_arg "Shard.create: shards < 1";
  if Time.(lookahead <= Time.zero) then
    invalid_arg "Shard: lookahead must be positive";
  let kids = Array.init n (fun _ -> Ctx.child ctx) in
  {
    ctx;
    kids;
    engines = Array.map Ctx.engine kids;
    lookahead;
    boxes = Array.make_matrix n n [];
    next_at = Array.make n no_event;
    user_live = Array.make n 0;
    delivered = Array.make n 0;
    epochs = 0;
    ran = false;
  }

let lookahead t = t.lookahead
let engine t s = t.engines.(s)
let epochs t = t.epochs

let messages t = Array.fold_left ( + ) 0 t.delivered

let post t ~src ~dst ~at fn =
  let n = Array.length t.engines in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Shard.post: shard out of range";
  let now = Engine.now t.engines.(src) in
  if Time.(at < Time.add now t.lookahead) then
    invalid_arg
      (Format.asprintf
         "Shard.post: %a is under the lookahead horizon (now %a + %a)" Time.pp
         at Time.pp now Time.pp t.lookahead);
  t.boxes.(src).(dst) <-
    { msg_at = at; msg_src = src; msg_fn = fn } :: t.boxes.(src).(dst)

(* Take every inbox of shard [dst] and schedule the messages in the
   deterministic order (timestamp, source, post order), recording each
   delivery on [dst]'s trace: the inboxes, each reversed to oldest
   first, are laid end to end in source order, and a stable sort by
   timestamp keeps that order among ties.  Runs on the worker that owns
   [dst], strictly after the epoch barrier. *)
let drain_nonempty t dst =
  let msgs = ref [] in
  for src = Array.length t.engines - 1 downto 0 do
    msgs := List.rev_append t.boxes.(src).(dst) !msgs;
    t.boxes.(src).(dst) <- []
  done;
  let msgs =
    List.stable_sort (fun a b -> Time.compare a.msg_at b.msg_at) !msgs
  in
  let e = t.engines.(dst) in
  let tr = Engine.trace e in
  List.iter
    (fun m ->
      if Trace.enabled tr then
        Trace.instant tr ~ts:m.msg_at ~sub:Subsystem.Sim ~cat:"shard"
          ~args:[ ("src", Trace.Int m.msg_src) ]
          "shard.deliver";
      ignore (Engine.schedule_at e ~at:m.msg_at m.msg_fn))
    msgs;
  t.delivered.(dst) <- t.delivered.(dst) + List.length msgs

(* Most epochs deliver nothing to most shards; skip the sort-and-
   schedule machinery (and its allocations) unless some inbox actually
   holds a message. *)
let drain t dst =
  let n = Array.length t.engines in
  let rec any_pending src =
    src < n
    &&
    match t.boxes.(src).(dst) with [] -> any_pending (src + 1) | _ -> true
  in
  if any_pending 0 then drain_nonempty t dst

let publish t s =
  (* The engine samples its queue-depth gauge every 256 transitions;
     flush it here so nothing observes a stale value across an epoch
     boundary (monitor windows roll on barrier-aligned instants). *)
  Engine.flush_gauges t.engines.(s);
  (* [Engine.next_at] uses the same [max_int] ns empty-queue sentinel
     as [no_event], and neither side allocates anything. *)
  t.next_at.(s) <- Engine.next_at t.engines.(s);
  t.user_live.(s) <- Engine.pending_user t.engines.(s)

(* Single-shard mode delegates to the plain engine loop, so an
   unsharded scenario wrapped in a 1-shard runner is byte-identical to
   calling {!Engine.run} directly.  Self-posted messages are delivered
   by draining around the run until the inbox empties. *)
let run_single t ?until () =
  let rec go () =
    drain t 0;
    Engine.run ?until t.engines.(0);
    match t.boxes.(0).(0) with [] -> () | _ -> go ()
  in
  go ()

let run_epochs ?until t =
  let n = Array.length t.engines in
  if n = 1 then run_single t ?until ()
  else begin
    let workers = Stdlib.min (Ctx.domains t.ctx) n in
    (* Messages posted during setup enter the first epoch. *)
    for d = 0 to n - 1 do
      drain t d;
      publish t d
    done;
    Par.run ~workers (fun ~worker ~sync ->
        let continue = ref true in
        while !continue do
          (* Every worker computes the epoch identically from the
             state published at the last barrier. *)
          let t_min = Array.fold_left Time.min no_event t.next_at in
          let finished =
            match until with
            | Some u -> Time.(t_min > u)
            | None ->
                t_min = no_event
                || Array.fold_left ( + ) 0 t.user_live = 0
          in
          if finished then continue := false
          else begin
            if worker = 0 then t.epochs <- t.epochs + 1;
            let horizon =
              let h = Time.add t_min t.lookahead in
              match until with
              | Some u -> Time.min h (Time.add u (Time.ns 1))
              | None -> h
            in
            let s = ref worker in
            while !s < n do
              Engine.run_until t.engines.(!s) (Time.sub horizon (Time.ns 1));
              s := !s + workers
            done;
            sync ();
            let s = ref worker in
            while !s < n do
              drain t !s;
              publish t !s;
              s := !s + workers
            done;
            sync ()
          end
        done);
    (* Leave every clock where Engine.run ~until would: advanced to
       [until] even when a shard ran out of events early. *)
    match until with
    | Some u -> Array.iter (fun e -> Engine.run e ~until:u) t.engines
    | None -> ()
  end

let run ?until t =
  if t.ran then invalid_arg "Shard.run: a shard set runs once";
  t.ran <- true;
  run_epochs ?until t;
  Array.iter (Ctx.merge ~into:t.ctx) t.kids
