(* Real domains and a phase-counting barrier. *)

exception Barrier_poisoned

(* Classic phase-counting barrier.  [poisoned] releases blocked waiters
   when a sibling worker dies, so a crash surfaces as an exception on
   every domain instead of a deadlock. *)
type barrier = {
  m : Mutex.t;
  c : Condition.t;
  parties : int;
  mutable waiting : int;
  mutable phase : int;
  mutable poisoned : bool;
}

let barrier_create parties =
  {
    m = Mutex.create ();
    c = Condition.create ();
    parties;
    waiting = 0;
    phase = 0;
    poisoned = false;
  }

let barrier_wait b =
  Mutex.lock b.m;
  if b.poisoned then begin
    Mutex.unlock b.m;
    raise Barrier_poisoned
  end;
  let ph = b.phase in
  b.waiting <- b.waiting + 1;
  if b.waiting = b.parties then begin
    b.waiting <- 0;
    b.phase <- ph + 1;
    Condition.broadcast b.c;
    Mutex.unlock b.m
  end
  else begin
    while b.phase = ph && not b.poisoned do
      Condition.wait b.c b.m
    done;
    let p = b.poisoned in
    Mutex.unlock b.m;
    if p then raise Barrier_poisoned
  end

let barrier_poison b =
  Mutex.lock b.m;
  b.poisoned <- true;
  Condition.broadcast b.c;
  Mutex.unlock b.m

let run ~workers f =
  if workers < 1 then invalid_arg "Par.run: workers < 1";
  if workers = 1 then f ~worker:0 ~sync:(fun () -> ())
  else begin
    let b = barrier_create workers in
    let sync () = barrier_wait b in
    let guarded worker () =
      try
        f ~worker ~sync;
        None
      with e ->
        barrier_poison b;
        Some (worker, e)
    in
    let doms =
      List.init (workers - 1) (fun i -> Domain.spawn (guarded (i + 1)))
    in
    let own = guarded 0 () in
    let others = List.map Domain.join doms in
    (* Re-raise deterministically: the root cause from the lowest worker
       index, preferring real exceptions over poisoned-barrier fallout. *)
    let failures =
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        (List.filter_map Fun.id (own :: others))
    in
    let root =
      match List.filter (fun (_, e) -> e <> Barrier_poisoned) failures with
      | f :: _ -> Some f
      | [] -> ( match failures with f :: _ -> Some f | [] -> None)
    in
    match root with Some (_, e) -> raise e | None -> ()
  end

let map ~workers tasks =
  let n = Array.length tasks in
  let workers = Stdlib.max 1 (Stdlib.min workers (Stdlib.max 1 n)) in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    run ~workers (fun ~worker ~sync:_ ->
        let i = ref worker in
        while !i < n do
          (try results.(!i) <- Some (tasks.(!i) ())
           with e -> errors.(!i) <- Some e);
          i := !i + workers
        done);
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map
      (function Some r -> r | None -> assert false (* every slot filled *))
      results
  end
