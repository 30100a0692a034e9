(* Tests for the discrete-event substrate. *)

let time = Alcotest.testable Sim.Time.pp ( = )

let time_tests =
  [
    Alcotest.test_case "unit constructors compose" `Quick (fun () ->
        Alcotest.check time "1us" (Sim.Time.us 1) (Sim.Time.ns 1000);
        Alcotest.check time "1ms" (Sim.Time.ms 1) (Sim.Time.us 1000);
        Alcotest.check time "1s" (Sim.Time.sec 1) (Sim.Time.ms 1000));
    Alcotest.test_case "of_sec_f round-trips" `Quick (fun () ->
        Alcotest.(check (float 1e-9))
          "1.5s" 1.5
          (Sim.Time.to_sec_f (Sim.Time.of_sec_f 1.5)));
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        let a = Sim.Time.ms 3 and b = Sim.Time.ms 1 in
        Alcotest.check time "add" (Sim.Time.ms 4) (Sim.Time.add a b);
        Alcotest.check time "sub" (Sim.Time.ms 2) (Sim.Time.sub a b);
        Alcotest.check time "mul" (Sim.Time.ms 9) (Sim.Time.mul a 3);
        Alcotest.check time "div" (Sim.Time.ms 1) (Sim.Time.div a 3);
        Alcotest.(check bool) "lt" true Sim.Time.(b < a));
    Alcotest.test_case "pp picks sensible units" `Quick (fun () ->
        let s t = Format.asprintf "%a" Sim.Time.pp t in
        Alcotest.(check string) "ns" "500ns" (s (Sim.Time.ns 500));
        Alcotest.(check string) "us" "2.00us" (s (Sim.Time.us 2));
        Alcotest.(check string) "ms" "3.000ms" (s (Sim.Time.ms 3)));
  ]

(* [(key, seq, value)] of the queue's minimum, removed, read the way
   the engine reads it. *)
let pop_ns c =
  if Sim.Calendar.is_empty c then None
  else
    let key = Sim.Calendar.min_key_ns c in
    let seq = Sim.Calendar.min_seq_ns c in
    Some (key, seq, Sim.Calendar.pop_min c)

(* Reference model for the queue property tests: a list kept sorted
   by (key, seq), popped from the front. *)
let model_insert (k, s, v) model =
  let rec go = function
    | [] -> [ (k, s, v) ]
    | (k', s', _) :: _ as rest when k < k' || (k = k' && s < s') ->
        (k, s, v) :: rest
    | e :: rest -> e :: go rest
  in
  go model

(* Schedule [n] events at [at_us i] whose callbacks each hold the ref
   watched by [weak.(i)]: the engine keeps a callback (and so the ref)
   reachable exactly while the event is pending.  Kept out of line so
   no stack slot of the caller still holds a ref when it collects. *)
let[@inline never] schedule_watched e weak ~at_us n =
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set weak i (Some v);
    ignore
      (Sim.Engine.schedule e
         ~delay:(Sim.Time.us (at_us i))
         (fun () -> ignore (Sys.opaque_identity v)))
  done

(* The event queue's ordering and retention contract, on the calendar
   queue and through the engine; the group keeps the name of the queue
   it first covered, so the printed test names stay stable. *)
let heap_tests =
  [
    Alcotest.test_case "pop order is (key, seq)" `Quick (fun () ->
        let c = Sim.Calendar.create () in
        Sim.Calendar.push_ns c ~key:5 ~seq:0 1;
        Sim.Calendar.push_ns c ~key:3 ~seq:1 2;
        Sim.Calendar.push_ns c ~key:3 ~seq:2 3;
        Sim.Calendar.push_ns c ~key:1 ~seq:3 4;
        let pop () =
          match pop_ns c with
          | Some (_, _, v) -> v
          | None -> Alcotest.fail "empty"
        in
        Alcotest.(check int) "1st" 4 (pop ());
        Alcotest.(check int) "2nd" 2 (pop ());
        Alcotest.(check int) "3rd" 3 (pop ());
        Alcotest.(check int) "4th" 1 (pop ());
        Alcotest.(check bool) "empty" true (Sim.Calendar.is_empty c));
    Alcotest.test_case "peek does not remove" `Quick (fun () ->
        let c = Sim.Calendar.create () in
        Sim.Calendar.push_ns c ~key:7 ~seq:0 0;
        Alcotest.(check int) "peek" 7 (Sim.Calendar.min_key_ns c);
        Alcotest.(check int) "len" 1 (Sim.Calendar.length c));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"pops in nondecreasing key order" ~count:200
         QCheck2.Gen.(list (int_range 0 1000))
         (fun keys ->
           let c = Sim.Calendar.create () in
           List.iteri (fun i k -> Sim.Calendar.push_ns c ~key:k ~seq:i i) keys;
           let rec drain last =
             match pop_ns c with
             | None -> true
             | Some (k, _, _) -> k >= last && drain k
           in
           drain min_int));
    Alcotest.test_case "popped values are not retained" `Quick (fun () ->
        (* A fired event's arena slot must drop its callback: run every
           event, collect, and check through weak pointers that each
           callback's captured ref is gone while the engine is live. *)
        let e = Sim.Engine.create ~metrics:(Sim.Metrics.create ()) () in
        let n = 100 in
        let weak = Weak.create n in
        schedule_watched e weak ~at_us:(fun i -> 1 + (i * 37 mod 50)) n;
        Sim.Engine.run e;
        Gc.full_major ();
        let live = ref 0 in
        for i = 0 to n - 1 do
          if Weak.check weak i then incr live
        done;
        Alcotest.(check int) "all fired callbacks collected" 0 !live;
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.us 1) (fun () -> ()));
        Alcotest.(check int) "engine still usable" 1 (Sim.Engine.pending e));
    Alcotest.test_case "half-drained heap retains only its contents" `Quick
      (fun () ->
        let e = Sim.Engine.create ~metrics:(Sim.Metrics.create ()) () in
        let n = 100 in
        let weak = Weak.create n in
        schedule_watched e weak ~at_us:(fun i -> i + 1) n;
        (* Times are distinct and ascending, so exactly the first half
           fires. *)
        Sim.Engine.run e ~max_events:(n / 2);
        Gc.full_major ();
        for i = 0 to (n / 2) - 1 do
          if Weak.check weak i then
            Alcotest.failf "fired callback %d still retained" i
        done;
        for i = n / 2 to n - 1 do
          if not (Weak.check weak i) then
            Alcotest.failf "pending callback %d was collected" i
        done;
        (* Referencing [e] here keeps the engine itself live across the
           collection above, so only fired callbacks can die. *)
        Alcotest.(check int) "engine keeps the rest" (n / 2)
          (Sim.Engine.pending e));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"interleaved push/pop agrees with a sorted-list model" ~count:300
         (* [Some k] pushes with key [k]; [None] pops. *)
         QCheck2.Gen.(list (option (int_range 0 50)))
         (fun ops ->
           let c = Sim.Calendar.create () in
           let model = ref [] in
           let seq = ref 0 in
           List.for_all
             (fun op ->
               match op with
               | Some k ->
                   Sim.Calendar.push_ns c ~key:k ~seq:!seq !seq;
                   model := model_insert (k, !seq, !seq) !model;
                   incr seq;
                   Sim.Calendar.length c = List.length !model
               | None -> (
                   match (pop_ns c, !model) with
                   | None, [] -> true
                   | Some got, m :: rest ->
                       model := rest;
                       got = m
                   | Some _, [] | None, _ :: _ -> false))
             ops
           && (* drain: the tail must still agree *)
           List.for_all
             (fun m ->
               match pop_ns c with
               | Some got -> got = m
               | None -> false)
             !model
           && Sim.Calendar.is_empty c));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"equal keys pop in seq (FIFO) order" ~count:100
         QCheck2.Gen.(int_range 1 64)
         (fun n ->
           (* [n] events share one instant; fillers scheduled between
              them land before and after it.  The shared instant must
              fire in scheduling order. *)
           let e = Sim.Engine.create ~metrics:(Sim.Metrics.create ()) () in
           let log = ref [] in
           for i = 0 to n - 1 do
             ignore
               (Sim.Engine.schedule_at e ~at:(Sim.Time.us 32) (fun () ->
                    log := i :: !log));
             ignore
               (Sim.Engine.schedule e
                  ~delay:(Sim.Time.us (1 + (i * 17 mod 64)))
                  (fun () -> ()))
           done;
           Sim.Engine.run e;
           List.rev !log = List.init n Fun.id));
    Alcotest.test_case "out-of-range key is rejected" `Quick (fun () ->
        (* The engine checks the queue's 2^61 ns bound before it takes
           an arena slot, so a rejected call leaks nothing. *)
        let e = Sim.Engine.create ~metrics:(Sim.Metrics.create ()) () in
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> ()));
        let at = Sim.Time.ns ((1 lsl 61) + (1 lsl 60)) in
        Alcotest.check_raises "beyond 2^61 ns"
          (Invalid_argument
             (Format.asprintf
                "Engine.schedule_at: %a is beyond the 2^61 ns horizon"
                Sim.Time.pp at))
          (fun () -> ignore (Sim.Engine.schedule_at e ~at (fun () -> ())));
        Alcotest.(check int) "pending unchanged" 1 (Sim.Engine.pending e);
        let fired = ref 0 in
        for i = 1 to 20 do
          ignore
            (Sim.Engine.schedule e ~delay:(Sim.Time.us i) (fun () ->
                 incr fired))
        done;
        Sim.Engine.run e;
        Alcotest.(check int) "later events fire" 20 !fired;
        Alcotest.(check int) "nothing left" 0 (Sim.Engine.pending e));
  ]

(* Drive a calendar as a simulation drives its queue: pop the minimum
   and push its value back [delay v] later under a fresh seq, [pops]
   times, checking every pop against the sorted-list model.  Returns
   the queue's work per pop over the pops after the first [warmup]. *)
let churn_against_model c model ~seq ~delay ~warmup ~pops =
  let w0 = ref 0 in
  for i = 1 to pops do
    if i = warmup + 1 then w0 := Sim.Calendar.work c;
    match (pop_ns c, !model) with
    | Some ((k, _, v) as got), m :: rest when got = m ->
        let k' = k + delay v in
        Sim.Calendar.push_ns c ~key:k' ~seq:!seq v;
        model := model_insert (k', !seq, v) rest;
        incr seq
    | _ -> Alcotest.failf "pop %d disagrees with the model" i
  done;
  Float.of_int (Sim.Calendar.work c - !w0) /. Float.of_int (pops - warmup)

let calendar_tests =
  [
    Alcotest.test_case "pop order is (key, seq)" `Quick (fun () ->
        let c = Sim.Calendar.create () in
        Sim.Calendar.push_ns c ~key:5 ~seq:1 10;
        Sim.Calendar.push_ns c ~key:3 ~seq:2 20;
        Sim.Calendar.push_ns c ~key:5 ~seq:0 30;
        Sim.Calendar.push_ns c ~key:4 ~seq:3 40;
        let order = ref [] in
        let rec drain () =
          match pop_ns c with
          | None -> ()
          | Some e ->
              order := e :: !order;
              drain ()
        in
        drain ();
        Alcotest.(check (list (triple int int int)))
          "order"
          [ (3, 2, 20); (4, 3, 40); (5, 0, 30); (5, 1, 10) ]
          (List.rev !order));
    Alcotest.test_case "min_key/min_seq report without removing" `Quick
      (fun () ->
        let c = Sim.Calendar.create () in
        Alcotest.(check int) "empty key" max_int (Sim.Calendar.min_key_ns c);
        Alcotest.(check int) "empty seq" max_int (Sim.Calendar.min_seq_ns c);
        Sim.Calendar.push_ns c ~key:9 ~seq:4 1;
        Sim.Calendar.push_ns c ~key:2 ~seq:7 2;
        Alcotest.(check int) "min key" 2 (Sim.Calendar.min_key_ns c);
        Alcotest.(check int) "min seq" 7 (Sim.Calendar.min_seq_ns c);
        Alcotest.(check int) "still both" 2 (Sim.Calendar.length c));
    Alcotest.test_case "resize stress drains in nondecreasing order" `Quick
      (fun () ->
        (* Scrambled keys across a wide range force several bucket-array
           resizes on the way up and shrinks on the way down. *)
        let c = Sim.Calendar.create () in
        let n = 20_000 in
        for i = 0 to n - 1 do
          let k = i * 2654435761 land 0xFFFFFFF in
          Sim.Calendar.push_ns c ~key:k ~seq:i i
        done;
        Alcotest.(check int) "all in" n (Sim.Calendar.length c);
        let prev_k = ref (-1) and prev_s = ref (-1) and popped = ref 0 in
        let rec drain () =
          match pop_ns c with
          | None -> ()
          | Some (k, s, _) ->
              if k < !prev_k || (k = !prev_k && s < !prev_s) then
                Alcotest.failf "order violated at (%d, %d)" k s;
              prev_k := k;
              prev_s := s;
              incr popped;
              drain ()
        in
        drain ();
        Alcotest.(check int) "all out" n !popped);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"differential: interleaved push/pop agrees with a sorted-list model"
         ~count:300
         (* [Some k] pushes with key [k] into the queue and the model;
            [None] pops both and compares.  Key range is narrow enough
            to collide and wide enough to spread across buckets. *)
         QCheck2.Gen.(list (option (int_range 0 5000)))
         (fun ops ->
           let c = Sim.Calendar.create () in
           let model = ref [] in
           let seq = ref 0 in
           List.for_all
             (fun op ->
               match op with
               | Some k ->
                   Sim.Calendar.push_ns c ~key:k ~seq:!seq !seq;
                   model := model_insert (k, !seq, !seq) !model;
                   incr seq;
                   Sim.Calendar.length c = List.length !model
                   && Sim.Calendar.min_key_ns c
                      = (match !model with (k, _, _) :: _ -> k | [] -> max_int)
               | None -> (
                   match (pop_ns c, !model) with
                   | None, [] -> true
                   | Some got, m :: rest ->
                       model := rest;
                       got = m
                   | Some _, [] | None, _ :: _ -> false))
             ops
           &&
           (* Drain: the tail must agree entry for entry. *)
           List.for_all
             (fun m ->
               match pop_ns c with
               | Some got -> got = m
               | None -> false)
             !model
           && Sim.Calendar.is_empty c));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"equal keys pop in seq (FIFO) order" ~count:100
         QCheck2.Gen.(int_range 1 64)
         (fun n ->
           (* A same-key flood degrades a bucket to a linear scan but
              must still respect insertion order. *)
           let c = Sim.Calendar.create () in
           for i = 0 to n - 1 do
             let s = i * 17 mod n in
             Sim.Calendar.push_ns c ~key:7 ~seq:s s
           done;
           n mod 17 = 0
           ||
           let popped = ref [] in
           let rec drain () =
             match pop_ns c with
             | None -> ()
             | Some (_, s, _) ->
                 popped := s :: !popped;
                 drain ()
           in
           drain ();
           List.rev !popped = List.init n Fun.id));
    Alcotest.test_case "same-key flood drains FIFO through the lazy sort" `Quick
      (fun () ->
        (* 5000 ties in one bucket force the sorted-chain path (chains
           above the sort threshold); a mid-drain refill dirties the
           sorted chain and must re-sort without losing order. *)
        let n = 5_000 in
        let c = Sim.Calendar.create () in
        for i = 0 to n - 1 do
          Sim.Calendar.push_ns c ~key:42 ~seq:(i * 3797 mod n) (i * 3797 mod n)
        done;
        for s = 0 to (n / 2) - 1 do
          match pop_ns c with
          | Some (42, s', _) when s' = s -> ()
          | _ -> Alcotest.failf "wrong entry at seq %d" s
        done;
        for s = n to n + 99 do
          Sim.Calendar.push_ns c ~key:42 ~seq:s s
        done;
        for s = n / 2 to n + 99 do
          match pop_ns c with
          | Some (42, s', _) when s' = s -> ()
          | _ -> Alcotest.failf "wrong entry at seq %d after refill" s
        done;
        Alcotest.(check bool) "drained" true (Sim.Calendar.is_empty c));
    Alcotest.test_case "large in-order flood rolls forward linearly" `Quick
      (fun () ->
        (* A ramp of 100k same-key pushes in seq order crosses several
           resizes, each of which reverses the chain, leaving a stack of
           alternately reversed blocks.  That layout drove the previous
           deterministic-pivot quicksort quadratic (~6s for the one lazy
           sort); the merge sort keeps it O(n log n).  The drain-and-
           reschedule loop below is the Monitor window-roll pattern that
           exposed it.  Correctness assert: strict FIFO per key and
           key-major order across rolls. *)
        let n = 100_000 in
        let c = Sim.Calendar.create () in
        let seq = ref 0 in
        let push key =
          incr seq;
          Sim.Calendar.push_ns c ~key ~seq:!seq !seq
        in
        for _ = 1 to n do
          push 1_000_000
        done;
        let t0 = Unix.gettimeofday () in
        for roll = 2 to 3 do
          let prev = ref 0 in
          for _ = 1 to n do
            (match pop_ns c with
            | Some (k, s, _) when k = (roll - 1) * 1_000_000 && s > !prev ->
                prev := s
            | _ -> Alcotest.failf "out of order during roll %d" roll);
            push (roll * 1_000_000)
          done
        done;
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool)
          (Printf.sprintf "two rolls of 100k under 2s (took %.2fs)" dt)
          true (dt < 2.0));
    Alcotest.test_case "out-of-range keys are rejected" `Quick (fun () ->
        let c = Sim.Calendar.create () in
        Alcotest.check_raises "negative"
          (Invalid_argument "Calendar.push_ns: key out of range") (fun () ->
            Sim.Calendar.push_ns c ~key:(-1) ~seq:0 0);
        Alcotest.check_raises "beyond 2^61"
          (Invalid_argument "Calendar.push_ns: key out of range") (fun () ->
            Sim.Calendar.push_ns c ~key:((1 lsl 61) + 1) ~seq:0 0));
    Alcotest.test_case "a drained queue reads empty and stays usable" `Quick
      (fun () ->
        (* Pops are the only way back to empty: a drained queue must
           read as one, refuse a further pop and still take a key
           behind the ones it popped. *)
        let c = Sim.Calendar.create () in
        for i = 1 to 10 do
          Sim.Calendar.push_ns c ~key:(i * 1_000) ~seq:i i
        done;
        for i = 1 to 10 do
          Alcotest.(check int) "pop in key order" i (Sim.Calendar.pop_min c)
        done;
        Alcotest.(check bool) "empty" true (Sim.Calendar.is_empty c);
        Alcotest.(check int) "empty key" max_int (Sim.Calendar.min_key_ns c);
        Alcotest.check_raises "pop on empty"
          (Invalid_argument "Calendar.pop_min: empty") (fun () ->
            ignore (Sim.Calendar.pop_min c));
        Sim.Calendar.push_ns c ~key:3 ~seq:0 42;
        match pop_ns c with
        | Some (3, 0, 42) -> ()
        | _ -> Alcotest.fail "queue unusable after draining");
    Alcotest.test_case "a dense front behind far-future entries stays cheap"
      `Quick (fun () ->
        (* A few timers ~17 minutes out and a thousand events that keep
           rescheduling within a microsecond.  A width fitted to the
           far timers would pile the whole front into one bucket and
           re-sort it every few pops; the queue must notice the work
           and narrow its buckets. *)
        let c = Sim.Calendar.create () and model = ref [] and seq = ref 0 in
        let push k v =
          Sim.Calendar.push_ns c ~key:k ~seq:!seq v;
          model := model_insert (k, !seq, v) !model;
          incr seq
        in
        for i = 1 to 8 do
          push (1_000_000_000_000 + i) (-i)
        done;
        for i = 0 to 999 do
          push (1 + (i * 7919 mod 1000)) i
        done;
        let per_pop =
          churn_against_model c model ~seq
            ~delay:(fun v -> 1 + (v * 7919 mod 997))
            ~warmup:5_000 ~pops:25_000
        in
        Alcotest.(check bool)
          (Printf.sprintf "work per pop %.1f <= 8" per_pop)
          true (per_pop <= 8.0);
        Alcotest.(check int) "far timers still queued" 1008
          (Sim.Calendar.length c));
    Alcotest.test_case "a sparse population spread over 1 ms stays cheap"
      `Quick (fun () ->
        (* Sixteen entries rescheduling up to a millisecond ahead: far
           sparser than the seed bucket width, so a queue that never
           re-measures walks empty buckets on every pop. *)
        let c = Sim.Calendar.create () and model = ref [] and seq = ref 0 in
        let delay v = 1 + (v * 2654435761 land 0xFFFFF) in
        for v = 0 to 15 do
          Sim.Calendar.push_ns c ~key:(delay v) ~seq:!seq v;
          model := model_insert (delay v, !seq, v) !model;
          incr seq
        done;
        let per_pop =
          churn_against_model c model ~seq
            ~delay:(fun v -> delay (v + !seq))
            ~warmup:1_000 ~pops:20_000
        in
        Alcotest.(check bool)
          (Printf.sprintf "work per pop %.1f <= 8" per_pop)
          true (per_pop <= 8.0));
  ]

let fault_tests =
  [
    Alcotest.test_case "identical seeds replay identical fault sequences"
      `Quick (fun () ->
        let record () =
          let e = Sim.Engine.create () in
          let f = Sim.Fault.create ~seed:99L e in
          let events = ref [] in
          let log name () =
            events := (name, Sim.Time.to_ns (Sim.Engine.now e)) :: !events
          in
          Sim.Fault.outages f ~span:(Sim.Time.sec 10)
            ~mean_up:(Sim.Time.ms 200) ~mean_down:(Sim.Time.ms 50)
            ~down:(log "down") ~up:(log "up") ();
          Sim.Engine.run e;
          (List.rev !events, Sim.Fault.events_injected f)
        in
        let seq_a, count_a = record () in
        let seq_b, count_b = record () in
        Alcotest.(check bool) "sequences nonempty" true (seq_a <> []);
        Alcotest.(check bool) "sequences identical" true (seq_a = seq_b);
        Alcotest.(check int) "counters identical" count_a count_b);
    Alcotest.test_case "window takes a component down and back up" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let f = Sim.Fault.create e in
        let up = ref true in
        Sim.Fault.window f ~at:(Sim.Time.ms 10) ~duration:(Sim.Time.ms 5)
          ~down:(fun () -> up := false)
          ~up:(fun () -> up := true);
        ignore
          (Sim.Engine.schedule_at e ~at:(Sim.Time.ms 12) (fun () ->
               Alcotest.(check bool) "down inside the window" false !up));
        Sim.Engine.run e;
        Alcotest.(check bool) "up after the window" true !up;
        Alcotest.(check int) "two transitions" 2 (Sim.Fault.events_injected f));
    Alcotest.test_case "outages leave the component healthy at span end"
      `Quick (fun () ->
        let e = Sim.Engine.create () in
        let f = Sim.Fault.create ~seed:7L e in
        let up = ref true in
        Sim.Fault.outages f ~span:(Sim.Time.sec 5) ~mean_up:(Sim.Time.ms 100)
          ~mean_down:(Sim.Time.ms 40)
          ~down:(fun () -> up := false)
          ~up:(fun () -> up := true)
          ();
        Sim.Engine.run e;
        Alcotest.(check bool) "healthy at the end" true !up;
        Alcotest.(check bool) "injected transitions" true
          (Sim.Fault.events_injected f > 0));
  ]


let engine_tests =
  [
    Alcotest.test_case "events fire in time order" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let log = ref [] in
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 2) (fun () -> log := 2 :: !log));
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> log := 1 :: !log));
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 3) (fun () -> log := 3 :: !log));
        Sim.Engine.run e;
        Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
        Alcotest.check time "clock" (Sim.Time.ms 3) (Sim.Engine.now e));
    Alcotest.test_case "same-instant events run FIFO" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let log = ref [] in
        for i = 0 to 9 do
          ignore
            (Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> log := i :: !log))
        done;
        Sim.Engine.run e;
        Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
          (List.rev !log));
    Alcotest.test_case "cancel prevents firing" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let fired = ref false in
        let id = Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> fired := true) in
        ignore (Sim.Engine.cancel e id);
        Sim.Engine.run e;
        Alcotest.(check bool) "not fired" false !fired;
        Alcotest.(check int) "pending" 0 (Sim.Engine.pending e));
    Alcotest.test_case "double cancel is harmless" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let id = Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> ()) in
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 2) (fun () -> ()));
        ignore (Sim.Engine.cancel e id);
        ignore (Sim.Engine.cancel e id);
        Alcotest.(check int) "one pending" 1 (Sim.Engine.pending e);
        Sim.Engine.run e);
    Alcotest.test_case "run ~until stops and advances clock" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let fired = ref 0 in
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> incr fired));
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 10) (fun () -> incr fired));
        Sim.Engine.run e ~until:(Sim.Time.ms 5);
        Alcotest.(check int) "one fired" 1 !fired;
        Alcotest.check time "clock at until" (Sim.Time.ms 5) (Sim.Engine.now e);
        Sim.Engine.run e;
        Alcotest.(check int) "both fired" 2 !fired);
    Alcotest.test_case "schedule_at in the past is rejected" `Quick (fun () ->
        let e = Sim.Engine.create () in
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 5) (fun () -> ()));
        Sim.Engine.run e;
        Alcotest.check_raises "past"
          (Invalid_argument
             "Engine.schedule_at: 1.000ms is before now (5.000ms)")
          (fun () ->
            ignore (Sim.Engine.schedule_at e ~at:(Sim.Time.ms 1) (fun () -> ()))));
    Alcotest.test_case "callbacks can schedule more events" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let count = ref 0 in
        let rec chain n () =
          incr count;
          if n > 0 then
            ignore (Sim.Engine.schedule e ~delay:(Sim.Time.us 1) (chain (n - 1)))
        in
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.us 1) (chain 9));
        Sim.Engine.run e;
        Alcotest.(check int) "chain length" 10 !count);
    Alcotest.test_case "every repeats until told to stop" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let n = ref 0 in
        Sim.Engine.every e ~period:(Sim.Time.ms 1) (fun () ->
            incr n;
            !n < 5);
        Sim.Engine.run e;
        Alcotest.(check int) "five ticks" 5 !n;
        Alcotest.check time "clock" (Sim.Time.ms 5) (Sim.Engine.now e));
    Alcotest.test_case "max_events bounds a run" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let n = ref 0 in
        for _ = 1 to 10 do
          ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> incr n))
        done;
        Sim.Engine.run e ~max_events:3;
        Alcotest.(check int) "three" 3 !n);
    Alcotest.test_case "cancel reports whether it took effect" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let id = Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> ()) in
        Alcotest.(check bool) "first cancel" true (Sim.Engine.cancel e id);
        Alcotest.(check bool) "second cancel" false (Sim.Engine.cancel e id));
    Alcotest.test_case "cancel of a fired id leaves accounting untouched"
      `Quick (fun () ->
        (* Regression: this used to run [forget] unconditionally,
           underflowing live/live_user and driving queue_depth negative. *)
        let m = Sim.Metrics.create () in
        let e = Sim.Engine.create ~metrics:m () in
        let id = Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> ()) in
        Sim.Engine.run e;
        let depth = Sim.Metrics.gauge m ~sub:Sim.Subsystem.Sim "engine.queue_depth" in
        let cancelled =
          Sim.Metrics.counter m ~sub:Sim.Subsystem.Sim "engine.events_cancelled"
        in
        Alcotest.(check int) "pending before" 0 (Sim.Engine.pending e);
        Alcotest.(check (float 1e-9)) "depth before" 0.0 (Sim.Metrics.get depth);
        Alcotest.(check bool) "cancel is a no-op" false (Sim.Engine.cancel e id);
        Alcotest.(check int) "pending unchanged" 0 (Sim.Engine.pending e);
        Alcotest.(check (float 1e-9)) "depth unchanged" 0.0
          (Sim.Metrics.get depth);
        Alcotest.(check int) "cancelled counter unchanged" 0
          (Sim.Metrics.value cancelled);
        (* The user-event count must not have underflowed: a fresh user
           event still keeps an unbounded run alive. *)
        let fired = ref false in
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> fired := true));
        Sim.Engine.run e;
        Alcotest.(check bool) "subsequent events still fire" true !fired);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"random schedule/cancel keeps live = user + daemons" ~count:200
         (* Each element: (daemon?, delay_ms, cancel this index later?) *)
         QCheck2.Gen.(list (triple bool (int_range 1 20) bool))
         (fun plan ->
           let m = Sim.Metrics.create () in
           let e = Sim.Engine.create ~metrics:m () in
           let ids =
             List.map
               (fun (daemon, d, _) ->
                 Sim.Engine.schedule ~daemon e ~delay:(Sim.Time.ms d) (fun () -> ()))
               plan
           in
           let users = ref 0 and daemons = ref 0 in
           List.iter
             (fun (daemon, _, _) ->
               if daemon then incr daemons else incr users)
             plan;
           Sim.Engine.pending e = !users + !daemons
           && List.for_all2
                (fun (daemon, _, do_cancel) id ->
                  if not do_cancel then true
                  else begin
                    let took = Sim.Engine.cancel e id in
                    let again = Sim.Engine.cancel e id in
                    if took then
                      if daemon then decr daemons else decr users;
                    took && not again
                    && Sim.Engine.pending e = !users + !daemons
                    && Sim.Engine.pending e >= 0
                  end)
                plan ids
           &&
           ((* A time bound far past every delay fires daemons too. *)
            Sim.Engine.run e ~until:(Sim.Time.ms 100);
            let depth =
              Sim.Metrics.gauge m ~sub:Sim.Subsystem.Sim "engine.queue_depth"
            in
            Sim.Engine.pending e = 0 && Sim.Metrics.get depth = 0.0)));
    Alcotest.test_case "every rejects a non-positive period" `Quick (fun () ->
        (* Regression: a zero or negative period used to reschedule at
           the same instant forever, livelocking the run. *)
        let e = Sim.Engine.create () in
        Alcotest.check_raises "zero"
          (Invalid_argument "Engine.every: period must be positive")
          (fun () -> Sim.Engine.every e ~period:Sim.Time.zero (fun () -> true));
        Alcotest.check_raises "negative"
          (Invalid_argument "Engine.every: period must be positive")
          (fun () ->
            Sim.Engine.every e ~period:(Sim.Time.ns (-5)) (fun () -> true));
        Alcotest.(check int) "nothing scheduled" 0 (Sim.Engine.pending e));
    Alcotest.test_case "stale handle after slot reuse cancels nothing" `Quick
      (fun () ->
        (* The fired event's arena slot is recycled by the next
           schedule; the old handle must fail its generation check
           rather than cancel the new occupant. *)
        let e = Sim.Engine.create () in
        let stale = Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> ()) in
        Sim.Engine.run e;
        let fired = ref false in
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> fired := true));
        Alcotest.(check bool) "stale cancel refused" false
          (Sim.Engine.cancel e stale);
        Alcotest.(check int) "new event untouched" 1 (Sim.Engine.pending e);
        Sim.Engine.run e;
        Alcotest.(check bool) "new event fired" true !fired);
    Alcotest.test_case "a run samples the depth gauge and flushes it on return"
      `Quick (fun () ->
        (* Inside a run the gauge is written every 256 transitions, not
           per event (which would box a float each time); [run] writes
           the exact depth when it returns. *)
        let m = Sim.Metrics.create () in
        let e = Sim.Engine.create ~metrics:m () in
        let depth = Sim.Metrics.gauge m ~sub:Sim.Subsystem.Sim "engine.queue_depth" in
        let inside = ref (-1.0) in
        ignore
          (Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () ->
               inside := Sim.Metrics.get depth));
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 2) (fun () -> ()));
        Sim.Engine.run e ~max_events:1;
        Alcotest.(check (float 1e-9)) "gauge not written per event" 0.0 !inside;
        Alcotest.(check int) "one left" 1 (Sim.Engine.pending e);
        Alcotest.(check (float 1e-9)) "flushed on return" 1.0
          (Sim.Metrics.get depth);
        Sim.Engine.run e;
        Alcotest.(check (float 1e-9)) "flushed again" 0.0
          (Sim.Metrics.get depth));
    Alcotest.test_case "queue modes fire in identical order" `Quick (fun () ->
        (* Scrambled delays, same-instant ties and mid-run
           cancellations over 40 000 events, enough to drive the queue
           through many resizes: the events must fire in exactly the
           order of their sorted (delay, index) pairs. *)
        let n = 40_000 in
        let delay i = 1 + (i * 2654435761 land 0xFFFF) in
        let e = Sim.Engine.create ~metrics:(Sim.Metrics.create ()) () in
        let log = ref [] in
        let ids =
          Array.init n (fun i ->
              Sim.Engine.schedule e ~delay:(Sim.Time.us (delay i)) (fun () ->
                  log := i :: !log))
        in
        Array.iteri
          (fun i id -> if i mod 7 = 0 then ignore (Sim.Engine.cancel e id))
          ids;
        Sim.Engine.run e;
        let expected =
          List.init n (fun i -> (delay i, i))
          |> List.filter (fun (_, i) -> i mod 7 <> 0)
          |> List.sort compare
        in
        Alcotest.(check (list int))
          "firing order" (List.map snd expected) (List.rev !log);
        Alcotest.check time "clock at the last event"
          (Sim.Time.us (fst (List.nth expected (List.length expected - 1))))
          (Sim.Engine.now e));
    Alcotest.test_case "a callback that runs the engine is refused" `Quick
      (fun () ->
        (* A nested run would fire the events after it while the
           callback's caller still assumes one event at a time. *)
        let e = Sim.Engine.create () in
        let fired = ref [] in
        let refused = ref 0 in
        let nest name run =
          ignore
            (Sim.Engine.schedule e ~delay:(Sim.Time.us 1) (fun () ->
                 fired := name :: !fired;
                 match run () with
                 | () -> ()
                 | exception Invalid_argument msg ->
                     Alcotest.(check string) "message"
                       "Engine.run: called from inside a callback" msg;
                     incr refused))
        in
        nest "run" (fun () -> Sim.Engine.run e);
        nest "run ~until" (fun () -> Sim.Engine.run e ~until:(Sim.Time.ms 1));
        nest "run_until" (fun () -> Sim.Engine.run_until e (Sim.Time.ms 1));
        ignore
          (Sim.Engine.schedule e ~delay:(Sim.Time.us 2) (fun () ->
               fired := "last" :: !fired));
        Sim.Engine.run e;
        Alcotest.(check int) "every nested run refused" 3 !refused;
        Alcotest.(check (list string))
          "the outer run fired each event once, in order"
          [ "run"; "run ~until"; "run_until"; "last" ]
          (List.rev !fired);
        Alcotest.(check int) "nothing left" 0 (Sim.Engine.pending e));
    Alcotest.test_case "an exception from a callback leaves the engine runnable"
      `Quick (fun () ->
        let e = Sim.Engine.create () in
        let fired = ref 0 in
        ignore
          (Sim.Engine.schedule e ~delay:(Sim.Time.us 1) (fun () ->
               failwith "callback"));
        ignore
          (Sim.Engine.schedule e ~delay:(Sim.Time.us 2) (fun () -> incr fired));
        Alcotest.check_raises "escapes the run" (Failure "callback") (fun () ->
            Sim.Engine.run e);
        Alcotest.check time "stopped at the raising event" (Sim.Time.us 1)
          (Sim.Engine.now e);
        Sim.Engine.run e;
        Alcotest.(check int) "the next run fires the rest" 1 !fired);
  ]

let rng_tests =
  [
    Alcotest.test_case "same seed, same stream" `Quick (fun () ->
        let a = Sim.Rng.create ~seed:42L () and b = Sim.Rng.create ~seed:42L () in
        for _ = 1 to 100 do
          Alcotest.(check int64) "det" (Sim.Rng.int64 a) (Sim.Rng.int64 b)
        done);
    Alcotest.test_case "split decorrelates" `Quick (fun () ->
        let a = Sim.Rng.create ~seed:42L () in
        let b = Sim.Rng.split a in
        Alcotest.(check bool) "differ" true (Sim.Rng.int64 a <> Sim.Rng.int64 b));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"float in [0,1)" ~count:1000 QCheck2.Gen.int
         (fun seed ->
           let r = Sim.Rng.create ~seed:(Int64.of_int seed) () in
           let f = Sim.Rng.float r in
           f >= 0.0 && f < 1.0));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"int within bound" ~count:1000
         QCheck2.Gen.(pair int (int_range 1 10000))
         (fun (seed, bound) ->
           let r = Sim.Rng.create ~seed:(Int64.of_int seed) () in
           let v = Sim.Rng.int r bound in
           v >= 0 && v < bound));
    Alcotest.test_case "exponential has roughly the right mean" `Quick (fun () ->
        let r = Sim.Rng.create ~seed:7L () in
        let s = Sim.Stats.Samples.create () in
        for _ = 1 to 20_000 do
          Sim.Stats.Samples.add s (Sim.Rng.exponential r ~mean:3.0)
        done;
        let m = Sim.Stats.Samples.mean s in
        Alcotest.(check bool) "mean near 3" true (m > 2.8 && m < 3.2));
    Alcotest.test_case "normal has roughly the right moments" `Quick (fun () ->
        (* The normal draw under [lognormal], read back through [log]. *)
        let r = Sim.Rng.create ~seed:7L () in
        let xs = Sim.Stats.Samples.create () in
        let s = Sim.Stats.Summary.create () in
        for _ = 1 to 20_000 do
          let x = log (Sim.Rng.lognormal r ~mu:10.0 ~sigma:2.0) in
          Sim.Stats.Samples.add xs x;
          Sim.Stats.Summary.add s x
        done;
        Alcotest.(check bool) "mean" true
          (Float.abs (Sim.Stats.Samples.mean xs -. 10.0) < 0.1);
        Alcotest.(check bool) "sd" true
          (Float.abs (Sim.Stats.Summary.stddev s -. 2.0) < 0.1));
    Alcotest.test_case "zipf ranks within range, rank 1 most popular" `Quick
      (fun () ->
        let r = Sim.Rng.create ~seed:11L () in
        let counts = Array.make 10 0 in
        for _ = 1 to 20_000 do
          let k = Sim.Rng.zipf r ~n:10 ~s:1.2 in
          Alcotest.(check bool) "range" true (k >= 1 && k <= 10);
          counts.(k - 1) <- counts.(k - 1) + 1
        done;
        Alcotest.(check bool) "1 beats 10" true (counts.(0) > counts.(9) * 3));
    Alcotest.test_case "zipf table memoisation never changes the draws" `Quick
      (fun () ->
        (* The per-generator (n, s) table cache is pure memoisation:
           every draw consumes exactly one underlying float.  An
           interleaved sequence over more distributions than the cache
           holds (forcing evictions and rebuilds) must equal draws from
           a fresh generator fast-forwarded to the same stream
           position. *)
        let params =
          Array.init 10 (fun i ->
              (10 + (i * 7), 0.6 +. (0.13 *. float_of_int i)))
        in
        let r = Sim.Rng.create ~seed:99L () in
        let drawn =
          Array.init 60 (fun i ->
              let n, s = params.(i mod Array.length params) in
              Sim.Rng.zipf r ~n ~s)
        in
        Array.iteri
          (fun i v ->
            let fresh = Sim.Rng.create ~seed:99L () in
            for _ = 1 to i do
              ignore (Sim.Rng.float fresh)
            done;
            let n, s = params.(i mod Array.length params) in
            Alcotest.(check int)
              (Printf.sprintf "draw %d" i)
              (Sim.Rng.zipf fresh ~n ~s)
              v)
          drawn);
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let r = Sim.Rng.create ~seed:3L () in
        let arr = Array.init 50 Fun.id in
        Sim.Rng.shuffle r arr;
        let sorted = Array.copy arr in
        Array.sort compare sorted;
        Alcotest.(check bool) "perm" true (sorted = Array.init 50 Fun.id));
    Alcotest.test_case "the seed-42 stream is pinned" `Quick (fun () ->
        (* Every seeded result in the repository hangs off this stream:
           a change to the generator's representation must not move a
           single draw. *)
        let r = Sim.Rng.create ~seed:42L () in
        List.iter
          (fun want -> Alcotest.(check int64) "int64" want (Sim.Rng.int64 r))
          [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L ];
        let child = Sim.Rng.split r in
        Alcotest.(check int64) "split" 0xcf166d564ac11075L (Sim.Rng.int64 child);
        Alcotest.(check int) "int" 250 (Sim.Rng.int r 1000);
        Alcotest.(check (float 0.0)) "float" 0x1.bc8863f47901bp-1 (Sim.Rng.float r));
  ]

(* Minor-heap words per call of [f], over [n] calls.  The values fed to
   the instruments below are float literals, which are statically
   allocated, so every word counted is allocated by the callee. *)
let words_per_call ?(n = 100_000) f =
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. w0) /. Float.of_int n

let sample i =
  match i land 3 with 0 -> 12.5 | 1 -> 0.25 | 2 -> 830.0 | _ -> 4.75

(* The same values in ns, plus one past 2^31 ns, whose square takes the
   dist's two-int path. *)
let sample_ns i =
  match i land 3 with
  | 0 -> 12_500
  | 1 -> 250
  | 2 -> 830_000
  | _ -> 3_000_000_000

(* Minor-heap and major-heap words [f ()] allocates. *)
let words_of f =
  let m0 = Gc.minor_words () and (_, _, j0) = Gc.counters () in
  f ();
  let m1 = Gc.minor_words () and (_, _, j1) = Gc.counters () in
  (m1 -. m0, j1 -. j0)

(* The per-cell instruments: every cell a link sends books a queue-delay
   sample through [Metrics.observe].  At millions of cells a run, a
   boxed float or time per call is most of the simulator's garbage. *)
let alloc_tests =
  let zero name f =
    Alcotest.test_case (name ^ " allocates nothing") `Quick (fun () ->
        Alcotest.(check (float 0.001)) "minor words per call" 0.0
          (words_per_call f))
  in
  [
    zero "Summary.add"
      (let s = Sim.Stats.Summary.create () in
       fun i -> Sim.Stats.Summary.add s (sample i));
    zero "Rng.int"
      (let r = Sim.Rng.create ~seed:7L () in
       fun i -> if Sim.Rng.int r (1 + i) < 0 then Alcotest.fail "negative draw");
    zero "Metrics.observe"
      (let m = Sim.Metrics.create () in
       let d = Sim.Metrics.dist m ~sub:Sim.Subsystem.Atm "alloc.guard_us" in
       (* Past the raw samples and with every octave seen, as on a
          link's hot path. *)
       for i = 1 to 2_000 do
         Sim.Metrics.observe d (sample_ns i)
       done;
       fun i -> Sim.Metrics.observe d (sample_ns i));
    (* Every component reads the clock and stamps, compares and adds
       times per cell or event: a boxed time would be a block each. *)
    zero "Engine.now and Time arithmetic"
      (let e = Sim.Engine.create () in
       ignore (Sim.Engine.schedule e ~delay:(Sim.Time.us 3) (fun () -> ()));
       Sim.Engine.run e;
       let latest = ref Sim.Time.zero in
       fun i ->
         let now = Sim.Engine.now e in
         let t = Sim.Time.(add (mul now (i land 7)) (div (ns i) 3)) in
         latest := Sim.Time.max !latest (Sim.Time.sub t now);
         if Sim.Time.(!latest < zero) then Alcotest.fail "negative time");
    Alcotest.test_case "sorting 100 000 samples allocates nothing" `Quick
      (fun () ->
        (* The query that sorts against the same query on the sorted
           store, which only boxes the float it returns.  Sorting a copy
           through a comparison closure allocated 108 minor words a
           sample in the dev profile, and the copy 100 000 major words. *)
        let s = Sim.Stats.Samples.create () in
        let r = Sim.Rng.create ~seed:9L () in
        for _ = 1 to 100_000 do
          Sim.Stats.Samples.add s (Sim.Rng.float r)
        done;
        let query () = ignore (Sim.Stats.Samples.max s) in
        let sort_minor, sort_major = words_of query in
        let read_minor, read_major = words_of query in
        Alcotest.(check (float 0.0)) "minor words of the sort" 0.0
          (sort_minor -. read_minor);
        Alcotest.(check (float 0.0)) "major words of the sort" 0.0
          (sort_major -. read_major));
    (* Past the ring's chunks, which it allocates as it first fills. *)
    zero "Trace.flow_step with a constant name"
      (let tr = Sim.Trace.create ~capacity:4_096 () in
       Sim.Trace.set_flows tr true;
       let record i =
         Sim.Trace.flow_step tr ~ts:(Sim.Time.ns i) ~sub:Sim.Subsystem.Atm
           ~cat:"hop" ~flow:i "sw:s1"
       in
       for i = 1 to 4_096 do
         record i
       done;
       record);
    (* The arena engine's contract: once its arena and calendar have
       settled, scheduling and firing an event allocates nothing.  No
       run holds more than about 10 250 live events. *)
    Alcotest.test_case
      "schedule and fire at 10 000 live events allocates nothing" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let spread i = Sim.Time.ns (1 + (i * 2654435761 land 0xFFFFF)) in
        let delays = Array.init 1024 spread and k = ref 0 in
        let rec self () =
          k := (!k + 1) land 1023;
          ignore (Sim.Engine.schedule e ~delay:delays.(!k) self)
        in
        for i = 1 to 10_000 do
          ignore (Sim.Engine.schedule e ~delay:(spread i) self)
        done;
        Sim.Engine.run e ~max_events:100_000;
        let minor, _ =
          words_of (fun () -> Sim.Engine.run e ~max_events:200_000)
        in
        Alcotest.(check (float 0.001)) "minor words per event" 0.0
          (minor /. 200_000.0));
    (* A link books a 32 KB frame's 684 queue delays as one run; an
       idle link books the same run for every such frame, and the dist
       adds its weight in a pending table, which allocates nothing. *)
    Alcotest.test_case "10 000 repeats of a 684-cell run allocate nothing"
      `Quick (fun () ->
        let m = Sim.Metrics.create () in
        let d = Sim.Metrics.dist m ~sub:Sim.Subsystem.Atm "alloc.run_us" in
        let book () =
          Sim.Metrics.observe_run d ~first:0 ~step:4_240 ~count:684;
          Sim.Metrics.observe_run d ~first:0 ~step:4_240 ~count:2
        in
        for _ = 1 to 10 do
          book ()
        done;
        let w0 = Gc.minor_words () in
        for _ = 1 to 10_000 do
          book ()
        done;
        Alcotest.(check (float 0.0)) "minor words" 0.0 (Gc.minor_words () -. w0));
    (* An unmonitored observer: one load and one branch. *)
    zero "Metrics.sample with no sink"
      (let m = Sim.Metrics.create () in
       let o = Sim.Metrics.observer m ~sub:Sim.Subsystem.Pfs "alloc.win_us" in
       fun i -> Sim.Metrics.sample o (sample i));
  ]

(* Adversarial orders for the sort, each as the [i]th of [n] values.
   Musser's median-of-three killer drives a median-of-three quicksort
   quadratic; [sort_floats] reaches its depth-limit heap sort on it
   from 100 values on, and on the organ pipe from 1 000. *)
let sort_shapes =
  let killer n =
    let k = n / 2 in
    fun i ->
      if i >= 2 * k then Float.of_int i
      else if i >= k then Float.of_int (2 * (i - k + 1))
      else if i mod 2 = 0 then Float.of_int (i + 1)
      else Float.of_int (k + i)
  in
  [
    ("sorted", fun _ i -> Float.of_int i);
    ("reversed", fun n i -> Float.of_int (n - i));
    ("organ pipe", fun n i -> Float.of_int (Int.min i (n - i)));
    ("all equal", fun _ _ -> 1.0);
    ("few distinct", fun _ i -> Float.of_int (i * 7_919 mod 5));
    ("median-of-three killer", killer);
  ]

let stats_tests =
  [
    Alcotest.test_case "empty samples: every statistic raises" `Quick (fun () ->
        (* Regression: [mean] used to return 0.0 on an empty store
           while min/max/percentile raised, so an empty sample set
           could masquerade as a measured zero. *)
        let s = Sim.Stats.Samples.create () in
        Alcotest.check_raises "mean" (Invalid_argument "Samples.mean: empty")
          (fun () -> ignore (Sim.Stats.Samples.mean s));
        Alcotest.check_raises "min" (Invalid_argument "Samples.min: empty")
          (fun () -> ignore (Sim.Stats.Samples.min s));
        Alcotest.check_raises "max" (Invalid_argument "Samples.max: empty")
          (fun () -> ignore (Sim.Stats.Samples.max s));
        Alcotest.check_raises "percentile"
          (Invalid_argument "Samples.percentile: empty") (fun () ->
            ignore (Sim.Stats.Samples.percentile s 50.0));
        (* And the store still works once populated. *)
        List.iter (Sim.Stats.Samples.add s) [ 1.0; 2.0; 3.0 ];
        Alcotest.(check (float 1e-9)) "mean" 2.0 (Sim.Stats.Samples.mean s));
    Alcotest.test_case "summary of known values" `Quick (fun () ->
        let s = Sim.Stats.Summary.create () in
        List.iter (Sim.Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
        Alcotest.(check (float 1e-9)) "sd" (sqrt (32.0 /. 7.0))
          (Sim.Stats.Summary.stddev s));
    Alcotest.test_case "percentiles interpolate" `Quick (fun () ->
        let s = Sim.Stats.Samples.create () in
        for i = 1 to 100 do
          Sim.Stats.Samples.add s (Float.of_int i)
        done;
        Alcotest.(check (float 1e-6)) "p0" 1.0 (Sim.Stats.Samples.percentile s 0.0);
        Alcotest.(check (float 1e-6)) "p100" 100.0 (Sim.Stats.Samples.percentile s 100.0);
        Alcotest.(check (float 0.5)) "p50" 50.5 (Sim.Stats.Samples.percentile s 50.0);
        Alcotest.(check (float 0.5)) "p99" 99.0 (Sim.Stats.Samples.percentile s 99.0));
    Alcotest.test_case "percentile edges" `Quick (fun () ->
        (* a single sample answers every quantile *)
        let one = Sim.Stats.Samples.create () in
        Sim.Stats.Samples.add one 42.0;
        List.iter
          (fun q ->
            Alcotest.(check (float 1e-9)) "single" 42.0
              (Sim.Stats.Samples.percentile one q))
          [ 0.0; 50.0; 99.0; 100.0 ];
        (* two samples: endpoints exact, midpoint interpolated *)
        let two = Sim.Stats.Samples.create () in
        Sim.Stats.Samples.add two 10.0;
        Sim.Stats.Samples.add two 20.0;
        Alcotest.(check (float 1e-9)) "p0" 10.0
          (Sim.Stats.Samples.percentile two 0.0);
        Alcotest.(check (float 1e-9)) "p100" 20.0
          (Sim.Stats.Samples.percentile two 100.0);
        Alcotest.(check (float 1e-9)) "p50" 15.0
          (Sim.Stats.Samples.percentile two 50.0);
        Alcotest.(check (float 1e-9)) "p75" 17.5
          (Sim.Stats.Samples.percentile two 75.0));
    Alcotest.test_case "samples can be added after a query" `Quick (fun () ->
        let s = Sim.Stats.Samples.create () in
        Sim.Stats.Samples.add s 10.0;
        ignore (Sim.Stats.Samples.percentile s 50.0);
        Sim.Stats.Samples.add s 0.0;
        Alcotest.(check (float 1e-9)) "min" 0.0 (Sim.Stats.Samples.min s));
    (* [sort_floats] replaces [Array.sort Float.compare]: the same
       comparisons and moves, so the same bits wherever the order has
       ties ([0.0] and [-0.0], NaNs of any payload). *)
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"the in-place sort reads as Array.sort's"
         ~count:300
         QCheck2.Gen.(
           let special =
             oneofl
               [
                 0.0; -0.0; infinity; neg_infinity; Float.nan;
                 Int64.float_of_bits 0x7ff8_0000_0000_0001L;
                 Int64.float_of_bits 0xfff8_0000_0000_0000L;
                 Int64.float_of_bits 0x7ff0_0000_0000_0001L;
                 Int64.float_of_bits 0xfff4_dead_beef_0000L;
                 Float.min_float; -.Float.max_float;
               ]
           in
           let value =
             frequency
               [
                 (3, special);
                 (4, map Float.of_int (int_range (-5) 5));
                 (3, float);
               ]
           in
           (* An adversarial order, scaled, and with at most one special
              value planted in it.  A NaN, or a zero of the sign the
              shape does not hold, sends the sort to its tie-exact heap
              sort; anything else keeps the introsort. *)
           let shaped =
             map
               (fun (((_, shape), n), (scale, plant)) ->
                 List.init n (fun i ->
                     match plant with
                     | Some (at, x) when at mod Int.max 1 n = i -> x
                     | _ -> scale *. shape n i))
               (pair
                  (pair (oneofl sort_shapes) (int_range 0 2_000))
                  (pair
                     (oneofl [ 1.0; -1.0; 0.5 ])
                     (option (pair nat special))))
           in
           pair
             (frequency
                [ (1, list_size (int_range 0 2_000) value); (1, shaped) ])
             (int_range 0 8))
         (fun (values, pad) ->
           let bits = Int64.bits_of_float in
           let same_bits x y = Int64.equal (bits x) (bits y) in
           let n = List.length values in
           let want = Array.of_list values in
           Array.sort Float.compare want;
           (* The kernel sorts a prefix in place and leaves the rest. *)
           let tail = Array.init pad (fun i -> Float.of_int (-i)) in
           let a = Array.append (Array.of_list values) tail in
           Sim.Stats.sort_floats a n;
           let prefix_ok = Array.for_all2 same_bits want (Array.sub a 0 n) in
           let rest_ok = Array.for_all2 same_bits tail (Array.sub a n pad) in
           (* And the store's statistics read the same bits. *)
           let stats_ok =
             n = 0
             ||
             let s = Sim.Stats.Samples.create () in
             List.iter (Sim.Stats.Samples.add s) values;
             List.for_all
               (fun q ->
                 same_bits
                   (Sim.Stats.percentile ~n (Array.get want) q)
                   (Sim.Stats.Samples.percentile s q))
               [ 0.0; 50.0; 95.0; 99.0; 100.0 ]
             && same_bits want.(0) (Sim.Stats.Samples.min s)
             && same_bits want.(n - 1) (Sim.Stats.Samples.max s)
           in
           prefix_ok && rest_ok && stats_ok));
    Alcotest.test_case "sort cost per n log n stays flat from 1 000 to 100 000"
      `Quick (fun () ->
        (* Host time per n log2 n, best of 5 repetitions that alternate
           the sizes.  A repetition sorts a copy of each of the 100 000
           values' chunks of n: at 1 000 that is 100 different inputs,
           since sorting one input over and over trains the branch
           predictor on its comparisons (random input then read half
           its cost). *)
        let cost input =
          let src = Array.init 100_000 input and a = Array.make 100_000 0.0 in
          let once n =
            let t0 = Unix.gettimeofday () in
            for k = 0 to (100_000 / n) - 1 do
              Array.blit src (k * n) a 0 n;
              Sim.Stats.sort_floats a n
            done;
            let nf = Float.of_int n in
            (Unix.gettimeofday () -. t0) /. (100_000.0 *. Float.log2 nf)
          in
          let small = ref infinity and big = ref infinity in
          for _ = 1 to 5 do
            small := Float.min !small (once 1_000);
            big := Float.min !big (once 100_000)
          done;
          (!small, !big)
        in
        List.iter
          (fun (name, input) ->
            let small, big = cost input in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %.2f -> %.2f ns per n log n" name
                 (small *. 1e9) (big *. 1e9))
              true
              (big <= 3.0 *. small))
          [
            ("sorted", Float.of_int);
            ("reversed", fun i -> Float.of_int (-i));
            ("all equal", fun _ -> 1.0);
            ( "random",
              let r = Sim.Rng.create ~seed:3L () in
              fun _ -> Sim.Rng.float r );
          ]);
    Alcotest.test_case
      "a median-of-three killer sorts within 5x of random values" `Quick
      (fun () ->
        (* Host time for 100 000 values, best of 5.  The depth limit
           hands the killer's deep ranges to the heap sort, at about
           twice the cost of random values; without it the quicksort
           went quadratic, at 130 times. *)
        let n = 100_000 in
        let best input =
          let src = Array.init n input and a = Array.make n 0.0 in
          let t = ref infinity in
          for _ = 1 to 5 do
            Array.blit src 0 a 0 n;
            let t0 = Unix.gettimeofday () in
            Sim.Stats.sort_floats a n;
            t := Float.min !t (Unix.gettimeofday () -. t0)
          done;
          !t
        in
        let killer = best (List.assoc "median-of-three killer" sort_shapes n)
        and random =
          best
            (let r = Sim.Rng.create ~seed:3L () in
             fun _ -> Sim.Rng.float r)
        in
        Alcotest.(check bool)
          (Printf.sprintf "killer %.1f ms, random %.1f ms" (killer *. 1e3)
             (random *. 1e3))
          true
          (killer <= 5.0 *. random));
    Alcotest.test_case "100 000 adversarial values read as Array.sort's"
      `Quick (fun () ->
        (* Large enough that the killer and the organ pipe reach the
           depth-limit heap sort, on both signs. *)
        List.iter
          (fun (name, shape) ->
            List.iter
              (fun scale ->
                let a =
                  Array.init 100_000 (fun i -> scale *. shape 100_000 i)
                in
                let want = Array.copy a in
                Array.sort Float.compare want;
                Sim.Stats.sort_floats a 100_000;
                Alcotest.(check bool)
                  (Printf.sprintf "%s x %g" name scale)
                  true
                  (Array.for_all2
                     (fun x y ->
                       Int64.equal (Int64.bits_of_float x)
                         (Int64.bits_of_float y))
                     want a))
              [ 1.0; -1.0 ])
          sort_shapes);
  ]

(* ------------------------------------------------------------------ *)
(* The flat sink against a list model: every record a sink takes, as a
   list of event records with the ring's drop rule.                     *)

module Tr = Sim.Trace

type rec_op = {
  r_ts : int;
  r_sub : Sim.Subsystem.t;
  r_cat : string;
  r_flow : int;
  r_args : (string * Tr.arg) list;
  r_name : string;
}

type trace_op =
  | Op_instant of rec_op
  | Op_span of rec_op * int * (string * Tr.arg) list  (* end ts, end args *)
  | Op_flow of Tr.phase * rec_op
  | Op_resize of int option
  | Op_alloc
  | Op_enable of bool
  | Op_flows of bool

type model = {
  mutable m_cap : int option;
  mutable m_on : bool;
  mutable m_flows : bool;
  mutable m_evs : Tr.event list;  (* oldest first *)
  mutable m_dropped : int;
  mutable m_next : int;
}

let model_push m e =
  if m.m_on then begin
    m.m_evs <- m.m_evs @ [ e ];
    match m.m_cap with
    | Some c when List.length m.m_evs > c ->
        m.m_evs <- List.tl m.m_evs;
        m.m_dropped <- m.m_dropped + 1
    | _ -> ()
  end

let model_event phase ?dur ?(args = []) r =
  {
    Tr.ev_ts = Sim.Time.ns r.r_ts;
    ev_dur = Option.map Sim.Time.ns dur;
    ev_phase = phase;
    ev_sub = r.r_sub;
    ev_cat = r.r_cat;
    ev_name = r.r_name;
    ev_flow = r.r_flow;
    ev_args = args;
  }

let apply_op tr m op =
  match op with
  | Op_instant r ->
      Tr.instant tr ~ts:(Sim.Time.ns r.r_ts) ~sub:r.r_sub ~cat:r.r_cat
        ~args:r.r_args r.r_name;
      model_push m
        (model_event Tr.Instant ~args:r.r_args { r with r_flow = Tr.no_flow })
  | Op_span (r, te, extra) ->
      Tr.span_end tr ~ts:(Sim.Time.ns te) ~args:extra
        (Tr.span_begin tr ~ts:(Sim.Time.ns r.r_ts) ~sub:r.r_sub ~cat:r.r_cat
           ~flow:r.r_flow ~args:r.r_args r.r_name);
      model_push m
        (model_event Tr.Complete
           ~dur:(Stdlib.max 0 (te - r.r_ts))
           ~args:(r.r_args @ extra) r)
  | Op_flow (phase, r) ->
      let ts = Sim.Time.ns r.r_ts and flow = r.r_flow in
      (match phase with
      | Tr.Flow_start ->
          Tr.flow_start tr ~ts ~sub:r.r_sub ~cat:r.r_cat ~args:r.r_args ~flow
            r.r_name
      | Tr.Flow_step ->
          Tr.flow_step tr ~ts ~sub:r.r_sub ~cat:r.r_cat ~args:r.r_args ~flow
            r.r_name
      | _ -> Tr.flow_end tr ~ts ~sub:r.r_sub ~cat:r.r_cat ~flow r.r_name);
      if m.m_flows then
        model_push m
          (model_event phase
             ~args:(if phase = Tr.Flow_end then [] else r.r_args)
             r)
  | Op_resize cap ->
      Tr.set_capacity tr cap;
      m.m_cap <- cap;
      m.m_evs <- [];
      m.m_dropped <- 0
  | Op_alloc ->
      ignore (Tr.alloc_flow tr);
      m.m_next <- m.m_next + 1
  | Op_enable b ->
      Tr.enable tr b;
      m.m_on <- b
  | Op_flows b ->
      Tr.set_flows tr b;
      m.m_flows <- b

let model_merge ~into src =
  let shift = into.m_next - 1 in
  List.iter
    (fun (e : Tr.event) ->
      model_push into
        (if e.ev_flow < 0 then e else { e with ev_flow = e.ev_flow + shift }))
    src.m_evs;
  into.m_dropped <- into.m_dropped + src.m_dropped;
  into.m_next <- into.m_next + src.m_next - 1

(* An event as a string, floats by their bits. *)
let canon_event (e : Tr.event) =
  let arg = function
    | Tr.Str s -> Printf.sprintf "S%S" s
    | Tr.Int i -> Printf.sprintf "I%d" i
    | Tr.Float f -> Printf.sprintf "F%Lx" (Int64.bits_of_float f)
    | Tr.Bool b -> Printf.sprintf "B%b" b
  in
  Printf.sprintf "%d %s %s %s %S %S %d [%s]"
    (Sim.Time.to_ns e.ev_ts)
    (match e.ev_dur with
    | None -> "-"
    | Some d -> string_of_int (Sim.Time.to_ns d))
    (match e.ev_phase with
    | Tr.Instant -> "I"
    | Tr.Complete -> "X"
    | Tr.Flow_start -> "s"
    | Tr.Flow_step -> "t"
    | Tr.Flow_end -> "f")
    (Sim.Subsystem.to_string e.ev_sub)
    e.ev_cat e.ev_name e.ev_flow
    (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ arg v) e.ev_args))

(* The exporters as they were before they streamed: each builds the
   whole [Json.t] tree (Chrome) or text (JSONL) of an event list at
   once.  The streamed exporters must print exactly these bytes. *)
let tree_json_of_args args =
  Sim.Json.Obj
    (List.map
       (fun (k, v) ->
         ( k,
           match v with
           | Tr.Str s -> Sim.Json.String s
           | Tr.Int i -> Sim.Json.Int i
           | Tr.Float f -> Sim.Json.Float f
           | Tr.Bool b -> Sim.Json.Bool b ))
       args)

let tree_chrome (evs : Tr.event list) ~dropped =
  let lanes =
    List.sort_uniq Sim.Subsystem.compare
      (List.map (fun (e : Tr.event) -> e.ev_sub) evs)
  in
  let meta name tid args =
    Sim.Json.Obj
      [
        ("name", Sim.Json.String name);
        ("ph", Sim.Json.String "M");
        ("pid", Sim.Json.Int 1);
        ("tid", Sim.Json.Int tid);
        ("args", Sim.Json.Obj args);
      ]
  in
  let process_meta =
    meta "process_name" 0 [ ("name", Sim.Json.String "pegasus") ]
  and thread_meta sub =
    meta "thread_name" (Sim.Subsystem.lane sub)
      [ ("name", Sim.Json.String (Sim.Subsystem.to_string sub)) ]
  and dropped_meta =
    meta "trace_dropped" 0 [ ("dropped", Sim.Json.Int dropped) ]
  in
  let event (e : Tr.event) =
    let base =
      [
        ("name", Sim.Json.String e.ev_name);
        ( "cat",
          Sim.Json.String (if e.ev_cat = "" then "default" else e.ev_cat) );
        ("ts", Sim.Json.Float (Sim.Time.to_us_f e.ev_ts));
        ("pid", Sim.Json.Int 1);
        ("tid", Sim.Json.Int (Sim.Subsystem.lane e.ev_sub));
        ( "args",
          tree_json_of_args
            ((("subsystem", Tr.Str (Sim.Subsystem.to_string e.ev_sub))
             :: (if e.ev_flow >= 0 then [ ("flow", Tr.Int e.ev_flow) ] else []))
            @ e.ev_args) );
      ]
    in
    let ph p rest = Sim.Json.Obj ((("ph", Sim.Json.String p) :: rest) @ base) in
    match e.ev_phase with
    | Tr.Instant -> ph "i" [ ("s", Sim.Json.String "t") ]
    | Tr.Complete ->
        let dur = Option.value ~default:Sim.Time.zero e.ev_dur in
        ph "X" [ ("dur", Sim.Json.Float (Sim.Time.to_us_f dur)) ]
    | Tr.Flow_start -> ph "s" [ ("id", Sim.Json.Int e.ev_flow) ]
    | Tr.Flow_step -> ph "t" [ ("id", Sim.Json.Int e.ev_flow) ]
    | Tr.Flow_end ->
        ph "f" [ ("bp", Sim.Json.String "e"); ("id", Sim.Json.Int e.ev_flow) ]
  in
  Sim.Json.to_string
    (Sim.Json.Obj
       [
         ( "traceEvents",
           Sim.Json.List
             ((process_meta :: List.map thread_meta lanes)
             @ List.map event evs @ [ dropped_meta ]) );
         ("displayTimeUnit", Sim.Json.String "ns");
         ("otherData", Sim.Json.Obj [ ("dropped", Sim.Json.Int dropped) ]);
       ])
  ^ "\n"

let tree_jsonl (evs : Tr.event list) ~dropped =
  let buf = Buffer.create 256 in
  List.iter
    (fun (e : Tr.event) ->
      Sim.Json.to_buffer buf
        (Sim.Json.Obj
           ([
              ("ts_ns", Sim.Json.Int (Sim.Time.to_ns e.ev_ts));
              ( "ph",
                Sim.Json.String
                  (match e.ev_phase with
                  | Tr.Instant -> "I"
                  | Tr.Complete -> "X"
                  | Tr.Flow_start -> "s"
                  | Tr.Flow_step -> "t"
                  | Tr.Flow_end -> "f") );
              ("sub", Sim.Json.String (Sim.Subsystem.to_string e.ev_sub));
              ("cat", Sim.Json.String e.ev_cat);
              ("name", Sim.Json.String e.ev_name);
            ]
           @ (if e.ev_flow >= 0 then [ ("flow", Sim.Json.Int e.ev_flow) ]
              else [])
           @ (match e.ev_dur with
             | Some d -> [ ("dur_ns", Sim.Json.Int (Sim.Time.to_ns d)) ]
             | None -> [])
           @ [ ("args", tree_json_of_args e.ev_args) ]));
      Buffer.add_char buf '\n')
    evs;
  Sim.Json.to_buffer buf
    (Sim.Json.Obj
       [
         ("meta", Sim.Json.String "dropped");
         ("dropped", Sim.Json.Int dropped);
       ]);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Names and subsystems come from small pools (literals, so a record
   site's string is physically the same each time) plus fresh strings
   equal to pool members and new ones; floats include both zeros and
   NaNs of several payloads. *)
let gen_trace_op =
  let open QCheck2.Gen in
  let fresh pool = map (fun s -> s ^ "") (oneofl pool) in
  let name =
    oneof
      [
        oneofl [ "hop"; "sw:a"; "a"; "" ];
        fresh [ "hop"; "a" ];
        map (fun i -> "n" ^ string_of_int i) (int_bound 8);
      ]
  in
  let cat = oneof [ oneofl [ ""; "hop"; "flow" ]; fresh [ "hop" ] ] in
  let sub = oneofl Sim.Subsystem.[ Atm; Nemesis; Pfs; Rpc; Naming; Sim ] in
  let float_arg =
    oneofl
      [
        0.0;
        -0.0;
        Float.nan;
        Int64.float_of_bits 0x7FF0_0000_0000_0001L;
        Int64.float_of_bits 0xFFF8_0000_0000_0000L;
        Int64.float_of_bits 0x7FF8_0000_0000_DEADL;
        1.5;
        Float.infinity;
      ]
  in
  let arg =
    oneof
      [
        map
          (fun s -> Tr.Str s)
          (oneof [ oneofl [ "x"; "y"; "" ]; fresh [ "x" ] ]);
        map (fun i -> Tr.Int i) (int_range (-3) 3);
        map (fun b -> Tr.Bool b) bool;
        map (fun f -> Tr.Float f) float_arg;
      ]
  in
  (* Single-float lists collide often, so an interner that compared
     floats by value would hand [-0.0] the id of [0.0]. *)
  let args =
    oneof
      [
        return [];
        return [ ("stream", Tr.Str "s") ];
        map (fun f -> [ ("v", Tr.Float f) ]) float_arg;
        list_size (int_bound 3) (pair (oneofl [ "stream"; "k"; "" ]) arg);
      ]
  in
  let mostly_true = frequency [ (3, return true); (1, return false) ] in
  let rec_op =
    map
      (fun ((r_ts, r_sub, r_cat), (r_flow, r_args, r_name)) ->
        { r_ts; r_sub; r_cat; r_flow; r_args; r_name })
      (pair
         (triple (int_bound 1_000) sub cat)
         (triple (int_range (-2) 12) args name))
  in
  frequency
    [
      (6, map (fun r -> Op_instant r) rec_op);
      ( 3,
        map3
          (fun r te extra -> Op_span (r, te, extra))
          rec_op (int_bound 1_000) args );
      ( 8,
        map2
          (fun ph r -> Op_flow (ph, r))
          (oneofl Tr.[ Flow_start; Flow_step; Flow_end ])
          rec_op );
      ( 1,
        map
          (fun c -> Op_resize c)
          (oneof [ return None; map Option.some (int_range 1 8) ]) );
      (1, return Op_alloc);
      (1, map (fun b -> Op_enable b) mostly_true);
      (1, map (fun b -> Op_flows b) mostly_true);
    ]

(* A sink: a ring of capacity 1-8 or unbounded, enabled or not, flows
   on or off. *)
let gen_sink =
  QCheck2.Gen.(
    triple
      (oneof [ return None; map Option.some (int_range 1 8) ])
      (frequency [ (4, return true); (1, return false) ])
      bool)

let make_sink (cap, on, flows) =
  let tr =
    match cap with
    | Some capacity -> Tr.create ~capacity ~enabled:on ()
    | None -> Tr.create ~unbounded:true ~enabled:on ()
  in
  Tr.set_flows tr flows;
  ( tr,
    {
      m_cap = cap;
      m_on = on;
      m_flows = flows;
      m_evs = [];
      m_dropped = 0;
      m_next = 1;
    } )

let check_sink what tr m =
  let got = List.map canon_event (Tr.events tr)
  and want = List.map canon_event m.m_evs in
  if got <> want then
    QCheck2.Test.fail_reportf "%s: events@.%s@.model@.%s" what
      (String.concat "\n" got) (String.concat "\n" want);
  if Tr.length tr <> List.length m.m_evs || Tr.dropped tr <> m.m_dropped then
    QCheck2.Test.fail_reportf "%s: length %d dropped %d, model %d and %d" what
      (Tr.length tr) (Tr.dropped tr) (List.length m.m_evs) m.m_dropped;
  List.iter
    (fun (format, got, tree) ->
      let want = tree m.m_evs ~dropped:m.m_dropped in
      if got <> want then
        QCheck2.Test.fail_reportf "%s: %s@.%s@.model@.%s" what format got want)
    [
      ("jsonl", Tr.to_jsonl tr, tree_jsonl);
      ("chrome", Tr.to_chrome tr, tree_chrome);
    ]

(* A parent records, a child records and merges into it, the parent
   records again; both are checked against their models. *)
let trace_model_property =
  QCheck2.Test.make ~name:"the flat sink records what a list model records"
    ~count:500
    QCheck2.Gen.(
      pair (pair gen_sink gen_sink)
        (triple
           (list_size (int_bound 40) gen_trace_op)
           (list_size (int_bound 40) gen_trace_op)
           (pair bool (list_size (int_bound 20) gen_trace_op))))
    (fun ((parent, child), (pre, kid_ops, (merge, post))) ->
      let tr, m = make_sink parent in
      List.iter (apply_op tr m) pre;
      check_sink "before the merge" tr m;
      let kid, km = make_sink child in
      List.iter (apply_op kid km) kid_ops;
      check_sink "child" kid km;
      if merge then begin
        Tr.merge ~into:tr kid;
        model_merge ~into:m km
      end;
      List.iter (apply_op tr m) post;
      check_sink "after the merge" tr m;
      Tr.alloc_flow tr = m.m_next)

(* Both files, written through the streamed exporter, against the tree
   exporters over the same events. *)
let check_files what tr =
  let read path =
    In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
  in
  let path = Filename.temp_file "trace" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.for_all
        (fun (format, write, tree) ->
          write tr path;
          let got = read path
          and want = tree (Tr.events tr) ~dropped:(Tr.dropped tr) in
          got = want
          || QCheck2.Test.fail_reportf "%s: %s file@.%s@.tree@.%s" what format
               got want)
        [
          ("chrome", Tr.write_chrome, tree_chrome);
          ("jsonl", Tr.write_jsonl, tree_jsonl);
        ])

let export_file_property =
  QCheck2.Test.make ~name:"exported files equal the tree exporters' bytes"
    ~count:200
    QCheck2.Gen.(
      triple gen_sink gen_sink (list_size (int_bound 60) gen_trace_op))
    (fun (parent, child, ops) ->
      let tr, m = make_sink parent and kid, km = make_sink child in
      (* Every third op goes to the child. *)
      List.iteri
        (fun i op ->
          if i mod 3 = 0 then apply_op kid km op else apply_op tr m op)
        ops;
      Tr.merge ~into:tr kid;
      check_files "child" kid && check_files "merged" tr)

(* A bare instant in the [Sim] lane, and the names a sink retains. *)
let note tr ts name = Sim.Trace.instant tr ~ts ~sub:Sim.Subsystem.Sim name
let names tr = List.map (fun e -> e.Sim.Trace.ev_name) (Sim.Trace.events tr)

let trace_tests =
  [
    Alcotest.test_case "records in order" `Quick (fun () ->
        let tr = Sim.Trace.create ~capacity:8 () in
        note tr (Sim.Time.ms 1) "one";
        note tr (Sim.Time.ms 2) "two";
        Alcotest.(check (list string)) "order" [ "one"; "two" ] (names tr));
    Alcotest.test_case "ring overwrites oldest" `Quick (fun () ->
        let tr = Sim.Trace.create ~capacity:3 () in
        List.iter (note tr Sim.Time.zero) [ "a"; "b"; "c"; "d" ];
        Alcotest.(check int) "len" 3 (Sim.Trace.length tr);
        Alcotest.(check (list string)) "tail" [ "b"; "c"; "d" ] (names tr));
    Alcotest.test_case "disabled trace records nothing" `Quick (fun () ->
        let tr = Sim.Trace.create ~enabled:false () in
        note tr Sim.Time.zero "x";
        Alcotest.(check int) "empty" 0 (Sim.Trace.length tr));
    Alcotest.test_case "ring counts dropped events" `Quick (fun () ->
        let tr = Sim.Trace.create ~capacity:3 () in
        for i = 1 to 10 do
          note tr (Sim.Time.ms i) (Printf.sprintf "e%d" i)
        done;
        Alcotest.(check int) "retained" 3 (Sim.Trace.length tr);
        Alcotest.(check int) "dropped" 7 (Sim.Trace.dropped tr));
    Alcotest.test_case "typed events: instant, complete, span" `Quick (fun () ->
        let tr = Sim.Trace.create () in
        Sim.Trace.instant tr ~ts:(Sim.Time.us 1) ~sub:Sim.Subsystem.Atm
          ~cat:"cell" ~args:[ ("vci", Sim.Trace.Int 42) ] "drop";
        let sp =
          Sim.Trace.span_begin tr ~ts:(Sim.Time.us 10) ~sub:Sim.Subsystem.Rpc
            ~cat:"call"
            ~args:[ ("iface", Sim.Trace.Str "pfs") ]
            "pfs.read"
        in
        Alcotest.(check int) "span_begin records nothing" 1
          (Sim.Trace.length tr);
        Sim.Trace.span_end tr ~ts:(Sim.Time.us 25)
          ~args:[ ("ok", Sim.Trace.Bool true) ]
          sp;
        match Sim.Trace.events tr with
        | [ i; s ] ->
            Alcotest.(check bool) "instant phase" true
              (i.Sim.Trace.ev_phase = Sim.Trace.Instant);
            Alcotest.(check string) "instant cat" "cell" i.Sim.Trace.ev_cat;
            Alcotest.(check bool) "a span is a complete event" true
              (s.Sim.Trace.ev_phase = Sim.Trace.Complete);
            Alcotest.(check string) "span name" "pfs.read" s.Sim.Trace.ev_name;
            Alcotest.check time "span dur" (Sim.Time.us 15)
              (Option.get s.Sim.Trace.ev_dur);
            Alcotest.(check int) "span args merged" 2
              (List.length s.Sim.Trace.ev_args)
        | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
    Alcotest.test_case "disabled span is free and silent" `Quick (fun () ->
        let tr = Sim.Trace.create ~enabled:false () in
        let sp =
          Sim.Trace.span_begin tr ~ts:Sim.Time.zero ~sub:Sim.Subsystem.Sim "x"
        in
        Sim.Trace.span_end tr ~ts:(Sim.Time.ms 1) sp;
        Alcotest.(check int) "nothing recorded" 0 (Sim.Trace.length tr));
    Alcotest.test_case "set_capacity resizes mid-run and restarts the sink"
      `Quick (fun () ->
        let tr = Sim.Trace.create ~capacity:3 () in
        for i = 1 to 10 do
          note tr (Sim.Time.ms i) (Printf.sprintf "e%d" i)
        done;
        Alcotest.(check int) "pre-resize retained" 3 (Sim.Trace.length tr);
        Alcotest.(check int) "pre-resize dropped" 7 (Sim.Trace.dropped tr);
        (* Shrink while recording is active: events and the drop counter
           both reset, so post-resize statistics describe the new
           capacity only. *)
        Sim.Trace.set_capacity tr (Some 2);
        Alcotest.(check int) "resize clears events" 0 (Sim.Trace.length tr);
        Alcotest.(check int) "resize clears drop count" 0
          (Sim.Trace.dropped tr);
        for i = 1 to 5 do
          note tr (Sim.Time.ms (10 + i)) (Printf.sprintf "f%d" i)
        done;
        Alcotest.(check int) "new ring retains 2" 2 (Sim.Trace.length tr);
        Alcotest.(check int) "new ring dropped 3" 3 (Sim.Trace.dropped tr);
        Alcotest.(check (list string)) "newest survive" [ "f4"; "f5" ]
          (names tr);
        (* Widen to unbounded: again a fresh start, and nothing drops. *)
        Sim.Trace.set_capacity tr None;
        Alcotest.(check int) "unbounded resize clears" 0 (Sim.Trace.length tr);
        Alcotest.(check int) "unbounded resize clears drops" 0
          (Sim.Trace.dropped tr);
        for i = 1 to 5000 do
          note tr (Sim.Time.ms i) "x"
        done;
        Alcotest.(check int) "unbounded keeps all" 5000 (Sim.Trace.length tr);
        Alcotest.(check int) "unbounded drops none" 0 (Sim.Trace.dropped tr));
    Alcotest.test_case "flow recording is gated separately from the sink"
      `Quick (fun () ->
        let tr = Sim.Trace.create () in
        let f = Sim.Trace.alloc_flow tr in
        Alcotest.(check int) "ids start at 1" 1 f;
        Alcotest.(check bool) "flows off by default" false
          (Sim.Trace.flows_on tr);
        Alcotest.(check bool) "cell detail on by default" true
          (Sim.Trace.cell_detail_on tr);
        Sim.Trace.flow_start tr ~ts:(Sim.Time.us 1) ~sub:Sim.Subsystem.Atm
          ~flow:f "start";
        Alcotest.(check int) "no-op while off" 0 (Sim.Trace.length tr);
        Sim.Trace.set_flows tr true;
        Sim.Trace.set_cell_detail tr false;
        Alcotest.(check bool) "flows on" true (Sim.Trace.flows_on tr);
        Alcotest.(check bool) "cell detail off" false
          (Sim.Trace.cell_detail_on tr);
        Sim.Trace.flow_start tr ~ts:(Sim.Time.us 1) ~sub:Sim.Subsystem.Atm
          ~flow:f "start";
        Sim.Trace.flow_step tr ~ts:(Sim.Time.us 2) ~sub:Sim.Subsystem.Atm
          ~flow:f "hop";
        Sim.Trace.flow_end tr ~ts:(Sim.Time.us 3) ~sub:Sim.Subsystem.Atm
          ~flow:f "end";
        Alcotest.(check int) "three events" 3 (Sim.Trace.length tr);
        (* Allocation is independent of recording state. *)
        Alcotest.(check int) "next id" 2 (Sim.Trace.alloc_flow tr);
        (match Sim.Trace.events tr with
        | [ s; m; e ] ->
            Alcotest.(check bool) "phases" true
              (s.Sim.Trace.ev_phase = Sim.Trace.Flow_start
              && m.Sim.Trace.ev_phase = Sim.Trace.Flow_step
              && e.Sim.Trace.ev_phase = Sim.Trace.Flow_end);
            Alcotest.(check int) "flow id carried" f s.Sim.Trace.ev_flow
        | _ -> Alcotest.fail "expected three events");
        (* Disabling the sink also turns the flow guard off. *)
        Sim.Trace.enable tr false;
        Alcotest.(check bool) "flows_on tracks enable" false
          (Sim.Trace.flows_on tr));
    Alcotest.test_case "merge appends and shifts flow ids past the parent's"
      `Quick (fun () ->
        let sink () =
          let tr = Sim.Trace.create ~unbounded:true () in
          Sim.Trace.set_flows tr true;
          tr
        in
        let start tr name =
          let flow = Sim.Trace.alloc_flow tr in
          Sim.Trace.flow_start tr ~ts:Sim.Time.zero ~sub:Sim.Subsystem.Atm
            ~flow name
        in
        let parent = sink () and child = Sim.Trace.like (sink ()) in
        start parent "p1";
        start child "c1";
        start child "c2";
        note child Sim.Time.zero "no flow";
        Sim.Trace.merge ~into:parent child;
        Alcotest.(check (list (pair string int)))
          "events and flow ids"
          [ ("p1", 1); ("c1", 2); ("c2", 3); ("no flow", Sim.Trace.no_flow) ]
          (List.map
             (fun ev -> (ev.Sim.Trace.ev_name, ev.Sim.Trace.ev_flow))
             (Sim.Trace.events parent));
        Alcotest.(check int) "next id follows the merged ones" 4
          (Sim.Trace.alloc_flow parent));
    QCheck_alcotest.to_alcotest trace_model_property;
    Alcotest.test_case "100 000 flow events add under one live block per 100"
      `Quick (fun () ->
        (* The store is flat: what a sink keeps per event is four ints in
           a chunk, not a record with its option and its args.  With a
           boxed record per event this test read 199 998 blocks. *)
        let names = Array.init 16 (fun i -> "hop" ^ string_of_int i)
        and args =
          Array.init 16 (fun i ->
              [ ("stream", Sim.Trace.Str ("s" ^ string_of_int i)) ])
        in
        let live () =
          Gc.full_major ();
          (Gc.stat ()).Gc.live_blocks
        in
        let tr = Sim.Trace.create ~unbounded:true () in
        Sim.Trace.set_flows tr true;
        let before = live () in
        for i = 0 to 99_999 do
          Sim.Trace.flow_step tr ~ts:(Sim.Time.ns i) ~sub:Sim.Subsystem.Atm
            ~cat:"hop" ~args:args.(i land 15) ~flow:(i land 1023)
            names.((i lsr 4) land 15)
        done;
        let added = live () - before in
        Printf.printf "live blocks added by 100 000 events: %d\n" added;
        Alcotest.(check int) "all retained" 100_000 (Sim.Trace.length tr);
        Alcotest.(check bool)
          (Printf.sprintf "%d live blocks < 1 000" added)
          true (added < 1_000));
    Alcotest.test_case "a ring below one slot is refused at the call" `Quick
      (fun () ->
        let refused what f =
          match f () with
          | _ -> Alcotest.failf "%s accepted" what
          | exception Invalid_argument _ -> ()
        in
        List.iter
          (fun c ->
            refused (Printf.sprintf "create ~capacity:%d" c) (fun () ->
                Sim.Trace.create ~capacity:c ());
            refused (Printf.sprintf "create ~capacity:%d ~unbounded" c)
              (fun () -> Sim.Trace.create ~capacity:c ~unbounded:true ());
            (* A refused resize leaves the sink as it was. *)
            let tr = Sim.Trace.create ~capacity:2 () in
            note tr (Sim.Time.ms 1) "a";
            refused (Printf.sprintf "set_capacity (Some %d)" c) (fun () ->
                Sim.Trace.set_capacity tr (Some c));
            note tr (Sim.Time.ms 2) "b";
            note tr (Sim.Time.ms 3) "c";
            Alcotest.(check (list string))
              (Printf.sprintf "after set_capacity (Some %d)" c)
              [ "b"; "c" ] (names tr);
            Alcotest.(check int) "still a ring of 2" 1 (Sim.Trace.dropped tr))
          [ 0; -1; min_int ]);
    Alcotest.test_case "equal names get one id however they are built"
      `Quick (fun () ->
        (* The interner answers a string physically equal to one of the
           last few it saw without hashing it.  Twelve names in turn,
           more than it keeps, each recorded as a fresh string and
           followed by a literal, with a fresh cat each time: equal
           strings must still share an id, and distinct ones not. *)
        let tr = Tr.create ~unbounded:true () in
        Tr.set_flows tr true;
        for round = 0 to 2 do
          for k = 0 to 11 do
            let ts = Sim.Time.ns ((round * 12) + k) in
            Tr.flow_step tr ~ts ~sub:Sim.Subsystem.Atm ~cat:("h" ^ "op")
              ~flow:k ("stage" ^ string_of_int k);
            Tr.flow_step tr ~ts ~sub:Sim.Subsystem.Atm ~cat:"hop" ~flow:k
              "sw:s1"
          done
        done;
        let ids = Hashtbl.create 16 in
        Tr.iter_flow_events tr (fun ~ts:_ ~flow:_ ~phase:_ ~name ~args:_ ->
            let s = Tr.name_of_id tr name in
            match Hashtbl.find_opt ids s with
            | Some id -> Alcotest.(check int) s id name
            | None -> Hashtbl.add ids s name);
        Alcotest.(check int) "names" 13 (Hashtbl.length ids);
        Alcotest.(check int) "distinct ids" 13
          (List.length
             (List.sort_uniq Int.compare
                (Hashtbl.fold (fun _ id acc -> id :: acc) ids [])));
        let evs = Tr.events tr in
        Alcotest.(check string) "jsonl" (tree_jsonl evs ~dropped:0)
          (Tr.to_jsonl tr);
        Alcotest.(check string) "chrome" (tree_chrome evs ~dropped:0)
          (Tr.to_chrome tr));
  ]

(* Minimal substring check, enough to validate exported JSON content
   without a parser dependency. *)
let contains haystack needle =
  let n = String.length needle and l = String.length haystack in
  let rec scan i =
    i + n <= l && (String.sub haystack i n = needle || scan (i + 1))
  in
  n = 0 || scan 0

let export_tests =
  [
    Alcotest.test_case "chrome export round-trips the events" `Quick (fun () ->
        let tr = Sim.Trace.create () in
        Sim.Trace.instant tr ~ts:(Sim.Time.us 3) ~sub:Sim.Subsystem.Nemesis
          ~cat:"sched"
          ~args:[ ("domain", Sim.Trace.Str "cam\"era") ]
          "deadline_miss";
        Sim.Trace.span_end tr ~ts:(Sim.Time.us 14)
          (Sim.Trace.span_begin tr ~ts:(Sim.Time.us 10) ~sub:Sim.Subsystem.Atm
             "tx");
        let json = Sim.Trace.to_chrome tr in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("contains " ^ needle) true
              (contains json needle))
          [
            "\"traceEvents\":";
            "\"ph\":\"i\"";
            "\"ph\":\"X\"";
            "\"name\":\"deadline_miss\"";
            "\"dur\":4.0";
            "\"thread_name\"";
            (* the quote in the arg value must be escaped *)
            "cam\\\"era";
            "\"dropped\":0";
          ]);
    Alcotest.test_case "jsonl export: one object per line, oldest first" `Quick
      (fun () ->
        let tr = Sim.Trace.create () in
        Sim.Trace.instant tr ~ts:(Sim.Time.us 1) ~sub:Sim.Subsystem.Pfs "a";
        Sim.Trace.instant tr ~ts:(Sim.Time.us 2) ~sub:Sim.Subsystem.Pfs "b";
        let lines =
          String.split_on_char '\n' (String.trim (Sim.Trace.to_jsonl tr))
        in
        Alcotest.(check int) "two events + footer" 3 (List.length lines);
        Alcotest.(check bool) "first is a" true
          (contains (List.nth lines 0) "\"name\":\"a\"");
        Alcotest.(check bool) "second is b" true
          (contains (List.nth lines 1) "\"name\":\"b\"");
        Alcotest.(check bool) "footer closes the stream" true
          (contains (List.nth lines 2) "\"meta\":\"dropped\""));
    Alcotest.test_case "chrome export renders flow phases with ids" `Quick
      (fun () ->
        let tr = Sim.Trace.create () in
        Sim.Trace.set_flows tr true;
        let f = Sim.Trace.alloc_flow tr in
        Sim.Trace.flow_start tr ~ts:(Sim.Time.us 1) ~sub:Sim.Subsystem.Atm
          ~cat:"hop"
          ~args:[ ("stream", Sim.Trace.Str "cam:32") ]
          ~flow:f "send";
        Sim.Trace.flow_step tr ~ts:(Sim.Time.us 2) ~sub:Sim.Subsystem.Atm
          ~cat:"hop" ~flow:f "sw:s1";
        Sim.Trace.flow_end tr ~ts:(Sim.Time.us 3) ~sub:Sim.Subsystem.Atm
          ~cat:"hop" ~flow:f "sink";
        let json = Sim.Trace.to_chrome tr in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("contains " ^ needle) true
              (contains json needle))
          [
            "\"ph\":\"s\"";
            "\"ph\":\"t\"";
            (* binding point "e": the arrow ends at the end event *)
            "\"ph\":\"f\"";
            "\"bp\":\"e\"";
            "\"id\":1";
          ]);
    Alcotest.test_case "exporters carry the drop counter as a final record"
      `Quick (fun () ->
        let tr = Sim.Trace.create ~capacity:2 () in
        for i = 1 to 5 do
          Sim.Trace.instant tr ~ts:(Sim.Time.us i) ~sub:Sim.Subsystem.Atm
            (Printf.sprintf "e%d" i)
        done;
        Alcotest.(check int) "three dropped" 3 (Sim.Trace.dropped tr);
        let chrome = Sim.Trace.to_chrome tr in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("chrome contains " ^ needle) true
              (contains chrome needle))
          [
            "\"process_name\"";
            "\"name\":\"pegasus\"";
            "\"thread_name\"";
            "\"trace_dropped\"";
            "\"dropped\":3";
          ];
        (* The drop record closes the traceEvents array: no event
           follows it. *)
        let tail_from marker s =
          let n = String.length marker and l = String.length s in
          let rec last best i =
            if i + n > l then best
            else if String.sub s i n = marker then last (Some i) (i + 1)
            else last best (i + 1)
          in
          match last None 0 with
          | Some i -> String.sub s i (l - i)
          | None -> Alcotest.failf "marker %s not found" marker
        in
        let tail = tail_from "trace_dropped" chrome in
        Alcotest.(check bool) "no event after the drop record" false
          (contains tail "\"ph\":\"i\"");
        (* JSONL: one line per retained event plus the footer line. *)
        let lines =
          String.split_on_char '\n' (String.trim (Sim.Trace.to_jsonl tr))
        in
        Alcotest.(check int) "two events + footer" 3 (List.length lines);
        Alcotest.(check string) "footer line"
          "{\"meta\":\"dropped\",\"dropped\":3}"
          (List.nth lines 2));
    Alcotest.test_case "json escaping and number forms" `Quick (fun () ->
        let j =
          Sim.Json.Obj
            [
              ("s", Sim.Json.String "tab\tnl\n\"q\"");
              ("i", Sim.Json.Int (-3));
              ("f", Sim.Json.Float 2.5);
              ("whole", Sim.Json.Float 7.0);
              ("nan", Sim.Json.Float Float.nan);
              ("l", Sim.Json.List [ Sim.Json.Bool true; Sim.Json.Null ]);
            ]
        in
        Alcotest.(check string) "rendering"
          "{\"s\":\"tab\\tnl\\n\\\"q\\\"\",\"i\":-3,\"f\":2.5,\"whole\":7.0,\"nan\":null,\"l\":[true,null]}"
          (Sim.Json.to_string j));
    QCheck_alcotest.to_alcotest export_file_property;
    Alcotest.test_case "a large export streams in pieces, byte-identical"
      `Quick (fun () ->
        (* Several flushes of the writer's buffer, in both formats, from a
           wrapped ring. *)
        let tr = Sim.Trace.create ~capacity:30_000 () in
        Sim.Trace.set_flows tr true;
        for i = 0 to 39_999 do
          let ts = Sim.Time.ns (i * 7) in
          match i mod 4 with
          | 0 ->
              Sim.Trace.instant tr ~ts ~sub:Sim.Subsystem.Atm ~cat:"tx"
                ~args:[ ("i", Sim.Trace.Int i) ]
                (Printf.sprintf "cell%d" (i mod 50))
          | 1 ->
              Sim.Trace.span_end tr
                ~ts:(Sim.Time.ns ((i * 7) + 1234))
                (Sim.Trace.span_begin tr ~ts ~sub:Sim.Subsystem.Pfs "write")
          | 2 ->
              Sim.Trace.flow_start tr ~ts ~sub:Sim.Subsystem.Rpc
                ~args:[ ("stream", Sim.Trace.Str "s\"q") ]
                ~flow:i "call"
          | _ ->
              Sim.Trace.flow_end tr ~ts ~sub:Sim.Subsystem.Nemesis ~flow:(i - 1)
                "reply"
        done;
        let chrome = Sim.Trace.to_chrome tr in
        Alcotest.(check bool) "more than one buffer" true
          (String.length chrome > 4 * 65_536);
        Alcotest.(check bool) "chrome equals the tree export" true
          (chrome
          = tree_chrome (Sim.Trace.events tr) ~dropped:(Sim.Trace.dropped tr));
        Alcotest.(check bool) "jsonl equals the tree export" true
          (Sim.Trace.to_jsonl tr
          = tree_jsonl (Sim.Trace.events tr) ~dropped:(Sim.Trace.dropped tr));
        Alcotest.(check bool) "files too" true (check_files "large" tr));
  ]

(* ------------------------------------------------------------------ *)
(* Audit: per-stream QoS reports built from flow events.               *)

(* A synthetic capture with known numbers.  "cam" has three completed
   flows (10us net hop, then a display interval of 40/40/100us), one
   flow still in flight and nothing else; "disk" has two identical
   flows dominated by a 70us seek.  One stray step references a flow
   that never started. *)
let audit_capture () =
  let tr = Sim.Trace.create ~unbounded:true () in
  Sim.Trace.set_flows tr true;
  let flow ~stream ~t0 hops =
    let f = Sim.Trace.alloc_flow tr in
    Sim.Trace.flow_start tr ~ts:(Sim.Time.us t0) ~sub:Sim.Subsystem.Atm
      ~cat:"hop"
      ~args:[ ("stream", Sim.Trace.Str stream) ]
      ~flow:f "start";
    let rec go = function
      | [] -> ()
      | [ (dt, name) ] ->
          Sim.Trace.flow_end tr
            ~ts:(Sim.Time.us (t0 + dt))
            ~sub:Sim.Subsystem.Atm ~cat:"hop" ~flow:f name
      | (dt, name) :: rest ->
          Sim.Trace.flow_step tr
            ~ts:(Sim.Time.us (t0 + dt))
            ~sub:Sim.Subsystem.Atm ~cat:"hop" ~flow:f name;
          go rest
    in
    go hops
  in
  flow ~stream:"cam" ~t0:100 [ (10, "net"); (50, "display") ];
  flow ~stream:"cam" ~t0:200 [ (10, "net"); (50, "display") ];
  flow ~stream:"cam" ~t0:300 [ (10, "net"); (110, "display") ];
  let in_flight = Sim.Trace.alloc_flow tr in
  Sim.Trace.flow_start tr ~ts:(Sim.Time.us 400) ~sub:Sim.Subsystem.Atm
    ~cat:"hop"
    ~args:[ ("stream", Sim.Trace.Str "cam") ]
    ~flow:in_flight "start";
  flow ~stream:"disk" ~t0:100 [ (70, "seek"); (80, "done") ];
  flow ~stream:"disk" ~t0:300 [ (70, "seek"); (80, "done") ];
  Sim.Trace.flow_step tr ~ts:(Sim.Time.us 999) ~sub:Sim.Subsystem.Atm
    ~cat:"hop" ~flow:9999 "stray";
  tr

(* ------------------------------------------------------------------ *)
(* The columnar audit against the list-based one it replaced.          *)

(* A report as a string, floats by their bits. *)
let canon_report (r : Sim.Audit.report) =
  let f x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  let stage (sg : Sim.Audit.stage) =
    Printf.sprintf
      "  %S n=%d p50=%s p95=%s p99=%s mean=%s max=%s share=%s miss=%d"
      sg.sg_name sg.sg_count (f sg.sg_p50_ns) (f sg.sg_p95_ns)
      (f sg.sg_p99_ns) (f sg.sg_mean_ns) (f sg.sg_max_ns) (f sg.sg_share)
      sg.sg_misses
  in
  let stream (st : Sim.Audit.stream) =
    Printf.sprintf
      "%S flows=%d inc=%d e2e=%s/%s/%s/%s/%s jitter=%s/%s attr=%s miss=%d \
       critical=%s"
      st.st_label st.st_flows st.st_incomplete (f st.st_e2e_p50_ns)
      (f st.st_e2e_p95_ns) (f st.st_e2e_p99_ns) (f st.st_e2e_mean_ns)
      (f st.st_e2e_max_ns) (f st.st_jitter_mean_ns) (f st.st_jitter_max_ns)
      (f st.st_attributed) st.st_misses
      (Option.value st.st_critical ~default:"-")
    :: List.map stage st.st_stages
  in
  String.concat "\n"
    (Printf.sprintf "flows=%d inc=%d orphans=%d deadline=%s" r.rp_flows
       r.rp_incomplete r.rp_orphan_events
       (match r.rp_deadline_ns with Some d -> string_of_int d | None -> "-")
    :: List.concat_map stream r.rp_streams)

(* A random flow capture: several streams, labelled by a "stream" arg,
   a non-string one or the start's name; flows missing their start or
   end, flows with two starts and steps of flows that never start; ts
   ties; events recorded ahead of their ts, as the train path records
   hops; instants in between; sometimes a ring that has dropped the
   oldest events.  One capture in four counts time in units of 2^47 + 1
   ns, so that float sums round and their order shows. *)
let random_flow_capture seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let pick a = a.(int (Array.length a)) in
  let unit = if int 4 = 0 then (1 lsl 47) + 1 else 1 in
  let tr =
    if int 4 = 0 then Sim.Trace.create ~capacity:(1 + int 150) ()
    else Sim.Trace.create ~unbounded:true ()
  in
  Sim.Trace.set_flows tr true;
  let events = ref [] in
  (* An event at [ts], recorded in [ts] order or up to 30 ns early. *)
  let at ts f =
    let key = if int 5 = 0 then ts - int 30 else ts in
    events := (key, fun () -> f (Sim.Time.ns (ts * unit))) :: !events
  in
  let sub = Sim.Subsystem.Atm in
  for _ = 1 to int 40 do
    let flow =
      if int 10 = 0 then 1000 + int 3 else Sim.Trace.alloc_flow tr
    in
    let t0 = int 200 in
    let args =
      pick
        [|
          [ ("stream", Sim.Trace.Str "s0") ];
          [ ("stream", Sim.Trace.Str "s1") ];
          [ ("k", Sim.Trace.Int 1); ("stream", Sim.Trace.Str "s2") ];
          [ ("stream", Sim.Trace.Int 3) ];
          [];
        |]
    in
    let start = pick [| "start"; "cam"; "rpc" |] in
    if int 8 > 0 then
      at t0 (fun ts -> Sim.Trace.flow_start tr ~ts ~sub ~args ~flow start);
    if int 10 = 0 then
      at (t0 + int 20) (fun ts ->
          Sim.Trace.flow_start tr ~ts ~sub ~args ~flow start);
    let t = ref t0 in
    for _ = 1 to int 7 do
      t := !t + int 4;
      let name = pick [| "net"; "sw:a"; "disk"; "display"; "cpu" |] in
      at !t (fun ts -> Sim.Trace.flow_step tr ~ts ~sub ~flow name)
    done;
    if int 5 > 0 then
      at (!t + int 10) (fun ts ->
          Sim.Trace.flow_end tr ~ts ~sub ~flow (pick [| "done"; "display" |]))
  done;
  for _ = 1 to int 5 do
    let flow = 5000 + int 3 in
    at (int 300) (fun ts -> Sim.Trace.flow_step tr ~ts ~sub ~flow "stray")
  done;
  for _ = 1 to int 10 do
    at (int 300) (fun ts -> Sim.Trace.instant tr ~ts ~sub "noise")
  done;
  List.iter
    (fun (_, record) -> record ())
    (List.stable_sort
       (fun (a, _) (b, _) -> Int.compare a b)
       (List.rev !events));
  tr

let audit_property =
  QCheck2.Test.make ~name:"the columnar audit equals the list-based one"
    ~count:500
    QCheck2.Gen.(pair int (option (int_bound 400)))
    (fun (seed, deadline_ns) ->
      let tr = random_flow_capture seed in
      let got = canon_report (Sim.Audit.of_trace ?deadline_ns tr)
      and want = canon_report (Audit_oracle.of_trace ?deadline_ns tr) in
      if got <> want then
        QCheck2.Test.fail_reportf "seed %d:@.%s@.oracle:@.%s" seed got want;
      true)

(* A capture in the shape the audit scenarios produce: start, 8 hops
   and end per flow, 4 streams. *)
let hop_capture flows =
  let tr = Sim.Trace.create ~unbounded:true () in
  Sim.Trace.set_flows tr true;
  let streams =
    Array.init 4 (fun i ->
        [ ("stream", Sim.Trace.Str ("s" ^ string_of_int i)) ])
  and hops = Array.init 9 (fun h -> "hop" ^ string_of_int h) in
  for f = 1 to flows do
    let flow = Sim.Trace.alloc_flow tr and t0 = f * 1000 in
    Sim.Trace.flow_start tr ~ts:(Sim.Time.ns t0) ~sub:Sim.Subsystem.Atm
      ~args:streams.(f land 3) ~flow "start";
    for h = 1 to 8 do
      Sim.Trace.flow_step tr
        ~ts:(Sim.Time.ns (t0 + (h * 10)))
        ~sub:Sim.Subsystem.Atm ~flow hops.(h)
    done;
    Sim.Trace.flow_end tr
      ~ts:(Sim.Time.ns (t0 + 1000))
      ~sub:Sim.Subsystem.Atm ~flow "end"
  done;
  tr

(* Host ns per event of [Audit.of_trace] on [tr], best of 5, each
   sample [reps] reports long. *)
let audit_ns_per_event tr ~reps =
  let best = ref infinity in
  for _ = 1 to 5 do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (Sim.Audit.of_trace tr))
    done;
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best *. 1e9 /. Float.of_int (reps * Sim.Trace.length tr)

(* MD5s of [pegasus_cli audit SCEN], [--json], [--deadline-us D] and
   both, recorded with the list-based audit (Audit_oracle). *)
let pinned_audits =
  [
    ( "video",
      Experiments.Audit_scenarios.video,
      500,
      [
        "67224d760bdb330a48fa1ccf70ba0055";
        "e3ddd21d0e5e829e2906a17ef8920be2";
        "dd676eb4e9f2f3e9aa21173014c8338b";
        "c694083780a2f1a573fc1c5fc446db0e";
      ] );
    ( "av",
      Experiments.Audit_scenarios.av,
      1000,
      [
        "c334b2d1aea9d733452fa8f462ca1b4a";
        "943e4ac1094459d22a10c3c90291aa9e";
        "3dde4885b7293cf57dcb8eced8a17ca1";
        "a6307c84dfc554e93cfb580f0e56f949";
      ] );
    ( "pfs",
      Experiments.Audit_scenarios.pfs,
      5000,
      [
        "f26d0ff30abd9a723725ae5603425a0f";
        "14da726600ece0445efb46035cbb9963";
        "1d5c4994d30f319f936cc5e14c42ce53";
        "85a298f602fa1b39f7c44dc9a198ed31";
      ] );
    ( "video-pfs",
      Experiments.Audit_scenarios.video_pfs,
      500,
      [
        "a4edcd5915ee3bba6d4de1b073ee52c2";
        "43a7b189570cf1159917a72a2312c8f6";
        "ca68dbf957db406545a6586e492e6a9a";
        "ab076d7b8f215b5249f809acc28dd55d";
      ] );
  ]

let audit_tests =
  [
    Alcotest.test_case "streams, stages and exhaustive attribution" `Quick
      (fun () ->
        let r = Sim.Audit.of_trace (audit_capture ()) in
        Alcotest.(check int) "completed flows" 5 r.Sim.Audit.rp_flows;
        Alcotest.(check int) "incomplete flows" 1 r.Sim.Audit.rp_incomplete;
        Alcotest.(check int) "orphan events" 1 r.Sim.Audit.rp_orphan_events;
        Alcotest.(check (list string)) "streams sorted by label"
          [ "cam"; "disk" ]
          (List.map (fun s -> s.Sim.Audit.st_label) r.Sim.Audit.rp_streams);
        let cam = List.hd r.Sim.Audit.rp_streams in
        Alcotest.(check int) "cam flows" 3 cam.Sim.Audit.st_flows;
        Alcotest.(check int) "cam in flight" 1 cam.Sim.Audit.st_incomplete;
        (* Latencies 50, 50 and 110us: median 50, mean 70, max 110. *)
        Alcotest.(check (float 1e-6)) "cam e2e p50" 50_000.0
          cam.Sim.Audit.st_e2e_p50_ns;
        Alcotest.(check (float 1e-6)) "cam e2e mean" 70_000.0
          cam.Sim.Audit.st_e2e_mean_ns;
        Alcotest.(check (float 1e-6)) "cam e2e max" 110_000.0
          cam.Sim.Audit.st_e2e_max_ns;
        (* Consecutive e2e deltas |50-50| and |110-50|: mean 30, max 60. *)
        Alcotest.(check (float 1e-6)) "cam jitter mean" 30_000.0
          cam.Sim.Audit.st_jitter_mean_ns;
        Alcotest.(check (float 1e-6)) "cam jitter max" 60_000.0
          cam.Sim.Audit.st_jitter_max_ns;
        (* Every nanosecond of e2e is attributed to a named stage, and
           the display intervals (40+40+100 of 210us total) dominate. *)
        Alcotest.(check (float 1e-9)) "cam fully attributed" 1.0
          cam.Sim.Audit.st_attributed;
        Alcotest.(check (option string)) "cam critical stage"
          (Some "display") cam.Sim.Audit.st_critical;
        (match cam.Sim.Audit.st_stages with
        | [ net; display ] ->
            Alcotest.(check string) "stage order" "net" net.Sim.Audit.sg_name;
            Alcotest.(check int) "net intervals" 3 net.Sim.Audit.sg_count;
            Alcotest.(check (float 1e-6)) "net p50" 10_000.0
              net.Sim.Audit.sg_p50_ns;
            Alcotest.(check (float 1e-9)) "net share" (30.0 /. 210.0)
              net.Sim.Audit.sg_share;
            Alcotest.(check (float 1e-9)) "display share" (180.0 /. 210.0)
              display.Sim.Audit.sg_share
        | stages ->
            Alcotest.failf "cam: expected 2 stages, got %d"
              (List.length stages));
        let disk = List.nth r.Sim.Audit.rp_streams 1 in
        Alcotest.(check (option string)) "disk critical stage" (Some "seek")
          disk.Sim.Audit.st_critical);
    Alcotest.test_case "deadline misses land on the overrunning stage" `Quick
      (fun () ->
        let r =
          Sim.Audit.of_trace ~deadline_ns:60_000 (audit_capture ())
        in
        let cam = List.hd r.Sim.Audit.rp_streams in
        (* Only the 110us flow breaks the 60us deadline, and its display
           interval overran the stream median (100 vs 40us) far more
           than its net hop did (10 vs 10). *)
        Alcotest.(check int) "cam misses" 1 cam.Sim.Audit.st_misses;
        List.iter
          (fun sg ->
            Alcotest.(check int)
              ("misses on " ^ sg.Sim.Audit.sg_name)
              (if sg.Sim.Audit.sg_name = "display" then 1 else 0)
              sg.Sim.Audit.sg_misses)
          cam.Sim.Audit.st_stages;
        (* Both disk flows take 80us: two misses. *)
        let disk = List.nth r.Sim.Audit.rp_streams 1 in
        Alcotest.(check int) "disk misses" 2 disk.Sim.Audit.st_misses);
    Alcotest.test_case "the report is a deterministic function of the trace"
      `Quick (fun () ->
        let render tr =
          let r = Sim.Audit.of_trace ~deadline_ns:60_000 tr in
          ( Sim.Json.to_string (Sim.Audit.to_json r),
            Format.asprintf "%a" Sim.Audit.pp r )
        in
        let j1, t1 = render (audit_capture ()) in
        let j2, t2 = render (audit_capture ()) in
        Alcotest.(check string) "json identical" j1 j2;
        Alcotest.(check string) "table identical" t1 t2;
        Alcotest.(check bool) "json carries the schema tag" true
          (contains j1 "\"schema\":\"pegasus-audit/1\""));
    QCheck_alcotest.to_alcotest audit_property;
    Alcotest.test_case "audit cost per event stays flat from 1 000 to 100 000"
      `Quick (fun () ->
        let small = audit_ns_per_event (hop_capture 100) ~reps:100
        and large = audit_ns_per_event (hop_capture 10_000) ~reps:1 in
        Printf.printf "audit ns per event: %.1f at 1 000, %.1f at 100 000\n"
          small large;
        Alcotest.(check bool)
          (Printf.sprintf "%.1f ns <= 3 x %.1f ns" large small)
          true
          (large <= 3.0 *. small));
    Alcotest.test_case "the four audit scenarios' reports are pinned" `Quick
      (fun () ->
        List.iter
          (fun (name, run, deadline_us, digests) ->
            let tr = Sim.Trace.create () in
            Sim.Audit.capture tr;
            run (Sim.Ctx.engine (Sim.Ctx.create ~trace:tr ()));
            let render deadline_ns =
              let r = Sim.Audit.of_trace ?deadline_ns tr in
              [
                Format.asprintf "%a" Sim.Audit.pp r;
                Sim.Json.to_string (Sim.Audit.to_json r);
              ]
            in
            Alcotest.(check (list string))
              (name ^ ": text, json, then both with a deadline")
              digests
              (List.map
                 (fun s -> Digest.to_hex (Digest.string s))
                 (render None @ render (Some (deadline_us * 1_000)))))
          pinned_audits);
  ]

(* One field of the named metric in a registry snapshot. *)
let snapshot_field m ~name field =
  match Sim.Metrics.snapshot m with
  | Sim.Json.Obj [ ("metrics", Sim.Json.List l) ] ->
      List.find_map
        (function
          | Sim.Json.Obj fs
            when List.assoc_opt "name" fs = Some (Sim.Json.String name) ->
              Option.map Sim.Json.to_string (List.assoc_opt field fs)
          | _ -> None)
        l
  | _ -> Alcotest.fail "unexpected snapshot shape"

let metrics_tests =
  [
    Alcotest.test_case "counters, gauges and dists update through handles"
      `Quick (fun () ->
        let m = Sim.Metrics.create () in
        let c = Sim.Metrics.counter m ~sub:Sim.Subsystem.Atm "cells" in
        Sim.Metrics.incr c;
        Sim.Metrics.incr ~by:4 c;
        Alcotest.(check int) "counter" 5 (Sim.Metrics.value c);
        let g = Sim.Metrics.gauge m ~sub:Sim.Subsystem.Sim "depth" in
        Sim.Metrics.set g 3.5;
        Alcotest.(check (float 1e-9)) "gauge" 3.5 (Sim.Metrics.get g);
        let d = Sim.Metrics.dist m ~sub:Sim.Subsystem.Rpc "lat" in
        List.iter (Sim.Metrics.observe d) [ 1_000; 2_000; 3_000 ];
        Alcotest.(check int) "dist count" 3 (Sim.Metrics.observed d));
    Alcotest.test_case "get-or-create shares the metric; mismatch raises"
      `Quick (fun () ->
        let m = Sim.Metrics.create () in
        let a = Sim.Metrics.counter m ~sub:Sim.Subsystem.Pfs "n" in
        let b = Sim.Metrics.counter m ~sub:Sim.Subsystem.Pfs "n" in
        Sim.Metrics.incr a;
        Sim.Metrics.incr b;
        Alcotest.(check int) "shared" 2 (Sim.Metrics.value a);
        (* same name under another subsystem is a different metric *)
        let other = Sim.Metrics.counter m ~sub:Sim.Subsystem.Atm "n" in
        Alcotest.(check int) "distinct" 0 (Sim.Metrics.value other);
        Alcotest.check_raises "kind mismatch"
          (Invalid_argument
             "Metrics: pfs/n registered as counter, requested as gauge")
          (fun () -> ignore (Sim.Metrics.gauge m ~sub:Sim.Subsystem.Pfs "n")));
    Alcotest.test_case "snapshot emits sorted JSON with percentiles" `Quick
      (fun () ->
        let m = Sim.Metrics.create () in
        let c =
          Sim.Metrics.counter m ~sub:Sim.Subsystem.Nemesis ~help:"switches"
            "kernel.switches"
        in
        Sim.Metrics.incr ~by:7 c;
        let d = Sim.Metrics.dist m ~sub:Sim.Subsystem.Atm "delay_us" in
        for i = 1 to 100 do
          Sim.Metrics.observe d (i * 1_000)
        done;
        let json = Sim.Json.to_string (Sim.Metrics.snapshot m) in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("contains " ^ needle) true
              (contains json needle))
          [
            "\"metrics\":[";
            "\"kind\":\"counter\"";
            "\"value\":7";
            "\"help\":\"switches\"";
            "\"kind\":\"dist\"";
            "\"count\":100";
            "\"p95\":";
            "\"p99\":";
          ];
        (* atm sorts before nemesis *)
        let atm_at = ref 0 and nem_at = ref 0 in
        String.iteri
          (fun i ch ->
            if ch = 'd' && !atm_at = 0 && contains (String.sub json i 10) "delay_us"
            then atm_at := i;
            if
              ch = 'k' && !nem_at = 0
              && i + 15 <= String.length json
              && contains (String.sub json i 15) "kernel.switches"
            then nem_at := i)
          json;
        Alcotest.(check bool) "sorted by subsystem" true (!atm_at < !nem_at));
    Alcotest.test_case "engine counts fired and cancelled events" `Quick
      (fun () ->
        let m = Sim.Metrics.create () in
        let e = Sim.Engine.create ~metrics:m () in
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 1) (fun () -> ()));
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 2) (fun () -> ()));
        let id = Sim.Engine.schedule e ~delay:(Sim.Time.ms 3) (fun () -> ()) in
        ignore (Sim.Engine.cancel e id);
        Sim.Engine.run e;
        let fired = Sim.Metrics.counter m ~sub:Sim.Subsystem.Sim "engine.events_fired" in
        let cancelled =
          Sim.Metrics.counter m ~sub:Sim.Subsystem.Sim "engine.events_cancelled"
        in
        Alcotest.(check int) "fired" 2 (Sim.Metrics.value fired);
        Alcotest.(check int) "cancelled" 1 (Sim.Metrics.value cancelled));
    Alcotest.test_case "a snapshot leaves its handles connected" `Quick
      (fun () ->
        (* A snapshot reads the registry without consuming it: updates
           through the handles taken before it land in the next one. *)
        let m = Sim.Metrics.create () in
        let c = Sim.Metrics.counter m ~sub:Sim.Subsystem.Atm "cells" in
        let d = Sim.Metrics.dist m ~sub:Sim.Subsystem.Rpc "lat" in
        Sim.Metrics.incr ~by:9 c;
        Sim.Metrics.observe d 42_000;
        ignore (Sim.Metrics.snapshot m);
        Sim.Metrics.incr ~by:3 c;
        Sim.Metrics.observe d 42_000;
        let json = Sim.Json.to_string (Sim.Metrics.snapshot m) in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("contains " ^ needle) true
              (contains json needle))
          [ "\"value\":12"; "\"count\":2"; "\"p50\":42.0" ]);
    Alcotest.test_case
      "dists are reservoir-bounded by default, near the exact p50" `Quick
      (fun () ->
        let bounded = Sim.Metrics.create () in
        let db = Sim.Metrics.dist bounded ~sub:Sim.Subsystem.Rpc "lat" in
        let samples = Sim.Stats.Samples.create () in
        for i = 1 to 50_000 do
          let x = i mod 1000 * 1_000 in
          Sim.Metrics.observe db x;
          Sim.Stats.Samples.add samples (Float.of_int x /. 1e3)
        done;
        Alcotest.(check int) "counts the full stream" 50_000
          (Sim.Metrics.observed db);
        (* The exact p50 of (i mod 1000) over 50k draws is ~499.5; the
           bounded dist must agree within its documented tolerance. *)
        let pb =
          match Sim.Metrics.snapshot bounded with
          | Sim.Json.Obj [ ("metrics", Sim.Json.List [ Sim.Json.Obj fields ]) ]
            -> (
              match List.assoc "p50" fields with
              | Sim.Json.Float f -> f
              | _ -> Alcotest.fail "p50 not a float")
          | _ -> Alcotest.fail "unexpected snapshot shape"
        in
        let pe = Sim.Stats.Samples.percentile samples 50.0 in
        Alcotest.(check bool) "exact p50 is exact" true
          (Float.abs (pe -. 499.5) < 1.0);
        Alcotest.(check bool) "bounded p50 within tolerance" true
          (Float.abs (pb -. pe) <= pe /. 128.0);
        (* Deterministic: a second bounded registry fed the same stream
           snapshots to the identical JSON. *)
        let bounded2 = Sim.Metrics.create () in
        let db2 = Sim.Metrics.dist bounded2 ~sub:Sim.Subsystem.Rpc "lat" in
        for i = 1 to 50_000 do
          Sim.Metrics.observe db2 (i mod 1000 * 1_000)
        done;
        Alcotest.(check string) "byte-identical snapshots"
          (Sim.Json.to_string (Sim.Metrics.snapshot bounded))
          (Sim.Json.to_string (Sim.Metrics.snapshot bounded2)));
    Alcotest.test_case "merge adds counters, keeps the last gauge" `Quick
      (fun () ->
        (* Each child attaches a sink to its "delay" observer, as a
           health monitor does to a shard's registry. *)
        let watch m xs =
          let o = Sim.Metrics.observer m ~sub:Sim.Subsystem.Atm "delay" in
          Sim.Metrics.attach_sink o ignore;
          List.iter (Sim.Metrics.sample o) xs
        in
        (* The dist takes ns; the observer's sinks see µs. *)
        let us = List.map (fun x -> Float.of_int x /. 1e3) in
        let child ~cells ~depth xs =
          let m = Sim.Metrics.create () in
          Sim.Metrics.incr ~by:cells
            (Sim.Metrics.counter m ~sub:Sim.Subsystem.Atm "cells");
          Sim.Metrics.set
            (Sim.Metrics.gauge m ~sub:Sim.Subsystem.Sim "depth")
            depth;
          let d = Sim.Metrics.dist m ~sub:Sim.Subsystem.Rpc "lat" in
          List.iter (Sim.Metrics.observe d) xs;
          watch m (us xs);
          m
        in
        let xs1 = List.init 10 (fun i -> (i + 1) * 1_000) in
        let xs2 = List.init 11 (fun i -> (100 + i) * 1_000) in
        let parent = Sim.Metrics.create () in
        Sim.Metrics.merge ~into:parent (child ~cells:3 ~depth:1.5 xs1);
        Sim.Metrics.merge ~into:parent (child ~cells:4 ~depth:2.5 xs2);
        Alcotest.(check int) "counters add" 7
          (Sim.Metrics.value
             (Sim.Metrics.counter parent ~sub:Sim.Subsystem.Atm "cells"));
        Alcotest.(check (float 0.0)) "the last gauge wins" 2.5
          (Sim.Metrics.get
             (Sim.Metrics.gauge parent ~sub:Sim.Subsystem.Sim "depth"));
        (* Both children's raw samples fit together, so the merged dist
           equals one fed the whole stream in order: count, bounds and
           percentiles. *)
        let whole = Sim.Metrics.create () in
        let d = Sim.Metrics.dist whole ~sub:Sim.Subsystem.Rpc "lat" in
        List.iter (Sim.Metrics.observe d) (xs1 @ xs2);
        List.iter
          (fun field ->
            Alcotest.(check (option string)) field
              (snapshot_field whole ~name:"lat" field)
              (snapshot_field parent ~name:"lat" field))
          [ "count"; "min"; "max"; "p50"; "p95"; "p99" ];
        (* The observer reads as one watched in a single registry:
           enabled, with both streams' samples. *)
        watch whole (us (xs1 @ xs2));
        List.iter
          (fun field ->
            Alcotest.(check (option string)) ("delay " ^ field)
              (snapshot_field whole ~name:"delay" field)
              (snapshot_field parent ~name:"delay" field))
          [ "enabled"; "samples" ];
        Alcotest.(check (option string)) "the sink saw both streams"
          (Some "21")
          (snapshot_field parent ~name:"delay" "samples"));
    Alcotest.test_case "merge past the reservoir is exact and repeatable"
      `Quick (fun () ->
        let stream seed =
          let rng = Sim.Rng.create ~seed () in
          List.init 3_000 (fun _ -> Sim.Rng.int rng 100_000)
        in
        let streams = List.map stream [ 1L; 2L; 3L ] in
        let merged () =
          let parent = Sim.Metrics.create () in
          List.iter
            (fun xs ->
              let m = Sim.Metrics.create () in
              let d = Sim.Metrics.dist m ~sub:Sim.Subsystem.Rpc "lat" in
              List.iter (Sim.Metrics.observe d) xs;
              Sim.Metrics.merge ~into:parent m)
            streams;
          parent
        in
        let a = merged () and b = merged () in
        Alcotest.(check string) "same children, same order, same bytes"
          (Sim.Json.to_string (Sim.Metrics.snapshot a))
          (Sim.Json.to_string (Sim.Metrics.snapshot b));
        let all = List.concat streams in
        let show ns = Sim.Json.to_string (Sim.Json.Float (Float.of_int ns /. 1e3)) in
        Alcotest.(check (option string)) "count" (Some "9000")
          (snapshot_field a ~name:"lat" "count");
        Alcotest.(check (option string)) "min"
          (Some (show (List.fold_left Int.min max_int all)))
          (snapshot_field a ~name:"lat" "min");
        Alcotest.(check (option string)) "max"
          (Some (show (List.fold_left Int.max min_int all)))
          (snapshot_field a ~name:"lat" "max"));
    Alcotest.test_case "merging children in either order gives the same dist"
      `Quick (fun () ->
        let child seed n =
          let rng = Sim.Rng.create ~seed () in
          let m = Sim.Metrics.create () in
          let d = Sim.Metrics.dist m ~sub:Sim.Subsystem.Rpc "lat" in
          for _ = 1 to n do
            Sim.Metrics.observe d (Sim.Rng.int rng 5_000_000)
          done;
          m
        in
        let entry children =
          let parent = Sim.Metrics.create () in
          List.iter (fun m -> Sim.Metrics.merge ~into:parent m) children;
          Sim.Json.to_string (Sim.Metrics.snapshot parent)
        in
        (* Raw samples that fit together, then a total past them. *)
        List.iter
          (fun sizes ->
            let kids () = List.mapi (fun i n -> child (Int64.of_int (i + 1)) n) sizes in
            let forward = entry (kids ()) in
            Alcotest.(check string) "reversed" forward (entry (List.rev (kids ())));
            Alcotest.(check string) "rotated" forward
              (match kids () with x :: rest -> entry (rest @ [ x ]) | [] -> ""))
          [ [ 300; 200; 100 ]; [ 3_000; 1; 700 ] ]);
    Alcotest.test_case "a dist's reachable words stay flat from 1e3 to 1e6"
      `Quick (fun () ->
        let m = Sim.Metrics.create () in
        let d = Sim.Metrics.dist m ~sub:Sim.Subsystem.Atm "delay" in
        (* The first thousand samples already span every octave the
           million do. *)
        let feed from upto =
          for i = from to upto do
            Sim.Metrics.observe d (i mod 1000 * 1_000)
          done
        in
        feed 1 1_000;
        let words_1e3 = Obj.reachable_words (Obj.repr d) in
        feed 1_001 1_000_000;
        Alcotest.(check int) "count" 1_000_000 (Sim.Metrics.observed d);
        Alcotest.(check int) "same words at 1e6" words_1e3
          (Obj.reachable_words (Obj.repr d));
        Alcotest.(check bool)
          (Printf.sprintf "%d words" words_1e3)
          true (words_1e3 < 3_000));
    Alcotest.test_case "up to 1 024 samples a dist reports what Samples does"
      `Quick (fun () ->
        let rng = Sim.Rng.create ~seed:8L () in
        List.iter
          (fun n ->
            let m = Sim.Metrics.create () in
            let d = Sim.Metrics.dist m ~sub:Sim.Subsystem.Atm "delay" in
            let s = Sim.Stats.Samples.create () in
            for _ = 1 to n do
              let ns = Sim.Rng.int rng 3_000_000 in
              Sim.Metrics.observe d ns;
              Sim.Stats.Samples.add s (Sim.Time.to_us_f (Sim.Time.ns ns))
            done;
            let show x = Some (Sim.Json.to_string (Sim.Json.Float x)) in
            let check field want =
              Alcotest.(check (option string))
                (Printf.sprintf "n=%d %s" n field)
                want
                (snapshot_field m ~name:"delay" field)
            in
            check "min" (show (Sim.Stats.Samples.min s));
            check "max" (show (Sim.Stats.Samples.max s));
            List.iter
              (fun q ->
                check
                  (Printf.sprintf "p%.0f" q)
                  (show (Sim.Stats.Samples.percentile s q)))
              [ 50.0; 95.0; 99.0 ])
          [ 1; 2; 17; 1_024 ]);
    Alcotest.test_case "past 1 024 samples a percentile is within 1/128"
      `Quick (fun () ->
        let m = Sim.Metrics.create () in
        let d = Sim.Metrics.dist m ~sub:Sim.Subsystem.Atm "delay" in
        let rng = Sim.Rng.create ~seed:21L () in
        let n = 100_000 in
        let xs =
          Array.init n (fun _ ->
              (* Log-uniform over 1 ns .. 1 s. *)
              Sim.Rng.int rng (1 lsl (1 + Sim.Rng.int rng 30)))
        in
        Array.iter (Sim.Metrics.observe d) xs;
        Array.sort Int.compare xs;
        let us k = Float.of_int xs.(k) /. 1e3 in
        let get field =
          match snapshot_field m ~name:"delay" field with
          | Some v -> Float.of_string v
          | None -> Alcotest.fail ("no " ^ field)
        in
        (* Count, min, max and mean come from exact integers; the spread
           from two float passes over the samples. *)
        let mean =
          Float.of_int (Array.fold_left ( + ) 0 xs) /. Float.of_int n
        in
        let sq =
          Array.fold_left
            (fun acc x -> acc +. ((Float.of_int x -. mean) ** 2.0))
            0.0 xs
        in
        List.iter
          (fun (field, want) ->
            Alcotest.(check (option string))
              field (Some (Sim.Json.to_string want))
              (snapshot_field m ~name:"delay" field))
          Sim.Json.
            [
              ("count", Int n);
              ("min", Float (us 0));
              ("max", Float (us (n - 1)));
              ("mean", Float (mean /. 1e3));
            ];
        let sd = sqrt (sq /. Float.of_int (n - 1)) /. 1e3 in
        if Float.abs (get "stddev" -. sd) > sd *. 1e-9 then
          Alcotest.failf "stddev: %g, from the samples %g" (get "stddev") sd;
        List.iter
          (fun q ->
            let e = Sim.Stats.percentile ~n us q
            and b = get (Printf.sprintf "p%.0f" q) in
            if Float.abs (b -. e) > e /. 128.0 then
              Alcotest.failf "p%.0f: %g, exact %g" q b e)
          [ 50.0; 95.0; 99.0 ]);
    Alcotest.test_case "dist moments are exact integers" `Quick (fun () ->
        let m = Sim.Metrics.create () in
        let d = Sim.Metrics.dist m ~sub:Sim.Subsystem.Atm "delay" in
        (* Equal samples, each past 2^31 ns: their squares take two
           ints, and the spread is exactly zero. *)
        let wide = (1 lsl 40) + 3 in
        for _ = 1 to 5 do
          Sim.Metrics.observe d wide
        done;
        let field f = snapshot_field m ~name:"delay" f in
        let show x = Some (Sim.Json.to_string (Sim.Json.Float x)) in
        Alcotest.(check (option string)) "mean" (show (Float.of_int wide /. 1e3))
          (field "mean");
        Alcotest.(check (option string)) "stddev" (show 0.0) (field "stddev");
        (* A stream whose squares sum past 2^62: the moments agree with
           Welford's float recurrence to rounding. *)
        let e = Sim.Metrics.create () in
        let d = Sim.Metrics.dist e ~sub:Sim.Subsystem.Atm "delay" in
        let s = Sim.Stats.Summary.create () in
        let xs = Sim.Stats.Samples.create () in
        let rng = Sim.Rng.create ~seed:5L () in
        for _ = 1 to 50_000 do
          let x = Sim.Rng.int rng 4_000_000_000 in
          Sim.Metrics.observe d x;
          Sim.Stats.Summary.add s (Float.of_int x /. 1e3);
          Sim.Stats.Samples.add xs (Float.of_int x /. 1e3)
        done;
        let get f =
          match snapshot_field e ~name:"delay" f with
          | Some v -> Float.of_string v
          | None -> Alcotest.fail f
        in
        Alcotest.(check (float 1e-3)) "mean" (Sim.Stats.Samples.mean xs)
          (get "mean");
        Alcotest.(check (float 1e-3)) "stddev" (Sim.Stats.Summary.stddev s)
          (get "stddev");
        Alcotest.check_raises "negative"
          (Invalid_argument "Metrics.observe: atm/delay: negative sample -1")
          (fun () -> Sim.Metrics.observe d (-1));
        Alcotest.(check int) "a refused sample is not counted" 50_000
          (Sim.Metrics.observed d));
    Alcotest.test_case "a dist reports in its unit" `Quick (fun () ->
        let m = Sim.Metrics.create () in
        let d =
          Sim.Metrics.dist m ~sub:Sim.Subsystem.Pfs ~unit:Sim.Metrics.Ms "pass_ms"
        in
        Sim.Metrics.observe d 2_500_000;
        Alcotest.(check (option string)) "p50 in ms" (Some "2.5")
          (snapshot_field m ~name:"pass_ms" "p50");
        Alcotest.check_raises "another unit"
          (Invalid_argument "Metrics: pfs/pass_ms reports in ms, requested in us")
          (fun () -> ignore (Sim.Metrics.dist m ~sub:Sim.Subsystem.Pfs "pass_ms")));
  ]

let dist_run_tests =
  [
    (* [observe_run] books a run of a link window in closed form and
       its histogram one octave at a time; it must leave exactly the
       dist that the run's samples, observed one by one, leave.  Runs
       start from edge cases (crossing 2^31 ns or bucket edges, the
       1 024 raw samples partway or at their end, or the train path's
       shapes) or at random: up to 65 536 samples from below 128 to
       2^40 ns, with a step that is zero or, in either sign, from 1 ns
       to past the widest bucket the run reaches.
       Before the run the dist takes [lo] samples of 0 and [hi] of
       2^44 ns, which moves the ranks p50/p95/p99 read to other samples
       of the run, so that a sample booked in the wrong bucket shows;
       the dist is also compared once merged into a parent that holds
       samples of its own. *)
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"observe_run equals count single observes"
         ~count:300
         QCheck2.Gen.(
           let edge =
             oneofl
               [
                 (* first, step, count, lo, hi *)
                 ((1 lsl 31) - 5_000, 7, 2_000, 0, 0);
                 ((1 lsl 31) + 5_000, -7, 2_000, 1_500, 1_500);
                 (127, 1, 300, 400, 400);
                 (300, -1, 300, 400, 400);
                 ((1 lsl 20) - 100, 3, 100, 1_000, 0);
                 ((1 lsl 20) + 100, -3, 100, 0, 1_000);
                 (500, 0, 3_000, 0, 0);
                 (40_000, -13, 100, 1_020, 0);
                 (0, 4_240, 2_048, 1_023, 0);
                 (1_000, 1, 24, 1_000, 0);
                 (4_000, -3, 100, 924, 0);
                 (* A first value below 128 climbing through 11 octaves,
                    and a run descending through 17 from 2^40. *)
                 (5, 3, 65_536, 0, 0);
                 ((1 lsl 40) + 12_345, -16_777_259, 65_536, 0, 0);
                 (* vod_flash's 32 KB frames: 684 cells from delay 0 at
                    the 4 240 ns cell time, into buckets wider than the
                    step; video_cells' 20-cell runs on a host link. *)
                 (0, 4_240, 684, 0, 0);
                 (0, 4_240, 684, 2_000, 2_000);
                 (0, 4_240, 20, 0, 0);
                 (84_800, 4_240, 20, 1_010, 0);
               ]
           in
           let random =
             let* first =
               oneof [ int_range 0 127; int_range 0 5_000_000; int_range 0 (1 lsl 40) ]
             in
             let* count = oneof [ int_range 1 3_000; int_range 1 65_536 ] in
             (* A magnitude spread evenly over the powers of two, so that
                steps narrower and wider than the buckets both come up. *)
             let* step =
               let* bits = int_range 0 42 in
               let* mag = int_range 1 (1 lsl bits) in
               oneofl [ 0; mag; -mag ]
             in
             (* Keep every sample at least 0. *)
             let step = Int.max step (-(first / Int.max 1 (count - 1))) in
             let* lo = int_range 0 (2 * count) and* hi = int_range 0 (2 * count) in
             return (first, step, count, lo, hi)
           in
           oneof [ edge; random ])
         (fun (first, step, count, lo, hi) ->
           let dump f =
             let m = Sim.Metrics.create () in
             let d = Sim.Metrics.dist m ~sub:Sim.Subsystem.Atm "run" in
             Sim.Metrics.observe_run d ~first:0 ~step:0 ~count:lo;
             Sim.Metrics.observe_run d ~first:(1 lsl 44) ~step:0 ~count:hi;
             f d;
             let parent = Sim.Metrics.create () in
             let p = Sim.Metrics.dist parent ~sub:Sim.Subsystem.Atm "run" in
             for i = 1 to 50 do
               Sim.Metrics.observe p (i * 7_919 mod 300_000)
             done;
             Sim.Metrics.merge ~into:parent m;
             ( Sim.Json.to_string (Sim.Metrics.snapshot m),
               Sim.Json.to_string (Sim.Metrics.snapshot parent) )
           in
           let by_run = dump (fun d -> Sim.Metrics.observe_run d ~first ~step ~count) in
           let one_by_one =
             dump (fun d ->
                 for j = 0 to count - 1 do
                   Sim.Metrics.observe d (first + (j * step))
                 done)
           in
           by_run = one_by_one));
    (* A dist walks a run's histogram counts only when something reads
       them, and a run equal to a pending one only adds to its weight.
       Runs drawn from a pool of up to 14 shapes, more than the 8 the
       dist keeps pending, mixed with single observes and step-0 runs,
       must read the same as their samples observed one by one at every
       read: snapshots taken mid-stream and of a parent that holds
       pending runs of its own and merges the dist in. *)
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"pending runs read as single observes"
         ~count:200
         QCheck2.Gen.(
           let shape =
             let* count = int_range 1 700 and* first = int_range 0 200_000 in
             let* step = oneof [ int_range 1 10_000; int_range (-300) (-1) ] in
             (* Keep every sample at least 0; a clamped step may be 0. *)
             let step = Int.max step (-(first / Int.max 1 (count - 1))) in
             return (first, step, count)
           in
           let* pool = array_size (int_range 1 14) shape in
           let op =
             frequency
               [
                 (10, map (fun i -> `Run pool.(i mod Array.length pool)) nat);
                 (2, map (fun x -> `Observe x) (int_range 0 1_000_000));
                 ( 1,
                   map2
                     (fun x count -> `Run (x, 0, count))
                     (int_range 0 1_000_000) (int_range 1 50) );
                 (2, return `Snapshot);
                 (1, return `Merge);
               ]
           in
           list_size (int_range 1 60) op)
         (fun ops ->
           let reads ~by_run =
             let book d (first, step, count) =
               if by_run then Sim.Metrics.observe_run d ~first ~step ~count
               else
                 for j = 0 to count - 1 do
                   Sim.Metrics.observe d (first + (j * step))
                 done
             in
             let dist m = Sim.Metrics.dist m ~sub:Sim.Subsystem.Atm "run" in
             let m = Sim.Metrics.create () in
             let d = dist m in
             let read m = Sim.Json.to_string (Sim.Metrics.snapshot m) in
             let step = function
               | `Run run -> book d run; None
               | `Observe x -> Sim.Metrics.observe d x; None
               | `Snapshot -> Some (read m)
               | `Merge ->
                   let parent = Sim.Metrics.create () in
                   List.iter (book (dist parent))
                     [ (0, 4_240, 684); (0, 4_240, 684); (7, 3, 500) ];
                   Sim.Metrics.merge ~into:parent m;
                   Some (read parent)
             in
             List.filter_map step ops @ [ read m ]
           in
           reads ~by_run:true = reads ~by_run:false));
  ]

let daemon_tests =
  [
    Alcotest.test_case "daemons do not keep an unbounded run alive" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let ticks = ref 0 in
        Sim.Engine.every ~daemon:true e ~period:(Sim.Time.ms 10) (fun () ->
            incr ticks;
            true);
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 35) (fun () -> ()));
        Sim.Engine.run e;
        (* The run stops at the last user event; the daemon fired only
           while user work remained. *)
        Alcotest.(check int) "three ticks" 3 !ticks;
        Alcotest.check time "stopped at 35ms" (Sim.Time.ms 35)
          (Sim.Engine.now e));
    Alcotest.test_case "daemons do fire under a time bound" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let ticks = ref 0 in
        Sim.Engine.every ~daemon:true e ~period:(Sim.Time.ms 10) (fun () ->
            incr ticks;
            true);
        Sim.Engine.run e ~until:(Sim.Time.ms 55);
        Alcotest.(check int) "five ticks" 5 !ticks);
    Alcotest.test_case "cancelling a daemon keeps the accounting right" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let id = Sim.Engine.schedule ~daemon:true e ~delay:(Sim.Time.ms 1) (fun () -> ()) in
        ignore (Sim.Engine.schedule e ~delay:(Sim.Time.ms 2) (fun () -> ()));
        ignore (Sim.Engine.cancel e id);
        Sim.Engine.run e;
        Alcotest.check time "user event still ran" (Sim.Time.ms 2)
          (Sim.Engine.now e));
  ]

let () =
  Alcotest.run "sim"
    [
      ("time", time_tests);
      ("heap", heap_tests);
      ("calendar", calendar_tests);
      ("engine", engine_tests);
      ("rng", rng_tests);
      ("alloc", alloc_tests);
      ("stats", stats_tests);
      ("trace", trace_tests);
      ("export", export_tests);
      ("audit", audit_tests);
      ("metrics", metrics_tests);
      (* Alcotest pads the suite column to the longest suite name and
         cuts each test name to fit the rest of the line: a suite name
         longer than nine characters changes how every test here is
         printed. *)
      ("dist-runs", dist_run_tests);
      ("daemon", daemon_tests);
      ("fault", fault_tests);
    ]
