(* In-memory span recorder for the traced run.

   The benchmark brackets each call it makes into a layer's public
   functions with [enter]/[leave].  Spans nest on a stack: a span's
   parent is the span open when it started, and its self time is its
   duration minus the time its child spans cover.  Per-name totals are
   kept exactly for every span; full span records (name, operation id,
   parent, start, end) are kept up to a fixed capacity and written out
   as JSON lines when the run ends.  Recording a span costs two clock
   reads and a few array stores. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type name = int

let max_names = 32
let names = Array.make max_names ""
let n_names = ref 0

let name s =
  let rec find i =
    if i = !n_names then begin
      if i = max_names then invalid_arg "Span.name: too many span names";
      names.(i) <- s;
      incr n_names;
      i
    end
    else if names.(i) = s then i
    else find (i + 1)
  in
  find 0

(* Exact per-name aggregates since the last [reset]. *)
let total_ns = Array.make max_names 0
let child_ns = Array.make max_names 0

(* Durations of the names registered with [keep_durations]. *)
let keep = Array.make max_names false
let durations = Array.init max_names (fun _ -> ref (Array.make 0 0))
let n_durations = Array.make max_names 0

let keep_durations n = keep.(n) <- true

let push_duration n d =
  let buf = durations.(n) in
  let len = n_durations.(n) in
  if len = Array.length !buf then begin
    let grown = Array.make (Stdlib.max 1024 (2 * len)) 0 in
    Array.blit !buf 0 grown 0 len;
    buf := grown
  end;
  !buf.(len) <- d;
  n_durations.(n) <- len + 1

(* The open-span stack. *)
let max_depth = 64
let depth = ref 0
let st_name = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_rec = Array.make max_depth (-1)

(* Retained span records. *)
let capacity = ref 0
let n_recs = ref 0
let r_name = ref [||]
let r_id = ref [||]
let r_parent = ref [||]
let r_start = ref [||]
let r_end = ref [||]
let r_self = ref [||]

let reset ~records =
  depth := 0;
  Array.fill total_ns 0 max_names 0;
  Array.fill child_ns 0 max_names 0;
  Array.fill n_durations 0 max_names 0;
  capacity := records;
  n_recs := 0;
  if Array.length !r_name < records then begin
    r_name := Array.make records 0;
    r_id := Array.make records 0;
    r_parent := Array.make records 0;
    r_start := Array.make records 0;
    r_end := Array.make records 0;
    r_self := Array.make records 0
  end

let enter_id n id =
  let d = !depth in
  let t = now_ns () in
  st_name.(d) <- n;
  st_start.(d) <- t;
  st_child.(d) <- 0;
  let r = !n_recs in
  if r < !capacity then begin
    n_recs := r + 1;
    !r_name.(r) <- n;
    !r_id.(r) <- id;
    !r_parent.(r) <- (if d = 0 then -1 else st_rec.(d - 1));
    !r_start.(r) <- t;
    st_rec.(d) <- r
  end
  else st_rec.(d) <- -1;
  depth := d + 1

let enter n = enter_id n (-1)

let leave () =
  let t = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let n = st_name.(d) in
  let dur = t - st_start.(d) in
  let child = st_child.(d) in
  total_ns.(n) <- total_ns.(n) + dur;
  child_ns.(n) <- child_ns.(n) + child;
  if keep.(n) then push_duration n dur;
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  let r = st_rec.(d) in
  if r >= 0 then begin
    !r_end.(r) <- t;
    !r_self.(r) <- dur - child
  end

(* {1 Reading the aggregates} *)

let total_s n = Float.of_int total_ns.(n) *. 1e-9
let self_s n = Float.of_int (total_ns.(n) - child_ns.(n)) *. 1e-9

let durations_ns n = Array.sub !(durations.(n)) 0 n_durations.(n)

(* Spans as JSON lines, oldest first, with times relative to the first
   span's start; [parent] is the line index of the enclosing span. *)
let write_jsonl path =
  let oc = open_out path in
  let base = if !n_recs > 0 then !r_start.(0) else 0 in
  for r = 0 to !n_recs - 1 do
    Printf.fprintf oc
      "{\"span\":%d,\"name\":%S,\"id\":%d,\"parent\":%d,\
       \"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n"
      r
      names.(!r_name.(r))
      !r_id.(r) !r_parent.(r)
      (!r_start.(r) - base)
      (!r_end.(r) - base)
      !r_self.(r)
  done;
  close_out oc
