type counter = {
  c_sub : Subsystem.t;
  c_name : string;
  c_help : string;
  mutable c_value : int;
}

(* The value lives in a one-element [floatarray] rather than a mutable
   float field: in a mixed record the float field is a pointer to a
   boxed float, so every [set] would allocate a fresh box, while a
   flat-float-array store is a plain unboxed write.  Hot-path writers
   (the engine's queue-depth sampler) grab the cell once and write
   through it inline, keeping gauge updates allocation-free. *)
type gauge = {
  g_sub : Subsystem.t;
  g_name : string;
  g_help : string;
  g_cell : floatarray;
}

type time_unit = Us | Ms

(* A distribution is an exact summary of integer nanoseconds that does
   not depend on the order of its samples: the count, the sum and the
   sum of squares (each in two ints, [hi * 2^62 + lo] with [lo] in
   [\[0, 2^62)], so neither overflows), the min and the max, plus a
   log-linear histogram.  Values below 128 ns get a bucket each; above
   that, each octave [\[2^e, 2^(e+1))] splits into 64 buckets, so a
   bucket is at most 1/64 of its lower bound wide ({!bucket}).  The
   histogram array grows to cover the highest bucket seen.  The first
   [d_raw_cap] samples are also kept raw, so a dist that never outgrows
   them reports exact percentiles.  Every field an observation writes
   is an int or an element of an int array: it stores no pointer, so it
   needs no write barrier, and it divides nothing. *)
type dist = {
  d_sub : Subsystem.t;
  d_name : string;
  d_help : string;
  d_unit : time_unit;
  d_raw_cap : int;
  mutable d_n : int;
  mutable d_sum_hi : int;
  mutable d_sum_lo : int;
  mutable d_sq_hi : int;
  mutable d_sq_lo : int;
  mutable d_min : int;
  mutable d_max : int;
  mutable d_raw : int array;  (* [0, d_n) in use while [d_n <= d_raw_cap] *)
  mutable d_sorted : bool;  (* the raw samples in use are sorted *)
  mutable d_hist : int array;  (* counts by {!bucket} *)
}

(* A windowed observer is a sample fan-out point: components call
   {!sample} unconditionally on their hot path, and the monitor layer
   ({!Monitor}) attaches sinks when a health run wants the stream.
   With no sinks attached the cost is one load and one branch — the
   instrument must be free to leave compiled into every subsystem.
   The sink array is only ever replaced wholesale (never mutated in
   place), so a sampler running concurrently with an attach sees either
   the old or the new array, both valid. *)
type observer = {
  o_sub : Subsystem.t;
  o_name : string;
  o_help : string;
  mutable o_on : bool;
  mutable o_count : int;  (* samples delivered while enabled *)
  mutable o_sinks : (float -> unit) array;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Dist of dist
  | Obs of observer

type t = { tbl : (string * string, metric) Hashtbl.t; exact_dists : bool }

let create ?(exact_dists = false) () =
  { tbl = Hashtbl.create 64; exact_dists }

let raw_cap = 1024

let clear_dist d =
  d.d_n <- 0;
  d.d_sum_hi <- 0;
  d.d_sum_lo <- 0;
  d.d_sq_hi <- 0;
  d.d_sq_lo <- 0;
  d.d_min <- max_int;
  d.d_max <- min_int;
  d.d_sorted <- true;
  Array.fill d.d_hist 0 (Array.length d.d_hist) 0

(* Zero every registered metric in place.  Handles alias the registry
   entries, so handles obtained before the reset keep working and their
   updates stay visible in snapshots — the old behaviour (dropping the
   table entries) silently disconnected every live handle. *)
let reset t =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.c_value <- 0
      | Gauge g -> Float.Array.set g.g_cell 0 0.0
      | Dist d -> clear_dist d
      | Obs o -> o.o_count <- 0)
    t.tbl

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Dist _ -> "dist"
  | Obs _ -> "observer"

let get_or_create t ~sub ~name ~kind make =
  let key = (Subsystem.to_string sub, name) in
  match Hashtbl.find_opt t.tbl key with
  | Some m ->
      let existing = kind_name m in
      if existing <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s/%s registered as %s, requested as %s"
             (fst key) name existing kind);
      m
  | None ->
      let m = make () in
      Hashtbl.replace t.tbl key m;
      m

let counter t ~sub ?(help = "") name =
  match
    get_or_create t ~sub ~name ~kind:"counter" (fun () ->
        Counter { c_sub = sub; c_name = name; c_help = help; c_value = 0 })
  with
  | Counter c -> c
  | Gauge _ | Dist _ | Obs _ -> assert false

let gauge t ~sub ?(help = "") name =
  match
    get_or_create t ~sub ~name ~kind:"gauge" (fun () ->
        Gauge
          { g_sub = sub; g_name = name; g_help = help; g_cell = Float.Array.make 1 0.0 })
  with
  | Gauge g -> g
  | Counter _ | Dist _ | Obs _ -> assert false

let unit_name = function Us -> "us" | Ms -> "ms"

let dist t ~sub ?(help = "") ?(unit = Us) name =
  match
    get_or_create t ~sub ~name ~kind:"dist" (fun () ->
        let d =
          {
            d_sub = sub;
            d_name = name;
            d_help = help;
            d_unit = unit;
            d_raw_cap = (if t.exact_dists then max_int else raw_cap);
            d_n = 0;
            d_sum_hi = 0;
            d_sum_lo = 0;
            d_sq_hi = 0;
            d_sq_lo = 0;
            d_min = max_int;
            d_max = min_int;
            d_raw = [||];
            d_sorted = true;
            d_hist = [||];
          }
        in
        Dist d)
  with
  | Dist d ->
      if d.d_unit <> unit then
        invalid_arg
          (Printf.sprintf "Metrics: %s/%s reports in %s, requested in %s"
             (Subsystem.to_string sub) name (unit_name d.d_unit)
             (unit_name unit));
      d
  | Counter _ | Gauge _ | Obs _ -> assert false

let observer t ~sub ?(help = "") name =
  match
    get_or_create t ~sub ~name ~kind:"observer" (fun () ->
        Obs
          {
            o_sub = sub;
            o_name = name;
            o_help = help;
            o_on = false;
            o_count = 0;
            o_sinks = [||];
          })
  with
  | Obs o -> o
  | Counter _ | Gauge _ | Dist _ -> assert false

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let value c = c.c_value
let set g v = Float.Array.set g.g_cell 0 v
let get g = Float.Array.get g.g_cell 0
let cell g = g.g_cell

(* The disabled path is the contract: one load, one branch, no call —
   cheap enough to leave in every hot loop ([Pfs.Directory] samples on
   every read, monitored or not).  The enabled path fans the sample out
   to every attached sink. *)
let[@inline] sample o v =
  if o.o_on then begin
    o.o_count <- o.o_count + 1;
    let sinks = o.o_sinks in
    for i = 0 to Array.length sinks - 1 do
      (Array.unsafe_get sinks i) v
    done
  end

let attach_sink o f =
  o.o_sinks <- Array.append o.o_sinks [| f |];
  o.o_on <- true

let enabled o = o.o_on

(* ------------------------------------------------------------------ *)
(* Observing a sample. *)

(* Add [v] in [\[0, 2^62)] to a two-int sum: [lo + v] wraps negative
   exactly when it reaches 2^62, and [land max_int] then drops that
   bit. *)
let[@inline] add_sum d v =
  let s = d.d_sum_lo + v in
  if s < 0 then begin
    d.d_sum_hi <- d.d_sum_hi + 1;
    d.d_sum_lo <- s land max_int
  end
  else d.d_sum_lo <- s

let[@inline] add_sq d v =
  let s = d.d_sq_lo + v in
  if s < 0 then begin
    d.d_sq_hi <- d.d_sq_hi + 1;
    d.d_sq_lo <- s land max_int
  end
  else d.d_sq_lo <- s

(* A sample of 2^31 ns or more: its square needs two ints.  With
   [x = a * 2^31 + b], [x^2 = a^2 * 2^62 + a * b * 2^32 + b^2]. *)
let moments_wide d x =
  if x < 0 then
    invalid_arg
      (Printf.sprintf "Metrics.observe: %s/%s: negative sample %d"
         (Subsystem.to_string d.d_sub) d.d_name x);
  add_sum d x;
  let a = x lsr 31 and b = x land 0x7fff_ffff in
  let ab = a * b in
  d.d_sq_hi <- d.d_sq_hi + (a * a) + (ab lsr 30);
  add_sq d ((ab land 0x3fff_ffff) lsl 32);
  add_sq d (b * b)

(* Raw samples and histogram counts live in blocks of at least 320
   words, which OCaml allocates straight in the major heap: a dist's
   first samples add nothing to a run's minor-heap words.  A block grows
   by a plain int copy; [Array.blit] would call [caml_modify] per
   element of a major-heap block. *)
let grown (a : int array) len =
  let b = Array.make len 0 in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set b i (Array.unsafe_get a i)
  done;
  b

let keep_raw d x =
  let i = d.d_n - 1 in
  if i = Array.length d.d_raw then
    d.d_raw <- grown d.d_raw (Int.max raw_cap (2 * i));
  Array.unsafe_set d.d_raw i x;
  d.d_sorted <- false

let grow_hist d i =
  d.d_hist <-
    grown d.d_hist (Int.max (i + 1) (Int.max 320 (2 * Array.length d.d_hist)))

(* The index of the highest set bit of [x > 0], by halving: branches
   rather than a C call or a float conversion. *)
let[@inline] msb x =
  let x = ref x and e = ref 0 in
  if !x lsr 32 <> 0 then begin
    x := !x lsr 32;
    e := 32
  end;
  if !x lsr 16 <> 0 then begin
    x := !x lsr 16;
    e := !e + 16
  end;
  if !x lsr 8 <> 0 then begin
    x := !x lsr 8;
    e := !e + 8
  end;
  if !x lsr 4 <> 0 then begin
    x := !x lsr 4;
    e := !e + 4
  end;
  if !x lsr 2 <> 0 then begin
    x := !x lsr 2;
    e := !e + 2
  end;
  if !x lsr 1 <> 0 then !e + 1 else !e

(* The histogram bucket of [x >= 0]: [x] itself below 128, else
   [64 * (e - 6) + x lsr (e - 6)] for [x] in [\[2^e, 2^(e+1))], the
   top seven bits of [x].  Every int has a bucket below 3 648.  The
   bucket holds the [2^sh] values that share [x lsr sh]. *)
let[@inline] bucket_shift x = if x < 128 then 0 else msb x - 6
let[@inline] bucket_at x sh = (sh lsl 6) + (x lsr sh)
let[@inline] bucket x = bucket_at x (bucket_shift x)

(* The lowest value of bucket [b] and the bucket's width. *)
let bucket_range b =
  if b < 128 then (b, 1)
  else
    let shift = (b lsr 6) - 1 in
    ((b land 63) + 64) lsl shift, 1 lsl shift

let[@inline] moments d x =
  if x lsr 31 = 0 then begin
    add_sum d x;
    add_sq d (x * x)
  end
  else moments_wide d x

let[@inline] observe d x =
  moments d x;
  let n = d.d_n + 1 in
  d.d_n <- n;
  if x < d.d_min then d.d_min <- x;
  if x > d.d_max then d.d_max <- x;
  if n <= d.d_raw_cap then keep_raw d x;
  let b = bucket x in
  if b >= Array.length d.d_hist then grow_hist d b;
  let h = d.d_hist in
  Array.unsafe_set h b (Array.unsafe_get h b + 1)

(* The histogram counts of the [count] samples [lo + j * step], [step >
   0], walked in ascending order one octave at a time (below 128, the
   one-value buckets count as one octave): one [msb] and one division
   find the octave's samples.  Where [step] is at least the octave's
   bucket width [w], no two samples share a bucket and each takes one
   add.  Where it is not, each bucket takes one add: after the octave's
   first bucket, which takes one more division, a bucket whose first
   sample lies [off < step] past its lowest value holds [q + 1] samples
   if [off < r] and [q] otherwise, where [w = q * step + r], and the
   next bucket's offset follows by the same remainder.  The counts are
   exactly those of [count] {!bucket} lookups. *)
let hist_run (h : int array) ~lo ~step ~count =
  let x = ref lo and left = ref count in
  while !left > 0 do
    let x0 = !x in
    let sh = bucket_shift x0 in
    (* The octave ends at [2^(sh + 7)]: at 128 when [sh = 0]. *)
    let n = Int.min !left ((((1 lsl (sh + 7)) - 1 - x0) / step) + 1) in
    let w = 1 lsl sh in
    if step >= w then
      for j = 0 to n - 1 do
        let b = bucket_at (x0 + (j * step)) sh in
        Array.unsafe_set h b (Array.unsafe_get h b + 1)
      done
    else begin
      let q = w / step in
      let r = w - (q * step) in
      let b = ref (bucket_at x0 sh) and rest = ref n in
      (* The current bucket's samples, and where the next bucket's
         first sample lies past its lowest value. *)
      let first_off = x0 land (w - 1) in
      let k = ref (((w - 1 - first_off) / step) + 1) in
      let off = ref (first_off + (!k * step) - w) in
      while !rest > 0 do
        let here = Int.min !k !rest in
        Array.unsafe_set h !b (Array.unsafe_get h !b + here);
        rest := !rest - here;
        b := !b + 1;
        let o = !off in
        k := if o < r then q + 1 else q;
        off := if o < r then o + step - r else o - r
      done
    end;
    x := x0 + (n * step);
    left := !left - n
  done

(* [count] samples [first + j * step].  The moments come in closed form
   when every sample is below 2^31 ns, the run has at most 2^20 of them
   and [count * max^2] fits in an int: then each total, and each of the
   three terms of the sum of squares, lies in [\[0, 2^62)] or its
   negation, so int arithmetic gives the totals exactly even where a
   partial sum wraps.  [sj] and [sjj] are the sums of [j] and [j^2]. *)
let observe_run d ~first ~step ~count =
  if count > 0 then begin
    let last = first + ((count - 1) * step) in
    let lo = Int.min first last and hi = Int.max first last in
    if lo < 0 then
      invalid_arg
        (Printf.sprintf "Metrics.observe_run: %s/%s: negative sample %d"
           (Subsystem.to_string d.d_sub) d.d_name lo);
    if count <= 1 lsl 20 && hi lsr 31 = 0 && hi * hi <= max_int / count then begin
      let sj = count * (count - 1) / 2 in
      let sjj = sj * ((2 * count) - 1) / 3 in
      add_sum d ((count * first) + (step * sj));
      add_sq d ((count * first * first) + (2 * first * step * sj) + (step * step * sjj))
    end
    else
      for j = 0 to count - 1 do
        moments d (first + (j * step))
      done;
    if lo < d.d_min then d.d_min <- lo;
    if hi > d.d_max then d.d_max <- hi;
    let j = ref 0 in
    while !j < count && d.d_n < d.d_raw_cap do
      d.d_n <- d.d_n + 1;
      keep_raw d (first + (!j * step));
      j := !j + 1
    done;
    d.d_n <- d.d_n + (count - !j);
    let top = bucket hi in
    if top >= Array.length d.d_hist then grow_hist d top;
    if step = 0 then begin
      let h = d.d_hist and b = bucket first in
      h.(b) <- h.(b) + count
    end
    else hist_run d.d_hist ~lo ~step:(Int.abs step) ~count
  end

let observed d = d.d_n

(* ------------------------------------------------------------------ *)
(* Reading a dist, in its unit. *)

let scale d = match d.d_unit with Us -> 1e3 | Ms -> 1e6
let wide_to_float hi lo = (Float.of_int hi *. 0x1p62) +. Float.of_int lo

(* Non-negative integers as little-endian arrays of 31-bit limbs: just
   enough arithmetic for [n * sum_sq - sum^2] to come out exact. *)
let limb = 0x7fff_ffff
let limbs_of_wide hi lo = [| lo land limb; lo lsr 31; hi land limb; hi lsr 31 |]

let limbs_mul a b =
  let r = Array.make (Array.length a + Array.length b) 0 in
  Array.iteri
    (fun i x ->
      let carry = ref 0 in
      Array.iteri
        (fun j y ->
          let v = r.(i + j) + (x * y) + !carry in
          r.(i + j) <- v land limb;
          carry := v lsr 31)
        b;
      r.(i + Array.length b) <- !carry)
    a;
  r

let limbs_sub a b =
  let borrow = ref 0 in
  Array.mapi
    (fun i x ->
      let v = x - b.(i) - !borrow in
      borrow := if v < 0 then 1 else 0;
      v land limb)
    a

let limbs_to_float a =
  Array.fold_right (fun l acc -> (acc *. 0x1p31) +. Float.of_int l) a 0.0

let mean d = wide_to_float d.d_sum_hi d.d_sum_lo /. Float.of_int d.d_n /. scale d

(* The sample standard deviation from exact moments:
   [(n * sum_sq - sum^2) / (n * (n - 1))] is the variance, and its
   numerator is computed exactly, so samples that are all equal give
   exactly 0. *)
let stddev d =
  let n = d.d_n in
  if n < 2 then 0.0
  else begin
    let sum = limbs_of_wide d.d_sum_hi d.d_sum_lo in
    let num =
      limbs_sub
        (limbs_mul (limbs_of_wide 0 n) (limbs_of_wide d.d_sq_hi d.d_sq_lo))
        (limbs_mul sum sum)
    in
    sqrt (limbs_to_float num /. (Float.of_int n *. Float.of_int (n - 1)))
    /. scale d
  end

(* The [k]th smallest sample (from 0): exact while the raw samples hold
   them all, else the midpoint of its histogram bucket, kept within
   [\[min, max\]]. *)
let order_stat d k =
  if d.d_n <= d.d_raw_cap then begin
    if not d.d_sorted then begin
      let used = Array.sub d.d_raw 0 d.d_n in
      Array.sort Int.compare used;
      Array.blit used 0 d.d_raw 0 d.d_n;
      d.d_sorted <- true
    end;
    Float.of_int d.d_raw.(k)
  end
  else begin
    let rec find b seen =
      let seen = seen + d.d_hist.(b) in
      if seen > k then b else find (b + 1) seen
    in
    let lo, width = bucket_range (find 0 0) in
    let mid = Float.of_int lo +. (Float.of_int (width - 1) /. 2.0) in
    Float.min (Float.of_int d.d_max) (Float.max (Float.of_int d.d_min) mid)
  end

let percentile d q =
  Stats.percentile ~n:d.d_n (fun k -> order_stat d k /. scale d) q

(* ------------------------------------------------------------------ *)
(* Merging a child registry into its parent. *)

(* Every part of a dist merges by addition, min or max, so merging the
   same children in any order gives the same dist. *)
let merge_dist p d =
  if p.d_raw_cap <> d.d_raw_cap then
    invalid_arg
      (Printf.sprintf "Metrics.merge: %s/%s mixes exact and sampled dists"
         (Subsystem.to_string d.d_sub) d.d_name);
  if p.d_n + d.d_n <= p.d_raw_cap then
    for i = 0 to d.d_n - 1 do
      p.d_n <- p.d_n + 1;
      keep_raw p d.d_raw.(i)
    done
  else p.d_n <- p.d_n + d.d_n;
  add_sum p d.d_sum_lo;
  p.d_sum_hi <- p.d_sum_hi + d.d_sum_hi;
  add_sq p d.d_sq_lo;
  p.d_sq_hi <- p.d_sq_hi + d.d_sq_hi;
  p.d_min <- Int.min p.d_min d.d_min;
  p.d_max <- Int.max p.d_max d.d_max;
  let len = Array.length d.d_hist in
  if len > Array.length p.d_hist then grow_hist p (len - 1);
  Array.iteri (fun b c -> p.d_hist.(b) <- p.d_hist.(b) + c) d.d_hist

let merge_metric into m =
  match m with
  | Counter c ->
      incr ~by:c.c_value (counter into ~sub:c.c_sub ~help:c.c_help c.c_name)
  | Gauge g -> set (gauge into ~sub:g.g_sub ~help:g.g_help g.g_name) (get g)
  | Obs o ->
      let p = observer into ~sub:o.o_sub ~help:o.o_help o.o_name in
      p.o_count <- p.o_count + o.o_count;
      (* A sequential run would have attached the sink here. *)
      if o.o_on then p.o_on <- true
  | Dist d ->
      merge_dist
        (dist into ~sub:d.d_sub ~help:d.d_help ~unit:d.d_unit d.d_name)
        d

let merge ~into src = Hashtbl.iter (fun _ m -> merge_metric into m) src.tbl

(* ------------------------------------------------------------------ *)
(* Snapshots. *)

let sorted_metrics t =
  Hashtbl.fold (fun key m acc -> (key, m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let json_of_metric m =
  let base sub name help kind =
    [
      ("subsystem", Json.String (Subsystem.to_string sub));
      ("name", Json.String name);
      ("kind", Json.String kind);
    ]
    @ if help = "" then [] else [ ("help", Json.String help) ]
  in
  match m with
  | Counter c ->
      Json.Obj (base c.c_sub c.c_name c.c_help "counter" @ [ ("value", Json.Int c.c_value) ])
  | Gauge g ->
      Json.Obj
        (base g.g_sub g.g_name g.g_help "gauge"
        @ [ ("value", Json.Float (Float.Array.get g.g_cell 0)) ])
  | Dist d ->
      let stats =
        if d.d_n = 0 then [ ("count", Json.Int 0) ]
        else
          let p q = Json.Float (percentile d q) in
          [
            ("count", Json.Int d.d_n);
            ("mean", Json.Float (mean d));
            ("stddev", Json.Float (stddev d));
            ("min", Json.Float (Float.of_int d.d_min /. scale d));
            ("max", Json.Float (Float.of_int d.d_max /. scale d));
            ("p50", p 50.0);
            ("p95", p 95.0);
            ("p99", p 99.0);
          ]
      in
      Json.Obj (base d.d_sub d.d_name d.d_help "dist" @ stats)
  | Obs o ->
      Json.Obj
        (base o.o_sub o.o_name o.o_help "observer"
        @ [ ("enabled", Json.Bool o.o_on); ("samples", Json.Int o.o_count) ])

let snapshot t =
  Json.Obj [ ("metrics", Json.List (List.map json_of_metric (sorted_metrics t))) ]

let write t path = Json.to_file path (snapshot t)
