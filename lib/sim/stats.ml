let percentile ~n at q =
  let rank = q /. 100.0 *. Float.of_int (n - 1) in
  let lo = Float.to_int (Float.floor rank) in
  let hi = Int.min (lo + 1) (n - 1) in
  let frac = rank -. Float.of_int lo in
  at lo +. (frac *. (at hi -. at lo))

(* A monomorphic, iterative port of [Array.sort]'s ternary heap sort
   over the floats in [\[lo, lo + len)]: it makes the same
   [Float.compare] calls and the same moves, so on a prefix its result
   is bit-identical to [Array.sort Float.compare], ties of [0.0] with
   [-0.0] and of NaN payloads included.  The floats stay unboxed in the
   flat array and in local variables: no closure, no float argument and
   no copy, so it allocates nothing. *)

(* The child of heap node [i] (children [3i + 1 .. 3i + 3] below [l])
   holding the greatest value, the first of equals; -1 when [i] has no
   child.  Nodes are offsets from [lo]. *)
let[@inline] max_son (a : float array) lo l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x =
      if
        Float.compare
          (Array.unsafe_get a (lo + i31))
          (Array.unsafe_get a (lo + i31 + 1))
        < 0
      then i31 + 1
      else i31
    in
    if
      Float.compare (Array.unsafe_get a (lo + x))
        (Array.unsafe_get a (lo + i31 + 2))
      < 0
    then i31 + 2
    else x
  end
  else if
    i31 + 1 < l
    && Float.compare
         (Array.unsafe_get a (lo + i31))
         (Array.unsafe_get a (lo + i31 + 1))
       < 0
  then i31 + 1
  else if i31 < l then i31
  else -1

let heap_sort (a : float array) lo len =
  (* Build the heap: sift each inner node's value down. *)
  for top = ((len + 1) / 3) - 1 downto 0 do
    let e = Array.unsafe_get a (lo + top) in
    let i = ref top and j = ref (max_son a lo len top) in
    while !j >= 0 && Float.compare (Array.unsafe_get a (lo + !j)) e > 0 do
      Array.unsafe_set a (lo + !i) (Array.unsafe_get a (lo + !j));
      i := !j;
      j := max_son a lo len !i
    done;
    Array.unsafe_set a (lo + !i) e
  done;
  (* Move the maximum to the end: pull the greatest sons up along one
     path to a leaf, then sift the displaced last value up from there. *)
  for l = len - 1 downto 2 do
    let e = Array.unsafe_get a (lo + l) in
    Array.unsafe_set a (lo + l) (Array.unsafe_get a lo);
    let i = ref 0 and j = ref (max_son a lo l 0) in
    while !j >= 0 do
      Array.unsafe_set a (lo + !i) (Array.unsafe_get a (lo + !j));
      i := !j;
      j := max_son a lo l !i
    done;
    let go = ref true in
    while !go do
      let father = (!i - 1) / 3 in
      if Float.compare (Array.unsafe_get a (lo + father)) e < 0 then begin
        Array.unsafe_set a (lo + !i) (Array.unsafe_get a (lo + father));
        i := father;
        if father = 0 then go := false
      end
      else go := false
    done;
    Array.unsafe_set a (lo + !i) e
  done;
  if len > 1 then begin
    let e = Array.unsafe_get a (lo + 1) in
    Array.unsafe_set a (lo + 1) (Array.unsafe_get a lo);
    Array.unsafe_set a lo e
  end

(* When the prefix holds no NaN and not both zeros, floats that
   [Float.compare] ties have the same bits, so every correct sort of it
   reads bit for bit as [Array.sort]'s, and [sort_floats] may use a
   faster one: an introsort.  Median-of-three quicksort partitions
   with plain [<] (no NaN to order), ranges below [small_range] floats
   are insertion-sorted, and a range more than [2 log2 len] partitions
   deep goes to [heap_sort], which bounds the whole at O(n log n). *)
let ties_are_equal_bits (a : float array) len =
  let ok = ref true and pos0 = ref false and neg0 = ref false and i = ref 0 in
  while !ok && !i < len do
    let x = Array.unsafe_get a !i in
    if x <> x then ok := false
    else if x = 0.0 then
      if 1.0 /. x > 0.0 then pos0 := true else neg0 := true;
    incr i
  done;
  !ok && not (!pos0 && !neg0)

let small_range = 16

let insertion_sort (a : float array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get a !j > x do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

let[@inline] swap (a : float array) i j =
  let x = Array.unsafe_get a i in
  Array.unsafe_set a i (Array.unsafe_get a j);
  Array.unsafe_set a j x

(* Sort [\[lo, hi)], at most [depth] more partitions deep.  The median
   of three is ordered into [lo], [mid] and [hi - 1], so [a.(lo) <= p
   <= a.(hi - 1)] stop both scans without a bounds test; every swap
   lies strictly between them, and each side loses at least one
   float. *)
let rec introsort (a : float array) lo hi depth =
  if hi - lo <= small_range then insertion_sort a lo hi
  else if depth = 0 then heap_sort a lo (hi - lo)
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if Array.unsafe_get a mid < Array.unsafe_get a lo then swap a lo mid;
    if Array.unsafe_get a (hi - 1) < Array.unsafe_get a mid then begin
      swap a mid (hi - 1);
      if Array.unsafe_get a mid < Array.unsafe_get a lo then swap a lo mid
    end;
    let p = Array.unsafe_get a mid in
    let i = ref (lo + 1) and j = ref (hi - 2) in
    while !i <= !j do
      while Array.unsafe_get a !i < p do
        incr i
      done;
      while p < Array.unsafe_get a !j do
        decr j
      done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    introsort a lo (!j + 1) (depth - 1);
    introsort a !i hi (depth - 1)
  end

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let sort_floats (a : float array) len =
  if len < 0 || len > Array.length a then invalid_arg "Stats.sort_floats";
  if ties_are_equal_bits a len then introsort a 0 len (2 * log2 len)
  else heap_sort a 0 len

module Summary = struct
  (* The two running floats live in a [floatarray], not in mutable
     float fields: in a record that also holds the int count, each float
     field is a pointer to a boxed float, so every [add] would allocate
     fresh boxes.  A flat-float-array store is a plain unboxed write,
     which keeps [add] allocation-free. *)
  type t = { mutable n : int; f : floatarray }

  let mean_ = 0
  let m2_ = 1
  let create () = { n = 0; f = Float.Array.make 2 0.0 }

  let[@inline] add t x =
    let f = t.f in
    t.n <- t.n + 1;
    let mean = Float.Array.unsafe_get f mean_ in
    let delta = x -. mean in
    let mean = mean +. (delta /. Float.of_int t.n) in
    Float.Array.unsafe_set f mean_ mean;
    Float.Array.unsafe_set f m2_
      (Float.Array.unsafe_get f m2_ +. (delta *. (x -. mean)))

  let stddev t =
    if t.n < 2 then 0.0
    else sqrt (Float.Array.get t.f m2_ /. Float.of_int (t.n - 1))
end

module Samples = struct
  type t = {
    mutable data : float array;
    mutable len : int;
    mutable sorted : bool;
  }

  let create () = { data = [||]; len = 0; sorted = false }

  let add t x =
    if t.len = Array.length t.data then begin
      let ncap = if t.len = 0 then 64 else t.len * 2 in
      let narr = Array.make ncap 0.0 in
      Array.blit t.data 0 narr 0 t.len;
      t.data <- narr
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1;
    t.sorted <- false

  let count t = t.len

  let ensure_sorted t =
    if not t.sorted then begin
      sort_floats t.data t.len;
      t.sorted <- true
    end

  let percentile t p =
    if t.len = 0 then invalid_arg "Samples.percentile: empty";
    ensure_sorted t;
    percentile ~n:t.len (Array.get t.data) p

  (* Raises like [min]/[max]/[percentile] do: the old silent-0.0
     return let an empty sample set masquerade as a measured zero
     (e.g. a zero RPC round-trip when no reply ever arrived). *)
  let mean t =
    if t.len = 0 then invalid_arg "Samples.mean: empty";
    let s = ref 0.0 in
    for i = 0 to t.len - 1 do
      s := !s +. t.data.(i)
    done;
    !s /. Float.of_int t.len

  let min t =
    if t.len = 0 then invalid_arg "Samples.min: empty";
    ensure_sorted t;
    t.data.(0)

  let max t =
    if t.len = 0 then invalid_arg "Samples.max: empty";
    ensure_sorted t;
    t.data.(t.len - 1)

  let to_array t = Array.sub t.data 0 t.len
end
