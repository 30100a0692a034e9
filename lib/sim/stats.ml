let percentile ~n at q =
  let rank = q /. 100.0 *. Float.of_int (n - 1) in
  let lo = Float.to_int (Float.floor rank) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = rank -. Float.of_int lo in
  at lo +. (frac *. (at hi -. at lo))

(* A monomorphic, iterative port of [Array.sort]'s ternary heap sort
   over the floats in [\[0, len)]: it makes the same [Float.compare]
   calls and the same moves, so its result is bit-identical to
   [Array.sort Float.compare] on that prefix, ties of [0.0] with [-0.0]
   and of NaN payloads included.  The floats stay unboxed in the flat
   array and in local variables: no closure, no float argument and no
   copy, so it allocates nothing. *)

(* The child of heap node [i] (children [3i + 1 .. 3i + 3] below [l])
   holding the greatest value, the first of equals; -1 when [i] has no
   child. *)
let[@inline] max_son (a : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x =
      if
        Float.compare (Array.unsafe_get a i31) (Array.unsafe_get a (i31 + 1))
        < 0
      then i31 + 1
      else i31
    in
    if Float.compare (Array.unsafe_get a x) (Array.unsafe_get a (i31 + 2)) < 0
    then i31 + 2
    else x
  end
  else if
    i31 + 1 < l
    && Float.compare (Array.unsafe_get a i31) (Array.unsafe_get a (i31 + 1)) < 0
  then i31 + 1
  else if i31 < l then i31
  else -1

let sort_floats (a : float array) len =
  if len < 0 || len > Array.length a then invalid_arg "Stats.sort_floats";
  (* Build the heap: sift each inner node's value down. *)
  for top = ((len + 1) / 3) - 1 downto 0 do
    let e = Array.unsafe_get a top in
    let i = ref top and j = ref (max_son a len top) in
    while !j >= 0 && Float.compare (Array.unsafe_get a !j) e > 0 do
      Array.unsafe_set a !i (Array.unsafe_get a !j);
      i := !j;
      j := max_son a len !i
    done;
    Array.unsafe_set a !i e
  done;
  (* Move the maximum to the end: pull the greatest sons up along one
     path to a leaf, then sift the displaced last value up from there. *)
  for l = len - 1 downto 2 do
    let e = Array.unsafe_get a l in
    Array.unsafe_set a l (Array.unsafe_get a 0);
    let i = ref 0 and j = ref (max_son a l 0) in
    while !j >= 0 do
      Array.unsafe_set a !i (Array.unsafe_get a !j);
      i := !j;
      j := max_son a l !i
    done;
    let go = ref true in
    while !go do
      let father = (!i - 1) / 3 in
      if Float.compare (Array.unsafe_get a father) e < 0 then begin
        Array.unsafe_set a !i (Array.unsafe_get a father);
        i := father;
        if father = 0 then go := false
      end
      else go := false
    done;
    Array.unsafe_set a !i e
  done;
  if len > 1 then begin
    let e = Array.unsafe_get a 1 in
    Array.unsafe_set a 1 (Array.unsafe_get a 0);
    Array.unsafe_set a 0 e
  end

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
