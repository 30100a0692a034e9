let percentile ~n at q =
  let rank = q /. 100.0 *. Float.of_int (n - 1) in
  let lo = Float.to_int (Float.floor rank) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = rank -. Float.of_int lo in
  at lo +. (frac *. (at hi -. at lo))

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
      let sub = Array.sub t.data 0 t.len in
      Array.sort Float.compare sub;
      Array.blit sub 0 t.data 0 t.len;
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
