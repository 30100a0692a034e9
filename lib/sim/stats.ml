module Summary = struct
  (* The five running floats live in a [floatarray], not in mutable
     float fields: in a record that also holds the int count, each float
     field is a pointer to a boxed float, so every [add] would allocate
     three fresh boxes.  A flat-float-array store is a plain unboxed
     write, which keeps [add] allocation-free. *)
  type t = { mutable n : int; f : floatarray }

  let mean_ = 0
  let m2_ = 1
  let min_ = 2
  let max_ = 3
  let total_ = 4

  let clear t =
    t.n <- 0;
    let f = t.f in
    Float.Array.unsafe_set f mean_ 0.0;
    Float.Array.unsafe_set f m2_ 0.0;
    Float.Array.unsafe_set f min_ infinity;
    Float.Array.unsafe_set f max_ neg_infinity;
    Float.Array.unsafe_set f total_ 0.0

  let create () =
    let t = { n = 0; f = Float.Array.create 5 } in
    clear t;
    t

  let[@inline] add t x =
    let f = t.f in
    t.n <- t.n + 1;
    let mean = Float.Array.unsafe_get f mean_ in
    let delta = x -. mean in
    let mean = mean +. (delta /. Float.of_int t.n) in
    Float.Array.unsafe_set f mean_ mean;
    Float.Array.unsafe_set f m2_
      (Float.Array.unsafe_get f m2_ +. (delta *. (x -. mean)));
    if x < Float.Array.unsafe_get f min_ then Float.Array.unsafe_set f min_ x;
    if x > Float.Array.unsafe_get f max_ then Float.Array.unsafe_set f max_ x;
    Float.Array.unsafe_set f total_ (Float.Array.unsafe_get f total_ +. x)

  let count t = t.n
  let mean t = Float.Array.get t.f mean_
  let m2 t = Float.Array.get t.f m2_

  let variance t =
    if t.n < 2 then 0.0 else m2 t /. Float.of_int (t.n - 1)

  let stddev t = sqrt (variance t)
  let min t = Float.Array.get t.f min_
  let max t = Float.Array.get t.f max_
  let total t = Float.Array.get t.f total_
  let copy t = { n = t.n; f = Float.Array.copy t.f }

  let merge a b =
    if a.n = 0 then copy b
    else if b.n = 0 then copy a
    else begin
      let n = a.n + b.n in
      let delta = mean b -. mean a in
      let mean = mean a +. (delta *. Float.of_int b.n /. Float.of_int n) in
      let m2 =
        m2 a +. m2 b
        +. (delta *. delta *. Float.of_int a.n *. Float.of_int b.n /. Float.of_int n)
      in
      let f = Float.Array.create 5 in
      Float.Array.set f mean_ mean;
      Float.Array.set f m2_ m2;
      Float.Array.set f min_ (Stdlib.min (min a) (min b));
      Float.Array.set f max_ (Stdlib.max (max a) (max b));
      Float.Array.set f total_ (total a +. total b);
      { n; f }
    end

  let pp fmt t =
    Format.fprintf fmt "n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f" t.n (mean t)
      (stddev t) (min t) (max t)
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

  let clear t =
    t.len <- 0;
    t.sorted <- false

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
    let rank = p /. 100.0 *. Float.of_int (t.len - 1) in
    let lo = Float.to_int (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (t.len - 1) in
    let frac = rank -. Float.of_int lo in
    t.data.(lo) +. (frac *. (t.data.(hi) -. t.data.(lo)))

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

module Histogram = struct
  type t = {
    width : float;
    counts : int array;
    mutable n : int;
    mutable oor : int;
  }

  let create ~bucket_width ~buckets =
    assert (bucket_width > 0.0 && buckets > 0);
    { width = bucket_width; counts = Array.make buckets 0; n = 0; oor = 0 }

  (* NaN and negative samples used to land silently in bucket 0
     ([Float.to_int nan = 0], negatives clamped up), polluting the
     lowest bucket; they are tallied separately instead.  Values beyond
     the top bucket are still clamped into it: they are at least
     ordered correctly. *)
  let add t x =
    if Float.is_nan x || x < 0.0 then t.oor <- t.oor + 1
    else begin
      let b = Float.to_int (x /. t.width) in
      let b = Stdlib.min b (Array.length t.counts - 1) in
      t.counts.(b) <- t.counts.(b) + 1;
      t.n <- t.n + 1
    end

  let count t = t.n
  let out_of_range t = t.oor
  let bucket_count t i = t.counts.(i)

  let pp fmt t =
    Format.fprintf fmt "@[<v>";
    Array.iteri
      (fun i c ->
        if c > 0 then
          Format.fprintf fmt "[%8.1f,%8.1f) %d@,"
            (t.width *. Float.of_int i)
            (t.width *. Float.of_int (i + 1))
            c)
      t.counts;
    if t.oor > 0 then Format.fprintf fmt "out-of-range (NaN/negative) %d@," t.oor;
    Format.fprintf fmt "@]"
end

module Counter = struct
  type t = (string, int ref) Hashtbl.t

  let create () = Hashtbl.create 16

  let incr ?(by = 1) t name =
    match Hashtbl.find_opt t name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add t name (ref by)

  let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

  let to_list t =
    Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end
