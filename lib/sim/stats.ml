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

module Reservoir = struct
  (* Algorithm R over a fixed-size buffer.  The first [capacity]
     observations are stored verbatim (so small distributions keep
     exact percentiles); from then on observation [i] replaces a
     uniformly chosen slot with probability [capacity / i].  The
     replacement stream comes from an explicit SplitMix64 generator, so
     the retained sample — and therefore every percentile snapshot — is
     a pure function of (seed, observation sequence). *)
  type t = {
    data : float array;
    scratch : float array;
    mutable stored : int;
    mutable seen : int;
    mutable sorted : bool;
    mutable rng : Rng.t;
    seed : int64;
  }

  let default_capacity = 1024

  (* "reservo" in ASCII — an arbitrary fixed default seed. *)
  let create ?(capacity = default_capacity) ?(seed = 0x7265736572766FL) () =
    if capacity <= 0 then invalid_arg "Reservoir.create: capacity must be > 0";
    {
      data = Array.make capacity 0.0;
      scratch = Array.make capacity 0.0;
      stored = 0;
      seen = 0;
      sorted = false;
      rng = Rng.create ~seed ();
      seed;
    }

  let capacity t = Array.length t.data

  let[@inline] add t x =
    t.seen <- t.seen + 1;
    let cap = Array.length t.data in
    if t.stored < cap then begin
      t.data.(t.stored) <- x;
      t.stored <- t.stored + 1;
      t.sorted <- false
    end
    else begin
      let j = Rng.int t.rng t.seen in
      if j < cap then begin
        t.data.(j) <- x;
        t.sorted <- false
      end
    end

  let count t = t.seen
  let stored t = t.stored

  let clear t =
    t.stored <- 0;
    t.seen <- 0;
    t.sorted <- false;
    (* Restart the replacement stream too, so a cleared reservoir
       replays exactly like a fresh one. *)
    t.rng <- Rng.create ~seed:t.seed ()

  (* Sorting happens in a scratch copy: [data] must keep insertion
     order, because Algorithm R replaces by slot index. *)
  let sorted_view t =
    if not t.sorted then begin
      Array.blit t.data 0 t.scratch 0 t.stored;
      let sub = Array.sub t.scratch 0 t.stored in
      Array.sort Float.compare sub;
      Array.blit sub 0 t.scratch 0 t.stored;
      t.sorted <- true
    end;
    t.scratch

  let percentile t p =
    if t.stored = 0 then invalid_arg "Reservoir.percentile: empty";
    let view = sorted_view t in
    let rank = p /. 100.0 *. Float.of_int (t.stored - 1) in
    let lo = Float.to_int (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (t.stored - 1) in
    let frac = rank -. Float.of_int lo in
    view.(lo) +. (frac *. (view.(hi) -. view.(lo)))

  let to_array t = Array.sub t.data 0 t.stored

  (* Keep [m] of the first [n] values of [a], chosen by a partial
     Fisher-Yates shuffle: they end up in [a.(0 .. m-1)]. *)
  let choose rng a ~n ~m =
    for i = 0 to m - 1 do
      let j = i + Rng.int rng (n - i) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done

  let merge ~into src =
    let cap = Array.length into.data in
    let seen = into.seen + src.seen in
    if into.stored + src.stored <= cap then begin
      Array.blit src.data 0 into.data into.stored src.stored;
      into.stored <- into.stored + src.stored
    end
    else begin
      (* Each side's share of the slots follows the observations it
         stands for; the values filling them are drawn with [into]'s own
         generator. *)
      let k = ((src.seen * cap) + (seen / 2)) / seen in
      let k = Stdlib.max (cap - into.stored) (Stdlib.min src.stored k) in
      choose into.rng into.data ~n:into.stored ~m:(cap - k);
      let picked = Array.sub src.data 0 src.stored in
      choose into.rng picked ~n:src.stored ~m:k;
      Array.blit picked 0 into.data (cap - k) k;
      into.stored <- cap
    end;
    into.seen <- seen;
    into.sorted <- false
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
