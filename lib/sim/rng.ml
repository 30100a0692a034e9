type zipf_cache = { zn : int; zs : float; cdf : float array }

(* A small MRU set of CDF caches rather than a single slot: a workload
   that interleaves draws from two (n, s) pairs — the flash-crowd
   generator mixes pre- and post-flip distributions — would otherwise
   rebuild an O(n) table on every call. *)
let zipf_cache_slots = 8

(* The SplitMix64 state lives unboxed in an 8-byte buffer rather than in
   a mutable [int64] field, which would point to a fresh boxed int64 on
   every draw.  With [int64] and [mix64] inlined, a draw that ends in an
   [int] ([int], [bool], [shuffle]) allocates nothing. *)
type t = { state : bytes; mutable zipf : zipf_cache list }

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let b = Bytes.create 8 in
  set64u b 0 state;
  { state = b; zipf = [] }

let create ?(seed = 0x5DEECE66DL) () = of_state seed

let[@inline] int64 t =
  let s = Int64.add (get64u t.state 0) golden_gamma in
  set64u t.state 0 s;
  mix64 s

let split t =
  let seed = int64 t in
  of_state (mix64 seed)

let float t =
  (* 53 random bits scaled to [0,1) *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let[@inline] int t bound =
  assert (bound > 0);
  let r = Int64.to_int (int64 t) land max_int in
  r mod bound

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let exponential t ~mean =
  let u = 1.0 -. float t in
  -.mean *. log u

let normal t ~mu ~sigma =
  let u1 = 1.0 -. float t and u2 = float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mu +. (sigma *. z)

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

let zipf_cdf n s =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 1 to n do
    acc := !acc +. (1.0 /. (Float.of_int k ** s));
    cdf.(k - 1) <- !acc
  done;
  let total = !acc in
  Array.map (fun x -> x /. total) cdf

(* Fetch (or build) the cache for (n, s) and move it to the front of
   the MRU list; the list is bounded at [zipf_cache_slots].  The cache
   never affects drawn values — only whether the CDF is rebuilt. *)
let zipf_lookup t ~n ~s =
  match t.zipf with
  | c :: _ when c.zn = n && c.zs = s -> c
  | caches -> (
      match List.find_opt (fun c -> c.zn = n && c.zs = s) caches with
      | Some c ->
          t.zipf <-
            c :: List.filter (fun c' -> not (c' == c)) caches;
          c
      | None ->
          let c = { zn = n; zs = s; cdf = zipf_cdf n s } in
          let rec take k = function
            | [] -> []
            | _ when k = 0 -> []
            | x :: rest -> x :: take (k - 1) rest
          in
          t.zipf <- c :: take (zipf_cache_slots - 1) caches;
          c)

let zipf t ~n ~s =
  let cache = zipf_lookup t ~n ~s in
  let u = float t in
  (* binary search for the first index with cdf >= u *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cache.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo + 1

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
