(* [a] holds [first; step; count] per run, unshifted; [cells] caches the
   total so a length check is O(1). *)
type t = { a : int array; cells : int; shift : int }

let of_runs ?(shift = 0) a =
  let len = Array.length a in
  if len = 0 || len mod 3 <> 0 then invalid_arg "Cell_times.of_runs: bad layout";
  let cells = ref 0 in
  for r = 0 to (len / 3) - 1 do
    let step = a.((3 * r) + 1) and count = a.((3 * r) + 2) in
    if count < 1 || step < 0 then invalid_arg "Cell_times.of_runs: bad run";
    cells := !cells + count
  done;
  { a; cells = !cells; shift }

let shift t d = { t with shift = t.shift + d }
let cells t = t.cells
let[@inline] runs t = Array.length t.a / 3
let[@inline] run_first t r = t.a.(3 * r) + t.shift
let[@inline] run_step t r = t.a.((3 * r) + 1)
let[@inline] run_count t r = t.a.((3 * r) + 2)
let first t = run_first t 0

let last t =
  let r = runs t - 1 in
  run_first t r + (run_step t r * (run_count t r - 1))

let count_after t x =
  let n = ref 0 in
  for r = 0 to runs t - 1 do
    let f = run_first t r and s = run_step t r and c = run_count t r in
    if f > x then n := !n + c
    else if s > 0 then n := !n + c - Int.min c (((x - f) / s) + 1)
  done;
  !n

let iter f t =
  for r = 0 to runs t - 1 do
    let first = run_first t r and step = run_step t r in
    for j = 0 to run_count t r - 1 do
      f (first + (j * step))
    done
  done
