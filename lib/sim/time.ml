type t = int

let zero = 0

external ns : int -> t = "%identity"

let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000
let of_sec_f s = Float.to_int (s *. 1e9)

external add : t -> t -> t = "%addint"
external sub : t -> t -> t = "%subint"

let mul t n = t * n
let div t n = t / n
let min (a : t) b = if a <= b then a else b
let max (a : t) b = if a >= b then a else b
let compare = Int.compare
let ( < ) (a : t) b = a < b
let ( <= ) (a : t) b = a <= b
let ( > ) (a : t) b = a > b
let ( >= ) (a : t) b = a >= b

external to_ns : t -> int = "%identity"

let to_us_f t = Float.of_int t /. 1e3
let to_ms_f t = Float.of_int t /. 1e6
let to_sec_f t = Float.of_int t /. 1e9

let pp fmt t =
  let f = Float.of_int t in
  if Stdlib.( < ) f 1e3 then Format.fprintf fmt "%dns" t
  else if Stdlib.( < ) f 1e6 then Format.fprintf fmt "%.2fus" (f /. 1e3)
  else if Stdlib.( < ) f 1e9 then Format.fprintf fmt "%.3fms" (f /. 1e6)
  else Format.fprintf fmt "%.3fs" (f /. 1e9)
