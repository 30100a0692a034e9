type t = int64

let zero = 0L
let ns n = Int64.of_int n
let us n = Int64.of_int (n * 1_000)
let ms n = Int64.of_int (n * 1_000_000)
let sec n = Int64.of_int (n * 1_000_000_000)
let of_sec_f s = Int64.of_float (s *. 1e9)
let add = Int64.add
let sub = Int64.sub
let mul t n = Int64.mul t (Int64.of_int n)
let div t n = Int64.div t (Int64.of_int n)
let min a b = if Int64.compare a b <= 0 then a else b
let max a b = if Int64.compare a b >= 0 then a else b
let compare = Int64.compare
let ( < ) a b = Int64.compare a b < 0
let ( <= ) a b = Int64.compare a b <= 0
let ( > ) a b = Int64.compare a b > 0
let ( >= ) a b = Int64.compare a b >= 0
let to_ns = Int64.to_int
let to_us_f t = Int64.to_float t /. 1e3
let to_ms_f t = Int64.to_float t /. 1e6
let to_sec_f t = Int64.to_float t /. 1e9

let pp fmt t =
  let f = Int64.to_float t in
  if Stdlib.( < ) f 1e3 then Format.fprintf fmt "%Ldns" t
  else if Stdlib.( < ) f 1e6 then Format.fprintf fmt "%.2fus" (f /. 1e3)
  else if Stdlib.( < ) f 1e9 then Format.fprintf fmt "%.3fms" (f /. 1e6)
  else Format.fprintf fmt "%.3fs" (f /. 1e9)
