type t = Atm | Nemesis | Pfs | Rpc | Naming | Sim | Other of string

let to_string = function
  | Atm -> "atm"
  | Nemesis -> "nemesis"
  | Pfs -> "pfs"
  | Rpc -> "rpc"
  | Naming -> "naming"
  | Sim -> "sim"
  | Other s -> s

let compare a b = String.compare (to_string a) (to_string b)

(* Stable lane ids for trace viewers: one "thread" per subsystem. *)
let lane = function
  | Sim -> 0
  | Atm -> 1
  | Nemesis -> 2
  | Pfs -> 3
  | Rpc -> 4
  | Naming -> 5
  | Other _ -> 6
