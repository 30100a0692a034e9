type t = Atm | Nemesis | Pfs | Rpc | Naming | Sim

let to_string = function
  | Atm -> "atm"
  | Nemesis -> "nemesis"
  | Pfs -> "pfs"
  | Rpc -> "rpc"
  | Naming -> "naming"
  | Sim -> "sim"

let compare a b = String.compare (to_string a) (to_string b)

(* Stable lane ids for trace viewers: one "thread" per subsystem. *)
let lane = function
  | Sim -> 0
  | Atm -> 1
  | Nemesis -> 2
  | Pfs -> 3
  | Rpc -> 4
  | Naming -> 5

let of_lane = function
  | 0 -> Sim
  | 1 -> Atm
  | 2 -> Nemesis
  | 3 -> Pfs
  | 4 -> Rpc
  | 5 -> Naming
  | _ -> invalid_arg "Subsystem.of_lane"
