type t = Same_domain | Same_machine | Remote of Sim.Time.t

let procedure_call = Sim.Time.ns 50
let maillon_overhead = Sim.Time.ns 20
let protected_call = Sim.Time.us 15

let invocation_cost = function
  | Same_domain -> procedure_call
  | Same_machine -> Sim.Time.add procedure_call protected_call
  | Remote rtt -> Sim.Time.add procedure_call rtt

let lookup_cost = invocation_cost
