type t = {
  label : string;
  work : Sim.Time.t;
  deadline : Sim.Time.t option;
  created : Sim.Time.t;
  mutable remaining : Sim.Time.t;
  on_complete : (unit -> unit) option;
}

let make ?(label = "") ?deadline ?on_complete ~work ~created () =
  { label; work; deadline; created; remaining = work; on_complete }

let far_future = Sim.Time.ns max_int

let deadline_key t = match t.deadline with Some d -> d | None -> far_future
