(** A unit of work inside a domain.

    Domains do not run opaque code in the simulation; their threads are
    queues of jobs, each needing a known amount of CPU time and
    optionally carrying a deadline.  The kernel charges consumed CPU
    against [remaining]; when it reaches zero the completion callback
    runs (at the right simulated instant) and may send events, spawn
    further jobs, etc. *)

type t = {
  label : string;
  work : Sim.Time.t;  (** total CPU needed *)
  deadline : Sim.Time.t option;  (** absolute; [None] = best effort *)
  created : Sim.Time.t;
  flow : int;
      (** causal flow this job belongs to ({!Sim.Trace.no_flow} when
          untraced): the kernel records a ["cpu.run"] flow step at the
          job's completion instant *)
  mutable remaining : Sim.Time.t;
  on_complete : (unit -> unit) option;
}

val make :
  ?label:string ->
  ?deadline:Sim.Time.t ->
  ?on_complete:(unit -> unit) ->
  ?flow:int ->
  work:Sim.Time.t ->
  created:Sim.Time.t ->
  unit ->
  t

val deadline_key : t -> Sim.Time.t
(** The deadline, or a far-future sentinel for best-effort jobs, so EDF
    comparisons are total. *)
