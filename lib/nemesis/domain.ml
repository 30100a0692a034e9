type mode = Informed | Opaque

type params = {
  mutable period : Sim.Time.t;
  mutable slice : Sim.Time.t;
  mutable extra : bool;
  mutable priority : int;
}

type sched_state = {
  mutable release : Sim.Time.t;
  mutable deadline : Sim.Time.t;
  mutable remain : Sim.Time.t;
  mutable rr_last : int;
}

type t = {
  name : string;
  mode : mode;
  params : params;
  sched : sched_state;
  mutable jobs : Job.t list;  (* FIFO order: oldest first *)
  mutable current_job : Job.t option;
  mutable handler : (now:Sim.Time.t -> events:int -> unit) option;
  mutable deactivated : bool;
  mutable runnable_since : Sim.Time.t option;
  mutable used : Sim.Time.t;
  mutable n_activations : int;
  mutable n_completed : int;
  mutable n_missed : int;
  act_latency : Sim.Stats.Samples.t;
}

let create ~name ?(mode = Informed) ?(period = Sim.Time.ms 40)
    ?(slice = Sim.Time.ms 4) ?(extra = true) ?(priority = 0) () =
  {
    name;
    mode;
    params = { period; slice; extra; priority };
    sched =
      {
        release = Sim.Time.zero;
        deadline = Sim.Time.zero;
        remain = Sim.Time.zero;
        rr_last = 0;
      };
    jobs = [];
    current_job = None;
    handler = None;
    deactivated = true;
    runnable_since = None;
    used = Sim.Time.zero;
    n_activations = 0;
    n_completed = 0;
    n_missed = 0;
    act_latency = Sim.Stats.Samples.create ();
  }

let name t = t.name
let params t = t.params
let sched t = t.sched
let add_job t job = t.jobs <- t.jobs @ [ job ]

let next_job t =
  match t.mode with
  | Opaque -> begin
      (* Transparent resumption: finish what was running, else FIFO. *)
      match t.current_job with
      | Some j -> Some j
      | None -> ( match t.jobs with [] -> None | j :: _ -> Some j)
    end
  | Informed -> begin
      (* The user-level scheduler is re-entered at activation and runs
         EDF over everything pending, including a preempted job. *)
      match t.jobs with
      | [] -> None
      | first :: rest ->
          let best =
            List.fold_left
              (fun acc j ->
                if Job.deadline_key j < Job.deadline_key acc then j else acc)
              first rest
          in
          Some best
    end

let set_current t j = t.current_job <- j
let current t = t.current_job

let remove_job t job =
  t.jobs <- List.filter (fun j -> j != job) t.jobs;
  match t.current_job with
  | Some j when j == job -> t.current_job <- None
  | Some _ | None -> ()

let has_work t = t.jobs <> []

let earliest_job_deadline t =
  List.fold_left
    (fun acc j -> Sim.Time.min acc (Job.deadline_key j))
    (Sim.Time.ns max_int) t.jobs

let set_activation_handler t f = t.handler <- Some f

let activate t ~now ~events =
  t.n_activations <- t.n_activations + 1;
  (match t.runnable_since with
  | Some since ->
      Sim.Stats.Samples.add t.act_latency (Sim.Time.to_us_f (Sim.Time.sub now since));
      t.runnable_since <- None
  | None -> ());
  t.deactivated <- false;
  match t.handler with Some f -> f ~now ~events | None -> ()

let deactivate t = t.deactivated <- true
let is_deactivated t = t.deactivated

let note_runnable t ~now =
  match t.runnable_since with
  | Some _ -> ()
  | None -> t.runnable_since <- Some now

let charge t amount = t.used <- Sim.Time.add t.used amount
let cpu_used t = t.used
let activations t = t.n_activations
let jobs_completed t = t.n_completed
let deadline_misses t = t.n_missed

let note_job_done t (job : Job.t) ~now =
  t.n_completed <- t.n_completed + 1;
  match job.deadline with
  | Some d when Sim.Time.(now > d) -> t.n_missed <- t.n_missed + 1
  | Some _ | None -> ()

let activation_latency_us t = t.act_latency
