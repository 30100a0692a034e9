type app = {
  qa_domain : Domain.t;
  mutable want : float;
  mutable grant : float;
  mutable ewma_util : float;
  mutable used_mark : Sim.Time.t;  (* Domain.cpu_used at the last review *)
  adapt : (granted:float -> unit) option;
}

(* The review period — an order of magnitude above scheduling
   decisions; the total CPU fraction handed out, keeping headroom for
   the system itself; and the EWMA coefficient applied to observed
   utilisation. *)
let interval = Sim.Time.ms 100
let capacity = 0.9
let smoothing = 0.3

type t = {
  kernel : Kernel.t;
  mutable apps : app list;
  mutable last_review : Sim.Time.t;
  mutable n_reviews : int;
}

let apply_grant t app fraction =
  let changed = Float.abs (fraction -. app.grant) > 0.01 in
  app.grant <- fraction;
  let p = Domain.params app.qa_domain in
  p.Domain.slice <-
    Sim.Time.of_sec_f (Sim.Time.to_sec_f p.Domain.period *. fraction);
  ignore t;
  if changed then
    match app.adapt with Some f -> f ~granted:fraction | None -> ()

(* Redistribute: each application's effective demand is its request,
   shrunk while it demonstrably leaves its grant unused; then scale all
   demands into the available capacity (this is where "weights are
   calculated from the user's current policy"). *)
let recalculate t =
  let demands =
    List.map
      (fun app ->
        let demand =
          if app.ewma_util >= 0.7 then app.want
          else Float.max (app.want *. app.ewma_util /. 0.7) (app.want *. 0.1)
        in
        (app, demand))
      t.apps
  in
  let total = List.fold_left (fun acc (_, d) -> acc +. d) 0.0 demands in
  let scale = if total > capacity then capacity /. total else 1.0 in
  List.iter (fun (app, demand) -> apply_grant t app (demand *. scale)) demands

let review t =
  let now = Kernel.now t.kernel in
  let elapsed = Sim.Time.to_sec_f (Sim.Time.sub now t.last_review) in
  t.last_review <- now;
  t.n_reviews <- t.n_reviews + 1;
  if elapsed > 0.0 then
    List.iter
      (fun app ->
        let used = Domain.cpu_used app.qa_domain in
        let delta = Sim.Time.to_sec_f (Sim.Time.sub used app.used_mark) in
        app.used_mark <- used;
        let granted_time = elapsed *. Float.max app.grant 0.001 in
        let util = Float.min 1.0 (delta /. granted_time) in
        app.ewma_util <-
          (smoothing *. util) +. ((1.0 -. smoothing) *. app.ewma_util))
      t.apps;
  recalculate t

let create kernel =
  let t =
    {
      kernel;
      apps = [];
      last_review = Kernel.now kernel;
      n_reviews = 0;
    }
  in
  Sim.Engine.every ~daemon:true (Kernel.engine kernel) ~period:interval
    (fun () ->
      review t;
      true);
  t

let register t ~domain ~want ?adapt () =
  let app =
    {
      qa_domain = domain;
      want;
      grant = 0.0;
      ewma_util = 1.0;  (* assume full use until measured otherwise *)
      used_mark = Domain.cpu_used domain;
      adapt;
    }
  in
  t.apps <- t.apps @ [ app ];
  recalculate t

let unregister t ~domain =
  t.apps <- List.filter (fun a -> a.qa_domain != domain) t.apps;
  recalculate t

let find t domain =
  match List.find_opt (fun a -> a.qa_domain == domain) t.apps with
  | Some a -> a
  | None -> raise Not_found

let set_want t ~domain want = (find t domain).want <- want
let granted t ~domain = (find t domain).grant
let utilisation t ~domain = (find t domain).ewma_util
let reviews t = t.n_reviews
