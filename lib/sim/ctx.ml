type t = { domains : int; trace : Trace.t; metrics : Metrics.t }

let create ?(domains = 1) ?(trace = Trace.create ~enabled:false ()) () =
  if domains < 1 then invalid_arg "Ctx.create: domains < 1";
  { domains; trace; metrics = Metrics.create () }

let domains t = t.domains
let trace t = t.trace
let metrics t = t.metrics
let engine t = Engine.create ~trace:t.trace ~metrics:t.metrics ()

let child t =
  { domains = 1; trace = Trace.like t.trace; metrics = Metrics.create () }

let merge ~into c =
  Metrics.merge ~into:into.metrics c.metrics;
  if Trace.enabled into.trace then Trace.merge ~into:into.trace c.trace

let map t tasks =
  let traced = Trace.enabled t.trace in
  let run task () =
    let kid = child t in
    let r = task kid in
    (* Keep only what the merge reads: a finished task's trace (an
       audited row's can be large) is garbage at once unless the parent
       records one. *)
    (r, kid.metrics, if traced then Some kid.trace else None)
  in
  Array.map
    (fun (r, metrics, trace) ->
      Metrics.merge ~into:t.metrics metrics;
      Option.iter (fun tr -> Trace.merge ~into:t.trace tr) trace;
      r)
    (Par.map ~workers:t.domains (Array.map run tasks))
