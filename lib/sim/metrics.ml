type counter = {
  c_sub : Subsystem.t;
  c_name : string;
  c_help : string;
  mutable c_value : int;
}

(* The value lives in a one-element [floatarray] rather than a mutable
   float field: in a mixed record the float field is a pointer to a
   boxed float, so every [set] would allocate a fresh box, while a
   flat-float-array store is a plain unboxed write.  Hot-path writers
   (the engine's queue-depth sampler) grab the cell once and write
   through it inline, keeping gauge updates allocation-free. *)
type gauge = {
  g_sub : Subsystem.t;
  g_name : string;
  g_help : string;
  g_cell : floatarray;
}

(* A distribution's percentile store is either a bounded deterministic
   reservoir (the default: O(capacity) memory no matter how long the
   run) or the exact sample array (kept for tests and byte-for-byte
   regression baselines, O(n) memory). *)
type dist_store =
  | Exact of Stats.Samples.t
  | Sampled of Stats.Reservoir.t

type dist = {
  d_sub : Subsystem.t;
  d_name : string;
  d_help : string;
  d_summary : Stats.Summary.t;
  d_store : dist_store;
}

(* A windowed observer is a sample fan-out point: components call
   {!sample} unconditionally on their hot path, and the monitor layer
   ({!Monitor}) attaches sinks when a health run wants the stream.
   With no sinks attached the cost is one load and one branch — the
   instrument must be free to leave compiled into every subsystem.
   The sink array is only ever replaced wholesale (never mutated in
   place), so a sampler running concurrently with an attach sees either
   the old or the new array, both valid. *)
type observer = {
  o_sub : Subsystem.t;
  o_name : string;
  o_help : string;
  mutable o_on : bool;
  mutable o_count : int;  (* samples delivered while enabled *)
  mutable o_sinks : (float -> unit) array;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Dist of dist
  | Obs of observer

type t = { tbl : (string * string, metric) Hashtbl.t; exact_dists : bool }

let create ?(exact_dists = false) () =
  { tbl = Hashtbl.create 64; exact_dists }

let default = create ()

(* Zero every registered metric in place.  Handles alias the registry
   entries, so handles obtained before the reset keep working and their
   updates stay visible in snapshots — the old behaviour (dropping the
   table entries) silently disconnected every live handle. *)
let reset t =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.c_value <- 0
      | Gauge g -> Float.Array.set g.g_cell 0 0.0
      | Dist d -> (
          Stats.Summary.clear d.d_summary;
          match d.d_store with
          | Exact s -> Stats.Samples.clear s
          | Sampled r -> Stats.Reservoir.clear r)
      | Obs o -> o.o_count <- 0)
    t.tbl

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Dist _ -> "dist"
  | Obs _ -> "observer"

let get_or_create t ~sub ~name ~kind make =
  let key = (Subsystem.to_string sub, name) in
  match Hashtbl.find_opt t.tbl key with
  | Some m ->
      let existing = kind_name m in
      if existing <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s/%s registered as %s, requested as %s"
             (fst key) name existing kind);
      m
  | None ->
      let m = make () in
      Hashtbl.replace t.tbl key m;
      m

let counter t ~sub ?(help = "") name =
  match
    get_or_create t ~sub ~name ~kind:"counter" (fun () ->
        Counter { c_sub = sub; c_name = name; c_help = help; c_value = 0 })
  with
  | Counter c -> c
  | Gauge _ | Dist _ | Obs _ -> assert false

let gauge t ~sub ?(help = "") name =
  match
    get_or_create t ~sub ~name ~kind:"gauge" (fun () ->
        Gauge
          { g_sub = sub; g_name = name; g_help = help; g_cell = Float.Array.make 1 0.0 })
  with
  | Gauge g -> g
  | Counter _ | Dist _ | Obs _ -> assert false

(* Each reservoir is seeded from its identity (FNV-1a over
   "subsystem/name"), so every dist draws an independent, reproducible
   replacement stream: snapshots are byte-identical across runs
   regardless of registration order. *)
let dist_seed sub name =
  let fnv seed s =
    String.fold_left
      (fun h c ->
        Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001B3L)
      seed s
  in
  fnv (fnv (fnv 0xCBF29CE484222325L sub) "/") name

let dist t ~sub ?(help = "") name =
  match
    get_or_create t ~sub ~name ~kind:"dist" (fun () ->
        let store =
          if t.exact_dists then Exact (Stats.Samples.create ())
          else
            Sampled
              (Stats.Reservoir.create
                 ~seed:(dist_seed (Subsystem.to_string sub) name)
                 ())
        in
        Dist
          {
            d_sub = sub;
            d_name = name;
            d_help = help;
            d_summary = Stats.Summary.create ();
            d_store = store;
          })
  with
  | Dist d -> d
  | Counter _ | Gauge _ | Obs _ -> assert false

let observer t ~sub ?(help = "") name =
  match
    get_or_create t ~sub ~name ~kind:"observer" (fun () ->
        Obs
          {
            o_sub = sub;
            o_name = name;
            o_help = help;
            o_on = false;
            o_count = 0;
            o_sinks = [||];
          })
  with
  | Obs o -> o
  | Counter _ | Gauge _ | Dist _ -> assert false

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let value c = c.c_value
let set g v = Float.Array.set g.g_cell 0 v
let get g = Float.Array.get g.g_cell 0
let cell g = g.g_cell

(* The disabled path is the contract: one load, one branch, no call —
   cheap enough to leave in every hot loop (CI gates it via
   BENCH_monitor.json).  The enabled path fans the sample out to every
   attached sink. *)
let[@inline] sample o v =
  if o.o_on then begin
    o.o_count <- o.o_count + 1;
    let sinks = o.o_sinks in
    for i = 0 to Array.length sinks - 1 do
      (Array.unsafe_get sinks i) v
    done
  end

let attach_sink o f =
  o.o_sinks <- Array.append o.o_sinks [| f |];
  o.o_on <- true

let detach_sinks o =
  o.o_sinks <- [||];
  o.o_on <- false

let sample_count o = o.o_count
let enabled o = o.o_on

let[@inline] observe d x =
  Stats.Summary.add d.d_summary x;
  match d.d_store with
  | Exact s -> Stats.Samples.add s x
  | Sampled r -> Stats.Reservoir.add r x

let observed d = Stats.Summary.count d.d_summary

let dist_percentile d q =
  match d.d_store with
  | Exact s -> Stats.Samples.percentile s q
  | Sampled r -> Stats.Reservoir.percentile r q

(* ------------------------------------------------------------------ *)
(* Snapshots. *)

let sorted_metrics t =
  Hashtbl.fold (fun key m acc -> (key, m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let json_of_metric m =
  let base sub name help kind =
    [
      ("subsystem", Json.String (Subsystem.to_string sub));
      ("name", Json.String name);
      ("kind", Json.String kind);
    ]
    @ if help = "" then [] else [ ("help", Json.String help) ]
  in
  match m with
  | Counter c ->
      Json.Obj (base c.c_sub c.c_name c.c_help "counter" @ [ ("value", Json.Int c.c_value) ])
  | Gauge g ->
      Json.Obj
        (base g.g_sub g.g_name g.g_help "gauge"
        @ [ ("value", Json.Float (Float.Array.get g.g_cell 0)) ])
  | Dist d ->
      let n = Stats.Summary.count d.d_summary in
      let stats =
        if n = 0 then [ ("count", Json.Int 0) ]
        else
          let p q = Json.Float (dist_percentile d q) in
          [
            ("count", Json.Int n);
            ("mean", Json.Float (Stats.Summary.mean d.d_summary));
            ("stddev", Json.Float (Stats.Summary.stddev d.d_summary));
            ("min", Json.Float (Stats.Summary.min d.d_summary));
            ("max", Json.Float (Stats.Summary.max d.d_summary));
            ("p50", p 50.0);
            ("p95", p 95.0);
            ("p99", p 99.0);
          ]
      in
      Json.Obj (base d.d_sub d.d_name d.d_help "dist" @ stats)
  | Obs o ->
      Json.Obj
        (base o.o_sub o.o_name o.o_help "observer"
        @ [ ("enabled", Json.Bool o.o_on); ("samples", Json.Int o.o_count) ])

let snapshot t =
  Json.Obj [ ("metrics", Json.List (List.map json_of_metric (sorted_metrics t))) ]

let write t path = Json.to_file path (snapshot t)

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun m ->
      match m with
      | Counter c ->
          Format.fprintf fmt "%a/%s = %d@," Subsystem.pp c.c_sub c.c_name c.c_value
      | Gauge g ->
          Format.fprintf fmt "%a/%s = %g@," Subsystem.pp g.g_sub g.g_name
            (Float.Array.get g.g_cell 0)
      | Dist d ->
          let n = Stats.Summary.count d.d_summary in
          if n = 0 then
            Format.fprintf fmt "%a/%s: empty@," Subsystem.pp d.d_sub d.d_name
          else
            Format.fprintf fmt "%a/%s: n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f@,"
              Subsystem.pp d.d_sub d.d_name n
              (Stats.Summary.mean d.d_summary)
              (dist_percentile d 50.0)
              (dist_percentile d 95.0)
              (dist_percentile d 99.0)
      | Obs o ->
          Format.fprintf fmt "%a/%s: observer %s samples=%d@," Subsystem.pp
            o.o_sub o.o_name
            (if o.o_on then "on" else "off")
            o.o_count)
    (sorted_metrics t);
  Format.fprintf fmt "@]"
