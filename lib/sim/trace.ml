type arg =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type phase = Instant | Complete | Flow_start | Flow_step | Flow_end

type event = {
  ev_ts : Time.t;
  ev_dur : Time.t option;
  ev_phase : phase;
  ev_sub : Subsystem.t;
  ev_cat : string;
  ev_name : string;
  ev_flow : int;  (* flow id, [no_flow] when uncorrelated *)
  ev_args : (string * arg) list;
}

type t = {
  mutable cap : int option;  (* None = unbounded *)
  mutable enabled : bool;
  mutable flows : bool;  (* flow recording requested *)
  mutable cells : bool;  (* per-cell detail requested *)
  mutable f_on : bool;  (* enabled && flows, precomputed *)
  mutable c_on : bool;  (* enabled && cells, precomputed *)
  mutable next_flow : int;
  mutable entries : event option array;
  mutable head : int;  (* next write position (bounded mode) *)
  mutable count : int;
  mutable dropped : int;
}

let no_flow = -1

type span =
  | Null_span
  | Span of {
      sp_ts : Time.t;
      sp_sub : Subsystem.t;
      sp_cat : string;
      sp_name : string;
      sp_flow : int;
      sp_args : (string * arg) list;
    }

let create ?(capacity = 4096) ?(unbounded = false) ?(enabled = true) () =
  let cap = if unbounded then None else Some capacity in
  let initial = match cap with Some c -> c | None -> 64 in
  {
    cap;
    enabled;
    flows = false;
    cells = true;
    f_on = false;
    c_on = enabled;
    next_flow = 1;
    entries = Array.make (Stdlib.max 1 initial) None;
    head = 0;
    count = 0;
    dropped = 0;
  }

let refresh t =
  t.f_on <- t.enabled && t.flows;
  t.c_on <- t.enabled && t.cells

let enable t b =
  t.enabled <- b;
  refresh t

let enabled t = t.enabled

let set_flows t b =
  t.flows <- b;
  refresh t

let set_cell_detail t b =
  t.cells <- b;
  refresh t

let flows_on t = t.f_on
let cell_detail_on t = t.c_on
let alloc_flow t =
  let id = t.next_flow in
  t.next_flow <- id + 1;
  id

let length t = t.count
let dropped t = t.dropped

(* Resizing mid-run restarts the sink: the new ring starts empty and
   the drop counter restarts at zero, so post-resize statistics are
   about the new capacity only. *)
let set_capacity t cap =
  t.cap <- cap;
  let size = match cap with Some c -> Stdlib.max 1 c | None -> 64 in
  t.entries <- Array.make size None;
  t.head <- 0;
  t.count <- 0;
  t.dropped <- 0

let push t ev =
  if t.enabled then begin
    match t.cap with
    | Some c ->
        if t.count = c then t.dropped <- t.dropped + 1
        else t.count <- t.count + 1;
        t.entries.(t.head) <- Some ev;
        t.head <- (t.head + 1) mod c
    | None ->
        if t.count = Array.length t.entries then begin
          let bigger = Array.make (2 * t.count) None in
          Array.blit t.entries 0 bigger 0 t.count;
          t.entries <- bigger
        end;
        t.entries.(t.count) <- Some ev;
        t.count <- t.count + 1
  end

let instant t ~ts ~sub ?(cat = "") ?(flow = no_flow) ?(args = []) name =
  push t
    {
      ev_ts = ts;
      ev_dur = None;
      ev_phase = Instant;
      ev_sub = sub;
      ev_cat = cat;
      ev_name = name;
      ev_flow = flow;
      ev_args = args;
    }

let complete t ~ts ~dur ~sub ?(cat = "") ?(flow = no_flow) ?(args = []) name =
  push t
    {
      ev_ts = ts;
      ev_dur = Some dur;
      ev_phase = Complete;
      ev_sub = sub;
      ev_cat = cat;
      ev_name = name;
      ev_flow = flow;
      ev_args = args;
    }

let flow_event t phase ~ts ~sub ~cat ~flow ~args name =
  if t.f_on then
    push t
      {
        ev_ts = ts;
        ev_dur = None;
        ev_phase = phase;
        ev_sub = sub;
        ev_cat = cat;
        ev_name = name;
        ev_flow = flow;
        ev_args = args;
      }

let flow_start t ~ts ~sub ?(cat = "flow") ?(args = []) ~flow name =
  flow_event t Flow_start ~ts ~sub ~cat ~flow ~args name

let flow_step t ~ts ~sub ?(cat = "flow") ?(args = []) ~flow name =
  flow_event t Flow_step ~ts ~sub ~cat ~flow ~args name

let flow_end t ~ts ~sub ?(cat = "flow") ~flow name =
  flow_event t Flow_end ~ts ~sub ~cat ~flow ~args:[] name

let span_begin t ~ts ~sub ?(cat = "") ?(flow = no_flow) ?(args = []) name =
  if not t.enabled then Null_span
  else
    Span
      {
        sp_ts = ts;
        sp_sub = sub;
        sp_cat = cat;
        sp_name = name;
        sp_flow = flow;
        sp_args = args;
      }

let span_end t ~ts ?(args = []) span =
  match span with
  | Null_span -> ()
  | Span s ->
      complete t ~ts:s.sp_ts
        ~dur:(Time.max Time.zero (Time.sub ts s.sp_ts))
        ~sub:s.sp_sub ~cat:s.sp_cat ~flow:s.sp_flow ~args:(s.sp_args @ args)
        s.sp_name

let like t =
  let l =
    create ?capacity:t.cap ~unbounded:(t.cap = None) ~enabled:t.enabled ()
  in
  set_flows l t.flows;
  set_cell_detail l t.cells;
  l

let events t =
  let result = ref [] in
  let len = Array.length t.entries in
  for i = 0 to t.count - 1 do
    let idx =
      match t.cap with
      | Some _ -> (t.head - 1 - i + (2 * len)) mod len
      | None -> t.count - 1 - i
    in
    match t.entries.(idx) with
    | Some e -> result := e :: !result
    | None -> ()
  done;
  !result

(* Replaying [src] through [push] keeps [into]'s ring semantics: a
   bounded parent retains the newest events and counts the rest as
   dropped. *)
let merge ~into src =
  let shift = into.next_flow - 1 in
  List.iter
    (fun e ->
      push into
        (if e.ev_flow < 0 then e else { e with ev_flow = e.ev_flow + shift }))
    (events src);
  into.dropped <- into.dropped + src.dropped;
  into.next_flow <- into.next_flow + src.next_flow - 1

(* ------------------------------------------------------------------ *)
(* Exporters. *)

let json_of_arg = function
  | Str s -> Json.String s
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b

let json_of_args args =
  Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args)

(* Chrome trace_event format (the JSON object flavour), loadable in
   about:tracing and https://ui.perfetto.dev.  Timestamps are in
   microseconds; each subsystem renders as its own named thread lane,
   and flow events render as arrows between the slices they bind to. *)
let to_chrome t =
  let evs = events t in
  let lanes =
    List.sort_uniq Subsystem.compare (List.map (fun e -> e.ev_sub) evs)
  in
  let process_meta =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.String "pegasus") ]);
      ]
  in
  let thread_meta sub =
    Json.Obj
      [
        ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int (Subsystem.lane sub));
        ("args", Json.Obj [ ("name", Json.String (Subsystem.to_string sub)) ]);
      ]
  in
  (* Final metadata record carrying the ring's drop counter, so a
     truncated trace is detectable from inside the event stream. *)
  let dropped_meta =
    Json.Obj
      [
        ("name", Json.String "trace_dropped");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("dropped", Json.Int t.dropped) ]);
      ]
  in
  let event e =
    let base =
      [
        ("name", Json.String e.ev_name);
        ("cat", Json.String (if e.ev_cat = "" then "default" else e.ev_cat));
        ("ts", Json.Float (Time.to_us_f e.ev_ts));
        ("pid", Json.Int 1);
        ("tid", Json.Int (Subsystem.lane e.ev_sub));
        ( "args",
          json_of_args
            ((("subsystem", Str (Subsystem.to_string e.ev_sub))
             :: (if e.ev_flow >= 0 then [ ("flow", Int e.ev_flow) ] else []))
            @ e.ev_args) );
      ]
    in
    match e.ev_phase with
    | Instant ->
        Json.Obj (("ph", Json.String "i") :: ("s", Json.String "t") :: base)
    | Complete ->
        let dur = match e.ev_dur with Some d -> d | None -> Time.zero in
        Json.Obj
          (("ph", Json.String "X")
          :: ("dur", Json.Float (Time.to_us_f dur))
          :: base)
    | Flow_start ->
        Json.Obj (("ph", Json.String "s") :: ("id", Json.Int e.ev_flow) :: base)
    | Flow_step ->
        Json.Obj (("ph", Json.String "t") :: ("id", Json.Int e.ev_flow) :: base)
    | Flow_end ->
        Json.Obj
          (("ph", Json.String "f")
          :: ("bp", Json.String "e")
          :: ("id", Json.Int e.ev_flow)
          :: base)
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          ((process_meta :: List.map thread_meta lanes)
          @ List.map event evs @ [ dropped_meta ]) );
      ("displayTimeUnit", Json.String "ns");
      ("otherData", Json.Obj [ ("dropped", Json.Int t.dropped) ]);
    ]

let ph_string = function
  | Instant -> "I"
  | Complete -> "X"
  | Flow_start -> "s"
  | Flow_step -> "t"
  | Flow_end -> "f"

let json_of_event e =
  Json.Obj
    ([
       ("ts_ns", Json.Int (Time.to_ns e.ev_ts));
       ("ph", Json.String (ph_string e.ev_phase));
       ("sub", Json.String (Subsystem.to_string e.ev_sub));
       ("cat", Json.String e.ev_cat);
       ("name", Json.String e.ev_name);
     ]
    @ (if e.ev_flow >= 0 then [ ("flow", Json.Int e.ev_flow) ] else [])
    @ (match e.ev_dur with
      | Some d -> [ ("dur_ns", Json.Int (Time.to_ns d)) ]
      | None -> [])
    @ [ ("args", json_of_args e.ev_args) ])

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Json.to_buffer buf (json_of_event e);
      Buffer.add_char buf '\n')
    (events t);
  (* Footer line: the drop counter, so consumers of a truncated ring
     know how much is missing. *)
  Json.to_buffer buf
    (Json.Obj
       [ ("meta", Json.String "dropped"); ("dropped", Json.Int t.dropped) ]);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write_chrome t path = Json.to_file path (to_chrome t)

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl t))
