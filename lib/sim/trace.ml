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

(* ------------------------------------------------------------------ *)
(* The store.

   An event is four native ints in a [Bytes] chunk: its ts, its flow,
   its duration (-1 for an instant or a flow event) and one packed
   word holding its phase, its subsystem and the interned ids of its
   cat, name and args.  Chunks hold no pointer, so the GC never scans
   them, and a sink's heap blocks are its chunks plus its distinct
   strings and arg lists, however many events it holds.  A chunk of
   [chunk_slots] events is allocated when the first event lands in it
   and never copied: a store that grows adds a chunk. *)

external get64 : bytes -> int -> int64 = "%caml_bytes_get64"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64"

let slot_bytes = 32
let chunk_shift = 10
let chunk_slots = 1 lsl chunk_shift
let ts_ = 0
let flow_ = 8
let dur_ = 16
let packed_ = 24

(* The packed word, low bits first: phase (3 bits), subsystem (3, its
   {!Subsystem.lane}), cat id (10), name id (21), args id (23): 60
   bits, so it stays non-negative. *)
let sub_shift = 3
let cat_shift = 6
let name_shift = 16
let args_shift = 37
let sub_limit = 1 lsl 3
let cat_limit = 1 lsl 10
let name_limit = 1 lsl 21
let args_limit = 1 lsl 23

let too_many what limit =
  failwith
    (Printf.sprintf "Trace: more than %d distinct %s in one sink" limit what)

let grow a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (Int.max 8 (2 * n)) fill in
    Array.blit a 0 b 0 n;
    b
  end

module Stbl = Hashtbl.Make (String)

(* A per-sink string table.  Record sites pass the same few literals
   again and again, often in turn, so a cache of the last [seen_slots]
   strings looked up answers a string physically equal to one of them
   without hashing it; a miss takes the oldest slot.  The slots start
   as a fresh string that no caller can hold, so the cache never
   answers for a string before its first lookup. *)
let seen_slots = 8

type strings = {
  s_ids : int Stbl.t;
  mutable s_of : string array;  (* id -> string *)
  mutable s_n : int;
  seen : string array;
  seen_id : int array;
  mutable seen_next : int;  (* the slot the next miss takes *)
  s_what : string;
  s_limit : int;
}

let strings what limit =
  {
    s_ids = Stbl.create 16;
    s_of = [||];
    s_n = 0;
    seen = Array.make seen_slots (String.make 1 ' ');
    seen_id = Array.make seen_slots 0;
    seen_next = 0;
    s_what = what;
    s_limit = limit;
  }

let intern_slow s str =
  let id =
    match Stbl.find s.s_ids str with
    | id -> id
    | exception Not_found ->
        let id = s.s_n in
        if id >= s.s_limit then too_many s.s_what s.s_limit;
        s.s_of <- grow s.s_of id str;
        s.s_of.(id) <- str;
        s.s_n <- id + 1;
        Stbl.add s.s_ids str id;
        id
  in
  let i = s.seen_next in
  s.seen.(i) <- str;
  s.seen_id.(i) <- id;
  s.seen_next <- (i + 1) land (seen_slots - 1);
  id

let rec intern_from s str i =
  if i = seen_slots then intern_slow s str
  else if Array.unsafe_get s.seen i == str then Array.unsafe_get s.seen_id i
  else intern_from s str (i + 1)

let[@inline] intern s str = intern_from s str 0

(* Arg lists are interned by content, floats by their bits: [0.0] and
   [-0.0], or two NaN payloads, are different args and stay so. *)
let arg_equal a b =
  match (a, b) with
  | Str x, Str y -> String.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Bool x, Bool y -> Bool.equal x y
  | (Str _ | Int _ | Float _ | Bool _), _ -> false

module Atbl = Hashtbl.Make (struct
  type t = (string * arg) list

  let rec equal a b =
    a == b
    ||
    match (a, b) with
    | (k, x) :: a, (k', y) :: b ->
        String.equal k k' && arg_equal x y && equal a b
    | _ -> false

  let hash = Hashtbl.hash
end)

(* Everything a sink interns, created with its first record.  Args id 0
   is [[]]. *)
type dict = {
  cats : strings;
  names : strings;
  arg_ids : int Atbl.t;
  mutable arg_lists : (string * arg) list array;  (* id -> args *)
  mutable n_args : int;
  mutable last_args : (string * arg) list;
  mutable last_args_id : int;
}

let new_dict () =
  {
    cats = strings "cats" cat_limit;
    names = strings "names" name_limit;
    arg_ids = Atbl.create 16;
    arg_lists = Array.make 8 [];
    n_args = 1;
    (* A fresh list, for the same reason as [strings]'s [last]. *)
    last_args = [ (String.make 1 ' ', Bool false) ];
    last_args_id = 0;
  }

let args_slow d args =
  let id =
    match Atbl.find d.arg_ids args with
    | id -> id
    | exception Not_found ->
        let id = d.n_args in
        if id >= args_limit then too_many "arg lists" args_limit;
        d.arg_lists <- grow d.arg_lists id args;
        d.arg_lists.(id) <- args;
        d.n_args <- id + 1;
        Atbl.add d.arg_ids args id;
        id
  in
  d.last_args <- args;
  d.last_args_id <- id;
  id

let[@inline] args_id d = function
  | [] -> 0
  | args -> if args == d.last_args then d.last_args_id else args_slow d args

(* A phase's code; flow phases are the codes from [flow_start_] on.  A
   match, not an array: an array literal compiles to a [caml_obj_dup]
   copy of a static block. *)
let phase_of_code = function
  | 0 -> Instant
  | 1 -> Complete
  | 2 -> Flow_start
  | 3 -> Flow_step
  | _ -> Flow_end

let instant_ = 0
let complete_ = 1
let flow_start_ = 2
let flow_step_ = 3
let flow_end_ = 4

type t = {
  mutable cap : int option;  (* None = unbounded *)
  mutable enabled : bool;
  mutable flows : bool;  (* flow recording requested *)
  mutable cells : bool;  (* per-cell detail requested *)
  mutable f_on : bool;  (* enabled && flows, precomputed *)
  mutable c_on : bool;  (* enabled && cells, precomputed *)
  mutable next_flow : int;
  mutable chunks : Bytes.t array;  (* the first [n_chunks] are in use *)
  mutable n_chunks : int;
  mutable head : int;  (* next write position (bounded mode) *)
  mutable count : int;
  mutable dropped : int;
  mutable dict : dict option;  (* None until the first record *)
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

let check_capacity what c =
  if c < 1 then invalid_arg (Printf.sprintf "Trace.%s: capacity %d < 1" what c)

(* Nothing is allocated for the store here: a sink that never records
   (every disabled one) costs its record alone. *)
let create ?(capacity = 4096) ?(unbounded = false) ?(enabled = true) () =
  check_capacity "create" capacity;
  let cap = if unbounded then None else Some capacity in
  {
    cap;
    enabled;
    flows = false;
    cells = true;
    f_on = false;
    c_on = enabled;
    next_flow = 1;
    chunks = [||];
    n_chunks = 0;
    head = 0;
    count = 0;
    dropped = 0;
    dict = None;
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

(* Resizing mid-run restarts the sink: the new store starts empty and
   the drop counter restarts at zero, so post-resize statistics are
   about the new capacity only. *)
let set_capacity t cap =
  Option.iter (check_capacity "set_capacity") cap;
  t.cap <- cap;
  t.chunks <- [||];
  t.n_chunks <- 0;
  t.head <- 0;
  t.count <- 0;
  t.dropped <- 0;
  t.dict <- None

(* Positions are first reached in increasing order in both modes, so
   the chunk a new position needs is always the next one.  A ring's
   last chunk holds only the slots its capacity reaches. *)
let add_chunk t =
  let ci = t.n_chunks in
  let slots =
    match t.cap with
    | Some c -> Int.min chunk_slots (c - (ci * chunk_slots))
    | None -> chunk_slots
  in
  let b = Bytes.create (slots * slot_bytes) in
  t.chunks <- grow t.chunks ci Bytes.empty;
  t.chunks.(ci) <- b;
  t.n_chunks <- ci + 1;
  b

let push t ts flow dur packed =
  let pos =
    match t.cap with
    | Some c ->
        let p = t.head in
        if t.count = c then t.dropped <- t.dropped + 1
        else t.count <- t.count + 1;
        t.head <- (if p + 1 = c then 0 else p + 1);
        p
    | None ->
        let p = t.count in
        t.count <- p + 1;
        p
  in
  let ci = pos lsr chunk_shift in
  let b = if ci < t.n_chunks then t.chunks.(ci) else add_chunk t in
  let off = (pos land (chunk_slots - 1)) * slot_bytes in
  set64 b (off + ts_) (Int64.of_int ts);
  set64 b (off + flow_) (Int64.of_int flow);
  set64 b (off + dur_) (Int64.of_int dur);
  set64 b (off + packed_) (Int64.of_int packed)

let dict t =
  match t.dict with
  | Some d -> d
  | None ->
      let d = new_dict () in
      t.dict <- Some d;
      d

let record t phase ~ts ~dur ~sub ~cat ~flow ~args name =
  let d = dict t in
  push t (Time.to_ns ts) flow dur
    (phase
    lor (Subsystem.lane sub lsl sub_shift)
    lor (intern d.cats cat lsl cat_shift)
    lor (intern d.names name lsl name_shift)
    lor (args_id d args lsl args_shift))

let instant t ~ts ~sub ?(cat = "") ?(args = []) name =
  if t.enabled then
    record t instant_ ~ts ~dur:(-1) ~sub ~cat ~flow:no_flow ~args name

let complete t ~ts ~dur ~sub ~cat ~flow ~args name =
  if t.enabled then
    record t complete_ ~ts ~dur:(Time.to_ns dur) ~sub ~cat ~flow ~args name

let flow_event t phase ~ts ~sub ~cat ~flow ~args name =
  if t.f_on then record t phase ~ts ~dur:(-1) ~sub ~cat ~flow ~args name

let flow_start t ~ts ~sub ?(cat = "flow") ?(args = []) ~flow name =
  flow_event t flow_start_ ~ts ~sub ~cat ~flow ~args name

let flow_step t ~ts ~sub ?(cat = "flow") ?(args = []) ~flow name =
  flow_event t flow_step_ ~ts ~sub ~cat ~flow ~args name

let flow_end t ~ts ~sub ?(cat = "flow") ~flow name =
  flow_event t flow_end_ ~ts ~sub ~cat ~flow ~args:[] name

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

(* ------------------------------------------------------------------ *)
(* Reading the store. *)

(* The position of the [i]th oldest retained event. *)
let slot t i =
  match t.cap with
  | Some c ->
      let p = t.head - t.count + i in
      if p < 0 then p + c else p
  | None -> i

let[@inline] word t pos field =
  Int64.to_int
    (get64
       t.chunks.(pos lsr chunk_shift)
       (((pos land (chunk_slots - 1)) * slot_bytes) + field))

let event_at t d pos =
  let packed = word t pos packed_ and dur = word t pos dur_ in
  {
    ev_ts = Time.ns (word t pos ts_);
    ev_dur = (if dur < 0 then None else Some (Time.ns dur));
    ev_phase = phase_of_code (packed land 7);
    ev_sub = Subsystem.of_lane ((packed lsr sub_shift) land (sub_limit - 1));
    ev_cat = d.cats.s_of.((packed lsr cat_shift) land (cat_limit - 1));
    ev_name = d.names.s_of.((packed lsr name_shift) land (name_limit - 1));
    ev_flow = word t pos flow_;
    ev_args = d.arg_lists.(packed lsr args_shift);
  }

let events t =
  match t.dict with
  | None -> []
  | Some d ->
      let acc = ref [] in
      for i = t.count - 1 downto 0 do
        acc := event_at t d (slot t i) :: !acc
      done;
      !acc

let iter_flow_events t f =
  for i = 0 to t.count - 1 do
    let pos = slot t i in
    let packed = word t pos packed_ in
    let ph = packed land 7 in
    if ph >= flow_start_ then
      f ~ts:(word t pos ts_) ~flow:(word t pos flow_) ~phase:(phase_of_code ph)
        ~name:((packed lsr name_shift) land (name_limit - 1))
        ~args:(packed lsr args_shift)
  done

let name_of_id t id =
  match t.dict with
  | Some d when id >= 0 && id < d.names.s_n -> d.names.s_of.(id)
  | _ -> invalid_arg "Trace.name_of_id"

let args_of_id t id =
  match t.dict with
  | Some d when id >= 0 && id < d.n_args -> d.arg_lists.(id)
  | _ -> invalid_arg "Trace.args_of_id"

(* Copies [src]'s slots, shifting flow ids and mapping its interned ids
   to [into]'s through one table per kind, each entry filled on first
   use; the phase and subsystem bits mean the same in every sink, so
   they are copied as they are.  Pushing keeps [into]'s ring semantics:
   a bounded parent retains the newest events and counts the rest as
   dropped. *)
let merge ~into src =
  let shift = into.next_flow - 1 in
  (match src.dict with
  | Some sd when into.enabled ->
      let d = dict into in
      let cats = Array.make sd.cats.s_n (-1)
      and names = Array.make sd.names.s_n (-1)
      and args = Array.make sd.n_args (-1) in
      let map table id to_into =
        let m = table.(id) in
        if m >= 0 then m
        else begin
          let m = to_into id in
          table.(id) <- m;
          m
        end
      in
      let cat id = intern d.cats sd.cats.s_of.(id)
      and name id = intern d.names sd.names.s_of.(id)
      and arg id = args_id d sd.arg_lists.(id) in
      for i = 0 to src.count - 1 do
        let pos = slot src i in
        let packed = word src pos packed_ and flow = word src pos flow_ in
        push into (word src pos ts_)
          (if flow < 0 then flow else flow + shift)
          (word src pos dur_)
          (packed land ((1 lsl cat_shift) - 1)
          lor (map cats ((packed lsr cat_shift) land (cat_limit - 1)) cat
              lsl cat_shift)
          lor (map names ((packed lsr name_shift) land (name_limit - 1)) name
              lsl name_shift)
          lor (map args (packed lsr args_shift) arg lsl args_shift))
      done
  | _ -> ());
  into.dropped <- into.dropped + src.dropped;
  into.next_flow <- into.next_flow + src.next_flow - 1

(* ------------------------------------------------------------------ *)
(* Exporters.

   Both formats go through [export], which renders one event at a time
   into one buffer and hands the buffer to [emit] each time it passes
   [flush_bytes], and once at the end: a file is written as it is
   rendered, and neither the events nor the text are ever held whole. *)

let flush_bytes = 65_536

let json_of_arg = function
  | Str s -> Json.String s
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b

let json_of_args args =
  Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args)

let[@inline] sub_code_at t pos =
  (word t pos packed_ lsr sub_shift) land (sub_limit - 1)

(* The subsystems that have events, in name order, from one pass over
   the slots' subsystem codes. *)
let lanes t =
  let seen = Array.make sub_limit false in
  for i = 0 to t.count - 1 do
    seen.(sub_code_at t (slot t i)) <- true
  done;
  let subs = ref [] in
  for c = sub_limit - 1 downto 0 do
    if seen.(c) then subs := Subsystem.of_lane c :: !subs
  done;
  List.sort Subsystem.compare !subs

(* Chrome trace_event format (the JSON object flavour), loadable in
   about:tracing and https://ui.perfetto.dev.  Timestamps are in
   microseconds; each subsystem renders as its own named thread lane,
   and flow events render as arrows between the slices they bind to. *)
let process_meta =
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("name", Json.String "pegasus") ]);
    ]

let thread_meta sub =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int (Subsystem.lane sub));
      ("args", Json.Obj [ ("name", Json.String (Subsystem.to_string sub)) ]);
    ]

(* Final metadata record carrying the ring's drop counter, so a
   truncated trace is detectable from inside the event stream. *)
let dropped_meta dropped =
  Json.Obj
    [
      ("name", Json.String "trace_dropped");
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("dropped", Json.Int dropped) ]);
    ]

let chrome_event e =
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

let ph_string = function
  | Instant -> "I"
  | Complete -> "X"
  | Flow_start -> "s"
  | Flow_step -> "t"
  | Flow_end -> "f"

let jsonl_event e =
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

let export t ~chrome emit =
  let buf = Buffer.create (2 * flush_bytes) in
  let put j =
    Json.to_buffer buf j;
    if Buffer.length buf >= flush_bytes then begin
      emit buf;
      Buffer.clear buf
    end
  in
  let each_event f =
    match t.dict with
    | None -> ()
    | Some d ->
        for i = 0 to t.count - 1 do
          f (event_at t d (slot t i))
        done
  in
  if chrome then begin
    Buffer.add_string buf "{\"traceEvents\":[";
    put process_meta;
    List.iter
      (fun sub ->
        Buffer.add_char buf ',';
        put (thread_meta sub))
      (lanes t);
    each_event (fun e ->
        Buffer.add_char buf ',';
        put (chrome_event e));
    Buffer.add_char buf ',';
    put (dropped_meta t.dropped);
    Buffer.add_string buf "],\"displayTimeUnit\":\"ns\",\"otherData\":";
    put (Json.Obj [ ("dropped", Json.Int t.dropped) ]);
    Buffer.add_string buf "}\n"
  end
  else begin
    each_event (fun e ->
        put (jsonl_event e);
        Buffer.add_char buf '\n');
    (* Footer line: the drop counter, so consumers of a truncated ring
       know how much is missing. *)
    put
      (Json.Obj
         [ ("meta", Json.String "dropped"); ("dropped", Json.Int t.dropped) ]);
    Buffer.add_char buf '\n'
  end;
  emit buf

let export_string t ~chrome =
  let out = Buffer.create 4096 in
  export t ~chrome (Buffer.add_buffer out);
  Buffer.contents out

let export_file t ~chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> export t ~chrome (Buffer.output_buffer oc))

let to_chrome t = export_string t ~chrome:true
let to_jsonl t = export_string t ~chrome:false
let write_chrome t path = export_file t ~chrome:true path
let write_jsonl t path = export_file t ~chrome:false path
