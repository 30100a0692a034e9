type kind = Normal | Continuous
type fid = int
type error = [ `Lost | `No_such_file ]

(* A contiguous run of file bytes at a fixed place in the log.  Meta
   extents (pnode records) use x_fid = -1 - fid of their owner. *)
type extent = {
  x_fid : int;
  x_foff : int;
  x_seg : int;
  x_soff : int;
  x_len : int;
  mutable x_dead : bool;
}

type seg_state = Open | Sealed | Free

type seg = {
  mutable s_live : int;
  mutable s_state : seg_state;
  mutable s_kind : kind;
  mutable s_residents : extent list;
  mutable s_freed : int;  (* undo position of the clean that freed it *)
}

type pnode = {
  mutable p_size : int;
  mutable p_extents : extent list;  (* sorted by x_foff, all live *)
  mutable p_meta : extent option;
  p_kind : kind;
}

(* [o_mark] is the undo position at which the operation that wrote the
   segment's first record (or, in the normal log, a delete) began; -1
   while there is none.  [o_dirty] ends the prefix of [o_buf] that data
   was copied into: past it the buffer still reads zero.  Only a log
   over an array that stores data reads [o_buf] back (a seal writes it,
   [peek] and [read] copy from it), so only such a log has one of a
   segment's size; any other holds [Bytes.empty] and copies nothing. *)
type open_seg = {
  mutable o_seg : int;
  mutable o_fill : int;
  o_buf : bytes;
  mutable o_dirty : int;
  mutable o_mark : int;
}

module Fid_table = Sim.Int_table

type t = {
  engine : Sim.Engine.t;
  raid : Raid.t;
  seg_bytes : int;
  stores : bool;  (* [Raid.stores_data raid]: data is copied into [o_buf] *)
  (* Indexed by segment id.  Ids are dense, so the table only grows;
     every slot holds a record, free until a segment opens there. *)
  mutable segs : seg array;
  mutable next_seg : int;
  mutable free_list : int list;
  files : pnode Fid_table.t;
  mutable next_fid : int;
  garbage : Garbage.t;
  normal : open_seg;
  continuous : open_seg;
  mutable garbage_created : int;
  mutable meta_writes : int;
  (* The undo log: the inverse of every change to the mapping state,
     newest first.  The oldest entry kept has position [undo_base]; the
     next change recorded gets [undo_base + undo_len]. *)
  mutable undo : (unit -> unit) list;
  mutable undo_len : int;
  mutable undo_base : int;
  mutable op_start : int;  (* position where the latest operation began *)
  m_sealed : Sim.Metrics.counter;
  m_bytes_appended : Sim.Metrics.counter;
  m_meta_writes : Sim.Metrics.counter;
  m_garbage_bytes : Sim.Metrics.counter;
}

let meta_bytes = 64

let position t = t.undo_base + t.undo_len

let record t undo =
  t.undo <- undo :: t.undo;
  t.undo_len <- t.undo_len + 1

let begin_op t = t.op_start <- position t

(* The latest operation boundary before which every record sits in a
   sealed segment. *)
let recovery_point t =
  let earliest os acc =
    if os.o_mark >= 0 then Int.min os.o_mark acc else acc
  in
  earliest t.normal (earliest t.continuous (position t))

(* No change before this position can be rolled back any more: the
   recovery point, but never past the start of the operation in
   progress. *)
let durable t = Int.min (recovery_point t) t.op_start

(* Drop the inverses older than position [r].  The list is cut only when
   that frees at least half of it, so trimming costs O(1) per change. *)
let forget_before t r =
  let keep = position t - r in
  if 2 * keep <= t.undo_len then begin
    let rec take n acc = function
      | u :: rest when n > 0 -> take (n - 1) (u :: acc) rest
      | _ -> List.rev acc
    in
    t.undo <- take keep [] t.undo;
    t.undo_len <- keep;
    t.undo_base <- r
  end

let free_seg _ =
  { s_live = 0; s_state = Free; s_kind = Normal; s_residents = []; s_freed = -1 }

let seg_record t id =
  let n = Array.length t.segs in
  if id >= n then
    t.segs <-
      Array.init
        (Int.max (id + 1) (2 * n))
        (fun i -> if i < n then t.segs.(i) else free_seg i);
  t.segs.(id)

(* The first free segment whose clean can no longer be rolled back:
   rolling a clean back needs the segment's old contents on disk, so a
   segment freed after [durable] is not written again until then. *)
let rec take_free t durable = function
  | [] -> None
  | id :: rest when (seg_record t id).s_freed < durable -> Some (id, rest)
  | id :: rest ->
      Option.map (fun (x, rest) -> (x, id :: rest)) (take_free t durable rest)

let allocate_segment t knd =
  let free_list = t.free_list and next_seg = t.next_seg in
  let id =
    match take_free t (durable t) free_list with
    | Some (id, rest) ->
        t.free_list <- rest;
        id
    | None ->
        t.next_seg <- next_seg + 1;
        next_seg
  in
  let s = seg_record t id in
  record t (fun () ->
      t.free_list <- free_list;
      t.next_seg <- next_seg;
      s.s_state <- Free);
  s.s_state <- Open;
  s.s_kind <- knd;
  s.s_live <- 0;
  s.s_residents <- [];
  id

let create engine ~raid () =
  let seg_bytes = Raid.segment_bytes raid in
  let stores = Raid.stores_data raid in
  let mk_open () =
    (* placeholder; real segment assigned below *)
    {
      o_seg = -1;
      o_fill = 0;
      o_buf = (if stores then Bytes.make seg_bytes '\000' else Bytes.empty);
      o_dirty = 0;
      o_mark = -1;
    }
  in
  let metrics = Sim.Engine.metrics engine in
  let t =
    {
      engine;
      raid;
      seg_bytes;
      stores;
      segs = Array.init 64 free_seg;
      next_seg = 0;
      free_list = [];
      files = Fid_table.create 64;
      next_fid = 1;
      garbage = Garbage.create ();
      normal = mk_open ();
      continuous = mk_open ();
      garbage_created = 0;
      meta_writes = 0;
      undo = [];
      undo_len = 0;
      undo_base = 0;
      op_start = 0;
      m_sealed =
        Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Pfs
          ~help:"log segments sealed and written to the array"
          "log.segments_sealed";
      m_bytes_appended =
        Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Pfs
          ~help:"bytes appended to the log (data, metadata and cleaner moves)"
          "log.bytes_appended";
      m_meta_writes =
        Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Pfs
          ~help:"pnode records appended" "log.meta_writes";
      m_garbage_bytes =
        Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Pfs
          ~help:"bytes turned into garbage (overwrites, deletes, seal tails)"
          "log.garbage_bytes";
    }
  in
  t.normal.o_seg <- allocate_segment t Normal;
  t.continuous.o_seg <- allocate_segment t Continuous;
  (* The empty log is the first recovery point. *)
  forget_before t (position t);
  t

let engine t = t.engine
let raid t = t.raid
let garbage t = t.garbage
let segment_bytes t = t.seg_bytes

let open_seg_for t = function
  | Normal -> t.normal
  | Continuous -> t.continuous

let emit_garbage t ~seg ~off ~len =
  Garbage.append t.garbage ~seg ~off ~len;
  t.garbage_created <- t.garbage_created + len;
  Sim.Metrics.incr t.m_garbage_bytes ~by:len

(* One causal-flow step at the current instant, named for the log stage
   the flow just cleared ("pfs.log", "pfs.cache", ...). *)
let flow_step t flow name =
  if flow >= 0 then begin
    let tr = Sim.Engine.trace t.engine in
    if Sim.Trace.flows_on tr then
      Sim.Trace.flow_step tr
        ~ts:(Sim.Engine.now t.engine)
        ~sub:Sim.Subsystem.Pfs ~cat:"pfs" ~flow name
  end

(* Completion joiner: [spawn] before each asynchronous leg, and call
   the returned finisher when the leg completes; the synchronous part
   holds one implicit leg released by [release]. *)
let joiner k =
  let outstanding = ref 1 in
  let failed = ref false in
  let finish r =
    (match r with Error _ -> failed := true | Ok _ -> ());
    decr outstanding;
    if !outstanding = 0 then k (if !failed then Error `Lost else Ok ())
  in
  let spawn () = incr outstanding in
  let release () = finish (Ok ()) in
  (spawn, finish, release)

(* Zero what data was copied into: the rest of the buffer is zero. *)
let clear_buffer os =
  Bytes.fill os.o_buf 0 os.o_dirty '\000';
  os.o_dirty <- 0

let seal ?(flow = Sim.Trace.no_flow) t os ~spawn ~finish =
  let id = os.o_seg in
  let s = seg_record t id in
  let tail = t.seg_bytes - os.o_fill in
  if tail > 0 then emit_garbage t ~seg:id ~off:os.o_fill ~len:tail;
  s.s_state <- Sealed;
  Sim.Metrics.incr t.m_sealed;
  let tr = Sim.Engine.trace t.engine in
  if Sim.Trace.enabled tr then
    Sim.Trace.instant tr
      ~ts:(Sim.Engine.now t.engine)
      ~sub:Sim.Subsystem.Pfs ~cat:"log"
      ~args:
        [ ("seg", Sim.Trace.Int id); ("live_bytes", Sim.Trace.Int s.s_live) ]
      "segment_sealed";
  let data = if t.stores then Some (Bytes.copy os.o_buf) else None in
  spawn ();
  Raid.write_segment t.raid ~seg:id ?data ~flow (fun r ->
      finish (r :> (unit, error) result));
  (* A seal is never rolled back.  With this segment's records on disk,
     only the other open segment and the operation in progress hold the
     recovery point back. *)
  os.o_mark <- -1;
  forget_before t (durable t);
  os.o_seg <- allocate_segment t s.s_kind;
  os.o_fill <- 0;
  clear_buffer os

(* Add [x] to a segment's residents, with [live] more live bytes. *)
let add_resident t s x ~live =
  let residents = s.s_residents and old_live = s.s_live in
  record t (fun () ->
      s.s_residents <- residents;
      s.s_live <- old_live);
  s.s_residents <- x :: residents;
  s.s_live <- old_live + live

(* Record how to restore [p]'s mapping; call before changing it. *)
let save_pnode t p =
  let size = p.p_size and extents = p.p_extents and meta = p.p_meta in
  record t (fun () ->
      p.p_size <- size;
      p.p_extents <- extents;
      p.p_meta <- meta)

(* Append raw bytes to the open segment of [knd]; returns the extents
   created (most recent first).  May seal one or more segments. *)
let append_raw t knd ~fid ~foff ?data ?(dataoff = 0)
    ?(flow = Sim.Trace.no_flow) ~len ~spawn ~finish () =
  let os = open_seg_for t knd in
  let created = ref [] in
  let written = ref 0 in
  while !written < len do
    if os.o_fill = t.seg_bytes then seal ~flow t os ~spawn ~finish;
    let n = Int.min (len - !written) (t.seg_bytes - os.o_fill) in
    (match data with
    | Some src when t.stores ->
        Bytes.blit src (dataoff + !written) os.o_buf os.o_fill n;
        os.o_dirty <- os.o_fill + n
    | Some _ | None -> ());
    let x =
      {
        x_fid = fid;
        x_foff = foff + !written;
        x_seg = os.o_seg;
        x_soff = os.o_fill;
        x_len = n;
        x_dead = false;
      }
    in
    add_resident t (seg_record t os.o_seg) x ~live:n;
    if os.o_mark < 0 then os.o_mark <- t.op_start;
    Sim.Metrics.incr t.m_bytes_appended ~by:n;
    os.o_fill <- os.o_fill + n;
    if os.o_fill = t.seg_bytes then seal ~flow t os ~spawn ~finish;
    created := x :: !created;
    written := !written + n
  done;
  !created

(* Kill an extent: the dead flag, live accounting, and a garbage entry
   over the sub-range [from, from+len) of the extent.  The caller
   removes it from the pnode. *)
let kill_range t x ~from ~len =
  let s = seg_record t x.x_seg in
  let dead = x.x_dead and live = s.s_live in
  record t (fun () ->
      x.x_dead <- dead;
      s.s_live <- live);
  x.x_dead <- true;
  s.s_live <- live - len;
  emit_garbage t ~seg:x.x_seg ~off:(x.x_soff + from) ~len

(* Remove [lo, hi) from the pnode's mapping, creating garbage; kept
   sub-ranges of partially overlapped extents are re-registered. *)
let punch t p ~lo ~hi =
  let keep_piece x ~foff ~delta ~len =
    let piece =
      {
        x_fid = x.x_fid;
        x_foff = foff;
        x_seg = x.x_seg;
        x_soff = x.x_soff + delta;
        x_len = len;
        x_dead = false;
      }
    in
    add_resident t (seg_record t x.x_seg) piece ~live:0;
    piece
  in
  let process x =
    let x_end = x.x_foff + x.x_len in
    if x_end <= lo || x.x_foff >= hi then [ x ]
    else begin
      let olo = Int.max lo x.x_foff and ohi = Int.min hi x_end in
      kill_range t x ~from:(olo - x.x_foff) ~len:(ohi - olo);
      (* Surviving live bytes move to the kept pieces. *)
      let pieces = ref [] in
      if x.x_foff < olo then
        pieces := keep_piece x ~foff:x.x_foff ~delta:0 ~len:(olo - x.x_foff) :: !pieces;
      if ohi < x_end then begin
        let right =
          keep_piece x ~foff:ohi ~delta:(ohi - x.x_foff) ~len:(x_end - ohi)
        in
        pieces := right :: !pieces
      end;
      List.rev !pieces
    end
  in
  p.p_extents <- List.concat_map process p.p_extents

let append_meta ?(flow = Sim.Trace.no_flow) t fid p ~spawn ~finish =
  (match p.p_meta with
  | Some m when not m.x_dead -> kill_range t m ~from:0 ~len:m.x_len
  | Some _ | None -> ());
  let created =
    append_raw t Normal ~fid:(-1 - fid) ~foff:0 ~flow ~len:meta_bytes ~spawn
      ~finish ()
  in
  t.meta_writes <- t.meta_writes + 1;
  Sim.Metrics.incr t.m_meta_writes;
  p.p_meta <- (match created with m :: _ -> Some m | [] -> None)

let create_file t ?(kind = Normal) () =
  begin_op t;
  let fid = t.next_fid in
  record t (fun () ->
      t.next_fid <- fid;
      Fid_table.remove t.files fid);
  t.next_fid <- fid + 1;
  let p = { p_size = 0; p_extents = []; p_meta = None; p_kind = kind } in
  Fid_table.replace t.files fid p;
  (* The pnode itself is data in the log. *)
  let _spawn, _finish, release = joiner (fun _ -> ()) in
  append_meta t fid p ~spawn:_spawn ~finish:_finish;
  release ();
  fid

let file_exists t fid = Fid_table.mem t.files fid

let file_size t fid =
  match Fid_table.find_opt t.files fid with
  | Some p -> p.p_size
  | None -> raise Not_found

let insert_sorted extents x =
  let rec go = function
    | [] -> [ x ]
    | y :: rest when y.x_foff < x.x_foff -> y :: go rest
    | rest -> x :: rest
  in
  go extents

let write t fid ~off ?data ?(flow = Sim.Trace.no_flow) ~len k =
  match Fid_table.find_opt t.files fid with
  | None -> k (Error `No_such_file)
  | Some p ->
      flow_step t flow "pfs.log";
      begin_op t;
      save_pnode t p;
      let spawn, finish, release = joiner k in
      punch t p ~lo:off ~hi:(off + len);
      let created =
        append_raw t p.p_kind ~fid ~foff:off ?data ~flow ~len ~spawn ~finish ()
      in
      List.iter (fun x -> p.p_extents <- insert_sorted p.p_extents x) created;
      p.p_size <- Int.max p.p_size (off + len);
      append_meta ~flow t fid p ~spawn ~finish;
      release ()

let peek t fid ~off ~len =
  match Fid_table.find_opt t.files fid with
  | None -> None
  | Some _ when not t.stores -> None
  | Some p ->
      let out = Bytes.make len '\000' in
      let ok = ref true in
      List.iter
        (fun x ->
          if x.x_foff < off + len && x.x_foff + x.x_len > off then begin
            let lo = Int.max off x.x_foff
            and hi = Int.min (off + len) (x.x_foff + x.x_len) in
            let delta = lo - x.x_foff and n = hi - lo in
            let s = seg_record t x.x_seg in
            match s.s_state with
            | Open ->
                let os = open_seg_for t s.s_kind in
                if os.o_seg = x.x_seg then
                  Bytes.blit os.o_buf (x.x_soff + delta) out (lo - off) n
            | Sealed -> begin
                match Raid.peek_segment t.raid ~seg:x.x_seg with
                | Some segdata ->
                    Bytes.blit segdata (x.x_soff + delta) out (lo - off) n
                | None -> ok := false
              end
            | Free -> ()
          end)
        p.p_extents;
      if !ok then Some out else None

let delete t fid ~k =
  match Fid_table.find_opt t.files fid with
  | None -> k (Error `No_such_file)
  | Some p ->
      begin_op t;
      List.iter
        (fun x -> if not x.x_dead then kill_range t x ~from:0 ~len:x.x_len)
        p.p_extents;
      (match p.p_meta with
      | Some m when not m.x_dead -> kill_range t m ~from:0 ~len:m.x_len
      | Some _ | None -> ());
      record t (fun () -> Fid_table.replace t.files fid p);
      Fid_table.remove t.files fid;
      (* A delete appends nothing, but counts as a normal-log record: a
         crash rolls it back until the normal segment seals or a
         checkpoint is taken. *)
      if t.normal.o_mark < 0 then t.normal.o_mark <- t.op_start;
      k (Ok ())

let read ?(flow = Sim.Trace.no_flow) t fid ~off ~len ~k =
  match Fid_table.find_opt t.files fid with
  | None -> k (Error `No_such_file)
  | Some p ->
      flow_step t flow "pfs.log";
      let out = if t.stores then Some (Bytes.make len '\000') else None in
      let buf = Option.value out ~default:Bytes.empty in
      let spawn, finish, release =
        joiner (fun r ->
            match r with Ok () -> k (Ok out) | Error e -> k (Error e))
      in
      let overlapping =
        List.filter
          (fun x -> x.x_foff < off + len && x.x_foff + x.x_len > off)
          p.p_extents
      in
      let cache_hit = ref false in
      let handle x =
        let lo = Int.max off x.x_foff
        and hi = Int.min (off + len) (x.x_foff + x.x_len) in
        let delta = lo - x.x_foff and n = hi - lo in
        let s = seg_record t x.x_seg in
        match s.s_state with
        | Open ->
            (* Data still in the open segment buffer: a memory copy. *)
            cache_hit := true;
            let os = open_seg_for t s.s_kind in
            if t.stores && os.o_seg = x.x_seg then
              Bytes.blit os.o_buf (x.x_soff + delta) buf (lo - off) n
        | Sealed ->
            spawn ();
            Raid.read_range ~flow t.raid ~seg:x.x_seg ~off:(x.x_soff + delta)
              ~len:n ~into:buf ~at:(lo - off) ~k:finish
        | Free -> ()  (* cannot happen: live extents pin their segment *)
      in
      List.iter handle overlapping;
      (* One step for the whole read when any byte came straight out of
         an open segment buffer — the cache-hit side of the split. *)
      if !cache_hit then flow_step t flow "pfs.cache";
      release ()

let sync t ~k =
  begin_op t;
  let spawn, finish, release = joiner k in
  if t.normal.o_fill > 0 then seal t t.normal ~spawn ~finish;
  if t.continuous.o_fill > 0 then seal t t.continuous ~spawn ~finish;
  release ()

let total_segments t = t.next_seg
let free_segments t = List.length t.free_list

let segment_live t id = (seg_record t id).s_live
let segment_sealed t id = (seg_record t id).s_state = Sealed

let clean_segment t id ~k =
  let s = seg_record t id in
  (match s.s_state with
  | Sealed -> ()
  | Open -> invalid_arg "Log.clean_segment: segment is open"
  | Free -> invalid_arg "Log.clean_segment: segment is free");
  let residents = List.filter (fun x -> not x.x_dead) s.s_residents in
  Raid.read_segment t.raid ~seg:id ~k:(fun r ->
      match r with
      | Error `Lost -> k (Error `Lost)
      | Ok segdata ->
          begin_op t;
          let moved = ref 0 in
          let spawn, finish, release =
            joiner (fun r ->
                match r with
                | Ok () -> k (Ok !moved)
                | Error e -> k (Error e))
          in
          let move x =
            let dead = x.x_dead in
            record t (fun () -> x.x_dead <- dead);
            x.x_dead <- true;
            if x.x_fid < 0 then begin
              (* A pnode record: re-append it for its owner, if the
                 file still exists. *)
              let owner = -1 - x.x_fid in
              match Fid_table.find_opt t.files owner with
              | Some p ->
                  save_pnode t p;
                  let created =
                    append_raw t Normal ~fid:x.x_fid ~foff:0 ~len:x.x_len
                      ~spawn ~finish ()
                  in
                  (match created with
                  | m :: _ -> p.p_meta <- Some m
                  | [] -> ());
                  moved := !moved + x.x_len
              | None -> ()
            end
            else begin
              match Fid_table.find_opt t.files x.x_fid with
              | None -> ()
              | Some p ->
                  save_pnode t p;
                  let created =
                    append_raw t p.p_kind ~fid:x.x_fid ~foff:x.x_foff
                      ?data:segdata ~dataoff:x.x_soff ~len:x.x_len ~spawn
                      ~finish ()
                  in
                  (* Swap the mapping: drop the old extent, insert the
                     replacements. *)
                  p.p_extents <-
                    List.filter (fun y -> not (y == x)) p.p_extents;
                  List.iter
                    (fun y -> p.p_extents <- insert_sorted p.p_extents y)
                    created;
                  moved := !moved + x.x_len
            end
          in
          List.iter move residents;
          (* The whole segment is now reusable. *)
          let live = s.s_live and residents = s.s_residents
          and freed = s.s_freed and free_list = t.free_list in
          s.s_freed <- position t;
          record t (fun () ->
              s.s_state <- Sealed;
              s.s_live <- live;
              s.s_residents <- residents;
              s.s_freed <- freed;
              t.free_list <- free_list);
          s.s_state <- Free;
          s.s_live <- 0;
          s.s_residents <- [];
          t.free_list <- id :: free_list;
          release ())

let checkpoint t ~k =
  sync t ~k:(fun r ->
      match r with
      | Error _ as e -> k e
      | Ok () ->
          (* The checkpoint region's I/O is modelled as a zero-length
             read at the start of segment 0: the first data disk pays one
             positioning, and nothing is transferred or written. *)
          Raid.read_extent t.raid ~seg:0 ~off:0 ~len:0 ~k:(fun _ ->
              k (Ok ())));
  (* The segments are sealed and the checkpoint region records the pnode
     map, deletes included: nothing before this point rolls back. *)
  t.normal.o_mark <- -1;
  forget_before t (position t)

let crash_and_recover t ~k =
  (* Volatile losses: open segment contents... *)
  let lost = t.normal.o_fill + t.continuous.o_fill in
  (* ...and every change since the recovery point, newest first. *)
  let r = recovery_point t in
  let rec roll_back () =
    match t.undo with
    | u :: rest when position t > r ->
        t.undo <- rest;
        t.undo_len <- t.undo_len - 1;
        u ();
        roll_back ()
    | _ -> ()
  in
  roll_back ();
  begin_op t;
  (* The open segments' buffered bytes are gone.  Recycle those still
     open (a rolled-back one is free already), then open fresh ones. *)
  List.iter
    (fun os ->
      let s = seg_record t os.o_seg in
      if s.s_state = Open then begin
        s.s_state <- Free;
        t.free_list <- os.o_seg :: t.free_list
      end;
      os.o_fill <- 0;
      os.o_mark <- -1;
      clear_buffer os)
    [ t.continuous; t.normal ];
  t.normal.o_seg <- allocate_segment t Normal;
  t.continuous.o_seg <- allocate_segment t Continuous;
  forget_before t (position t);
  (* Recovery I/O: read the checkpoint region (modelled as one segment
     read) before answering. *)
  Raid.read_segment t.raid ~seg:0 ~k:(fun _ -> k ~lost_bytes:lost)

let file_extents t fid =
  match Fid_table.find_opt t.files fid with
  | None -> raise Not_found
  | Some p ->
      List.map (fun x -> (x.x_foff, x.x_seg, x.x_soff, x.x_len)) p.p_extents

let file_sealed t fid =
  match Fid_table.find_opt t.files fid with
  | None -> raise Not_found
  | Some p ->
      List.for_all (fun x -> (seg_record t x.x_seg).s_state = Sealed) p.p_extents

let live_bytes t = Array.fold_left (fun acc s -> acc + s.s_live) 0 t.segs

let garbage_bytes_created t = t.garbage_created
let metadata_writes t = t.meta_writes
