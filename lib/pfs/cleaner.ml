type stats = {
  segments_cleaned : int;
  bytes_moved : int;
  bytes_reclaimed : int;
  entries_processed : int;
  table_entries_scanned : int;
  scan_cost : Sim.Time.t;
  duration : Sim.Time.t;
}

let pp_stats fmt s =
  Format.fprintf fmt
    "cleaned=%d moved=%dB reclaimed=%dB entries=%d scanned=%d scan=%a total=%a"
    s.segments_cleaned s.bytes_moved s.bytes_reclaimed s.entries_processed
    s.table_entries_scanned Sim.Time.pp s.scan_cost Sim.Time.pp s.duration

let clean_sequentially log segments ~k =
  let rec go segments ~cleaned ~moved =
    match segments with
    | [] -> k ~segments:cleaned ~moved
    | seg :: rest ->
        if Log.segment_sealed log seg then
          Log.clean_segment log seg ~k:(fun r ->
              match r with
              | Ok n -> go rest ~cleaned:(cleaned + 1) ~moved:(moved + n)
              | Error _ -> go rest ~cleaned ~moved)
        else go rest ~cleaned ~moved
  in
  go segments ~cleaned:0 ~moved:0

let garbage_read_cost ~entries =
  let read_bps = 5_000_000.0 (* sequential, one disk *) in
  let read = Float.of_int (entries * 16) /. read_bps in
  let sort =
    if entries < 2 then 0.0
    else Float.of_int entries *. log (Float.of_int entries) *. 0.5e-6
  in
  Sim.Time.of_sec_f (read +. sort)

let run log ?(min_garbage = 1) k =
  let engine = Log.engine log in
  let metrics = Sim.Engine.metrics engine in
  let m_cleaned =
    Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Pfs
      ~help:"segments reclaimed by the cleaner" "cleaner.segments_cleaned"
  in
  let m_moved =
    Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Pfs
      ~help:"live bytes rewritten to evacuate victim segments"
      "cleaner.bytes_moved"
  in
  let m_reclaimed =
    Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Pfs
      ~help:"garbage bytes recovered" "cleaner.bytes_reclaimed"
  in
  let m_duration =
    Sim.Metrics.dist metrics ~sub:Sim.Subsystem.Pfs ~unit:Sim.Metrics.Ms
      ~help:"wall time of one cleaner pass in ms" "cleaner.pass_ms"
  in
  let m_share =
    Sim.Metrics.gauge metrics ~sub:Sim.Subsystem.Pfs
      ~help:"fraction of log write bandwidth consumed by cleaner moves"
      "cleaner.write_share"
  in
  let m_appended =
    Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Pfs "log.bytes_appended"
  in
  let started = Sim.Engine.now engine in
  let pass_span =
    Sim.Trace.span_begin (Sim.Engine.trace engine) ~ts:started
      ~sub:Sim.Subsystem.Pfs ~cat:"cleaner" "cleaner_pass"
  in
  let g = Log.garbage log in
  Garbage.set_marker g;
  let n_entries = Garbage.count g in
  let scan_cost = garbage_read_cost ~entries:n_entries in
  (* Sum the garbage per segment ("sort by segment number").  Segment
     ids are dense.  An entry may name a segment above the table when a
     crash rolled back its opening: it is free, so never a victim. *)
  let n_segs = Log.total_segments log in
  let per_seg = Array.make n_segs 0 in
  Garbage.iter_before_marker g (fun e ->
      let seg = e.Garbage.g_seg in
      if seg < n_segs then per_seg.(seg) <- per_seg.(seg) + e.Garbage.g_len);
  (* Only sealed segments can be cleaned; garbage sitting in an open
     segment is collected once that segment seals.  A segment with no
     garbage is never a victim. *)
  let min_garbage = Stdlib.max 1 min_garbage in
  let victim = Array.make n_segs false in
  let victims = ref [] and reclaimable = ref 0 in
  for seg = n_segs - 1 downto 0 do
    let bytes = per_seg.(seg) in
    if bytes >= min_garbage && Log.segment_sealed log seg then begin
      victim.(seg) <- true;
      victims := seg :: !victims;
      reclaimable := !reclaimable + bytes
    end
  done;
  let reclaimable = !reclaimable in
  ignore
    (Sim.Engine.schedule engine ~delay:scan_cost (fun () ->
         clean_sequentially log !victims ~k:(fun ~segments ~moved ->
             (* Entries for segments left uncleaned stay for a later
                pass. *)
             Garbage.truncate_to_marker g ~keep:(fun seg ->
                 seg >= n_segs || not victim.(seg));
             let duration = Sim.Time.sub (Sim.Engine.now engine) started in
             Sim.Metrics.incr m_cleaned ~by:segments;
             Sim.Metrics.incr m_moved ~by:moved;
             Sim.Metrics.incr m_reclaimed ~by:reclaimable;
             Sim.Metrics.observe m_duration (Sim.Time.to_ns duration);
             let appended = Sim.Metrics.value m_appended in
             if appended > 0 then
               Sim.Metrics.set m_share
                 (Float.of_int (Sim.Metrics.value m_moved)
                 /. Float.of_int appended);
             Sim.Trace.span_end (Sim.Engine.trace engine)
               ~ts:(Sim.Engine.now engine)
               ~args:
                 [
                   ("segments", Sim.Trace.Int segments);
                   ("bytes_moved", Sim.Trace.Int moved);
                   ("bytes_reclaimed", Sim.Trace.Int reclaimable);
                 ]
               pass_span;
             k
               {
                 segments_cleaned = segments;
                 bytes_moved = moved;
                 bytes_reclaimed = reclaimable;
                 entries_processed = n_entries;
                 table_entries_scanned = 0;
                 scan_cost;
                 duration;
               })))
