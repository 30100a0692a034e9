(* Any segment with garbage is a victim; examining one segment-table
   entry during the scan costs 1 us. *)
let max_utilisation = 0.99
let per_entry_cost = Sim.Time.us 1

let run log k =
  let engine = Log.engine log in
  let started = Sim.Engine.now engine in
  let total = Log.total_segments log in
  let seg_bytes = Log.segment_bytes log in
  (* Examine every entry of the segment usage table. *)
  let victims = ref [] in
  let reclaimable = ref 0 in
  for seg = 0 to total - 1 do
    if Log.segment_sealed log seg then begin
      let live = Log.segment_live log seg in
      let utilisation = Float.of_int live /. Float.of_int seg_bytes in
      if utilisation <= max_utilisation then begin
        victims := seg :: !victims;
        reclaimable := !reclaimable + (seg_bytes - live)
      end
    end
  done;
  let scan_cost = Sim.Time.mul per_entry_cost total in
  ignore
    (Sim.Engine.schedule engine ~delay:scan_cost (fun () ->
         Cleaner.clean_sequentially log (List.rev !victims)
           ~k:(fun ~segments ~moved ->
             (* Sprite has no garbage file, but ours keeps growing while
                this cleaner is in charge; consume it so comparisons
                over repeated rounds stay fair. *)
             let g = Log.garbage log in
             Garbage.set_marker g;
             Garbage.truncate_to_marker g ~keep:(fun _ -> false);
             k
               {
                 Cleaner.segments_cleaned = segments;
                 bytes_moved = moved;
                 bytes_reclaimed = !reclaimable;
                 entries_processed = 0;
                 table_entries_scanned = total;
                 scan_cost;
                 duration = Sim.Time.sub (Sim.Engine.now engine) started;
               })))
