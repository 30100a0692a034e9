type error = [ `Lost ]

type t = {
  engine : Sim.Engine.t;
  n_data : int;
  seg_bytes : int;
  chunk : int;
  all_disks : Disk.t array;  (* data disks then parity *)
  store : (int, bytes option array) Hashtbl.t option;
      (* seg -> chunk contents per disk (None = lost/unwritten) *)
  mutable degraded : int;  (* reads served with a disk missing *)
  m_degraded : Sim.Metrics.counter;
  m_retried : Sim.Metrics.counter;
}

let create engine ?(data_disks = 4) ?(store_data = false) ~segment_bytes () =
  if segment_bytes mod data_disks <> 0 then
    invalid_arg "Raid.create: segment size must divide by the data disks";
  let all_disks =
    Array.init (data_disks + 1) (fun i ->
        let name = if i = data_disks then "parity" else "data" ^ string_of_int i in
        Disk.create engine ~name)
  in
  let metrics = Sim.Engine.metrics engine in
  {
    engine;
    n_data = data_disks;
    seg_bytes = segment_bytes;
    chunk = segment_bytes / data_disks;
    all_disks;
    store = (if store_data then Some (Hashtbl.create 256) else None);
    degraded = 0;
    m_degraded =
      Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Pfs
        ~help:"segment reads served with at least one disk missing"
        "raid.degraded_reads";
    m_retried =
      Sim.Metrics.counter metrics ~sub:Sim.Subsystem.Pfs
        ~help:"segment reads retried after a disk failed mid-read"
        "raid.read_retries";
  }

let segment_bytes t = t.seg_bytes
let stores_data t = match t.store with Some _ -> true | None -> false
let data_disks t = t.n_data
let disks t = Array.to_list t.all_disks

let xor_into dst src =
  for i = 0 to Bytes.length dst - 1 do
    Bytes.set dst i
      (Char.chr (Char.code (Bytes.get dst i) lxor Char.code (Bytes.get src i)))
  done

let parity_of_chunks chunks =
  let p = Bytes.make (Bytes.length chunks.(0)) '\000' in
  Array.iter (fun c -> xor_into p c) chunks;
  p

(* Run [f] on every (disk index, disk) pair and join the completions:
   [k] fires when all have completed, with the count of failures. *)
let fan_out t indices op ~k =
  match indices with
  | [] -> k 0
  | indices ->
  let outstanding = ref (List.length indices) in
  let failures = ref 0 in
  let join = function
    | Ok () -> ()
    | Error `Failed -> incr failures
  in
  List.iter
    (fun i ->
      op i t.all_disks.(i) (fun r ->
          join r;
          decr outstanding;
          if !outstanding = 0 then k !failures))
    indices

let indices n = List.init n Fun.id

(* Record the array-level join of a fan-out as one flow step, at the
   instant the last component completes (= now, when the joined k
   fires). *)
let flow_join t flow =
  if flow >= 0 then begin
    let tr = Sim.Engine.trace t.engine in
    if Sim.Trace.flows_on tr then
      Sim.Trace.flow_step tr
        ~ts:(Sim.Engine.now t.engine)
        ~sub:Sim.Subsystem.Pfs ~cat:"pfs" ~flow "pfs.raid"
  end

let write_segment t ~seg ?data ?(flow = Sim.Trace.no_flow) k =
  (match (data, t.store) with
  | Some bytes, Some store ->
      if Bytes.length bytes <> t.seg_bytes then
        invalid_arg "Raid.write_segment: bad data size";
      let chunks =
        Array.init t.n_data (fun d -> Bytes.sub bytes (d * t.chunk) t.chunk)
      in
      let parity = parity_of_chunks chunks in
      let cells =
        Array.init (t.n_data + 1) (fun i ->
            if i = t.n_data then Some parity else Some chunks.(i))
      in
      (* A failed disk does not record its chunk. *)
      Array.iteri
        (fun i d -> if Disk.failed d then cells.(i) <- None)
        t.all_disks;
      Hashtbl.replace store seg cells
  | Some _, None | None, Some _ | None, None -> ());
  let off = seg * t.chunk in
  fan_out t
    (indices (t.n_data + 1))
    (fun _ d cb -> Disk.write ~flow d ~off ~len:t.chunk ~k:cb)
    ~k:(fun failures ->
      flow_join t flow;
      if failures > 1 then k (Error `Lost) else k (Ok ()))

let reconstruct t store seg cells =
  (* Rebuild at most one missing chunk from the XOR of the others. *)
  let missing = ref [] in
  Array.iteri
    (fun i c -> match c with None -> missing := i :: !missing | Some _ -> ())
    cells;
  match !missing with
  | [] -> true
  | [ i ] ->
      let acc = Bytes.make t.chunk '\000' in
      Array.iteri (fun j c -> if j <> i then
        match c with Some b -> xor_into acc b | None -> assert false)
        cells;
      cells.(i) <- Some acc;
      Hashtbl.replace store seg cells;
      true
  | _ :: _ :: _ -> false

(* The segment and extent reads, carrying a causal flow into the
   component disks: {!read_range} is the one exported reader that takes
   a flow. *)
let segment ~flow t ~seg ~k =
  let off = seg * t.chunk in
  let deliver () =
    match t.store with
    | None -> k (Ok None)
    | Some store -> begin
        match Hashtbl.find_opt store seg with
        | None -> k (Ok None)
        | Some cells ->
            (* Chunks on currently-failed disks are unavailable even
               if once written. *)
            let view = Array.copy cells in
            Array.iteri
              (fun i d -> if Disk.failed d then view.(i) <- None)
              t.all_disks;
            if not (reconstruct t store seg view) then k (Error `Lost)
            else begin
              let out = Bytes.create t.seg_bytes in
              for d = 0 to t.n_data - 1 do
                match view.(d) with
                | Some b -> Bytes.blit b 0 out (d * t.chunk) t.chunk
                | None -> assert false
              done;
              k (Ok (Some out))
            end
      end
  in
  (* A disk that fails *mid-read* answers [Error `Failed] after the
     targets were chosen; as long as n of n+1 chunks survive, the read
     is retried over the remaining healthy disks (parity standing in
     for the lost data chunk) instead of reporting the segment lost. *)
  let rec attempt ~retries_left =
    let healthy_data =
      List.filter
        (fun i -> not (Disk.failed t.all_disks.(i)))
        (indices t.n_data)
    in
    let need_parity = List.length healthy_data < t.n_data in
    let targets =
      if need_parity && not (Disk.failed t.all_disks.(t.n_data)) then
        healthy_data @ [ t.n_data ]
      else healthy_data
    in
    if List.length targets < t.n_data then k (Error `Lost)
    else begin
      if need_parity then begin
        t.degraded <- t.degraded + 1;
        Sim.Metrics.incr t.m_degraded
      end;
      fan_out t targets
        (fun _ d cb -> Disk.read ~flow d ~off ~len:t.chunk ~k:cb)
        ~k:(fun failures ->
          flow_join t flow;
          if failures = 0 then deliver ()
          else if retries_left > 0 then begin
            Sim.Metrics.incr t.m_retried;
            attempt ~retries_left:(retries_left - 1)
          end
          else k (Error `Lost))
    end
  in
  attempt ~retries_left:1

let read_segment t ~seg ~k = segment ~flow:Sim.Trace.no_flow t ~seg ~k

let peek_segment t ~seg =
  match t.store with
  | None -> None
  | Some store -> begin
      match Hashtbl.find_opt store seg with
      | None -> None
      | Some cells ->
          let view = Array.copy cells in
          Array.iteri (fun i d -> if Disk.failed d then view.(i) <- None) t.all_disks;
          if not (reconstruct t store seg view) then None
          else begin
            let out = Bytes.create t.seg_bytes in
            let ok = ref true in
            for d = 0 to t.n_data - 1 do
              match view.(d) with
              | Some b -> Bytes.blit b 0 out (d * t.chunk) t.chunk
              | None -> ok := false
            done;
            if !ok then Some out else None
          end
    end

let extent ~flow t ~seg ~off ~len ~k =
  if off < 0 || len < 0 || off + len > t.seg_bytes then
    invalid_arg "Raid.read_extent: out of segment";
  let first = off / t.chunk and last = (off + len - 1) / t.chunk in
  let touched =
    List.filter (fun d -> d >= first && d <= last) (indices t.n_data)
  in
  let byte_count d =
    let lo = Int.max off (d * t.chunk)
    and hi = Int.min (off + len) ((d + 1) * t.chunk) in
    hi - lo
  in
  (* Only the first touched disk starts inside its chunk; every later
     disk reads from the start of the chunk. *)
  let disk_off d = Int.max off (d * t.chunk) - (d * t.chunk) in
  fan_out t touched
    (fun d disk cb ->
      Disk.read ~flow disk
        ~off:((seg * t.chunk) + disk_off d)
        ~len:(byte_count d) ~k:cb)
    ~k:(fun failures ->
      flow_join t flow;
      if failures > 0 then k (Error `Lost) else k (Ok ()))

let read_extent t ~seg ~off ~len ~k =
  extent ~flow:Sim.Trace.no_flow t ~seg ~off ~len ~k

let read_range ?(flow = Sim.Trace.no_flow) t ~seg ~off ~len ~into ~at ~k =
  match t.store with
  | None -> extent ~flow t ~seg ~off ~len ~k
  | Some _ ->
      segment ~flow t ~seg ~k:(function
        | Ok (Some data) ->
            Bytes.blit data off into at len;
            k (Ok ())
        | Ok None -> k (Ok ())
        | Error `Lost -> k (Error `Lost))

let fail_disk t i = Disk.fail t.all_disks.(i)
let repair_disk t i = Disk.repair t.all_disks.(i)
let fail_disk_at t i ~at = Disk.fail_at t.all_disks.(i) ~at
let fail_disk_for t i ~at ~duration = Disk.fail_for t.all_disks.(i) ~at ~duration
let degraded_reads t = t.degraded

let failed_disks t =
  List.filter (fun i -> Disk.failed t.all_disks.(i)) (indices (t.n_data + 1))
