type msg =
  | Start
  | Stop
  | Sync of { stream : int; unit_id : int; stamp : Sim.Time.t }
  | Index_mark of { stream : int; offset : int; stamp : Sim.Time.t }

let marshal = function
  | Start -> Bytes.make 1 '\001'
  | Stop -> Bytes.make 1 '\002'
  | Sync { stream; unit_id; stamp } ->
      let b = Bytes.make 17 '\003' in
      Util.put_u16 b 1 stream;
      Util.put_u32 b 3 unit_id;
      Util.put_i64 b 7 stamp;
      b
  | Index_mark { stream; offset; stamp } ->
      let b = Bytes.make 19 '\004' in
      Util.put_u16 b 1 stream;
      Util.put_u32 b 3 offset;
      Util.put_i64 b 7 stamp;
      b

let unmarshal b =
  if Bytes.length b = 0 then None
  else
    match Bytes.get b 0 with
    | '\001' -> Some Start
    | '\002' -> Some Stop
    | '\003' when Bytes.length b >= 17 ->
        Some
          (Sync
             {
               stream = Util.get_u16 b 1;
               unit_id = Util.get_u32 b 3;
               stamp = Util.get_i64 b 7;
             })
    | '\004' when Bytes.length b >= 19 ->
        Some
          (Index_mark
             {
               stream = Util.get_u16 b 1;
               offset = Util.get_u32 b 3;
               stamp = Util.get_i64 b 7;
             })
    | _ -> None

module Merger = struct
  type t = {
    out : Net.vc;
    reassemblers : (int, Aal5.Reassembler.t) Hashtbl.t;
    mutable forwarded : int;
  }

  let create ~out () = { out; reassemblers = Hashtbl.create 8; forwarded = 0 }

  (* A checked message is copied once, straight into the PDU that
     carries it on. *)
  let forward t buf off len =
    t.forwarded <- t.forwarded + 1;
    Net.send_pdu t.out (Aal5.build len (fun pdu -> Bytes.blit buf off pdu 0 len))

  let rx t (cell : Cell.t) =
    let reassembler =
      match Hashtbl.find_opt t.reassemblers cell.vci with
      | Some r -> r
      | None ->
          let r = Aal5.Reassembler.create () in
          Hashtbl.add t.reassemblers cell.vci r;
          r
    in
    Aal5.Reassembler.push reassembler cell ~ok:(forward t) ~err:ignore

  let forwarded t = t.forwarded
end

module Playback = struct
  type stream_state = {
    syncs : (int, Sim.Time.t) Hashtbl.t;  (* unit -> source stamp *)
    renders : (int, Sim.Time.t) Hashtbl.t;  (* unit -> render time *)
    mutable matched : (Sim.Time.t * Sim.Time.t) list;  (* stamp, rendered *)
  }

  type t = {
    engine : Sim.Engine.t;
    streams : (int, stream_state) Hashtbl.t;
    reassembler : Aal5.Reassembler.t;
  }

  let create engine () =
    {
      engine;
      streams = Hashtbl.create 8;
      reassembler = Aal5.Reassembler.create ();
    }

  let stream t id =
    match Hashtbl.find_opt t.streams id with
    | Some s -> s
    | None ->
        let s =
          {
            syncs = Hashtbl.create 64;
            renders = Hashtbl.create 64;
            matched = [];
          }
        in
        Hashtbl.add t.streams id s;
        s

  let try_match s unit_id =
    match (Hashtbl.find_opt s.syncs unit_id, Hashtbl.find_opt s.renders unit_id) with
    | Some stamp, Some rendered ->
        Hashtbl.remove s.syncs unit_id;
        Hashtbl.remove s.renders unit_id;
        s.matched <- (stamp, rendered) :: s.matched
    | _ -> ()

  let control_rx t (cell : Cell.t) =
    Aal5.Reassembler.push t.reassembler cell ~err:ignore
      ~ok:(fun buf off len ->
        match unmarshal (Bytes.sub buf off len) with
        | Some (Sync { stream = id; unit_id; stamp }) ->
            let s = stream t id in
            Hashtbl.replace s.syncs unit_id stamp;
            try_match s unit_id
        | Some (Start | Stop | Index_mark _) | None -> ())

  let data_event t ~stream:id ~unit_id =
    let s = stream t id in
    Hashtbl.replace s.renders unit_id (Sim.Engine.now t.engine);
    try_match s unit_id

  let skew_us t ~a ~b =
    let result = Sim.Stats.Samples.create () in
    match (Hashtbl.find_opt t.streams a, Hashtbl.find_opt t.streams b) with
    | Some sa, Some sb when sb.matched <> [] ->
        let arr_b =
          Array.of_list
            (List.sort (fun (x, _) (y, _) -> Sim.Time.compare x y) sb.matched)
        in
        let nearest stamp =
          (* binary search for the entry of b with the closest stamp *)
          let lo = ref 0 and hi = ref (Array.length arr_b - 1) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if Sim.Time.(fst arr_b.(mid) < stamp) then lo := mid + 1 else hi := mid
          done;
          let candidate i =
            if i >= 0 && i < Array.length arr_b then Some arr_b.(i) else None
          in
          match (candidate (!lo - 1), candidate !lo) with
          | Some (s1, r1), Some (s2, r2) ->
              if
                Sim.Time.(sub stamp s1 < sub s2 stamp)
              then (s1, r1)
              else (s2, r2)
          | Some e, None | None, Some e -> e
          | None, None -> assert false
        in
        List.iter
          (fun (stamp_a, rendered_a) ->
            let stamp_b, rendered_b = nearest stamp_a in
            let lat_a = Sim.Time.to_us_f (Sim.Time.sub rendered_a stamp_a) in
            let lat_b = Sim.Time.to_us_f (Sim.Time.sub rendered_b stamp_b) in
            Sim.Stats.Samples.add result (Float.abs (lat_a -. lat_b)))
          sa.matched;
        result
    | _ -> result
end
