type rights = { read : bool; write : bool; execute : bool }

let r = { read = true; write = false; execute = false }
let rw = { read = true; write = true; execute = false }

type segment = { seg_id : int; seg_name : string; base : int64; size : int }

type space = {
  mutable next_base : int64;
  mutable next_id : int;
  mutable segments : segment list;
  mappings : (int * int, rights) Hashtbl.t;  (* (domain, segment) -> rights *)
}

let create_space () =
  {
    next_base = 0x1000_0000L;
    next_id = 0;
    segments = [];
    mappings = Hashtbl.create 64;
  }

let alloc_segment space ~name ~size =
  let seg =
    { seg_id = space.next_id; seg_name = name; base = space.next_base; size }
  in
  space.next_id <- space.next_id + 1;
  (* Page-align the next base and leave a guard page. *)
  let aligned = Int64.logand (Int64.add (Int64.of_int size) 0x1fffL) (Int64.lognot 0xfffL) in
  space.next_base <- Int64.add space.next_base aligned;
  space.segments <- seg :: space.segments;
  ignore seg.seg_name;
  seg

let segment_base seg = seg.base
let segment_size seg = seg.size

let map space ~domain seg rights =
  Hashtbl.replace space.mappings (domain, seg.seg_id) rights

let unmap space ~domain seg = Hashtbl.remove space.mappings (domain, seg.seg_id)

let find_segment space addr =
  List.find_opt
    (fun seg ->
      addr >= seg.base && Int64.sub addr seg.base < Int64.of_int seg.size)
    space.segments

let access space ~domain ~addr kind =
  match find_segment space addr with
  | None -> Error `Unmapped
  | Some seg -> begin
      match Hashtbl.find_opt space.mappings (domain, seg.seg_id) with
      | None -> Error `Unmapped
      | Some rights ->
          let ok =
            match kind with
            | `Read -> rights.read
            | `Write -> rights.write
            | `Execute -> rights.execute
          in
          if ok then Ok seg else Error `Protection
    end

let shared_mappings space seg =
  Hashtbl.fold
    (fun (_, sid) _ acc -> if sid = seg.seg_id then acc + 1 else acc)
    space.mappings 0

(* A small 1994 virtually-indexed cache: 256 lines, 200 ns per line
   fill. *)
let cache_lines = 256
let line_fill = Sim.Time.ns 200
let fixed_switch = Sim.Time.us 2

let switch_cost ~aliases =
  if aliases then
    Sim.Time.add fixed_switch (Sim.Time.mul line_fill cache_lines)
  else fixed_switch

let reuse_collisions rng ~images =
  let seen = Hashtbl.create images in
  let collisions = ref 0 in
  for _ = 1 to images do
    let h = Int64.to_int (Sim.Rng.int64 rng) land 0xffffffff in
    if Hashtbl.mem seen h then incr collisions else Hashtbl.add seen h ()
  done;
  !collisions

let relocation_cost ~relocs = Sim.Time.mul (Sim.Time.ns 100) relocs

let map_cost = Sim.Time.us 50

let load_cost ~relocs ~cache_hit =
  if cache_hit then map_cost else Sim.Time.add map_cost (relocation_cost ~relocs)
