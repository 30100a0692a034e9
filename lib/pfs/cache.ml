type node = {
  key : int * int;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  cap : int;
  tbl : (int * int, node) Hashtbl.t;
  by_fid : (int, (int, node) Hashtbl.t) Hashtbl.t;
      (* fid -> (block -> node): secondary index so whole-file
         invalidation walks only that file's blocks, not the cache *)
  mutable head : node option;  (* most recent *)
  mutable tail : node option;  (* least recent *)
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_evictions : int;
}

let create ~capacity_blocks () =
  assert (capacity_blocks > 0);
  {
    cap = capacity_blocks;
    tbl = Hashtbl.create (2 * capacity_blocks);
    by_fid = Hashtbl.create 64;
    head = None;
    tail = None;
    n_hits = 0;
    n_misses = 0;
    n_evictions = 0;
  }

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let index_add t n =
  let fid, block = n.key in
  let blocks =
    match Hashtbl.find_opt t.by_fid fid with
    | Some blocks -> blocks
    | None ->
        let blocks = Hashtbl.create 8 in
        Hashtbl.replace t.by_fid fid blocks;
        blocks
  in
  Hashtbl.replace blocks block n

let index_remove t n =
  let fid, block = n.key in
  match Hashtbl.find_opt t.by_fid fid with
  | None -> ()
  | Some blocks ->
      Hashtbl.remove blocks block;
      if Hashtbl.length blocks = 0 then Hashtbl.remove t.by_fid fid

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.tbl n.key;
      index_remove t n;
      t.n_evictions <- t.n_evictions + 1

let access t ~fid ~block =
  let key = (fid, block) in
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
      t.n_hits <- t.n_hits + 1;
      unlink t n;
      push_front t n;
      `Hit
  | None ->
      t.n_misses <- t.n_misses + 1;
      if Hashtbl.length t.tbl >= t.cap then evict_lru t;
      let n = { key; prev = None; next = None } in
      Hashtbl.replace t.tbl key n;
      index_add t n;
      push_front t n;
      `Miss

let probe t ~fid ~block = Hashtbl.mem t.tbl (fid, block)

let invalidate_file t ~fid =
  match Hashtbl.find_opt t.by_fid fid with
  | None -> ()
  | Some blocks ->
      Hashtbl.iter
        (fun _ n ->
          unlink t n;
          Hashtbl.remove t.tbl n.key)
        blocks;
      Hashtbl.remove t.by_fid fid

let size t = Hashtbl.length t.tbl
let hits t = t.n_hits
let misses t = t.n_misses
let evictions t = t.n_evictions
