type error =
  [ `Not_found
  | `Not_a_directory
  | `Is_a_directory
  | `Already_exists
  | `Not_empty
  | `Lost ]

let pp_error fmt (e : error) =
  Format.pp_print_string fmt
    (match e with
    | `Not_found -> "no such file or directory"
    | `Not_a_directory -> "not a directory"
    | `Is_a_directory -> "is a directory"
    | `Already_exists -> "file exists"
    | `Not_empty -> "directory not empty"
    | `Lost -> "I/O error")

type attrs = {
  size : int;
  is_dir : bool;
  ctime : Sim.Time.t;
  mtime : Sim.Time.t;
}

(* Directories are ordinary files in the log holding marshalled entry
   lists; an in-memory tree (the dentry cache) mirrors them for
   lookup.  Every directory mutation rewrites the directory file, so
   namespace churn creates log traffic and garbage exactly as data
   writes do. *)
type node =
  | Dir of dir
  | File of fmeta

and dir = {
  d_fid : Log.fid;
  entries : (string, node) Hashtbl.t;
  mutable d_ctime : Sim.Time.t;
  mutable d_mtime : Sim.Time.t;
}

and fmeta = {
  f_fid : Log.fid;
  mutable f_size : int;
  mutable f_ctime : Sim.Time.t;
  mutable f_mtime : Sim.Time.t;
}

type t = {
  engine : Sim.Engine.t;
  vlog : Log.t;
  vcache : Cache.t;
  root : dir;
}

let block_bytes = 4096

(* The buffer cache consulted on reads: 2048 blocks = 8 MB. *)
let cache_blocks = 2048

let create engine ~log =
  let now = Sim.Engine.now engine in
  {
    engine;
    vlog = log;
    vcache = Cache.create ~capacity_blocks:cache_blocks ();
    root =
      {
        d_fid = Log.create_file log ();
        entries = Hashtbl.create 16;
        d_ctime = now;
        d_mtime = now;
      };
  }

let log t = t.vlog
let cache t = t.vcache

let split path = String.split_on_char '/' path |> List.filter (( <> ) "")

(* Walk to the node at [path]. *)
let rec lookup_in dir = function
  | [] -> Ok (Dir dir)
  | [ leaf ] -> begin
      match Hashtbl.find_opt dir.entries leaf with
      | Some node -> Ok node
      | None -> Error `Not_found
    end
  | comp :: rest -> begin
      match Hashtbl.find_opt dir.entries comp with
      | Some (Dir d) -> lookup_in d rest
      | Some (File _) -> Error `Not_a_directory
      | None -> Error `Not_found
    end

let lookup t path = lookup_in t.root (split path)

(* Walk to the parent directory of [path]; returns (dir, leaf). *)
let parent_of t path =
  match List.rev (split path) with
  | [] -> Error `Already_exists (* the root itself *)
  | leaf :: rev ->
      let rec walk dir = function
        | [] -> Ok (dir, leaf)
        | comp :: rest -> begin
            match Hashtbl.find_opt dir.entries comp with
            | Some (Dir d) -> walk d rest
            | Some (File _) -> Error `Not_a_directory
            | None -> Error `Not_found
          end
      in
      walk t.root (List.rev rev)

(* Persist a directory's entry list to its log file. *)
let flush_dir t dir k =
  let payload = Buffer.create 256 in
  Hashtbl.iter
    (fun name node ->
      let fid, kind =
        match node with
        | Dir d -> (d.d_fid, 'd')
        | File f -> (f.f_fid, 'f')
      in
      Buffer.add_string payload (Printf.sprintf "%c %08d %s\n" kind fid name))
    dir.entries;
  let data = Buffer.to_bytes payload in
  let len = Stdlib.max 16 (Bytes.length data) in
  dir.d_mtime <- Sim.Engine.now t.engine;
  Log.write t.vlog dir.d_fid ~off:0 ~data:(Bytes.cat data (Bytes.make (len - Bytes.length data) '\000')) ~len
    (function
    | Ok () -> k (Ok ())
    | Error `Lost -> k (Error `Lost)
    | Error `No_such_file -> k (Error `Not_found))

let mkdir t path k =
  match parent_of t path with
  | Error e -> k (Error e)
  | Ok (dir, leaf) ->
      if Hashtbl.mem dir.entries leaf then k (Error `Already_exists)
      else begin
        let now = Sim.Engine.now t.engine in
        let d =
          {
            d_fid = Log.create_file t.vlog ();
            entries = Hashtbl.create 8;
            d_ctime = now;
            d_mtime = now;
          }
        in
        Hashtbl.replace dir.entries leaf (Dir d);
        flush_dir t dir k
      end

let creat t path k =
  match parent_of t path with
  | Error e -> k (Error e)
  | Ok (dir, leaf) ->
      if Hashtbl.mem dir.entries leaf then k (Error `Already_exists)
      else begin
        let now = Sim.Engine.now t.engine in
        let f =
          {
            f_fid = Log.create_file t.vlog ();
            f_size = 0;
            f_ctime = now;
            f_mtime = now;
          }
        in
        Hashtbl.replace dir.entries leaf (File f);
        flush_dir t dir k
      end

let file_at t path =
  match lookup t path with
  | Ok (File f) -> Ok f
  | Ok (Dir _) -> Error `Is_a_directory
  | Error e -> Error e

let touch_blocks t fid ~off ~len =
  let first = off / block_bytes and last = (off + len - 1) / block_bytes in
  let all_hit = ref true in
  for b = first to last do
    match Cache.access t.vcache ~fid ~block:b with
    | `Hit -> ()
    | `Miss -> all_hit := false
  done;
  !all_hit

let write t path ~off ?data ~len k =
  match file_at t path with
  | Error e -> k (Error e)
  | Ok f ->
      f.f_size <- Stdlib.max f.f_size (off + len);
      f.f_mtime <- Sim.Engine.now t.engine;
      (* Written blocks are hot: prime the cache. *)
      if len > 0 then ignore (touch_blocks t f.f_fid ~off ~len);
      Log.write t.vlog f.f_fid ~off ?data ~len (function
        | Ok () -> k (Ok ())
        | Error `Lost -> k (Error `Lost)
        | Error `No_such_file -> k (Error `Not_found))

let read t path ~off ~len k =
  match file_at t path with
  | Error e -> k (Error e)
  | Ok f ->
      let len = Stdlib.max 0 (Stdlib.min len (f.f_size - off)) in
      if len = 0 then k (Ok (Some Bytes.empty))
      else begin
        let all_hit = touch_blocks t f.f_fid ~off ~len in
        if all_hit then
          (* Every block cached: no disk involved. *)
          k (Ok (Log.peek t.vlog f.f_fid ~off ~len))
        else
          Log.read t.vlog f.f_fid ~off ~len ~k:(function
            | Ok data -> k (Ok data)
            | Error `Lost -> k (Error `Lost)
            | Error `No_such_file -> k (Error `Not_found))
      end

let unlink t path k =
  match parent_of t path with
  | Error e -> k (Error e)
  | Ok (dir, leaf) -> begin
      match Hashtbl.find_opt dir.entries leaf with
      | None -> k (Error `Not_found)
      | Some (Dir _) -> k (Error `Is_a_directory)
      | Some (File f) ->
          Hashtbl.remove dir.entries leaf;
          Cache.invalidate_file t.vcache ~fid:f.f_fid;
          Log.delete t.vlog f.f_fid ~k:(fun _ -> flush_dir t dir k)
    end

let rmdir t path k =
  match parent_of t path with
  | Error e -> k (Error e)
  | Ok (dir, leaf) -> begin
      match Hashtbl.find_opt dir.entries leaf with
      | None -> k (Error `Not_found)
      | Some (File _) -> k (Error `Not_a_directory)
      | Some (Dir d) ->
          if Hashtbl.length d.entries > 0 then k (Error `Not_empty)
          else begin
            Hashtbl.remove dir.entries leaf;
            Log.delete t.vlog d.d_fid ~k:(fun _ -> flush_dir t dir k)
          end
    end

let rename t src dst k =
  match parent_of t src with
  | Error e -> k (Error e)
  | Ok (sdir, sleaf) -> begin
      match Hashtbl.find_opt sdir.entries sleaf with
      | None -> k (Error `Not_found)
      | Some node -> begin
          match parent_of t dst with
          | Error e -> k (Error e)
          | Ok (ddir, dleaf) ->
              if Hashtbl.mem ddir.entries dleaf then k (Error `Already_exists)
              else begin
                Hashtbl.remove sdir.entries sleaf;
                Hashtbl.replace ddir.entries dleaf node;
                flush_dir t sdir (function
                  | Ok () -> flush_dir t ddir k
                  | Error _ as e -> k e)
              end
        end
    end

let stat t path k =
  match lookup t path with
  | Error e -> k (Error e)
  | Ok (File f) ->
      k (Ok { size = f.f_size; is_dir = false; ctime = f.f_ctime; mtime = f.f_mtime })
  | Ok (Dir d) ->
      k (Ok { size = 0; is_dir = true; ctime = d.d_ctime; mtime = d.d_mtime })

let readdir t path k =
  match lookup t path with
  | Error e -> k (Error e)
  | Ok (File _) -> k (Error `Not_a_directory)
  | Ok (Dir d) ->
      k (Ok (Hashtbl.fold (fun name _ acc -> name :: acc) d.entries [] |> List.sort compare))

let exists t path = match lookup t path with Ok _ -> true | Error _ -> false
