type entry =
  | Obj of Maillon.t
  | Dir of dir
  | Mount of mount

and dir = (string, entry) Hashtbl.t

and mount = { target : t; via : Relation.t }

and t = {
  ns_name : string;
  root : dir;
  mutable n_lookups : int;
  m_resolutions : Sim.Metrics.counter;
  m_resolve_errors : Sim.Metrics.counter;
  m_resolve_cost : Sim.Metrics.dist;
}

type resolution = {
  maillon : Maillon.t;
  cost : Sim.Time.t;
  components : int;
  mounts_crossed : int;
}

type error =
  | Not_found_at of string
  | Not_a_directory of string
  | Mount_cycle

let pp_error fmt = function
  | Not_found_at c -> Format.fprintf fmt "not found: %s" c
  | Not_a_directory c -> Format.fprintf fmt "not a directory: %s" c
  | Mount_cycle -> Format.pp_print_string fmt "mount cycle"

(* Cost of walking one component within a local directory. *)
let component_cost = Sim.Time.ns 200

let create ?(name = "ns") metrics =
  let sub = Sim.Subsystem.Naming in
  {
    ns_name = name;
    root = Hashtbl.create 16;
    n_lookups = 0;
    m_resolutions =
      Sim.Metrics.counter metrics ~sub ~help:"successful path resolutions"
        "namespace.resolutions";
    m_resolve_errors =
      Sim.Metrics.counter metrics ~sub ~help:"failed path resolutions"
        "namespace.resolve_errors";
    m_resolve_cost =
      Sim.Metrics.dist metrics ~sub
        ~help:"modelled cost of successful resolutions in us"
        "namespace.resolve_cost_us";
  }

let name t = t.ns_name

let split path =
  String.split_on_char '/' path |> List.filter (fun c -> c <> "")

(* Walk to the parent directory of [path], creating directories. *)
let rec ensure_dir dir = function
  | [] -> dir
  | c :: rest -> begin
      match Hashtbl.find_opt dir c with
      | Some (Dir d) -> ensure_dir d rest
      | Some (Obj _ | Mount _) ->
          invalid_arg ("Namespace: " ^ c ^ " is not a directory")
      | None ->
          let d = Hashtbl.create 8 in
          Hashtbl.replace dir c (Dir d);
          ensure_dir d rest
    end

let parent_and_leaf t path =
  match List.rev (split path) with
  | [] -> invalid_arg "Namespace: empty path"
  | leaf :: rev_dirs -> (ensure_dir t.root (List.rev rev_dirs), leaf)

let bind t ~path maillon =
  let dir, leaf = parent_and_leaf t path in
  (match Hashtbl.find_opt dir leaf with
  | Some (Dir _) -> invalid_arg ("Namespace.bind: directory at " ^ path)
  | Some (Obj _ | Mount _) | None -> ());
  Hashtbl.replace dir leaf (Obj maillon)

let mkdir t ~path = ignore (ensure_dir t.root (split path))

let mount t ~path ~target ~via =
  let dir, leaf = parent_and_leaf t path in
  Hashtbl.replace dir leaf (Mount { target; via })

let unmount t ~path =
  let dir, leaf = parent_and_leaf t path in
  match Hashtbl.find_opt dir leaf with
  | Some (Mount _) -> Hashtbl.remove dir leaf
  | Some (Obj _ | Dir _) | None ->
      invalid_arg ("Namespace.unmount: no mount at " ^ path)

let max_mount_depth = 32

let resolve t path =
  let rec walk ns dir components ~cost ~walked ~mounts ~depth =
    if depth > max_mount_depth then Error Mount_cycle
    else
      match components with
      | [] -> Error (Not_found_at path)
      | c :: rest -> begin
          ns.n_lookups <- ns.n_lookups + 1;
          let cost = Sim.Time.add cost component_cost in
          let walked = walked + 1 in
          match Hashtbl.find_opt dir c with
          | None -> Error (Not_found_at c)
          | Some (Obj m) ->
              if rest = [] then
                Ok { maillon = m; cost; components = walked; mounts_crossed = mounts }
              else Error (Not_a_directory c)
          | Some (Dir d) ->
              if rest = [] then Error (Not_found_at c)
              else walk ns d rest ~cost ~walked ~mounts ~depth
          | Some (Mount m) ->
              if rest = [] then Error (Not_found_at c)
              else begin
                (* One lookup request through the connection carries the
                   whole remaining path, Plan-9 style. *)
                let cost = Sim.Time.add cost (Relation.lookup_cost m.via) in
                walk m.target m.target.root rest ~cost ~walked
                  ~mounts:(mounts + 1) ~depth:(depth + 1)
              end
        end
  in
  let result =
    match split path with
    | [] -> Error (Not_found_at path)
    | components ->
        walk t t.root components ~cost:Sim.Time.zero ~walked:0 ~mounts:0
          ~depth:0
  in
  (match result with
  | Ok r ->
      Sim.Metrics.incr t.m_resolutions;
      Sim.Metrics.observe t.m_resolve_cost (Sim.Time.to_us_f r.cost)
  | Error _ -> Sim.Metrics.incr t.m_resolve_errors);
  result

let readdir t path =
  let rec walk dir = function
    | [] -> Ok (Hashtbl.fold (fun k _ acc -> k :: acc) dir [] |> List.sort compare)
    | c :: rest -> begin
        match Hashtbl.find_opt dir c with
        | Some (Dir d) -> walk d rest
        | Some (Obj _ | Mount _) -> Error (Not_a_directory c)
        | None -> Error (Not_found_at c)
      end
  in
  walk t.root (split path)

let rec copy_dir dir =
  let d = Hashtbl.create (Hashtbl.length dir) in
  Hashtbl.iter
    (fun k v ->
      let v' = match v with Dir sub -> Dir (copy_dir sub) | Obj _ | Mount _ -> v in
      Hashtbl.replace d k v')
    dir;
  d

let fork t ~name =
  { t with ns_name = name; root = copy_dir t.root; n_lookups = 0 }

let lookups t = t.n_lookups
