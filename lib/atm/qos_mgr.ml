(* Network-side QoS manager (the paper's contract broker, on the ATM
   fabric rather than the CPU): owns per-VC contracts and mediates
   between streams and scarce link bandwidth.  A request is admitted at
   its full rate when some path has the capacity, admitted degraded at a
   lower tier of its class ladder when only that fits, and rejected
   when even the lowest tier fits nowhere.  A review renegotiates:
   degraded contracts are promoted one tier whenever capacity freed by
   departures allows, in admission order, so the longest-waiting
   contract upgrades first.

   Every open attempt rides {!Net.open_vc}'s all-or-nothing signalling,
   and every upgrade rides {!Net.vc_adjust_reservation}'s all-or-nothing
   grow — the manager never holds partial state on a refused path. *)

type stream_class = Video | Audio | Rpc

let class_name = function Video -> "video" | Audio -> "audio" | Rpc -> "rpc"

(* Degradation ladder: fraction of the requested rate per tier, best
   first.  Video tolerates deep rate adaptation (JPEG instead of raw,
   lower frame rates); audio only halves once before it stops being
   audio; RPC is take-it-or-leave-it. *)
let tiers = function
  | Video -> [ 1.0; 0.5; 0.25 ]
  | Audio -> [ 1.0; 0.5 ]
  | Rpc -> [ 1.0 ]

type contract = {
  c_id : int;
  c_class : stream_class;
  c_requested_bps : int;
  mutable c_granted_bps : int;
  mutable c_tier : int;  (* index into [tiers c_class]; 0 = full rate *)
  mutable c_vc : Net.vc option;  (* [None] once torn down *)
  mutable c_upgrades : int;
}

type verdict = Accepted of contract | Degraded of contract | Rejected

type t = {
  qm_net : Net.t;
  path_attempts : int;
  mutable contracts : contract list;  (* live, newest first *)
  mutable next_id : int;
  mutable n_offered : int;
  mutable n_accepted : int;
  mutable n_degraded : int;
  mutable n_rejected : int;
  mutable n_released : int;
  mutable n_renegotiated : int;
}

let tier_bps ~requested fraction =
  Stdlib.max 1 (int_of_float (Float.of_int requested *. fraction))

let review t =
  List.iter
    (fun c ->
      if c.c_tier > 0 then
        match c.c_vc with
        | None -> ()
        | Some vc ->
            (* One tier per review: promotion is gradual, so freed
               capacity is shared across waiting contracts rather than
               swallowed whole by the first. *)
            let fraction = List.nth (tiers c.c_class) (c.c_tier - 1) in
            let bps = tier_bps ~requested:c.c_requested_bps fraction in
            if Net.vc_adjust_reservation vc ~bps then begin
              c.c_tier <- c.c_tier - 1;
              c.c_granted_bps <- bps;
              c.c_upgrades <- c.c_upgrades + 1;
              t.n_renegotiated <- t.n_renegotiated + 1
            end)
    (List.rev t.contracts)

let create ?(path_attempts = 1) net () =
  if path_attempts < 1 then invalid_arg "Qos_mgr.create: path_attempts < 1";
  {
    qm_net = net;
    path_attempts;
    contracts = [];
    next_id = 0;
    n_offered = 0;
    n_accepted = 0;
    n_degraded = 0;
    n_rejected = 0;
    n_released = 0;
    n_renegotiated = 0;
  }

let request ?rx_train t ~cls ~bps ~src ~dst ~rx () =
  if bps <= 0 then invalid_arg "Qos_mgr.request: bps <= 0";
  t.n_offered <- t.n_offered + 1;
  (* Full rate over every candidate path first, then down the ladder:
     a degraded circuit on the best path never pre-empts a full-rate
     chance on an alternate spine. *)
  let try_tier bps_tier =
    let rec attempt sel =
      if sel >= t.path_attempts then None
      else
        match
          Net.open_vc ~reserve_bps:bps_tier ~path_sel:sel ?rx_train t.qm_net
            ~src ~dst ~rx
        with
        | vc -> Some vc
        | exception Failure _ -> attempt (sel + 1)
    in
    attempt 0
  in
  let rec descend tier = function
    | [] -> None
    | fraction :: rest -> (
        let bps_tier = tier_bps ~requested:bps fraction in
        match try_tier bps_tier with
        | Some vc -> Some (tier, bps_tier, vc)
        | None -> descend (tier + 1) rest)
  in
  match descend 0 (tiers cls) with
  | None ->
      t.n_rejected <- t.n_rejected + 1;
      Rejected
  | Some (tier, granted, vc) ->
      let c =
        {
          c_id = t.next_id;
          c_class = cls;
          c_requested_bps = bps;
          c_granted_bps = granted;
          c_tier = tier;
          c_vc = Some vc;
          c_upgrades = 0;
        }
      in
      t.next_id <- t.next_id + 1;
      t.contracts <- c :: t.contracts;
      if tier = 0 then begin
        t.n_accepted <- t.n_accepted + 1;
        Accepted c
      end
      else begin
        t.n_degraded <- t.n_degraded + 1;
        Degraded c
      end

let teardown t c =
  match c.c_vc with
  | None -> ()
  | Some vc ->
      Net.close_vc t.qm_net vc;
      c.c_vc <- None;
      t.contracts <- List.filter (fun c' -> c' != c) t.contracts;
      t.n_released <- t.n_released + 1

let live t = List.rev t.contracts
let offered t = t.n_offered
let accepted t = t.n_accepted
let degraded t = t.n_degraded
let rejected t = t.n_rejected
let released t = t.n_released
let renegotiated t = t.n_renegotiated

let contract_id c = c.c_id
let contract_class c = c.c_class
let contract_vc c = c.c_vc
let granted_bps c = c.c_granted_bps
let upgrades c = c.c_upgrades
let is_degraded c = c.c_tier > 0
