(* Frame format: [kind:u8][seq:u32][payload...] for data on the forward
   VC; [kind:u8][count:u32] for credit grants on the reverse VC. *)

let k_data = 1
let k_credit = 2

type sender = {
  s_engine : Sim.Engine.t;
  s_mtu : int;
  mutable s_credits : int;
  s_backlog : bytes Queue.t;  (* mtu-sized chunks awaiting credit *)
  mutable s_partial : bytes option;  (* trailing short chunk *)
  mutable s_seq : int;
  mutable s_in_flight : int;
  mutable s_done : (unit -> unit) option;
  mutable s_finished : bool;
  mutable s_data_vc : Atm.Net.vc option;
  mutable s_tx_free : Sim.Time.t;  (* NIC pacing horizon *)
}

type receiver = {
  r_engine : Sim.Engine.t;
  r_consume_bps : int;
  mutable r_free_at : Sim.Time.t;  (* consumer availability horizon *)
  mutable r_delivered : int;
  r_on_data : bytes -> unit;
  mutable r_credit_vc : Atm.Net.vc option;
}

let data_frame ~seq payload =
  let b = Bytes.create (5 + Bytes.length payload) in
  Bytes.set b 0 (Char.chr k_data);
  Atm.Util.put_u32 b 1 seq;
  Bytes.blit payload 0 b 5 (Bytes.length payload);
  b

let credit_frame ~count =
  let b = Bytes.create 5 in
  Bytes.set b 0 (Char.chr k_credit);
  Atm.Util.put_u32 b 1 count;
  b

let rec pump sender =
  match sender.s_data_vc with
  | None -> ()
  | Some vc ->
      if sender.s_credits > 0 && not (Queue.is_empty sender.s_backlog) then begin
        let chunk = Queue.pop sender.s_backlog in
        sender.s_credits <- sender.s_credits - 1;
        sender.s_in_flight <- sender.s_in_flight + 1;
        let frame = data_frame ~seq:sender.s_seq chunk in
        sender.s_seq <- sender.s_seq + 1;
        (* The NIC clocks frames out at line rate, so a whole window
           never lands on the switch queue at one instant. *)
        let frame_time =
          Sim.Time.mul
            (Atm.Cell.tx_time ~bandwidth_bps:(Atm.Net.vc_bandwidth_bps vc))
            (Atm.Aal5.frame_cells (Bytes.length frame))
        in
        let now = Sim.Engine.now sender.s_engine in
        let at = Sim.Time.max now sender.s_tx_free in
        sender.s_tx_free <- Sim.Time.add at frame_time;
        ignore
          (Sim.Engine.schedule_at sender.s_engine ~at (fun () ->
               Atm.Net.send_frame vc frame));
        pump sender
      end
      else if
        sender.s_finished && sender.s_in_flight = 0
        && Queue.is_empty sender.s_backlog
      then begin
        match sender.s_done with
        | Some f ->
            sender.s_done <- None;
            f ()
        | None -> ()
      end

let receiver_rx receiver sender payload =
  if Bytes.length payload >= 5 && Char.code (Bytes.get payload 0) = k_data then begin
    let body = Bytes.sub payload 5 (Bytes.length payload - 5) in
    (* The consumer drains at its own rate; the credit goes back only
       once this frame's bytes have actually been consumed. *)
    let now = Sim.Engine.now receiver.r_engine in
    let consume_time =
      if receiver.r_consume_bps <= 0 then Sim.Time.zero
      else
        Sim.Time.of_sec_f
          (Float.of_int (Bytes.length body * 8)
          /. Float.of_int receiver.r_consume_bps)
    in
    let start = Sim.Time.max now receiver.r_free_at in
    let finish_at = Sim.Time.add start consume_time in
    receiver.r_free_at <- finish_at;
    ignore
      (Sim.Engine.schedule_at receiver.r_engine ~at:finish_at (fun () ->
           receiver.r_delivered <- receiver.r_delivered + Bytes.length body;
           receiver.r_on_data body;
           match receiver.r_credit_vc with
           | Some vc -> Atm.Net.send_frame vc (credit_frame ~count:1)
           | None -> ()));
    ignore sender
  end

let sender_rx sender payload =
  if Bytes.length payload >= 5 && Char.code (Bytes.get payload 0) = k_credit
  then begin
    let n = Atm.Util.get_u32 payload 1 in
    sender.s_credits <- sender.s_credits + n;
    sender.s_in_flight <- sender.s_in_flight - n;
    pump sender
  end

let establish net ~src ~dst ?(mtu = 8192) ?(window = 8)
    ?(consume_rate_bps = 0) ~on_data () =
  let engine = Atm.Net.engine net in
  let sender =
    {
      s_engine = engine;
      s_mtu = mtu;
      s_credits = window;
      s_backlog = Queue.create ();
      s_partial = None;
      s_seq = 0;
      s_in_flight = 0;
      s_done = None;
      s_finished = false;
      s_data_vc = None;
      s_tx_free = Sim.Time.zero;
    }
  in
  let receiver =
    {
      r_engine = engine;
      r_consume_bps = consume_rate_bps;
      r_free_at = Sim.Time.zero;
      r_delivered = 0;
      r_on_data = on_data;
      r_credit_vc = None;
    }
  in
  let data_cell_rx, data_train_rx =
    Atm.Net.frame_rx
      ~rx:(fun ~flow:_ buf off len ->
        receiver_rx receiver sender (Bytes.sub buf off len))
      ()
  in
  let data_vc =
    Atm.Net.open_vc net ~src ~dst ~rx:data_cell_rx ~rx_train:data_train_rx
  in
  let credit_cell_rx, credit_train_rx =
    Atm.Net.frame_rx
      ~rx:(fun ~flow:_ buf off len -> sender_rx sender (Bytes.sub buf off len))
      ()
  in
  let credit_vc =
    Atm.Net.open_vc net ~src:dst ~dst:src ~rx:credit_cell_rx
      ~rx_train:credit_train_rx
  in
  sender.s_data_vc <- Some data_vc;
  receiver.r_credit_vc <- Some credit_vc;
  (sender, receiver)

(* Chunk user bytes to the MTU, coalescing the previous partial tail. *)
let send sender data =
  let data =
    match sender.s_partial with
    | Some tail ->
        sender.s_partial <- None;
        Bytes.cat tail data
    | None -> data
  in
  let len = Bytes.length data in
  let full = len / sender.s_mtu in
  for i = 0 to full - 1 do
    Queue.add (Bytes.sub data (i * sender.s_mtu) sender.s_mtu) sender.s_backlog
  done;
  let rest = len - (full * sender.s_mtu) in
  if rest > 0 then
    sender.s_partial <- Some (Bytes.sub data (full * sender.s_mtu) rest);
  pump sender

let finish sender ~on_done =
  (match sender.s_partial with
  | Some tail ->
      sender.s_partial <- None;
      Queue.add tail sender.s_backlog
  | None -> ());
  sender.s_finished <- true;
  sender.s_done <- Some on_done;
  pump sender

let bytes_delivered receiver = receiver.r_delivered
let frames_in_flight sender = sender.s_in_flight
let credits_available sender = sender.s_credits
