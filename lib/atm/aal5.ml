let trailer_bytes = 8

let frame_cells len =
  (len + trailer_bytes + Cell.payload_bytes - 1) / Cell.payload_bytes

(* Build a CPCS-PDU in place: the caller writes the payload into
   [0, len), then the bytes after it are zero-filled and the 8-byte
   trailer (UU=0, CPI=0, length, CRC) is written.  The CRC covers the
   PDU with the CRC field itself zeroed, which is how we verify it too.
   Only the bytes after the payload are zero-filled: the caller's write
   covers the rest. *)
let build len write =
  if len < 0 || len > 0xffff then invalid_arg "Aal5.build: payload length out of range";
  let ncells = frame_cells len in
  let pdu_len = ncells * Cell.payload_bytes in
  let pdu = Bytes.create pdu_len in
  write pdu;
  Bytes.fill pdu len (pdu_len - len) '\000';
  Util.put_u16 pdu (pdu_len - 6) len;
  let crc = Crc32.digest pdu ~pos:0 ~len:(pdu_len - 4) in
  Util.put_u32 pdu (pdu_len - 4) crc;
  pdu

let build_pdu payload =
  let len = Bytes.length payload in
  build len (fun pdu -> Bytes.blit payload 0 pdu 0 len)

let segment ~vci payload =
  let pdu = build_pdu payload in
  let ncells = Bytes.length pdu / Cell.payload_bytes in
  List.init ncells (fun i ->
      Cell.view ~vci ~last:(i = ncells - 1) pdu ~off:(i * Cell.payload_bytes))

(* memcmp, in crc32_stubs.c beside the CRC kernel.  The range check
   in [equal_range] is the only guard on its unchecked loads. *)
external memeq :
  bytes ->
  (int[@untagged]) ->
  bytes ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  bool = "pegasus_bytes_equal_byte" "pegasus_bytes_equal"
  [@@noalloc]

let equal_range a apos b bpos len =
  if
    apos < 0 || bpos < 0 || len < 0
    || len > Bytes.length a - apos
    || len > Bytes.length b - bpos
  then invalid_arg "Aal5.equal_range: range out of bounds";
  memeq a apos b bpos len

let rec zeros b pos stop =
  pos >= stop || (Bytes.get b pos = '\000' && zeros b (pos + 1) stop)

module Framer = struct
  (* E15 and vod_flash resend two buffers per net, a request and a
     32 KB chunk; a third slot lets other payloads pass without evicting
     them.  Every slot keeps a payload and its PDU alive until it is
     evicted, which a net sending fresh payloads pays for in words
     promoted at each minor collection, so the table stays this small.
     A sender that writes each payload once builds its PDU in place
     ([build]) and does not come here. *)
  let slots = 3

  (* Slot [i] holds a payload buffer (matched by identity), the PDU last
     built for it, the CRC computed then, and when it was last used.  A
     miss replaces the least recently used slot. *)
  type t = {
    payloads : bytes array;
    pdus : bytes array;
    crcs : int array;
    used : int array;
    mutable clock : int;
  }

  let create () =
    {
      payloads = Array.make slots Bytes.empty;
      pdus = Array.make slots Bytes.empty;
      crcs = Array.make slots 0;
      used = Array.make slots 0;
      clock = 0;
    }

  (* Is [pdu] what [build_pdu payload] would produce now?  The CRC
     covers the payload, the zero padding (UU and CPI included) and the
     length field, all checked here against the payload; so a trailer
     that still holds the CRC computed at build time completes the
     match.  (A PDU is never written after framing, so the bytes the
     CRC was computed over are the ones checked.) *)
  let intact pdu ~crc payload =
    let len = Bytes.length payload and pdu_len = Bytes.length pdu in
    pdu_len = frame_cells len * Cell.payload_bytes
    && equal_range pdu 0 payload 0 len
    && zeros pdu len (pdu_len - 6)
    && Util.get_u16 pdu (pdu_len - 6) = len
    && Util.get_u32 pdu (pdu_len - 4) = crc

  let rec find t payload i =
    if i = slots || t.payloads.(i) == payload then i else find t payload (i + 1)

  let rec least_used t best i =
    if i = slots then best
    else least_used t (if t.used.(i) < t.used.(best) then i else best) (i + 1)

  let pdu t payload =
    t.clock <- t.clock + 1;
    let i = find t payload 0 in
    if i < slots && intact t.pdus.(i) ~crc:t.crcs.(i) payload then begin
      t.used.(i) <- t.clock;
      t.pdus.(i)
    end
    else begin
      (* A fresh buffer: the old PDU may still be in flight. *)
      let pdu = build_pdu payload in
      let i = if i < slots then i else least_used t 0 1 in
      t.payloads.(i) <- payload;
      t.pdus.(i) <- pdu;
      t.crcs.(i) <- Util.get_u32 pdu (Bytes.length pdu - 4);
      t.used.(i) <- t.clock;
      pdu
    end
end

type error = Crc_mismatch | Length_mismatch | Too_long

module Reassembler = struct
  type t = {
    max_frame : int;
    mutable pdu : bytes;  (* accumulated PDU bytes, [0, len) valid *)
    mutable len : int;
    mutable cur_flow : int;  (* flow of the frame being accumulated *)
    mutable done_flow : int;  (* flow of the last completed frame *)
  }

  let create ?(max_frame = 1 lsl 16) () =
    {
      max_frame;
      pdu = Bytes.create (32 * Cell.payload_bytes);
      len = 0;
      cur_flow = Sim.Trace.no_flow;
      done_flow = Sim.Trace.no_flow;
    }

  let reset t =
    t.len <- 0;
    t.cur_flow <- Sim.Trace.no_flow

  let pending_cells t = t.len / Cell.payload_bytes
  let last_flow t = t.done_flow

  let ensure t extra =
    let needed = t.len + extra in
    if needed > Bytes.length t.pdu then begin
      let ncap = Stdlib.max needed (2 * Bytes.length t.pdu) in
      let npdu = Bytes.create ncap in
      Bytes.blit t.pdu 0 npdu 0 t.len;
      t.pdu <- npdu
    end

  (* Check the complete CPCS-PDU at [pdu.[pos, pos + pdu_len)] and hand
     its payload to [ok] where it lies. *)
  let check pdu ~pos ~len:pdu_len ~ok ~err =
    let stored_crc = Util.get_u32 pdu (pos + pdu_len - 4) in
    let crc = Crc32.digest pdu ~pos ~len:(pdu_len - 4) in
    if crc <> stored_crc then err Crc_mismatch
    else begin
      let len = Util.get_u16 pdu (pos + pdu_len - 6) in
      if frame_cells len * Cell.payload_bytes <> pdu_len then
        err Length_mismatch
      else ok pdu pos len
    end

  (* The frame is complete: the state is reset before the callback
     runs, and the view is of [t.pdu], which only a later push writes. *)
  let reassemble t ~ok ~err =
    let pdu_len = t.len in
    t.done_flow <- t.cur_flow;
    reset t;
    check t.pdu ~pos:0 ~len:pdu_len ~ok ~err

  let push t (cell : Cell.t) ~ok ~err =
    if t.len = 0 then t.cur_flow <- cell.flow;
    ensure t Cell.payload_bytes;
    Bytes.blit cell.buf cell.off t.pdu t.len Cell.payload_bytes;
    t.len <- t.len + Cell.payload_bytes;
    if cell.last then reassemble t ~ok ~err
    else if t.len > t.max_frame then begin
      reset t;
      err Too_long
    end

  (* One blit for a whole train window, or none when the window holds
     the rest of a frame by itself and nothing is pending: that window
     is checked in place on the train's PDU.  [push_train] behaves
     exactly as pushing the window's cells one by one: the (rare)
     overflow path, where [Too_long] fires partway through, falls back
     to the per-cell loop and can call back more than once. *)
  let push_train t (train : Train.t) ~ok ~err =
    let n = Train.count train in
    let bytes_len = n * Cell.payload_bytes in
    let pos = Train.first train * Cell.payload_bytes in
    let last = Train.contains_last train in
    (* Only non-last cells can trigger Too_long. *)
    let overflow_span = if last then bytes_len - Cell.payload_bytes else bytes_len in
    if t.len + overflow_span <= t.max_frame then begin
      if t.len = 0 && last then begin
        t.done_flow <- Train.flow train;
        check (Train.buf train) ~pos ~len:bytes_len ~ok ~err
      end
      else begin
        if t.len = 0 then t.cur_flow <- Train.flow train;
        ensure t bytes_len;
        Bytes.blit (Train.buf train) pos t.pdu t.len bytes_len;
        t.len <- t.len + bytes_len;
        if last then reassemble t ~ok ~err
      end
    end
    else
      for i = 0 to n - 1 do
        push t (Train.cell train i) ~ok ~err
      done
end
