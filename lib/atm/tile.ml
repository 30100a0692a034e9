let size = 8
let raw_bytes = size * size
let trailer_bytes = 20

type packet = {
  x : int;
  y : int;
  frame : int;
  count : int;
  bytes_per_tile : int;
  captured_at : Sim.Time.t;
  data : bytes;
}

(* The trailer follows the pixel data: x, y, frame, count,
   bytes_per_tile and the capture stamp, big-endian. *)
let pdu ~x ~y ~frame ~count ~bytes_per_tile ~captured_at write =
  let data_len = count * bytes_per_tile in
  Aal5.build (data_len + trailer_bytes) (fun b ->
      write b;
      Util.put_u16 b data_len x;
      Util.put_u16 b (data_len + 2) y;
      Util.put_u32 b (data_len + 4) frame;
      Util.put_u16 b (data_len + 8) count;
      Util.put_u16 b (data_len + 10) bytes_per_tile;
      Util.put_i64 b (data_len + 12) captured_at)

(* Every reader takes the view [buf.[off, off + len)] and finds the
   trailer at its end. *)
let base off len = off + len - trailer_bytes
let x buf off len = Util.get_u16 buf (base off len)
let y buf off len = Util.get_u16 buf (base off len + 2)
let frame buf off len = Util.get_u32 buf (base off len + 4)
let count buf off len = Util.get_u16 buf (base off len + 8)
let bytes_per_tile buf off len = Util.get_u16 buf (base off len + 10)
let captured_at buf off len = Util.get_i64 buf (base off len + 12)

let well_formed buf off len =
  len >= trailer_bytes
  && count buf off len * bytes_per_tile buf off len = len - trailer_bytes

let copy buf off len =
  {
    x = x buf off len;
    y = y buf off len;
    frame = frame buf off len;
    count = count buf off len;
    bytes_per_tile = bytes_per_tile buf off len;
    captured_at = captured_at buf off len;
    data = Bytes.sub buf off (len - trailer_bytes);
  }
