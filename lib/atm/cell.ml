let header_bytes = 5
let payload_bytes = 48
let total_bytes = header_bytes + payload_bytes
let wire_bits = total_bytes * 8

type t = {
  mutable vci : int;
  last : bool;
  flow : int;
  buf : bytes;
  off : int;
}

let view ~vci ~last ?(flow = Sim.Trace.no_flow) buf ~off =
  if off < 0 || off + payload_bytes > Bytes.length buf then
    invalid_arg "Cell.view: payload range out of bounds";
  { vci; last; flow; buf; off }

let make_blank ~vci ~last =
  {
    vci;
    last;
    flow = Sim.Trace.no_flow;
    buf = Bytes.make payload_bytes '\000';
    off = 0;
  }

let tx_time ~bandwidth_bps =
  Sim.Time.of_sec_f (Float.of_int wire_bits /. Float.of_int bandwidth_bps)
