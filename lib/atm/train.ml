type frame = { buf : bytes; flow : int; total : int }
type t = { mutable vci : int; frame : frame; first : int; count : int }

let make ~vci ?(flow = Sim.Trace.no_flow) buf =
  let len = Bytes.length buf in
  if len = 0 || len mod Cell.payload_bytes <> 0 then
    invalid_arg "Train.make: buffer must be a whole number of cells";
  let total = len / Cell.payload_bytes in
  { vci; frame = { buf; flow; total }; first = 0; count = total }

let count t = t.count
let total t = t.frame.total
let buf t = t.frame.buf
let flow t = t.frame.flow
let first t = t.first

let sub t ~first ~count =
  if first < 0 || count < 1 || first + count > t.count then
    invalid_arg "Train.sub: range out of bounds";
  { t with first = t.first + first; count }

let is_last t i =
  if i < 0 || i >= t.count then invalid_arg "Train.is_last: index out of bounds";
  t.first + i = t.frame.total - 1

let contains_last t = t.first + t.count = t.frame.total

let cell t i =
  Cell.view ~vci:t.vci ~last:(is_last t i) ~flow:t.frame.flow t.frame.buf
    ~off:((t.first + i) * Cell.payload_bytes)
