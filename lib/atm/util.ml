let put_u16 b off v = Bytes.set_uint16_be b off (v land 0xffff)
let get_u16 b off = Bytes.get_uint16_be b off

let put_u32 b off v =
  Bytes.set_int32_be b off (Int32.of_int (v land 0xffffffff))

let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff
let put_i64 b off v = Bytes.set_int64_be b off (Int64.of_int (Sim.Time.to_ns v))
let get_i64 b off = Sim.Time.ns (Int64.to_int (Bytes.get_int64_be b off))
