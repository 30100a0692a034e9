(* The kernel lives in crc32_stubs.c.  [init] builds its tables and
   checks the CPU once, here at module initialisation, so the C side
   holds no lazily written state for domains to race on.  The range
   check below is the only guard on the C kernel's unchecked loads; it
   is written so that no sum can overflow. *)
external init : unit -> int = "pegasus_crc32_init"

external crc32 :
  bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "pegasus_crc32_byte" "pegasus_crc32"
  [@@noalloc]

let kernel = match init () with 2 -> "vpclmul" | 1 -> "clmul" | _ -> "table"

let digest b ~pos ~len =
  if pos < 0 || len < 0 || len > Bytes.length b - pos then
    invalid_arg "Crc32.digest: range out of bounds";
  crc32 b pos len

let digest_bytes b = digest b ~pos:0 ~len:(Bytes.length b)
