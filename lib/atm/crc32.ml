(* The tables are forced at module initialisation: [digest] sits on the
   per-frame hot path and must not pay a [Lazy.force] (a caml_modify +
   branch) per call.

   [digest] uses slicing-by-16: sixteen derived tables, laid end to end
   in one array, let the loop consume sixteen bytes per iteration, read
   as four 32-bit little-endian loads, with a single xor-combine of
   sixteen independent lookups.  The serial dependency through the CRC
   register is one step per 16 bytes.  The result is bit-identical to
   the classic byte-at-a-time CRC-32 (reflected, polynomial
   0xEDB88320), which the KAT and the property test in test_atm pin. *)
let slices = 16

let tables =
  let t = Array.make (slices * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  (* Table k advances a byte that still has k zero bytes to go. *)
  for k = 1 to slices - 1 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xff) lxor (prev lsr 8)
    done
  done;
  t

external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Safe: callers bounds-check the whole range before the loop.  The
   word comes back sign-extended; [lookup] masks every byte it uses, so
   the high bits never matter. *)
let[@inline] word32 b i =
  let w = get32u b i in
  Int32.to_int (if Sys.big_endian then swap32 w else w)

let[@inline] lookup k x = Array.unsafe_get tables ((k lsl 8) lor (x land 0xff))

let digest b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.digest: range out of bounds";
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let last16 = pos + len - 16 in
  while !i <= last16 do
    let w0 = !c lxor word32 b !i in
    let w1 = word32 b (!i + 4) in
    let w2 = word32 b (!i + 8) in
    let w3 = word32 b (!i + 12) in
    c :=
      lookup 15 w0
      lxor lookup 14 (w0 lsr 8)
      lxor lookup 13 (w0 lsr 16)
      lxor lookup 12 (w0 lsr 24)
      lxor lookup 11 w1
      lxor lookup 10 (w1 lsr 8)
      lxor lookup 9 (w1 lsr 16)
      lxor lookup 8 (w1 lsr 24)
      lxor lookup 7 w2
      lxor lookup 6 (w2 lsr 8)
      lxor lookup 5 (w2 lsr 16)
      lxor lookup 4 (w2 lsr 24)
      lxor lookup 3 w3
      lxor lookup 2 (w3 lsr 8)
      lxor lookup 1 (w3 lsr 16)
      lxor lookup 0 (w3 lsr 24);
    i := !i + 16
  done;
  for j = !i to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b j) in
    c := lookup 0 (!c lxor byte) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let digest_bytes b = digest b ~pos:0 ~len:(Bytes.length b)
