(** CRC-32 (IEEE 802.3 polynomial), as used by the AAL5 trailer.

    One C kernel computes it.  On x86-64 hosts with PCLMULQDQ and SSE4.1,
    inputs of 64 bytes or more are folded 64 bytes at a time by
    carry-less multiplication (Gopal, Ozturk et al., "Fast CRC
    Computation for Generic Polynomials Using PCLMULQDQ Instruction",
    Intel, 2009), and their last 0-15 bytes go through a slicing-by-8
    table loop.  Shorter inputs, and every input on other hosts, use
    the table loop alone.  CPUID and the input length choose the path;
    both give the same digest. *)

val digest : bytes -> pos:int -> len:int -> int
(** CRC of a byte range, as a non-negative int (fits in 32 bits).
    @raise Invalid_argument if the range does not lie inside the buffer. *)

val digest_bytes : bytes -> int
(** CRC of a whole buffer. *)

val kernel : string
(** The kernel used for inputs of 64 bytes or more on this host:
    ["clmul"] or ["table"]. *)
