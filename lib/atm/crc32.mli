(** CRC-32 (IEEE 802.3 polynomial), as used by the AAL5 trailer.

    One C file holds three kernels that give the same digest.  On
    x86-64 hosts with PCLMULQDQ and SSE4.1, inputs of 64 bytes or more
    are folded 64 bytes at a time by carry-less multiplication (Gopal,
    Ozturk et al., "Fast CRC Computation for Generic Polynomials Using
    PCLMULQDQ Instruction", Intel, 2009); where the host also has
    AVX512F and VPCLMULQDQ, inputs of 256 bytes or more are folded 256
    bytes at a time in 512-bit registers instead.  The last 0-15 bytes
    of a fold, shorter inputs, and every input on other hosts go
    through a slicing-by-8 table loop.  CPUID and the input length
    alone choose the kernel. *)

val digest : bytes -> pos:int -> len:int -> int
(** CRC of a byte range, as a non-negative int (fits in 32 bits).
    @raise Invalid_argument if the range does not lie inside the buffer. *)

val digest_bytes : bytes -> int
(** CRC of a whole buffer. *)

val kernel : string
(** The widest kernel this host runs: ["vpclmul"] (inputs of 256 bytes
    or more; ["clmul"] takes those of 64-255), ["clmul"] (inputs of 64
    bytes or more) or ["table"]. *)
