(** Byte-buffer helpers for marshalling device payloads.

    All integers are big-endian, matching network convention. *)

val put_u16 : bytes -> int -> int -> unit
val get_u16 : bytes -> int -> int
val put_u32 : bytes -> int -> int -> unit
val get_u32 : bytes -> int -> int

val put_i64 : bytes -> int -> Sim.Time.t -> unit
(** A time stamp, in eight bytes: its nanoseconds as a signed 64-bit
    integer. *)

val get_i64 : bytes -> int -> Sim.Time.t
