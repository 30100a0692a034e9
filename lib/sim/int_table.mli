(** Hash tables keyed by ints.  A key is its own hash and keys compare
    with {!Int.equal}, so a lookup makes no call into the runtime's
    generic hash or compare, and a {!find} that hits allocates
    nothing. *)

include Hashtbl.S with type key = int
