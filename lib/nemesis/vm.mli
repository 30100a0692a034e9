(** The single-address-space memory model.

    All domains share one 64-bit virtual address space; privacy comes
    from per-domain access rights on segments, not from separate
    translations.  The two costs/benefits the paper argues about are
    modelled here:

    - {e context-switch cost}: with per-process address spaces and
      virtually-addressed caches, aliases force cache/TLB flushes on
      every switch; a single address space removes them.
    - {e load-time relocation}: the price of the single space.  It is
      amortised by caching relocation results and reloading a program
      at the virtual address it had last time, which works when the
      top 32 address bits are a hash of the code — collisions are
      rare in a sparse 64-bit space.  *)

(** {1 Segments and protection} *)

type rights = { read : bool; write : bool; execute : bool }

val r : rights
val rw : rights

type space
(** One machine's shared virtual address space. *)

type segment

val create_space : unit -> space

val alloc_segment : space -> name:string -> size:int -> segment
(** Allocate a segment at a fresh virtual address (never reused). *)

val segment_base : segment -> int64
val segment_size : segment -> int

val map : space -> domain:int -> segment -> rights -> unit
(** Grant [domain] access to [segment].  Remapping replaces rights. *)

val unmap : space -> domain:int -> segment -> unit

val access :
  space -> domain:int -> addr:int64 -> [ `Read | `Write | `Execute ] ->
  (segment, [ `Unmapped | `Protection ]) result
(** Check an access the way the MMU would: same translation for every
    domain, rights differ per domain. *)

val shared_mappings : space -> segment -> int
(** Number of domains a segment is currently mapped in. *)

(** {1 Context-switch cost model} *)

val switch_cost : aliases:bool -> Sim.Time.t
(** Cost of moving the CPU between protection domains.  [aliases:true]
    (separate address spaces, virtual caches) pays a full flush and
    refill of a small 1994 virtually-indexed cache (256 lines, 200 ns
    per line fill); [aliases:false] (single address space) pays only the
    fixed register/stack switch (2 us). *)

(** {1 Load-time relocation and address reuse} *)

val reuse_collisions : Sim.Rng.t -> images:int -> int
(** Simulate loading [images] distinct programs with random 32-bit
    hashes; count pairwise collisions (distinct images forced to
    different addresses, i.e. relocation-cache misses). *)

val load_cost : relocs:int -> cache_hit:bool -> Sim.Time.t
(** Image load cost: a relocation-cache hit costs a fixed 50 us map
    operation; a miss additionally pays 100 ns per relocation entry. *)
