(** E15 — VOD flash crowd: popularity-aware replication vs static
    placement vs caching.

    Four Pegasus file servers behind one switch serve a Zipf-popular
    catalogue to closed-loop clients; halfway through the run a
    scripted popularity flip ({!Workloads.Vod}) moves the Zipf head to
    cold titles.  The sweep compares static placement, per-server
    block caching and {!Pfs.Directory}'s popularity-aware replication
    on flash-window throughput and p50/p95/p99 read tails
    ({!Sim.Audit} over causal flows).

    The (clients, placement) rows are independent closed worlds:
    {!Sim.Ctx.map} fans them over the context's OCaml domains, each
    recording into its own child context, with byte-identical output —
    table, metrics and trace — at every domain count. *)

type mode = Static | Cache_only | Replicate

type row_result = {
  rr_clients : int;
  rr_mode : mode;
  rr_reads_s : float;  (** Completed reads/s over the flash window. *)
  rr_p50_us : float option;  (** Flash window. *)
  rr_p99_pre_us : float option;
  rr_p99_flash_us : float option;
  rr_replica_pct : float;
  rr_copies : int;
  rr_drops : int;
}

val results : Sim.Ctx.t -> row_result array
(** The raw sweep, in row order (clients major, placement minor). *)

val run : Sim.Ctx.t -> Table.t
