(** Deterministic rigs with {!Sim.Monitor} SLO monitors attached across
    the stack — the scenarios behind [pegasus_cli health].

    Each scenario builds a rig on the given context, registers
    objectives against its live instruments, runs for a fixed span of
    simulated time and returns the merged health report.  Disruptions
    (wire-loss episodes) are scripted at absolute instants from seeded
    streams, so reports are byte-identical across runs — and, for
    ["fabric"], across the context's domain count.

    - ["video"]: the E1 camera/switch/display rig under healthy load for
      400 ms: staging p99, link queue-delay p99, cell-loss ratio and
      engine queue depth all stay Ok.
    - ["congest"]: the video rig with 5% wire loss injected from 100 ms
      to 220 ms: the cell-loss objective goes Pending at 120 ms, Firing
      at 140 ms and resolves at 300 ms (of 400).
    - ["pfs"]: the Pegasus file service over RPC plus a replicated
      directory on loopback shards under a flash-crowd read load for
      600 ms; heavy loss from 150 ms to 280 ms fires (and then
      resolves) the RPC retransmission objective while directory
      latency, replica lag and kernel deadline objectives stay healthy.
    - ["fabric"]: a 4-site sharded ring with one monitor per shard,
      merged in shard order, for 130 ms; 10% loss at site 0 from 30 ms
      to 70 ms fires and resolves that site's cell-loss objective.  The
      report, and what the shards record into the context, are
      byte-identical across the context's domain count. *)

val names : string list
(** The scenario names accepted by {!run}, in display order. *)

val run : Sim.Ctx.t -> string -> Sim.Monitor.report
(** Dispatch by name.  Raises [Invalid_argument] on an unknown name. *)
