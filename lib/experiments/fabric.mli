(** Sharded multi-site fabric — the conservative-parallel-simulation
    showcase rig behind [pegasus_cli run PAR].

    [sites] campus networks (switch + camera/display/gateway hosts, 10
    Gbit/s links) are joined in a ring of long-haul trunks; each site is
    one {!Sim.Shard} shard, the trunk propagation delay is the
    lookahead (derived through {!Atm.Net.partition} and
    {!Atm.Net.cut_lookahead} on a single-net blueprint of the same
    topology), and cross-site frames travel through {!Sim.Shard.post}.
    Every arrival folds into a per-site digest, so byte-equality of two
    outputs is event-order equality of the runs — the property the CI
    determinism job checks across --domains 1/2/4. *)

type params = {
  sites : int;
  streams_per_site : int;
  frame_bytes : int;
  fps : int;
  cross_every : int;
  trunk_prop : Sim.Time.t;
  duration : Sim.Time.t;
  seed : int;
}

val default_params : params

type outcome = {
  p : params;
  local_frames : int array;
  remote_frames : int array;
  digests : int array;
  epochs : int;
  messages : int;
  overflows : int;
  lookahead : Sim.Time.t;
}

val execute : Sim.Ctx.t -> params -> outcome
(** Build and run the fabric on the context's domain budget, one shard
    per site on a child of the context.  The outcome, and what the
    context records, are independent of the domain count; only
    wall-clock time varies. *)

val run : ?seed:int -> Sim.Ctx.t -> Table.t
(** The registry's [PAR] entry: run with default parameters ([seed]
    overrides the source phases' seed) and render the result (per-site
    frame counts and digests, epoch/message statistics). *)
