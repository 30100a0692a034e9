(** Scenarios for [pegasus_cli audit]: short deterministic runs to be
    executed with flow tracing enabled ({!Sim.Trace.set_flows}), after
    which {!Sim.Audit.of_trace} turns the recorded flow events into a
    per-stream QoS report.  Each takes the engine to build on and runs
    it for 400 ms. *)

val video : Sim.Engine.t -> unit
(** The E1 tile-latency rig: raw tile-row video, camera → switch →
    display. *)

val av : Sim.Engine.t -> unit
(** The E2 loaded-path rig: JPEG video sharing a switch with bursty
    cross traffic. *)

val pfs : Sim.Engine.t -> unit
(** The Pegasus file service: RPC reads/writes sealing log segments,
    plus a Baker-mix client-agent write load. *)

val video_pfs : Sim.Engine.t -> unit
(** {!video} and {!pfs} on one engine — the CI audit smoke scenario. *)

val pfs_client :
  Sim.Engine.t ->
  until:Sim.Time.t ->
  Pegasus.Site.t * Pegasus.Fileserver.t * Pfs.Client_agent.Agent.t
(** The RPC half of {!pfs}: a site whose workstation calls the file
    server's ["pfs"] interface every 10 ms until [until] (8 KB calls
    against one file, every fourth a read).  Returns the site, the file
    server and the workstation's client agent. *)
