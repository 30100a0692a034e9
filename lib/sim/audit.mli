(** Offline per-stream QoS audit over causal flow traces.

    Consumes the flow events recorded by {!Trace} and reconstructs, for
    each stream (flows sharing a ["stream"] label), where every
    request's end-to-end latency went: a stage-latency breakdown with
    exact p50/p95/p99 per hop, end-to-end latency and inter-flow
    jitter, deadline-miss attribution (which stage ate the slack,
    measured against that stage's stream median), and a critical-path
    summary (the stage with the largest share of total time).

    A flow's events partition its lifetime: the interval ending at each
    step or end event is attributed to the stage named by that event,
    so attribution is exhaustive by construction; [st_attributed]
    reports the achieved fraction.  The whole report — including both
    renderers — is a deterministic function of the input events. *)

type stage = {
  sg_name : string;
  sg_count : int;  (** Intervals observed across the stream's flows. *)
  sg_p50_ns : float;
  sg_p95_ns : float;
  sg_p99_ns : float;
  sg_mean_ns : float;
  sg_max_ns : float;
  sg_share : float;  (** Fraction of the stream's total attributed time. *)
  sg_misses : int;  (** Deadline misses attributed to this stage. *)
}

type stream = {
  st_label : string;
  st_flows : int;  (** Completed flows (start and end both seen). *)
  st_incomplete : int;  (** Flows missing their end event. *)
  st_stages : stage list;  (** First-appearance order. *)
  st_e2e_p50_ns : float;
  st_e2e_p95_ns : float;
  st_e2e_p99_ns : float;
  st_e2e_mean_ns : float;
  st_e2e_max_ns : float;
  st_jitter_mean_ns : float;
      (** Mean |delta| between consecutive flows' end-to-end latencies. *)
  st_jitter_max_ns : float;
  st_attributed : float;  (** Attributed time / total end-to-end time. *)
  st_misses : int;
  st_critical : string option;  (** Stage with the largest share. *)
}

type report = {
  rp_streams : stream list;  (** Sorted by label. *)
  rp_flows : int;
  rp_incomplete : int;
  rp_orphan_events : int;  (** Flow events whose flow has no start. *)
  rp_deadline_ns : int option;
}

val capture : Trace.t -> unit
(** Make a sink record what {!of_trace} needs: enabled and unbounded
    (restarting it empty), flow recording on, per-cell detail off so
    the ATM train fast path stays on. *)

val of_trace : ?deadline_ns:int -> Trace.t -> report
(** Build a report from the trace's retained events.  When
    [deadline_ns] is given, completed flows whose end-to-end latency
    exceeds it count as deadline misses. *)

val pp : Format.formatter -> report -> unit
(** Fixed-width per-stream stage table, deterministic. *)

val to_json : report -> Json.t
(** JSON rendering (schema ["pegasus-audit/1"]), deterministic. *)
