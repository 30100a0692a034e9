(** Flow-controlled bulk transfer, the continuous-media/bulk side of
    the MSNA protocol hierarchy the Pegasus RPC sits on.

    A unidirectional byte stream over a VC pair: data frames flow on
    the forward circuit; the receiver returns {e credits} on the
    reverse circuit as its consumer drains, so a fast sender can never
    overrun a slow receiver or the switch queues.  With a window of
    [w] frames of [mtu] bytes and round-trip time [rtt], throughput is
    min(line rate, w·mtu/rtt) — the classic sliding-window law, which
    the tests check. *)

type sender

type receiver

val establish :
  Atm.Net.t ->
  src:Atm.Net.node_id ->
  dst:Atm.Net.node_id ->
  ?mtu:int ->
  ?window:int ->
  ?consume_rate_bps:int ->
  on_data:(bytes -> unit) ->
  unit ->
  sender * receiver
(** Set up the circuit pair.  [mtu] (default 8192) is the data-frame
    payload; [window] (default 8) the credit pool; [consume_rate_bps]
    (default unlimited = 0) throttles the receiver's consumer, delaying
    credit return accordingly.  [on_data] runs as each frame is
    consumed. *)

val send : sender -> bytes -> unit
(** Queue bytes for transmission (chunked to the MTU).  Transmission
    proceeds as credits allow. *)

val finish : sender -> on_done:(unit -> unit) -> unit
(** Call after the last {!send}; [on_done] fires when every queued
    byte has been delivered and consumed. *)

val bytes_delivered : receiver -> int
val frames_in_flight : sender -> int
val credits_available : sender -> int
