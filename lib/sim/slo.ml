(* Declarative service-level objectives.

   A spec says nothing about *where* its signal comes from — that
   binding (a counter rate, a gauge level, a windowed percentile) is
   supplied when the spec is registered with {!Monitor}.  Keeping the
   spec pure data means the same objective can be evaluated against
   different rigs, printed in reports, and compared across runs. *)

type t = {
  name : string;
  sub : Subsystem.t;
  help : string;
  unit_ : string;
  threshold : float;
  window : Time.t;
  fast_windows : int;
  slow_windows : int;
  hysteresis : float;
}

let make ?(help = "") ?(unit_ = "") ?(window = Time.ms 100)
    ?(fast_windows = 1) ?(slow_windows = 5) ?(hysteresis = 1.0) ~sub ~threshold
    name =
  if name = "" then invalid_arg "Slo.make: empty name";
  if Time.(window <= Time.zero) then
    invalid_arg "Slo.make: window must be positive";
  if fast_windows < 1 then invalid_arg "Slo.make: fast_windows < 1";
  if slow_windows < fast_windows then
    invalid_arg "Slo.make: slow_windows < fast_windows";
  if hysteresis <= 0.0 then invalid_arg "Slo.make: hysteresis <= 0";
  (* The resolve threshold ([hysteresis * threshold]) must sit on the
     healthy side of the fire threshold, or an alert could resolve
     while still in breach. *)
  if hysteresis > 1.0 then invalid_arg "Slo.make: hysteresis > 1";
  {
    name;
    sub;
    help;
    unit_;
    threshold;
    window;
    fast_windows;
    slow_windows;
    hysteresis;
  }

(* The value a slow-window aggregate must reach before a firing alert
   may resolve.  With hysteresis 1.0 this is the fire threshold itself;
   tighter hysteresis (e.g. 0.8) demands the signal recover clear of
   the boundary, which is what stops flapping on a signal that
   rides the threshold. *)
let resolve_threshold t = t.hysteresis *. t.threshold

let violates t v = v > t.threshold
let recovers t v = v <= resolve_threshold t
