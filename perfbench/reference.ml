(* The reference kernel: a fixed piece of host work, timed between
   slices of the workload, that measures how fast the host runs right
   now.

   On a shared virtual machine the host's speed drifts between states
   that last from seconds to minutes, and a slow state can cover a
   whole run.  The kernel runs every [period_ns] of host time during
   the timed phase of an untraced round, so it sees the same host
   states as the workload around it.  run.py scales the round's host
   times by [nominal_ns] / (mean tick time), which estimates what they
   would have been at the speed where one tick takes [nominal_ns].

   A tick times two kernels.  [sum] adds up a 32 KB int array with two
   accumulators: no load misses L1, so its time depends only on how
   much of the core the host leaves to this vCPU.  [copy] blits 4 MB,
   so its time depends on the memory bandwidth the host leaves.  Among
   the kernels tried (pointer chases from 16 KB to 64 MB, a
   latency-bound xorshift chain, closure dispatch, a binary-heap event
   loop, short-lived allocation; see README.md), [sum] tracked the
   round times of [video_cells] and [vod_flash] best, with a slope
   near 1 in log-log, and [pfs_churn], which copies megabyte segments,
   followed [sum] and [copy] together.  Each workload says how much
   [copy] weighs for it ([Workload.t.copy_weight]); [copy] runs only
   where it weighs.

   Neither kernel depends on anything in [lib/], so no change to the
   libraries changes their cost, and neither allocates, so a tick
   leaves the round's minor-heap words and its collections as they
   were.  Each tick first runs a few [sum] passes untimed, so the
   workload's own cache footprint does not reach the timed part. *)

let period_ns = 10_000_000

(* The kernels' times at the host speed the benchmark scales to: about
   the fast state of the 2-vCPU Xeon virtual machine the benchmark was
   tuned on, where the slow state took 1.75 times as long. *)
let nominal_ns = 100_000
let copy_nominal_ns = 500_000

let words = 4096
let data = Array.init words (fun i -> i)

let sum passes =
  let a = ref 0 and b = ref 0 in
  for _ = 1 to passes do
    for i = 0 to (words / 2) - 1 do
      a := !a + Array.unsafe_get data (2 * i);
      b := !b + Array.unsafe_get data ((2 * i) + 1)
    done
  done;
  !a + !b

(* The copy buffers live outside the OCaml heap and only in rounds that
   copy: 8 MB more heap would change the pace of the workload's major
   collections. *)
let copy_bytes = 4 * 1024 * 1024

let copy_buffers =
  lazy
    (let make c =
       let b = Bigarray.(Array1.create char c_layout copy_bytes) in
       Bigarray.Array1.fill b c;
       b
     in
     (make 'a', make 'b'))

let sink = ref 0
let enabled = ref false
let copying = ref false
let ticks = ref 0
let tick_ns = ref 0 (* timed [sum] of every tick *)
let copy_ns = ref 0 (* timed [copy] of every tick *)
let spent_ns = ref 0 (* whole ticks, warm-up and clock reads included *)
let last = ref 0

let start ~enabled:on ~copy =
  enabled := on;
  copying := on && copy;
  if !copying then ignore (Lazy.force copy_buffers);
  ticks := 0;
  tick_ns := 0;
  copy_ns := 0;
  spent_ns := 0;
  last := Span.now_ns ()

(* Run a tick if [period_ns] of host time has passed since the last
   one.  Called between engine slices. *)
let maybe_tick () =
  if !enabled then begin
    let t0 = Span.now_ns () in
    if t0 - !last >= period_ns then begin
      sink := !sink + sum 10;
      let t1 = Span.now_ns () in
      sink := !sink + sum 50;
      let t2 = Span.now_ns () in
      let t3 =
        if !copying then begin
          let src, dst = Lazy.force copy_buffers in
          Bigarray.Array1.blit src dst;
          Span.now_ns ()
        end
        else t2
      in
      incr ticks;
      tick_ns := !tick_ns + (t2 - t1);
      copy_ns := !copy_ns + (t3 - t2);
      spent_ns := !spent_ns + (t3 - t0);
      last := t3
    end
  end
