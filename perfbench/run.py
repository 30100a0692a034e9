#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script builds
perfbench/perfbench.exe from source with dune (release profile, build
directory .bench_build), then runs rounds of the workload, one process
per round, until S seconds have passed (at least one round; two with
--trace 1).  Every round of one seed simulates the same input, so every
round must report the same sim_digest and the same exact counts.

--trace 0 reports the end-to-end metrics, with each round's host times
scaled to the reference host speed that its reference ticks measured
(see host_scale and perfbench/reference.ml).  --trace 1 alternates
untraced and traced rounds and reports the per-layer metrics; it
writes the last traced round's spans to
.bench_out/spans-<workload>-<seed>.jsonl.  The last line of standard
output is one JSON object; the exit code is 1 when a check fails.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def build():
    """Build the benchmark; dune's own output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project in %s; run from a full checkout"
                 % ROOT)
    # Outside an opam environment, ask opam for the switch's dune.
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    cmd = dune + ["build", "--root", ROOT, "--build-dir", BUILD_DIR,
                  "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stdin=subprocess.DEVNULL,
                              timeout=840)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit("perfbench: build failed: %s" % err)
    if done.returncode != 0 or not os.path.isfile(EXE):
        sys.exit("perfbench: build failed (dune exit %d)" % done.returncode)


def one_round(workload, seed, traced=False, short=False, spans_out=None):
    """Run one round in a fresh process and return its JSON record."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if short:
        cmd.append("--short")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    done = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=150)
    if done.returncode != 0:
        sys.exit("perfbench: round failed (exit %d)\n%s"
                 % (done.returncode, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def quantile(values, q):
    """Linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(values)
    rank = q * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def ratio(a, b):
    return a / b if b else 0.0


def ops_per_s(r):
    """Raw rate: operations per host second of the timed phase."""
    return r["ops"] / r["timed_s"]


def host_scale(r):
    """Factor that takes the round's host times to the reference speed.

    The reference kernels (reference.ml) ran between engine slices of
    the timed phase.  Each gives a factor, its nominal time over its
    mean measured time; the scale is their geometric mean weighted by
    the workload's copy weight.  Traced rounds run no ticks and are not
    scaled.
    """
    ticks = r["ref_ticks"]
    if not ticks:
        return 1.0
    core = r["ref_nominal_ns"] / (r["ref_tick_ns"] / ticks)
    w = r["ref_copy_weight"]
    if not w:
        return core
    memory = r["ref_copy_nominal_ns"] / (r["ref_copy_ns"] / ticks)
    return core ** (1 - w) * memory ** w


def scaled_ops_per_s(r):
    return ops_per_s(r) / host_scale(r)


def end_to_end(rounds):
    plain = [r for r in rounds if not r["traced"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return [
        ("ops_per_s", quantile([scaled_ops_per_s(r) for r in plain], 0.5),
         "1/s"),
        ("setup_s",
         quantile([r["setup_s"] * host_scale(r) for r in plain], 0.5), "s"),
        ("top_heap_mb",
         quantile([r["top_heap_bytes"] / 1e6 for r in plain], 0.5), "MB"),
        ("completion_rate", ratio(attempted - failed, attempted), "ratio"),
    ]


def per_layer(rounds):
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    last = plain[-1]
    counts = last["counts"]

    def med(f, rs):
        return quantile([f(r) for r in rs], 0.5)

    def counted(name, unit="count"):
        return (name, counts[name], unit)

    def span(name):
        return (name, med(lambda r: r["spans"][name], traced), "s")

    moved = counts["pfs.clean_bytes_moved"]
    reclaimed = counts["pfs.clean_bytes_reclaimed"]
    return [
        counted("sim.events"),
        counted("sim.events_cancelled"),
        span("sim.run_self_s"),
        ("sim.ns_per_event",
         med(lambda r: ratio(r["run_s"] * 1e9, counts["sim.events"]), plain),
         "ns"),
        ("sim.queue_depth_p50", med(lambda r: r["queue_depth_p50"], traced),
         "count"),
        ("sim.queue_depth_max", med(lambda r: r["queue_depth_max"], traced),
         "count"),
        ("sim.minor_words", last["minor_words"], "words"),
        ("sim.minor_words_per_op",
         ratio(last["minor_words"], last["ops"]), "words"),
        ("sim.major_collections", last["major_collections"], "count"),
        counted("atm.cells_sent"),
        counted("atm.cells_switched"),
        counted("atm.cells_dropped"),
        span("atm.send_s"),
        span("atm.rx_s"),
        ("atm.ns_per_cell",
         med(lambda r: ratio(r["run_s"] * 1e9, counts["atm.cells_sent"]),
             plain), "ns"),
        ("pfs.write_calls", traced[-1]["write_calls"], "count"),
        span("pfs.write_s"),
        ("pfs.write_us_p50", med(lambda r: r["write_us_p50"], traced), "us"),
        ("pfs.write_us_p99", med(lambda r: r["write_us_p99"], traced), "us"),
        counted("pfs.segments_sealed"),
        counted("pfs.bytes_appended", "bytes"),
        span("pfs.sync_s"),
        span("pfs.recover_s"),
        span("pfs.clean_s"),
        counted("pfs.segments_cleaned"),
        ("pfs.clean_yield", ratio(reclaimed, reclaimed + moved), "ratio"),
        counted("pfs.dir_reads"),
        span("pfs.dir_read_s"),
        ("pfs.replica_read_ratio",
         ratio(counts["pfs.dir_replica_reads"], counts["pfs.dir_reads"]),
         "ratio"),
        counted("pfs.replications"),
        counted("trace.events"),
        span("trace.audit_s"),
        ("trace.overhead",
         ratio(med(ops_per_s, plain), med(ops_per_s, traced)), "ratio"),
    ]


def failures(rounds):
    """Failed checks, plus any round that simulated differently."""
    failed = set()
    for r in rounds:
        failed.update(r["failed_checks"])
    if len({r["sim_digest"] for r in rounds}) > 1:
        failed.add("sim_digest identical in every round")
    if len({json.dumps(r["counts"], sort_keys=True) for r in rounds}) > 1:
        failed.add("exact counts identical in every round")
    plain = [r for r in rounds if not r["traced"]]
    if len({r["minor_words"] for r in plain}) > 1:
        failed.add("minor words identical in every untraced round")
    return sorted(failed)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()
    build()
    trace = args.trace == "1"
    spans_out = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_out = os.path.join(
            OUT_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    rounds = []
    start = time.monotonic()
    while len(rounds) < (2 if trace else 1) or \
            time.monotonic() - start < args.seconds:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(one_round(args.workload, args.seed, traced=traced,
                                spans_out=spans_out if traced else None))
    first = rounds[0]
    print("workload %s seed %d: %d rounds, one operation = %s"
          % (args.workload, args.seed, len(rounds), first["op"]))
    for i, r in enumerate(rounds):
        print("  round %d%s: set-up %.4f s, timed %.4f s, %.6g ops/s, "
              "%d major GCs, %d reference ticks, host scale %.4f"
              % (i, " (traced)" if r["traced"] else "", r["setup_s"],
                 r["timed_s"], ops_per_s(r), r["major_collections"],
                 r["ref_ticks"], host_scale(r)))
    for line in first["sim_lines"]:
        print("  sim: " + line)
    print("sim_digest %s %d %s" % (args.workload, args.seed,
                                   first["sim_digest"]))
    failed_checks = failures(rounds)
    for name in failed_checks:
        print("CHECK FAILED: " + name)
    metrics = per_layer(rounds) if trace else end_to_end(rounds)
    for name, value, unit in metrics:
        print("  %-26s %s %s" % (name, value if isinstance(value, int)
                                 else "%.6g" % value, unit))
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in metrics},
    }))
    sys.exit(1 if failed_checks else 0)


if __name__ == "__main__":
    main()
