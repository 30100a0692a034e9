#!/usr/bin/env python3
"""Self-test of the benchmark's determinism, on short simulated runs.

    python3 perfbench/selftest.py

For every workload it checks that
  - every round passes its correctness checks,
  - the same seed gives the same sim_digest, traced or not,
  - the held-out seed gives a different sim_digest,
  - two untraced rounds of one seed report identical exact counts.
Exits 1 on the first failure.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXACT = ("sim.events", "atm.cells_sent", "pfs.segments_sealed",
         "pfs.bytes_appended")


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        sys.exit(1)


def exact(r):
    return [r["counts"][k] for k in EXACT] + [r["minor_words"]]


def main():
    run.build()
    listing = subprocess.run([run.EXE, "--list"], capture_output=True,
                             text=True, check=True).stdout
    for line in listing.splitlines():
        name, seed, heldout = line.split()
        seed, heldout = int(seed), int(heldout)
        rounds = [run.one_round(name, seed, short=True),
                  run.one_round(name, seed, short=True),
                  run.one_round(name, seed, traced=True, short=True),
                  run.one_round(name, heldout, short=True)]
        a, b, t, h = rounds
        check(all(not r["failed_checks"] for r in rounds),
              "%s: every round passes its checks" % name)
        check(a["sim_digest"] == b["sim_digest"] == t["sim_digest"],
              "%s: seed %d repeats its sim_digest, traced or not"
              % (name, seed))
        check(a["sim_digest"] != h["sim_digest"],
              "%s: held-out seed %d gives another sim_digest" % (name, heldout))
        check(exact(a) == exact(b) and a["counts"] == t["counts"],
              "%s: exact counts repeat (%s, minor words %s)" % (name, ", ".join(
                  "%s=%s" % (k, a["counts"][k]) for k in EXACT),
                  a["minor_words"]))


if __name__ == "__main__":
    main()
