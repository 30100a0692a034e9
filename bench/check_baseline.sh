#!/usr/bin/env sh
# Gate a benchmark results file against its committed baseline.
#
#   check_baseline.sh <results.json> <baseline.json> <gate>...
#
# Each gate is  PATH OP THRESHOLD  written without spaces:
#
#   engine.schedule_fire.ops_per_sec>=0.7x
#       relative gate: the 'x' suffix multiplies the BASELINE's value
#       at the same path (here: fail under 70% of baseline throughput)
#   frames[frame_bytes=65535].speedup>=3.0
#       absolute gate, with a [key=value] selector picking one element
#       out of a JSON list
#   frames[@frame_bytes].train.cells_per_sec>=0.7x
#       [@key] fans the gate out over every element of the list in the
#       results, joining each to the baseline element with the same key
#   speedup>=2.0?cores>=4
#       a '?guard' suffix skips the gate (with a note) unless the guard
#       — evaluated on the results file — holds; used for gates that
#       only mean anything on big-enough runners
#
# The schema fields of the two files must match.  Exit status is
# non-zero when any applicable gate fails.
set -eu
[ $# -ge 3 ] || { echo "usage: $0 <results.json> <baseline.json> <gate>..." >&2; exit 2; }

exec python3 - "$@" <<'EOF'
import json, re, sys

cur_path, base_path, *gates = sys.argv[1:]
cur = json.load(open(cur_path))
base = json.load(open(base_path))
if cur.get("schema") != base.get("schema"):
    raise SystemExit(
        f"schema mismatch: {cur.get('schema')} (results) vs "
        f"{base.get('schema')} (baseline)")

SEG = re.compile(r"^(?P<name>\w+)(?:\[(?P<sel>[^\]]+)\])?$")
GATE = re.compile(
    r"^(?P<path>[^<>?]+)(?P<op>>=|<=)(?P<thr>[0-9.]+)(?P<rel>x?)"
    r"(?:\?(?P<guard>.+))?$")


def expand(doc, segs, prefix=""):
    """Resolve a gate path against [doc] into concrete (path, value)
    pairs; a [@key] selector fans out over the list it names."""
    if not segs:
        return [(prefix.rstrip("."), doc)]
    m = SEG.match(segs[0])
    if not m:
        raise SystemExit(f"bad path segment: {segs[0]!r}")
    name, sel = m.group("name"), m.group("sel")
    if name not in doc:
        raise SystemExit(f"no field {name!r} at {prefix!r} in {cur_path}")
    node = doc[name]
    if sel is None:
        return expand(node, segs[1:], prefix + name + ".")
    if sel.startswith("@"):
        key = sel[1:]
        out = []
        for item in node:
            concrete = f"{name}[{key}={item[key]}]"
            out += expand(item, segs[1:], prefix + concrete + ".")
        return out
    key, want = sel.split("=", 1)
    item = next((i for i in node if str(i.get(key)) == want), None)
    if item is None:
        raise SystemExit(f"no element with {sel} under {prefix + name!r}")
    return expand(item, segs[1:], prefix + segs[0] + ".")


def lookup(doc, concrete):
    """Fetch the scalar at a concrete path (only [k=v] selectors)."""
    for seg in concrete.split("."):
        m = SEG.match(seg)
        name, sel = m.group("name"), m.group("sel")
        if name not in doc:
            raise SystemExit(f"baseline {base_path} lacks {concrete!r}")
        doc = doc[name]
        if sel is not None:
            key, want = sel.split("=", 1)
            doc = next((i for i in doc if str(i.get(key)) == want), None)
            if doc is None:
                raise SystemExit(f"baseline {base_path} lacks {concrete!r}")
    return doc


failures = []
for gate in gates:
    g = GATE.match(gate)
    if not g:
        raise SystemExit(f"bad gate: {gate!r}")
    if g.group("guard"):
        gd = GATE.match(g.group("guard"))
        if not gd or gd.group("rel") or gd.group("guard"):
            raise SystemExit(f"bad guard in gate: {gate!r}")
        [(gpath, gval)] = expand(cur, gd.group("path").split("."))
        ok = (gval >= float(gd.group("thr"))) if gd.group("op") == ">=" \
            else (gval <= float(gd.group("thr")))
        if not ok:
            print(f"SKIP {gate}   ({gpath} = {gval:g})")
            continue
    for concrete, got in expand(cur, g.group("path").split(".")):
        if g.group("rel"):
            ref = lookup(base, concrete)
            want = float(g.group("thr")) * ref
            detail = f"{got:,.4g} vs {g.group('thr')} * baseline {ref:,.4g}"
        else:
            want = float(g.group("thr"))
            detail = f"{got:,.4g} vs {want:g}"
        ok = got >= want if g.group("op") == ">=" else got <= want
        print(f"{'OK  ' if ok else 'FAIL'} {concrete} {g.group('op')} "
              f"{detail}")
        if not ok:
            failures.append(f"{concrete}: {detail}")

if failures:
    raise SystemExit(f"{len(failures)} gate(s) failed:\n" + "\n".join(failures))
EOF
