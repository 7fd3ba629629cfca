#!/usr/bin/env bash
# Runs the full benchmark twice on the same build and fails unless the two
# runs agree: every end-to-end metric within the bound BENCHMARK.json fixes
# for it, every sim_* metric and the sim_digest exactly (same seed, same
# code: any difference there is a harness or determinism bug).
#
#   benchmark/selfcheck.sh [--seed S] [--seconds N]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
for run in a b; do
    for w in rr_open gso_stream bidir_mtu stor_mixed; do
        echo "==> run $run: $w" >&2
        bash "$here/run.sh" --workload "$w" --trace 0 "$@" > "$out/$run.$w"
    done
done
python3 - "$here/../BENCHMARK.json" "$out" <<'PY'
import json, re, sys
spec = json.load(open(sys.argv[1]))
out = sys.argv[2]
bad = 0
for w in [x["name"] for x in spec["workloads"]]:
    runs = []
    for run in "ab":
        text = open(f"{out}/{run}.{w}").read()
        result = json.loads(text.strip().splitlines()[-1])
        digest = re.search(r"sim_digest ([0-9a-f]{16})", text).group(1)
        assert result["correct"] and result["failed"] == 0, (w, run)
        runs.append((result["metrics"], digest))
    (a, da), (b, db) = runs
    if da != db:
        print(f"FAIL {w}: sim_digest {da} != {db}")
        bad += 1
    for e in spec["end_to_end"]:
        name, bound = e["name"], e["bound"]
        x, y = a[name]["value"], b[name]["value"]
        if name.startswith("sim_"):
            ok, rule = x == y, "exact"
        else:
            ok, rule = abs(x - y) <= bound * min(abs(x), abs(y)), f"within {bound:.1%}"
        diff = 100 * abs(x - y) / min(abs(x), abs(y))
        print(f"{'ok  ' if ok else 'FAIL'} {w:11s} {name:24s} {x:16.6f} {y:16.6f}  {diff:6.3f}%  ({rule})")
        bad += not ok
sys.exit(1 if bad else 0)
PY
echo "selfcheck: the two runs agree"
