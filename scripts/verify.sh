#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md). Runs fully offline: the
# workspace has no registry dependencies, so --offline must always
# succeed.
#
#   build (release)  ->  tests  ->  examples + repro smoke  ->
#   determinism cmps (traces, bench rows vs the shipped
#   BENCH_mechanisms.json, repro prof/top/lat)
#   ->  benchmark/ smoke + sim_digest cmp + allocation pins + one
#   traced run  ->  doc
#   ->  clippy -D warnings  ->  fmt --check
#
# Invariants over bench rows are asserted once, in kite_bench::report,
# while `repro --json` builds them (DESIGN.md §18); nothing here
# re-derives them. Any failure fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test --release --offline (libs, bins, tests)"
# Release profile: reuses the build step's artifacts, and the
# simulation-heavy workload tests are ~10x faster than under dev.
cargo test --release --offline -q --workspace --lib --bins --tests

echo "==> examples (build + smoke-run)"
cargo build --release --offline --examples
for ex in examples/*.rs; do
    name="$(basename "${ex%.rs}")"
    "./target/release/examples/${name}" > /dev/null
done
# The table-style experiments (boot, LoC map, CVEs, gadgets, DHCP DORA,
# memory): no other step of the gate executes a `repro <id>`.
./target/release/repro fig4 table1 table3 fig5 dhcp mem > /dev/null

echo "==> tracing: exports validate and are deterministic"
# Each traced run validates its own Chrome-trace export before writing
# (chrome::validate: JSON parses, per-track monotonic timestamps, zero
# dropped events) — a failed validation aborts the example. On top of
# that, same-seed runs must produce byte-identical trace files.
tdir="$(mktemp -d)"
trap 'rm -rf "$tdir"' EXIT
./target/release/examples/quickstart --trace "$tdir/quickstart.json" > /dev/null
./target/release/examples/recovery_trace "$tdir/recovery_a.json" > /dev/null
./target/release/examples/recovery_trace "$tdir/recovery_b.json" > /dev/null
for f in quickstart.json recovery_a.json; do
    [ -s "$tdir/$f" ] || { echo "verify: $f missing or empty" >&2; exit 1; }
done
cmp "$tdir/recovery_a.json" "$tdir/recovery_b.json" \
    || { echo "verify: same-seed traces differ" >&2; exit 1; }

echo "==> multi-queue: per-queue tracks, deterministic trace"
# A 4-queue run must validate its Chrome export (quickstart calls
# chrome::validate before writing), render one synthetic track per
# negotiated queue, and be byte-identical across same-seed runs.
./target/release/examples/quickstart --queues 4 --trace "$tdir/mq_a.json" > /dev/null
./target/release/examples/quickstart --queues 4 --trace "$tdir/mq_b.json" > /dev/null
cmp "$tdir/mq_a.json" "$tdir/mq_b.json" \
    || { echo "verify: same-seed multi-queue traces differ" >&2; exit 1; }
qtracks="$(grep -c '"name":"netbackend/q' "$tdir/mq_a.json")"
[ "$qtracks" -eq 4 ] \
    || { echo "verify: expected 4 per-queue tracks, got $qtracks" >&2; exit 1; }

echo "==> repro --json: rows reproduce BENCH_mechanisms.json byte for byte"
# Every row is virtual-time derived, and the report layer asserts the
# staircases, recovery and grant-copy relations while building them
# (a violated one aborts repro). Two runs must agree with each other
# and with the shipped snapshot; a row that moved on purpose is
# regenerated with `repro --json BENCH_mechanisms.json` and reviewed.
./target/release/repro --json "$tdir/bench.json" > /dev/null
./target/release/repro --json "$tdir/bench2.json" > /dev/null
cmp "$tdir/bench.json" "$tdir/bench2.json" \
    || { echo "verify: repro --json output not deterministic" >&2; exit 1; }
cmp "$tdir/bench.json" BENCH_mechanisms.json \
    || { echo "verify: repro --json differs from the shipped BENCH_mechanisms.json" >&2; exit 1; }

echo "==> GSO run: deterministic Chrome trace"
# Same-seed multi-queue offload runs must serialize byte-identical
# traces: descriptor-chain framing, extra-info slots and LRO chains are
# all on the determinism surface.
./target/release/examples/quickstart --gso --queues 4 --trace "$tdir/gso_a.json" > /dev/null
./target/release/examples/quickstart --gso --queues 4 --trace "$tdir/gso_b.json" > /dev/null
cmp "$tdir/gso_a.json" "$tdir/gso_b.json" \
    || { echo "verify: same-seed GSO traces differ" >&2; exit 1; }

echo "==> 4-ring storage: deterministic Chrome trace"
# Same-seed multi-ring storage runs must serialize byte-identical
# traces — each ring has its own NVMe queue pair and MSI-X vector, so
# this proves the multi-queue completion path is deterministic too.
./target/release/examples/storage_domain --rings 4 --trace "$tdir/stor_a.json" > /dev/null
./target/release/examples/storage_domain --rings 4 --trace "$tdir/stor_b.json" > /dev/null
cmp "$tdir/stor_a.json" "$tdir/stor_b.json" \
    || { echo "verify: same-seed 4-ring storage traces differ" >&2; exit 1; }

echo "==> repro prof: self-time table, collapsed stacks, sampler exports"
# Smoke-run the profiler: the table must attribute self time to the
# instrumented hot paths, and the collapsed stacks must show the
# signature nesting (grant copies inside a netback drain inside IRQ
# dispatch) in flamegraph.pl-consumable `path count` shape.
./target/release/repro prof \
    --collapsed "$tdir/prof_a.folded" \
    --series-csv "$tdir/series_a.csv" \
    --series-json "$tdir/series_a.json" > "$tdir/prof.txt"
grep -q '^netback_tx_drain ' "$tdir/prof.txt" \
    || { echo "verify: prof table missing netback_tx_drain row" >&2; exit 1; }
grep -Eq '^kite;dispatch_irq;netback_tx_drain;grant_copy [0-9]+$' "$tdir/prof_a.folded" \
    || { echo "verify: collapsed stacks missing nested drain path" >&2; exit 1; }
# The sampler rides the virtual-time scheduler, so its exports are part
# of the determinism surface even though the profiler's table is not:
# a second run must reproduce the series byte for byte.
./target/release/repro prof \
    --series-csv "$tdir/series_b.csv" \
    --series-json "$tdir/series_b.json" > /dev/null
cmp "$tdir/series_a.csv" "$tdir/series_b.csv" \
    || { echo "verify: sampler CSV not deterministic" >&2; exit 1; }
cmp "$tdir/series_a.json" "$tdir/series_b.json" \
    || { echo "verify: sampler JSON not deterministic" >&2; exit 1; }

echo "==> repro top: kitetop snapshots are byte-identical"
# The watchdog crash-cycle scenario renders from virtual-time state
# only; two runs of the same build must print the same bytes.
./target/release/repro top > "$tdir/top_a.txt"
./target/release/repro top > "$tdir/top_b.txt"
[ -s "$tdir/top_a.txt" ] || { echo "verify: repro top printed nothing" >&2; exit 1; }
cmp "$tdir/top_a.txt" "$tdir/top_b.txt" \
    || { echo "verify: repro top output not deterministic" >&2; exit 1; }

echo "==> repro lat: per-stage waterfalls, flow arrows validated"
# Both canonical scenarios run with request tracing on; each validates
# its flow-annotated Chrome export (flow begin/end pairing included)
# before printing, and every number is virtual-time derived — two runs
# of the same build must print identical bytes.
./target/release/repro lat > "$tdir/lat_a.txt"
./target/release/repro lat > "$tdir/lat_b.txt"
cmp "$tdir/lat_a.txt" "$tdir/lat_b.txt" \
    || { echo "verify: repro lat output not deterministic" >&2; exit 1; }
grep -q '^STAGE ' "$tdir/lat_a.txt" \
    || { echo "verify: lat report missing the stage table" >&2; exit 1; }
for row in grant_copy nvme_complete END_TO_END; do
    grep -q "^$row " "$tdir/lat_a.txt" \
        || { echo "verify: lat report missing $row row" >&2; exit 1; }
done
[ "$(grep -c '^flow validation: OK' "$tdir/lat_a.txt")" -eq 2 ] \
    || { echo "verify: expected 2 flow-validated lat scenarios" >&2; exit 1; }

echo "==> benchmark/: lint gate, then the four workloads end to end"
# benchmark/ is its own workspace, so nothing above compiles it: a
# public-API slip in kite_system would otherwise only surface when the
# pipeline rejects the PR. Each run's own payload/order/conservation/
# digest-stability checks are one assertion (non-zero exit fails the
# gate); the other is its `sim_digest` (FNV-1a over every latency, the
# event count and the counters), which must equal the seed-7 value kept
# in scripts/sim_digests.txt. A change that moves virtual time on
# purpose regenerates that file from this loop's `got` values and
# reviews the diff, like BENCH_mechanisms.json.
#
# The file's last two columns pin the copy budget (DESIGN.md §19): the
# `host_allocs_per_op` and `host_alloc_bytes_per_op` the counted
# repetition prints at seed 7. Both are exact per seed and build, so a
# run more than 0.5 % above its pin (BENCHMARK.json's bound) is a copy
# that crept back in; a change that lowers them re-pins deliberately.
#
# benchmark/Cargo.lock records the workspace's crate set and every
# inter-crate edge and may not be edited, so a workspace change that
# would make cargo rewrite it (--locked refuses) or that touches
# anything else under the benchmark's path fails here.
cargo metadata --locked --offline --format-version 1 \
    --manifest-path benchmark/Cargo.toml > /dev/null
bash benchmark/check.sh
while read -r w want allocs bytes; do
    out="$(bash benchmark/run.sh --workload "$w" --seed 7 --seconds 1)"
    got="$(grep -o 'sim_digest [0-9a-f]*' <<< "$out")"
    [ "$got" = "sim_digest $want" ] \
        || { echo "verify: $w: got '$got', scripts/sim_digests.txt has $want" >&2; exit 1; }
    awk -v w="$w" -v allocs="$allocs" -v bytes="$bytes" '
        function over(name, got, pin) {
            if (got > pin * 1.005) {
                printf "verify: %s: %s %s exceeds the pinned %s by more than 0.5 %%\n", \
                    w, name, got, pin > "/dev/stderr"
                bad = 1
            }
        }
        $1 == "host_allocs_per_op" { over($1, $2, allocs); seen++ }
        $1 == "host_alloc_bytes_per_op" { over($1, $2, bytes); seen++ }
        END { exit (bad || seen != 2) }' <<< "$out" \
        || { echo "verify: $w: allocation budget check failed" >&2; exit 1; }
done < scripts/sim_digests.txt
# The per-layer consumer of kite_prof::report() runs once too: check.sh
# only compiles it. On the storage workload every request is submitted
# from inside an interrupt dispatch, so a dispatch_irq self time of 0 is
# the parent-below-child clamp the one sampling rule removed.
# (The harness reports dropped spans as a failed check: non-zero exit.)
out="$(bash benchmark/run.sh --workload stor_mixed --seed 7 --seconds 1 --trace 1)" \
    || { echo "verify: stor_mixed --trace 1 failed (dropped spans fail its checks)" >&2; exit 1; }
awk '$1 == "system.dispatch_irq_self_ns_per_op" { seen = 1; if ($2 + 0 == 0) bad = 1 }
     END { exit (bad || !seen) }' <<< "$out" \
    || { echo "verify: stor_mixed --trace 1: zero or missing dispatch_irq self time" >&2; exit 1; }
# (Outside a git checkout, e.g. an exported tree, there is no index to
# compare with.)
if git rev-parse --git-dir > /dev/null 2>&1; then
    git diff --quiet -- benchmark BENCHMARK.json \
        || { echo "verify: the gate modified benchmark/ or BENCHMARK.json" >&2; exit 1; }
fi

echo "==> cargo doc --offline (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "verify: OK"
