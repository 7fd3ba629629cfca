#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md). Runs fully offline: the
# workspace has no registry dependencies, so --offline always succeeds.
#
#   fmt --check -> build (release) -> tests + doctests -> examples +
#   repro figures vs the shipped scripts/repro_figures.txt ->
#   determinism cmps (traces, bench rows vs the shipped
#   BENCH_mechanisms.json, repro top/lat/prof vs the shipped
#   scripts/repro_views.txt) ->
#   benchmark/ smoke + sim_digest cmp + allocation pins + two traced runs
#   -> reachability (fixture, then workspace) -> doc -> clippy -D warnings
#
# Invariants over bench rows are asserted once, in kite_bench::report,
# while `repro --json` builds them (DESIGN.md §18); nothing here
# re-derives them. Any failure fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

# step <title>: prints the wall time of the step that just ended as
# `<== <its title>: <seconds> s`, then starts <title> (an empty title
# only ends the last step). The log then reads as the gate's time
# budget, step by step.
step_title="" step_t0=0
step() {
    local now=${EPOCHREALTIME//[^0-9]/}
    if [ -n "$step_title" ]; then
        local ms=$(((now - step_t0) / 1000))
        printf '<== %s: %d.%03d s\n' "$step_title" $((ms / 1000)) $((ms % 1000))
    fi
    step_title="$1" step_t0=$now
    [ -z "$1" ] || echo "==> $1"
}

# Formatting takes seconds and needs no build, so it fails first.
step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo build --release --offline"
cargo build --release --offline --workspace

step "cargo test --release --offline (libs, bins, tests)"
# Release profile: reuses the build step's artifacts, and the
# simulation-heavy workload tests are ~10x faster than under dev.
cargo test --release --offline -q --workspace --lib --bins --tests
# The examples in the API docs compile and run too (kite-devices,
# kite-prof, kite-system's SystemConfig and scenario module).
cargo test --release --offline -q --workspace --doc

step "examples (build + smoke-run)"
cargo build --release --offline --examples
bin=./target/release
for ex in examples/*.rs; do
    "$bin/examples/$(basename "${ex%.rs}")" > /dev/null
done
fail() { echo "verify: $*" >&2; exit 1; }

# Every experiment `repro` has: the table-style ones (CVEs per year, boot,
# LoC map, CVEs, gadgets, RSDs, DHCP DORA, memory), the network figures
# that run the default scenario and the storage figures. `repro --all`
# takes ≈9 s of this step: fig12, which writes 192 files through the full
# PV path per point, ≈6 s and fig15 ≈1.2 s. No other step of the gate
# executes a `repro <id>`. Every cell is virtual-time derived, so the
# output is pinned like the bench rows: a figure that moved on purpose is
# regenerated with this command into scripts/repro_figures.txt and the
# diff reviewed.
$bin/repro --all | cmp - scripts/repro_figures.txt \
    || fail "repro figures differ from the shipped scripts/repro_figures.txt"

# same_twice <label> <cmd...>: runs <cmd...> twice, `{}` standing for an
# output path that differs per run (a command without `{}` is captured
# from stdout), and fails with "verify: <label>" unless the two outputs
# are byte-identical. The first output stays in "$same" for more checks.
tdir="$(mktemp -d)"
trap 'rm -rf "$tdir"' EXIT
same_twice() {
    local label="$1" out; shift
    same="$tdir/${label// /_}.a"
    for out in "$same" "${same%a}b"; do
        if [[ "$*" == *"{}"* ]]; then "${@//\{\}/$out}" > /dev/null; else "$@" > "$out"; fi
    done
    cmp "$same" "$out" || fail "$label"
}

step "tracing: exports validate and are deterministic"
# Each traced run validates its own Chrome-trace export before writing
# (chrome::validate: JSON parses, per-track monotonic timestamps, zero
# dropped events) — a failed validation aborts the example, and so
# does a quickstart export without one synthetic track per negotiated
# queue.
$bin/examples/quickstart --trace "$tdir/quickstart.json" > /dev/null
[ -s "$tdir/quickstart.json" ] || fail "quickstart.json missing or empty"
same_twice "traces of two runs differ" $bin/examples/recovery_trace {}
[ -s "$same" ] || fail "recovery trace missing or empty"
same_twice "multi-queue traces of two runs differ" $bin/examples/quickstart --queues 4 --trace {}

step "repro --json: rows reproduce BENCH_mechanisms.json byte for byte"
# Every row is virtual-time derived, and the report layer asserts the
# staircases, recovery and grant-copy relations while building them
# (a violated one aborts repro). Two runs must agree with each other
# and with the shipped snapshot; a row that moved on purpose is
# regenerated with `repro --json BENCH_mechanisms.json` and reviewed.
same_twice "repro --json output not deterministic" $bin/repro --json {}
cmp "$same" BENCH_mechanisms.json || fail "repro --json differs from the shipped BENCH_mechanisms.json"

step "GSO run, 4-ring storage: deterministic Chrome traces"
# Descriptor-chain framing, extra-info slots and LRO chains are all on
# the determinism surface. So is the multi-queue completion path: each
# storage ring has its own NVMe queue pair and MSI-X vector.
same_twice "GSO traces of two runs differ" $bin/examples/quickstart --bulk --queues 4 --trace {}
same_twice "4-ring storage traces of two runs differ" $bin/examples/storage_domain --rings 4 --trace {}

# The three views below are pinned as well as run twice: the first
# output of `repro top`, `repro lat` and `repro prof --series-csv`, in
# that order, must equal scripts/repro_views.txt, so every line of them
# is checked byte for byte there and nothing here greps for one. A view
# that moved on purpose is regenerated by concatenating the three into
# that file and reviewing the diff, like scripts/repro_figures.txt.
views="$tdir/views.txt"

step "repro top: kitetop snapshots are byte-identical"
# The watchdog crash-cycle scenario renders from virtual-time state only.
same_twice "repro top output not deterministic" $bin/repro top
cat "$same" > "$views"

step "repro lat: per-stage waterfalls, flow arrows validated"
# Both canonical scenarios run with request tracing on; each validates
# its flow-annotated Chrome export (flow begin/end pairing included)
# before printing, and every number is virtual-time derived.
same_twice "repro lat output not deterministic" $bin/repro lat
cat "$same" >> "$views"

step "repro prof: self-time table, collapsed stacks, sampler CSV"
# Smoke-run the profiler. report::prof_run asserts while it builds that
# the table attributes self time to the Tx drain and that the collapsed
# stacks show the signature nesting (grant copies inside a netback drain
# inside IRQ dispatch), so a violated one aborts repro here.
$bin/repro prof --collapsed "$tdir/prof.folded" > /dev/null
[ -s "$tdir/prof.folded" ] || fail "collapsed stacks missing or empty"
# The sampler reads virtual-time state only, so its CSV is part of the
# determinism surface even though the profiler's table is not.
same_twice "sampler CSV not deterministic" $bin/repro prof --series-csv {}
cat "$same" >> "$views"
cmp "$views" scripts/repro_views.txt \
    || fail "repro top/lat/prof --series-csv differ from the shipped scripts/repro_views.txt"

step "benchmark/: lint gate, then the four workloads end to end"
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
# that crept back in; a change that lowers them re-pins deliberately,
# and a run more than 1 % below its pin fails until it does — a stale
# pin is headroom a regression can hide in. The counts do not depend on
# the seed (`rr_open` reads 3.04655, 3.04645 and 3.04680 allocations
# per op at seeds 7, 21 and 99, against its pin of 3.04655: the seeds
# agree within 0.03 %), so each workload also runs at seed 21 and is
# held to the same seed-7 pins: a counted gain must show at both.
# The digests are seed-7 only.
#
# benchmark/Cargo.lock records the workspace's crate set and every
# inter-crate edge and may not be edited, so a workspace change that
# would make cargo rewrite it (--locked refuses) or that touches
# anything else under the benchmark's path fails here.
cargo metadata --locked --offline --format-version 1 \
    --manifest-path benchmark/Cargo.toml > /dev/null
bash benchmark/check.sh
while read -r w want allocs bytes; do
    for seed in 7 21; do
        out="$(bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds 1)"
        if [ "$seed" = 7 ]; then
            got="$(grep -o 'sim_digest [0-9a-f]*' <<< "$out")"
            [ "$got" = "sim_digest $want" ] || fail "$w: got '$got', scripts/sim_digests.txt has $want"
        fi
        awk -v w="$w seed $seed" -v allocs="$allocs" -v bytes="$bytes" '
            function pinned(name, got, pin) {
                if (got > pin * 1.005) {
                    printf "verify: %s: %s %s exceeds the pinned %s by more than 0.5 %%\n", \
                        w, name, got, pin > "/dev/stderr"
                    bad = 1
                } else if (got < pin * 0.99) {
                    printf "verify: %s: %s %s is more than 1 %% below the pinned %s: re-pin scripts/sim_digests.txt deliberately\n", \
                        w, name, got, pin > "/dev/stderr"
                    bad = 1
                }
            }
            $1 == "host_allocs_per_op" { pinned($1, $2, allocs); seen++ }
            $1 == "host_alloc_bytes_per_op" { pinned($1, $2, bytes); seen++ }
            END { exit (bad || seen != 2) }' <<< "$out" \
            || fail "$w seed $seed: allocation budget check failed"
    done
done < scripts/sim_digests.txt
# The per-layer consumer of kite_prof::report() runs once too: check.sh
# only compiles it. On the storage workload every request is submitted
# from inside an interrupt dispatch, so a dispatch_irq self time of 0 is
# the parent-below-child clamp the one sampling rule removed.
# (The harness reports dropped spans as a failed check: non-zero exit.)
out="$(bash benchmark/run.sh --workload stor_mixed --seed 7 --seconds 1 --trace 1)" \
    || fail "stor_mixed --trace 1 failed (dropped spans fail its checks)"
awk '$1 == "system.dispatch_irq_self_ns_per_op" { seen = 1; if ($2 + 0 == 0) bad = 1 }
     END { exit (bad || !seen) }' <<< "$out" \
    || fail "stor_mixed --trace 1: zero or missing dispatch_irq self time"
# The network twin: a traced rr_open stamps every request on the net
# path (ring submit, backend fetch, grant copy) through the harness.
bash benchmark/run.sh --workload rr_open --seed 7 --seconds 1 --trace 1 > /dev/null \
    || fail "rr_open --trace 1 failed"
if git rev-parse --git-dir > /dev/null 2>&1; then # an exported tree has no index
    git diff --quiet -- benchmark BENCHMARK.json \
        || fail "the gate modified benchmark/ or BENCHMARK.json"
fi

step "reachability: every pub item is used by shipped code or observed"
# src/bin/reachability.rs copies the tree to target/reachability/, makes
# every pub item of crates/*/src pub(crate) there, restores whatever the
# workspace's and benchmark/'s `cargo check` fail on, and reports rustc's
# dead-code warnings (DESIGN.md §6); it prints its rounds and wall time.
# The scratch copy and its target dirs stay, so a warm run reuses them.
# The fixture's report is pinned first, so a rule that stops firing fails
# here; then every finding in this workspace must be in
# scripts/observed.txt, and every entry there must still be a finding.
status=0
$bin/reachability tests/fixtures/reach tests/fixtures/reach/observed.txt > "$tdir/reach.txt" || status=$?
[ "$status" = 1 ] || fail "reachability on the fixture exited $status, not 1"
cmp "$tdir/reach.txt" tests/fixtures/reach/expected.txt \
    || fail "reachability's fixture report differs from tests/fixtures/reach/expected.txt"
$bin/reachability . scripts/observed.txt > "$tdir/reach.txt" || {
    grep -v '^observed' "$tdir/reach.txt" >&2
    fail "reachability: delete what no shipped code uses, or list it in scripts/observed.txt with a reason"
}

step "cargo doc --offline (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

step "cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

step ""
echo "verify: OK"
