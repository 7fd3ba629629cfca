#!/usr/bin/env bash
# The one command: builds the benchmark offline, then prints every metric
# by name with its unit and checks that outputs are correct.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1]
#
# With --workload it runs that one invocation (this is what BENCHMARK.json's
# `command` calls); without, it runs all four workloads, each untraced
# (end-to-end metrics) and traced (per-layer metrics). The last line each
# invocation prints is one JSON object. Exit status is non-zero if the
# build fails or any correctness check does.
#
# Builds into $CARGO_TARGET_DIR when set, else into benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/kite-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
for w in rr_open gso_stream bidir_mtu stor_mixed; do
    for trace in 0 1; do
        "$bin" --workload "$w" --trace "$trace" "$@"
    done
done
