#!/usr/bin/env bash
# Lint gate for the benchmark package itself. It is outside the repo's
# workspace on purpose, so scripts/verify.sh does not see it.
set -euo pipefail
cd "$(dirname "$0")"
echo "==> cargo fmt --check (benchmark)"
cargo fmt --check
echo "==> cargo clippy --all-targets -D warnings (benchmark)"
cargo clippy --offline --all-targets -- -D warnings
