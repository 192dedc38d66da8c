#!/usr/bin/env bash
# Builds the server binaries and the benchmark from source, then runs one
# workload against them:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout. Build output goes to stderr; the
# last line of stdout is the JSON result. Binaries go to
# $CARGO_TARGET_DIR (default .bench_build); the fixture journal and the
# per-run scratch directories go to perfbench/.work.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p uucs-server -p uucs-cluster --bins >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --bins "$CARGO_TARGET_DIR/release" \
    --work perfbench/.work "$@"
