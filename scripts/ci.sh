#!/usr/bin/env bash
# The tier-1 gate, hermetically: offline warning-free build, lint gate,
# full test suite, and a quick-mode smoke pass over every bench target
# (which also regenerates the paper artifacts and the bench summary).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== net Rust lines (informational, not a gate) =="
./scripts/loc.sh | tail -n 1

echo "== build (release, offline, warnings are fatal) =="
build_log=$(mktemp)
trap 'rm -f "$build_log"' EXIT
# --workspace matters: with a root package, a bare `cargo build` skips
# every other member's binaries (uucs-server, uucs-client, ...).
cargo build --release --workspace 2>&1 | tee "$build_log"
if grep -q "^warning" "$build_log"; then
    echo "ci: cargo build emitted warnings (see above)" >&2
    exit 1
fi

echo "== clippy (deny warnings) =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "ci: clippy unavailable in this toolchain; skipping the lint gate" >&2
fi

echo "== test (workspace) =="
cargo test -q --workspace

echo "== wal fault-injection suite (crash points x sync policies) =="
cargo test -q -p uucs-wal

echo "== chaos suite (network faults, exactly-once, kill/recover) =="
cargo test -q --test chaos

echo "== telemetry e2e (STATS verb, gauges, deterministic traces) =="
cargo test -q --test telemetry_e2e

echo "== wire fuzz (garbage/truncated/interleaved frames, both framings) =="
cargo test -q --test wire_fuzz

echo "== wire crate (framing, negotiation, delta codec) =="
cargo test -q -p uucs-wire

echo "== wire e2e (legacy byte-parity, negotiation matrix, pipelining, MODELDELTA) =="
cargo test -q --test wire_e2e

echo "== model service (sketch properties, e2e, closed-loop governor) =="
cargo test -q -p uucs-modelsvc
cargo test -q --test modelsvc_e2e

echo "== engine e2e (>1024 conns, group-commit kill chaos, reshard replay) =="
cargo test -q --test engine_e2e

echo "== cluster suite (WAL shipping, backfill edge cases, promotion race) =="
cargo test -q -p uucs-cluster

echo "== cluster e2e (kill-the-leader exactly-once, partitioned follower) =="
cargo test -q --test cluster_e2e

echo "== fleet smoke (200 multiplexed clients vs a live sharded server) =="
cargo run -q --release -p uucs-study -- fleet --quick

echo "== cluster fleet smoke (2-node tier, leader killed mid-run, failover) =="
cargo run -q --release -p uucs-study -- fleet --cluster --quick

echo "== binary fleet smoke (wire v2, pipelined depth 8) =="
cargo run -q --release -p uucs-study -- fleet --quick --wire binary --pipeline 8

echo "== bench smoke (UUCS_BENCH_QUICK=1, all eleven targets) =="
for bench in paper_figures substrate exerciser_accuracy ablations wal chaos telemetry_overhead modelsvc engine cluster wire; do
    echo "-- $bench --"
    UUCS_BENCH_QUICK=1 cargo bench -p uucs-bench --bench "$bench"
done

echo "== bench summary =="
# Collect the per-target JSON reports the harness wrote under
# target/uucs-bench/ into one stable artifact at the repo root.
summary=BENCH_SUMMARY.json
{
    printf '{\n'
    first=1
    for bench in paper_figures substrate exerciser_accuracy ablations wal chaos telemetry_overhead modelsvc engine cluster wire; do
        report="target/uucs-bench/$bench.json"
        [ -f "$report" ] || continue
        [ "$first" -eq 1 ] || printf ',\n'
        first=0
        printf '  "%s": ' "$bench"
        cat "$report"
    done
    printf '\n}\n'
} >"$summary"
echo "ci: wrote $summary"

echo "ci: all gates passed"
