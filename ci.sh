#!/usr/bin/env bash
# Canonical offline verification for the FLASH reproduction workspace.
# No network access is required: the workspace has zero external
# dependencies (see Cargo.toml).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (hot-path crates, deny redundant clones / index loops)"
cargo clippy -p flash-runtime -p flash-core --all-targets -- \
    -D warnings -D clippy::redundant_clone -D clippy::needless_range_loop

echo "==> cargo clippy (obs crate, deny float-precision casts in metrics)"
cargo clippy -p flash-obs --all-targets -- \
    -D warnings -D clippy::cast_precision_loss

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> chaos smoke (fault injection + recovery must be exact)"
cargo run --release -q -p flash-bench --bin fig_chaos -- --smoke

echo "==> elastic smoke (permanent loss + repartitioning must be exact)"
cargo run --release -q -p flash-bench --bin fig_elastic -- --smoke

echo "==> lossy smoke (drop/dup/reorder channel + retransmit must be exact)"
cargo run --release -q -p flash-bench --bin fig_lossy -- --smoke

echo "==> consensus smoke (leader crashes + lying workers must be exact)"
cargo run --release -q -p flash-bench --bin fig_consensus -- --smoke

echo "==> durability smoke (cold restarts + torn/bitrot scrub fallback must be exact)"
cargo run --release -q -p flash-bench --bin fig_durable -- --smoke

echo "==> hot-path smoke (pooled-parallel vs fresh-serial must be bit-identical)"
cargo run --release -q -p flash-bench --bin perf_hotpath -- --smoke

echo "==> trace analyzer smoke (record, validate schema, critical path, Chrome export)"
cargo run --release -q -p flash-bench --bin flash_trace -- --smoke

echo "==> block-storage smoke (out-of-core engine must be bit-identical)"
cargo run --release -q -p flash-bench --bin fig_scale -- --smoke

echo "==> serving smoke (concurrent sessions + incremental repair must be exact)"
cargo run --release -q -p flash-bench --bin fig_serve -- --smoke

echo "==> bench snapshot (regenerates BENCH_flash.json at the repo root)"
FLASH_SCALE=small cargo run --release -q -p flash-bench --bin bench_flash

echo "==> perf-regression gate (supersteps/total_bytes enforced; timing warn-only)"
FLASH_SCALE=small FLASH_BASELINE_WARN=1 \
    cargo run --release -q -p flash-bench --bin bench_flash -- --baseline BENCH_flash.json

echo "==> benchmark package smoke (own workspace with path deps: builds against this tree, checks the answer)"
bash benchmark/run.sh --workload bfs_road --seconds 1 | tail -n 1

echo "==> benchmark push-path smoke (forced-sparse CC: oracle, bit-identity across reps, exact counters)"
bash benchmark/run.sh --workload cc_push --seconds 1 | tail -n 1

echo "==> benchmark durable-store smoke (k-core through the write-ahead log: oracle, bit-identity across reps, exact counters)"
bash benchmark/run.sh --workload kcore_ckpt --seconds 1 | tail -n 1

echo "==> OK"
