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

echo "==> cargo doc (-D warnings: doc comments and intra-doc links, incl. those passed through the events! table)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> robustness smokes (chaos, elastic, lossy, consensus, durable: every fault family must recover bit-identically)"
cargo run --release -q -p flash-bench --bin fig_robust -- --suite all --smoke

echo "==> trace analyzer smoke (record, validate schema, critical path, Chrome export)"
cargo run --release -q -p flash-bench --bin flash_trace -- --smoke

echo "==> block-storage smoke (out-of-core engine must be bit-identical)"
cargo run --release -q -p flash-bench --bin fig_scale -- --smoke

echo "==> serving smoke (concurrent sessions + incremental repair must be exact)"
cargo run --release -q -p flash-bench --bin fig_serve -- --smoke

echo "==> regression gate (supersteps/total_bytes of all 19 algorithms must equal the committed BENCH_flash.json)"
FLASH_SCALE=small cargo run --release -q -p flash-bench --bin bench_flash -- --baseline BENCH_flash.json

echo "==> benchmark package smoke (own workspace with path deps: all six workloads — oracle, bit-identity across reps, exact counters)"
bash benchmark/run.sh --seconds 1 | tail -n 1

echo "==> block streaming gate (pr_block at seed 12 must stream exactly the bytes and blocks of benchmark/exact_seed12.txt)"
streamed='^pr_block/graph\.streamed_(bytes|blocks) '
want="$(grep -E "$streamed" benchmark/exact_seed12.txt)"
got="$(bash benchmark/run.sh --workload pr_block --seed 12 --seconds 1 --trace 1 | grep -E "$streamed" | cut -d' ' -f1,2)"
if [[ -z "$want" || "$got" != "$want" ]]; then
    printf 'streamed counters moved; got:\n%s\nexpected:\n%s\n' "$got" "$want" >&2
    exit 1
fi

echo "==> repair gate (serve_mix at seed 12 must take exactly the algos.pr_repair_sweeps of benchmark/exact_seed12.txt and fail no op)"
gate='^serve_mix/(algos\.pr_repair_sweeps|ops_failed) '
want="$(grep -E "$gate" benchmark/exact_seed12.txt)"$'\n'"serve_mix/ops_failed 0"
got="$({ bash benchmark/run.sh --workload serve_mix --seed 12 --seconds 1 --trace 1 || true; } | grep -E "$gate" | cut -d' ' -f1,2)"
if [[ "$got" != "$want" ]]; then
    printf 'repair sweeps moved or an op failed; got:\n%s\nexpected:\n%s\n' "$got" "$want" >&2
    exit 1
fi

echo "==> OK"
