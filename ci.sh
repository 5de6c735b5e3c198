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

echo "==> flash CLI smoke (the run settings parsed into ClusterConfig: a faulted run, a durable kill (halt@) and its resume must print the clean result: line, whose digest covers the whole answer; a spec past the schedule's end is counted unfired; a :x0 repeat count and a store fault without a store are refused)"
flash=target/release/flash
cli_dir="$(mktemp -d)"
cli() { FLASH_SCALE=small "$flash" --algo bfs --dataset OR --workers 3 "$@"; }
clean="$(cli | grep '^result:')"
[[ "$(cli --faults crash@1:w1 --checkpoint-every 2 | grep '^result:')" == "$clean" ]] || { echo "flash: the faulted run's answer differs from the clean run's" >&2; exit 1; }
[[ "$(cli --faults crash@1:w1,crash@90000:w0 --checkpoint-every 2 --json | grep -c '"faults_unfired": 1,')" == 1 ]] || { echo "flash: a crash scripted past the schedule's end must be reported as faults_unfired 1" >&2; exit 1; }
halt="$(cli --durable-dir "$cli_dir/store" --faults halt@2 2>&1)" && status=0 || status=$?
[[ "$status" == 1 ]] && grep -q 'halted' <<<"$halt" || { echo "flash: --faults halt@2 must exit 1 with \"halted\", got $status: $halt" >&2; exit 1; }
[[ "$(cli --durable-dir "$cli_dir/store" --resume | grep '^result:')" == "$clean" ]] || { echo "flash: the resumed run's answer differs from the clean run's" >&2; exit 1; }
bad="$(cli --faults crash@1:w1:x0 2>&1)" && status=0 || status=$?
[[ "$status" == 2 ]] && grep -q 'invalid repeat count "x0"' <<<"$bad" || { echo "flash: --faults crash@1:w1:x0 must exit 2 naming the repeat count, got $status: $bad" >&2; exit 1; }
cli --faults ioerr@1 >/dev/null 2>&1 && status=0 || status=$?
[[ "$status" == 2 ]] || { echo "flash: --faults ioerr@1 without --durable-dir must exit 2, got $status" >&2; exit 1; }
rm -rf "$cli_dir"

echo "==> paper smoke (the whole evaluation at small scale, Tables I and III (sections table1, table3) and the per-arc cost ladder (section cost) included; exit 1 when the count half of §V-B fails: CC-opt rounds not below CC-basic supersteps on US, or a time in a cell Table I marks inexpressible; nothing timed is gated)"
paper_dir="$(mktemp -d)"
FLASH_SCALE=small FLASH_RESULTS_DIR="$paper_dir" target/release/paper all > "$paper_dir/paper.txt"
tail -n 1 "$paper_dir/paper.txt"
rm -rf "$paper_dir"

echo "==> benchmark package smoke (own workspace with path deps: all six workloads — oracle, bit-identity across reps, exact counters)"
bash benchmark/run.sh --seconds 1 | tail -n 1

# exact_gate WORKLOAD REGEX: WORKLOAD at seed 12, run once untraced (for
# the end-to-end counters) and once traced (for the per-layer ones), must
# print exactly the lines of benchmark/exact_seed12.txt whose metric matches
# REGEX, and fail no op.
exact_gate() {
    local workload="$1" pattern="^$1/($2) " want got
    want="$(grep -E "$pattern" benchmark/exact_seed12.txt || true)"
    if [[ -z "$want" ]]; then
        echo "exact_gate: no line of benchmark/exact_seed12.txt matches $pattern" >&2
        exit 1
    fi
    want="$(printf '%s\n%s\n' "$want" "$workload/ops_failed 0" | sort)"
    got="$(for trace in 0 1; do
        { bash benchmark/run.sh --workload "$workload" --seed 12 --seconds 1 --trace "$trace" || true; } |
            grep -E "$pattern|^$workload/ops_failed " || true
    done | cut -d' ' -f1,2 | sort -u)"
    if [[ "$got" != "$want" ]]; then
        printf '%s: exact counters moved or an op failed; got:\n%s\nexpected:\n%s\n' \
            "$workload" "$got" "$want" >&2
        exit 1
    fi
}

echo "==> block streaming gate (pr_block: the EDGEMAP kernels only record block touches, so a kernel change must not move the streamed bytes and blocks, the schedule or the traffic)"
exact_gate pr_block 'graph\.streamed_(bytes|blocks)|runtime\.(supersteps|(sync|upd)_(messages|bytes))|core\.active_sum|wire_bytes|obs\.events'

echo "==> repair gate (serve_mix: the maintained PageRank sums in overlay walk order, so a changed walk or repair arithmetic moves the sweep count)"
exact_gate serve_mix 'algos\.pr_repair_sweeps'

echo "==> sync gate (pr_rmat: the receiver-side mirror sync of the post-compute round and the per-source PageRank share must count exactly the supersteps, frontiers, messages, bytes and events the parent did)"
exact_gate pr_rmat 'runtime\.(supersteps|(sync|upd)_(messages|bytes))|core\.active_sum|wire_bytes|obs\.events'

echo "==> fold gate (cc_push: big-frontier reduce steps, routed, folded and synced lane by lane in the post-compute round, must count exactly the supersteps, frontiers, messages, bytes and events the parent did)"
exact_gate cc_push 'runtime\.(supersteps|(sync|upd)_(messages|bytes))|core\.active_sum|wire_bytes|obs\.events'

echo "==> checkpoint gate (kcore_ckpt: the checkpoint-only store and the frontier-driven pull must not move the schedule, the frontiers, the generations or the sync counts, and the store appends no delta frame)"
exact_gate kcore_ckpt 'runtime\.(supersteps|ckpt_generations|ckpt_bytes|sync_messages|sync_bytes)|core\.(steps_(vmap|dense)|active_sum)|wire_bytes|obs\.events'
# A generation is one 56 B header: 26 of them fsync exactly 1456 B.
ckpt="$(bash benchmark/run.sh --workload kcore_ckpt --seed 12 --seconds 1 --trace 1)"
[[ "$(grep -c '^kcore_ckpt/runtime\.ckpt_delta_frames 0 ' <<<"$ckpt")" == 1 ]] || { echo "kcore_ckpt: the durable store wrote delta frames" >&2; exit 1; }
[[ "$(grep -c '^kcore_ckpt/runtime\.ckpt_bytes_fsynced 1456 ' <<<"$ckpt")" == 1 ]] || { echo "kcore_ckpt: the durable store did not fsync exactly 26 x 56 B generations" >&2; exit 1; }

echo "==> locality gate (bfs_road: the default map cuts the row-major road grid into id ranges, so the run ships 32 160 B where hashing shipped 23 300 824 B, in 777 upd and 3 243 sync messages)"
road="$(bash benchmark/run.sh --workload bfs_road --seed 12 --seconds 1)"
[[ "$(grep -c '^bfs_road/wire_bytes 32160 ' <<<"$road")" == 1 ]] || { echo "bfs_road: the road grid no longer ships exactly 32160 B; did the default map go back to hashing?" >&2; exit 1; }
road="$(bash benchmark/run.sh --workload bfs_road --seed 12 --seconds 1 --trace 1)"
for line in 'runtime\.upd_messages 777' 'runtime\.sync_messages 3243' 'obs\.events 4771'; do
    [[ "$(grep -c "^bfs_road/$line " <<<"$road")" == 1 ]] || { echo "bfs_road: the traced run does not report $line" >&2; exit 1; }
done

echo "==> OK"
