#!/usr/bin/env bash
# Builds the benchmark from source and runs it; see README.md.
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--aa]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$here/target}"
# The build log goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
exec "$target/release/flash-benchmark" --out "$here/out" "$@"
