#!/usr/bin/env bash
# Build the release `gbc` binary and the benchmark from source, then run
# one workload:
#
#   bash perfbench/run.sh --workload cli-prim --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p gbc-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --gbc "$target/release/gbc" --work "$target/perfbench-work" "$@"
