#!/usr/bin/env bash
# Build `fixctl`, `fixd` and the benchmark from source, then run it:
#
#   bash perfbench/run.sh --workload cli-dup --seed 1 --seconds 10 --trace 0
#
# Build output goes to standard error; the benchmark's report goes to
# standard output and ends with one JSON line. Artifacts go to
# $CARGO_TARGET_DIR (default .bench_build), inputs and spans to
# .perfbench_work/, both at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p fixctl -p fixd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# Run as a child, not via exec: the benchmark reads its children's peak
# memory, which must not include the compilers'.
"$CARGO_TARGET_DIR/release/perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
