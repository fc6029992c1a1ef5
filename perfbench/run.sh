#!/usr/bin/env bash
# Build cundef and the benchmark program from source, then run one
# workload. Run from the repository root:
#   bash perfbench/run.sh --workload batch-realistic --seed 1 --seconds 10 --trace 0
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f perfbench/Cargo.toml ]]; then
    echo "error: run from the cundef repository root" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --bin cundef --target-dir "$target" >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml --target-dir "$target" >&2
exec "$target/release/cundef-perfbench" --cundef "$target/release/cundef" "$@"
