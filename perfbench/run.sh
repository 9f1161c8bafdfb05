#!/usr/bin/env bash
# Builds the perfbench benchmark and the rhsd-serve binary from the
# sources of this checkout, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's own output goes to stderr, so the last
# line on stdout is perfbench's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
cargo build --release --quiet --offline -p rhsd-serve --bin rhsd-serve >&2

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/rhsd-serve" "$@"
