#!/usr/bin/env bash
# Builds the spacetime CLI and the benchmark harness from source, then runs
# the harness from the repository root with the arguments given, e.g.
#   bash benchmark/run.sh --workload stream-sort-kernel --seed 1 --seconds 10 --trace 0
# Both builds go to one target directory, $CARGO_TARGET_DIR (default: target
# at the repository root), where the harness also finds the CLI. Build
# output goes to standard error; the harness's last line of standard output
# is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Absolute, so both builds and the harness agree whatever their directory.
case "$CARGO_TARGET_DIR" in
/*) ;;
*) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR
cargo build --release --offline --quiet --bin spacetime >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/st-benchmark" "$@"
