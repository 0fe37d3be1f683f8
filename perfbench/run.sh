#!/usr/bin/env bash
# Build the release credence-serve and the benchmark from source, then run
# one benchmark run. Arguments are passed through:
#   bash perfbench/run.sh --workload rank|explain|ingest --seed N --seconds S --trace 0|1
# Build output goes to $CARGO_TARGET_DIR (default: target/ at the repository
# root); the run's corpus file and span dump go to its perfbench/ directory.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
export CARGO_NET_OFFLINE=true
cargo build --release --offline --quiet -p credence-server --bin credence-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server "$CARGO_TARGET_DIR/release/credence-serve" \
    --out "$CARGO_TARGET_DIR/perfbench" "$@"
