#!/usr/bin/env bash
# Hermetic CI for the CREDENCE reproduction.
#
# Everything runs with the cargo registry disabled, so a registry
# dependency can never silently reappear in any Cargo.toml: resolution
# itself fails the build here before a human reviews the diff.
#
# Usage: ./ci.sh

set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

# Every experiments artefact with its checks: the paper's figures and the
# EXPERIMENTS.md tables. Fig 1 drives every REST endpoint in process, so a
# route left on a wrong path fails here.
echo "==> experiments (figure and table checks)"
./target/release/experiments

echo "==> cargo clippy (warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

# perfbench is its own Cargo workspace linking credence-server's public
# API; building and self-testing it here catches a signature break before
# the benchmark pipeline does.
echo "==> perfbench build + self-tests"
CARGO_TARGET_DIR=target cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> digest check (perfbench rank + explain answers, byte parity)"
./scripts/digest_check.sh

echo "==> credence-serve smoke (REST /api/v1 + /metrics + deadline budget)"
./scripts/serve_smoke.sh

echo "==> router smoke (2-worker scatter-gather, byte parity vs single-node)"
./scripts/router_smoke.sh

echo "==> corpus smoke (registry lifecycle, generation snapshots, corpus metrics)"
./scripts/corpus_smoke.sh

echo "==> cache smoke (explanation cache hits, bypass, invalidation, /metrics)"
./scripts/cache_smoke.sh

echo "==> rustdoc (warnings are errors: no broken or private doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> smoke benches (CREDENCE_BENCH_SMOKE=1)"
CREDENCE_BENCH_SMOKE=1 cargo bench -p credence-bench --offline

echo "==> bench_check (throughput regression gate vs BENCH_baseline.json)"
cargo run -q -p credence-bench --bin bench_check --offline

echo "==> ci.sh: all green"
