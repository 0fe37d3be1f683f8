#!/usr/bin/env bash
# End-to-end smoke test for cluster mode: boots two worker credence-serve
# processes over the demo corpus plus a scatter-gather router in front of
# them, and asserts the clustered /api/v1/rank response is byte-for-byte
# identical to a single worker's — the merge contract the whole mode
# rests on — plus one doc-affine explainer relayed through the router.
#
# Usage: ./scripts/router_smoke.sh   (expects target/release/credence-serve)

set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/credence-serve
W1=127.0.0.1:18651
W2=127.0.0.1:18652
RT=127.0.0.1:18653
WORK=target/router-smoke

[ -x "$BIN" ] || {
    echo "router_smoke: $BIN missing; run cargo build --release first" >&2
    exit 1
}

mkdir -p "$WORK"
PIDS=()
trap 'for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done' EXIT

"$BIN" --addr "$W1" >"$WORK/worker1.log" 2>&1 &
PIDS+=($!)
"$BIN" --addr "$W2" >"$WORK/worker2.log" 2>&1 &
PIDS+=($!)
"$BIN" --addr "$RT" --router --workers "$W1,$W2" >"$WORK/router.log" 2>&1 &
PIDS+=($!)

wait_up() {
    local base=$1 log=$2
    for _ in $(seq 1 120); do
        curl -sf "http://$base/api/v1/health" >/dev/null 2>&1 && return 0
        sleep 0.25
    done
    echo "router_smoke: http://$base never came up" >&2
    cat "$log" >&2
    exit 1
}
wait_up "$W1" "$WORK/worker1.log"
wait_up "$W2" "$WORK/worker2.log"
wait_up "$RT" "$WORK/router.log"

fail() {
    echo "router_smoke: $1" >&2
    echo "--- detail ---" >&2
    echo "$2" >&2
    exit 1
}

# --- /rank byte parity -----------------------------------------------------
# Every worker replicates the corpus, so worker 1 alone IS the single-node
# answer; the router must reassemble exactly those bytes from partitioned
# legs.
for REQ in '{"query": "covid outbreak", "k": 10}' \
           '{"query": "vaccine", "k": 3}' \
           '{"query": "covid", "k": 60}'; do
    SINGLE=$(curl -sf "http://$W1/api/v1/rank" -d "$REQ")
    ROUTED=$(curl -sf "http://$RT/api/v1/rank" -d "$REQ")
    [ "$SINGLE" = "$ROUTED" ] ||
        fail "/rank bytes diverged for $REQ" "single: $SINGLE
routed: $ROUTED"
done
echo "router_smoke: /rank byte-identical to single-node across 3 queries"

# --- doc-affine explainer through the router -------------------------------
REQ='{"query": "covid outbreak", "k": 10, "doc": 0, "n": 2}'
SINGLE=$(curl -sf "http://$W1/api/v1/explain/sentence-removal" -d "$REQ")
ROUTED=$(curl -sf "http://$RT/api/v1/explain/sentence-removal" -d "$REQ")
[ -n "$SINGLE" ] || fail "worker explainer returned nothing" "$SINGLE"
[ "$SINGLE" = "$ROUTED" ] ||
    fail "explainer bytes diverged through the router" "single: $SINGLE
routed: $ROUTED"
echo "router_smoke: sentence-removal explainer byte-identical through the router"

# --- one REST surface: bare API paths are gone, through the router too -----
HEADERS="$WORK/bare.headers"
BARE=$(curl -s -D "$HEADERS" "http://$RT/rank" -d '{"query": "covid outbreak", "k": 5}')
head -n 1 "$HEADERS" | grep -q ' 404' || fail "bare POST /rank through the router did not answer 404" "$(cat "$HEADERS")$BARE"
echo "$BARE" | grep -q '"code":"not_found"' || fail "bare POST /rank through the router is not a not_found envelope" "$BARE"
! grep -qi '^deprecation:' "$HEADERS" || fail "bare POST /rank through the router carries a deprecation header" "$(cat "$HEADERS")"
INDEX=$(curl -sf "http://$RT/api/v1")
! echo "$INDEX" | grep -q '"deprecated"' || fail "GET /api/v1 through the router still lists deprecated rows" "$INDEX"
echo "router_smoke: bare POST /rank answers 404 not_found; /api/v1 lists no deprecated rows"

# --- router observability --------------------------------------------------
METRICS=$(curl -sf "http://$RT/metrics")
echo "$METRICS" | grep -q '^credence_router_workers 2$' ||
    fail "/metrics missing credence_router_workers 2" "$METRICS"
echo "$METRICS" | grep -q '^credence_router_fanout_legs_total' ||
    fail "/metrics missing fanout leg counter" "$METRICS"
echo "router_smoke: router /metrics ok"

echo "router_smoke: all green"
