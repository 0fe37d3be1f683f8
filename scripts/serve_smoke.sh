#!/usr/bin/env bash
# End-to-end smoke test for credence-serve: boots the release binary on a
# local port, drives the versioned REST surface with curl, and asserts that
# a client's requests share one kept-alive connection and that the
# request-lifecycle budget actually caps a live search.
#
# The demo corpus is too small to exercise a wall-clock deadline (its worst
# document finishes in ~16 ms), so the script writes a synthetic corpus with
# one 48-sentence document and serves it a second time with --ranker rm3.
# RM3 is not term-decomposable, so the explainers score every candidate's
# text exactly: a sentence-removal search over that document with k = 13
# (the whole corpus, so no candidate is ever accepted) takes seconds
# uncapped, which a 250 ms deadline cuts short mid-search.
#
# Usage: ./scripts/serve_smoke.sh   (expects target/release/credence-serve)

set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/credence-serve
ADDR=127.0.0.1:18642
BASE="http://$ADDR"
RM3_ADDR=127.0.0.1:18644
RM3="http://$RM3_ADDR"
WORK=target/serve-smoke
DEADLINE_MS=250

[ -x "$BIN" ] || {
    echo "serve_smoke: $BIN missing; run cargo build --release first" >&2
    exit 1
}

mkdir -p "$WORK"

# --- synthetic corpus: one long query-relevant doc plus padding ------------
{
    body=""
    for i in $(seq 0 47); do
        if [ $((i % 4)) -eq 0 ]; then
            body+="The covid outbreak update number $i arrives today. "
        else
            body+="Filler sentence number $i talks about daily life. "
        fi
    done
    printf '{"name":"long-doc","title":"Long covid doc","body":"%s"}\n' "$body"
    for i in $(seq 1 12); do
        printf '{"name":"pad-%s","title":"Report %s","body":"covid outbreak report number %s with several extra words to pad the length of this story for realistic normalisation."}\n' \
            "$i" "$i" "$i"
    done
} >"$WORK/corpus.jsonl"

"$BIN" --addr "$ADDR" --corpus "$WORK/corpus.jsonl" >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
"$BIN" --addr "$RM3_ADDR" --corpus "$WORK/corpus.jsonl" --ranker rm3 >"$WORK/serve-rm3.log" 2>&1 &
RM3_PID=$!
trap 'kill "$SERVE_PID" "$RM3_PID" 2>/dev/null || true' EXIT

# Wait for the server at $1 (pid $2, log $3) to answer /api/v1/health.
await_health() {
    for _ in $(seq 1 80); do
        curl -sf "$1/api/v1/health" >/dev/null 2>&1 && return 0
        kill -0 "$2" 2>/dev/null || {
            echo "serve_smoke: server died during startup:" >&2
            cat "$3" >&2
            exit 1
        }
        sleep 0.25
    done
    curl -sf "$1/api/v1/health" >/dev/null || {
        echo "serve_smoke: $1/api/v1/health never came up" >&2
        exit 1
    }
}
await_health "$BASE" "$SERVE_PID" "$WORK/serve.log"
await_health "$RM3" "$RM3_PID" "$WORK/serve-rm3.log"

fail() {
    echo "serve_smoke: $1" >&2
    echo "--- response ---" >&2
    echo "$2" >&2
    exit 1
}

# --- keep-alive: a client's requests share one connection ------------------
# curl reuses its connection for the second URL when the first answer
# leaves it open; asking to close costs one connection per request.
CONNECTS=$(curl -s -o /dev/null -o /dev/null -w '%{num_connects} ' \
    "$BASE/api/v1/health" "$BASE/api/v1/health")
[ "$CONNECTS" = "1 0 " ] ||
    fail "two requests opened connections '$CONNECTS', expected '1 0 '" ""
CONNECTS=$(curl -s -H 'Connection: close' -o /dev/null -o /dev/null -w '%{num_connects} ' \
    "$BASE/api/v1/health" "$BASE/api/v1/health")
[ "$CONNECTS" = "1 1 " ] ||
    fail "two Connection: close requests opened connections '$CONNECTS', expected '1 1 '" ""
echo "serve_smoke: keep-alive reuses one connection; Connection: close opens one per request"

# The value of a one-sample metric family on /metrics.
metric() {
    curl -sf "$BASE/metrics" | sed -n "s/^$1 \([0-9.]*\)\$/\1/p"
}

# --- Doc2Vec trains on first use, not at boot ------------------------------
TRAINED=$(metric credence_doc2vec_trainings_total)
[ "$TRAINED" = 0 ] ||
    fail "expected credence_doc2vec_trainings_total 0 after boot, got '$TRAINED'" "$(curl -sf "$BASE/metrics")"

# --- /api/v1/rank ----------------------------------------------------------
RANK=$(curl -sf "$BASE/api/v1/rank" -d '{"query": "covid outbreak", "k": 5}')
echo "$RANK" | grep -q '"ranking"' || fail "/api/v1/rank missing ranking" "$RANK"
echo "$RANK" | grep -q '"long-doc"' || fail "/api/v1/rank missing long-doc" "$RANK"
echo "serve_smoke: /api/v1/rank ok"

# The first doc2vec-nearest trains the model; a second one, for another
# document (so the explanation cache cannot answer it), reuses it.
DOCS=($(echo "$RANK" | grep -o '"doc":[0-9]*' | cut -d: -f2 | head -n 2))
[ "${#DOCS[@]}" -eq 2 ] || fail "/api/v1/rank returned fewer than two docs" "$RANK"
for i in 1 2; do
    D2V=$(curl -sf "$BASE/api/v1/explain/doc2vec-nearest" \
        -d "{\"query\": \"covid outbreak\", \"k\": 5, \"doc\": ${DOCS[$((i - 1))]}, \"n\": 2}")
    echo "$D2V" | grep -q '"explanations"' || fail "doc2vec-nearest missing explanations" "$D2V"
    TRAINED=$(metric credence_doc2vec_trainings_total)
    [ "$TRAINED" = 1 ] ||
        fail "expected credence_doc2vec_trainings_total 1 after doc2vec-nearest $i, got '$TRAINED'" "$D2V"
done
echo "serve_smoke: doc2vec trained once, on first use ($(metric credence_doc2vec_train_seconds_total) s)"

# --- deadline-capped search ------------------------------------------------
# Under RM3 the search over the 48-sentence doc scores every candidate's
# text and runs for seconds uncapped; the deadline must cut it off and hand
# back a well-formed partial result within 2x the requested budget (workers
# check the clock between candidates, so the overshoot is one evaluation
# per thread).
REQ=$(printf '{"query": "covid outbreak", "k": 13, "doc": 0, "n": 999, "max_size": 3, "max_candidates": 48, "deadline_ms": %s}' "$DEADLINE_MS")
START_NS=$(date +%s%N)
PARTIAL=$(curl -sf "$RM3/api/v1/explain/sentence-removal" -d "$REQ")
ELAPSED_MS=$((($(date +%s%N) - START_NS) / 1000000))

echo "$PARTIAL" | grep -q '"status":"deadline"' ||
    fail "expected status \"deadline\"" "$PARTIAL"
EVALS=$(echo "$PARTIAL" | sed -n 's/.*"candidates_evaluated":\([0-9]*\).*/\1/p')
[ -n "$EVALS" ] && [ "$EVALS" -gt 0 ] ||
    fail "expected a nonzero candidates_evaluated" "$PARTIAL"
[ "$ELAPSED_MS" -le $((DEADLINE_MS * 2)) ] ||
    fail "deadline-capped request took ${ELAPSED_MS}ms (> 2x ${DEADLINE_MS}ms budget)" "$PARTIAL"
echo "serve_smoke: deadline budget tripped after $EVALS evals in ${ELAPSED_MS}ms (budget ${DEADLINE_MS}ms)"

# --- async jobs: submit -> poll -> complete --------------------------------
SUBMIT=$(curl -sf "$BASE/api/v1/jobs" \
    -d '{"endpoint": "sentence-removal", "request": {"query": "covid outbreak", "k": 3, "doc": 1, "n": 1}}')
echo "$SUBMIT" | grep -q '"status":"queued"' || fail "job submit not queued" "$SUBMIT"
JOB_ID=$(echo "$SUBMIT" | sed -n 's/.*"job_id":"\([^"]*\)".*/\1/p')
[ -n "$JOB_ID" ] || fail "job submit returned no job_id" "$SUBMIT"

POLL=""
for _ in $(seq 1 120); do
    POLL=$(curl -sf "$BASE/api/v1/jobs/$JOB_ID")
    echo "$POLL" | grep -q '"status":"complete"' && break
    sleep 0.25
done
echo "$POLL" | grep -q '"status":"complete"' || fail "job $JOB_ID never completed" "$POLL"
echo "$POLL" | grep -q '"result"' || fail "completed job carries no result" "$POLL"
echo "$POLL" | grep -q '"result_status":200' || fail "completed job result_status != 200" "$POLL"
echo "serve_smoke: job $JOB_ID completed with a stored result"

# --- feature attribution: sync, async job, cache-hit repeat ----------------
FA_REQ='{"query": "covid outbreak", "k": 5, "doc": 0, "samples": 64, "seed": 11, "top_m": 6}'
FA=$(curl -sf "$BASE/api/v1/explain/feature_attribution" -d "$FA_REQ")
echo "$FA" | grep -q '"attributions"' || fail "feature_attribution missing attributions" "$FA"
echo "$FA" | grep -q '"fidelity"' || fail "feature_attribution missing fidelity" "$FA"
echo "$FA" | grep -q '"status":"complete"' || fail "feature_attribution not complete" "$FA"

FA_SUBMIT=$(curl -sf "$BASE/api/v1/jobs" \
    -d "$(printf '{"endpoint": "feature_attribution", "request": %s}' "$FA_REQ")")
FA_JOB=$(echo "$FA_SUBMIT" | sed -n 's/.*"job_id":"\([^"]*\)".*/\1/p')
[ -n "$FA_JOB" ] || fail "feature_attribution job submit returned no job_id" "$FA_SUBMIT"
POLL=""
for _ in $(seq 1 120); do
    POLL=$(curl -sf "$BASE/api/v1/jobs/$FA_JOB")
    echo "$POLL" | grep -q '"status":"complete"' && break
    sleep 0.25
done
echo "$POLL" | grep -q '"status":"complete"' ||
    fail "feature_attribution job $FA_JOB never completed" "$POLL"
echo "$POLL" | grep -qF "$(echo "$FA" | sed 's/^{//; s/}$//')" ||
    fail "feature_attribution job result differs from the synchronous payload" "$POLL"

# The repeat is answered from the explanation cache with identical bytes.
FA2=$(curl -sf "$BASE/api/v1/explain/feature_attribution" -d "$FA_REQ")
[ "$FA" = "$FA2" ] || fail "cached feature_attribution repeat is not byte-identical" "$FA2"
echo "serve_smoke: feature_attribution sync + job + cached repeat ok"

# --- async jobs: cancel a running search -----------------------------------
# The same slow RM3 search, submitted as a job (the deadline is a safety net).
SLOW_REQ=$(printf '{"endpoint": "sentence-removal", "request": %s}' \
    "$(printf '{"query": "covid outbreak", "k": 13, "doc": 0, "n": 999, "max_size": 3, "max_candidates": 48, "deadline_ms": 30000}')")
SUBMIT=$(curl -sf "$RM3/api/v1/jobs" -d "$SLOW_REQ")
SLOW_ID=$(echo "$SUBMIT" | sed -n 's/.*"job_id":"\([^"]*\)".*/\1/p')
[ -n "$SLOW_ID" ] || fail "slow job submit returned no job_id" "$SUBMIT"

# Wait for a worker to claim it, then cancel mid-search.
for _ in $(seq 1 120); do
    POLL=$(curl -sf "$RM3/api/v1/jobs/$SLOW_ID")
    echo "$POLL" | grep -q '"status":"queued"' || break
    sleep 0.25
done
CANCEL=$(curl -sf -X DELETE "$RM3/api/v1/jobs/$SLOW_ID")
for _ in $(seq 1 120); do
    POLL=$(curl -sf "$RM3/api/v1/jobs/$SLOW_ID")
    echo "$POLL" | grep -q '"status":"cancelled"' && break
    sleep 0.25
done
echo "$POLL" | grep -q '"status":"cancelled"' ||
    fail "slow job $SLOW_ID never observed the cancel (cancel response: $CANCEL)" "$POLL"
echo "serve_smoke: job $SLOW_ID cancelled mid-search"

# --- one REST surface: bare API paths are gone -----------------------------
HEADERS="$WORK/bare.headers"
BARE=$(curl -s -D "$HEADERS" "$BASE/rank" -d '{"query": "covid outbreak", "k": 5}')
head -n 1 "$HEADERS" | grep -q ' 404' || fail "bare POST /rank did not answer 404" "$(cat "$HEADERS")$BARE"
echo "$BARE" | grep -q '"code":"not_found"' || fail "bare POST /rank is not a not_found envelope" "$BARE"
! grep -qi '^deprecation:' "$HEADERS" || fail "bare POST /rank carries a deprecation header" "$(cat "$HEADERS")"
INDEX=$(curl -sf "$BASE/api/v1")
! echo "$INDEX" | grep -q '"deprecated"' || fail "GET /api/v1 still lists deprecated rows" "$INDEX"
echo "serve_smoke: bare POST /rank answers 404 not_found; /api/v1 lists no deprecated rows"

# --- /metrics --------------------------------------------------------------
METRICS=$(curl -sf "$BASE/metrics")
echo "$METRICS" | grep -q '^# TYPE credence_requests_total counter' ||
    fail "/metrics missing credence_requests_total TYPE line" "$METRICS"
echo "$METRICS" | grep -q 'credence_requests_total{endpoint="rank",status="200"}' ||
    fail "/metrics missing rank request counter" "$METRICS"
# The deadline tripped on the RM3 server.
RM3_METRICS=$(curl -sf "$RM3/metrics")
HITS=$(echo "$RM3_METRICS" | sed -n 's/^credence_deadline_hits_total \([0-9]*\)$/\1/p')
[ -n "$HITS" ] && [ "$HITS" -ge 1 ] ||
    fail "expected credence_deadline_hits_total >= 1" "$RM3_METRICS"
for SERIES in \
    'credence_jobs_queue_depth' \
    'credence_jobs_total{state="queued"}' \
    'credence_jobs_total{state="running"}' \
    'credence_jobs_total{state="complete"}' \
    'credence_jobs_total{state="cancelled"}' \
    'credence_jobs_rejected_total' \
    'credence_jobs_queue_wait_seconds_count' \
    'credence_jobs_execution_seconds_count'; do
    echo "$METRICS" | grep -qF "$SERIES" ||
        fail "/metrics missing $SERIES" "$METRICS"
done
COMPLETED=$(echo "$METRICS" | sed -n 's/^credence_jobs_total{state="complete"} \([0-9]*\)$/\1/p')
[ -n "$COMPLETED" ] && [ "$COMPLETED" -ge 1 ] ||
    fail "expected credence_jobs_total{state=\"complete\"} >= 1" "$METRICS"
for SERIES in \
    'credence_explain_lime_fits_total' \
    'credence_explain_lime_samples_total' \
    'credence_explain_lime_attributions_total' \
    'credence_explain_lime_partials_total' \
    'credence_explain_lime_fidelity_avg'; do
    echo "$METRICS" | grep -qF "$SERIES" ||
        fail "/metrics missing $SERIES" "$METRICS"
done
FITS=$(echo "$METRICS" | sed -n 's/^credence_explain_lime_fits_total \([0-9]*\)$/\1/p')
[ -n "$FITS" ] && [ "$FITS" -ge 1 ] ||
    fail "expected credence_explain_lime_fits_total >= 1" "$METRICS"
echo "serve_smoke: /metrics ok (deadline hits: $HITS, jobs completed: $COMPLETED, lime fits: $FITS)"

echo "serve_smoke: all green"
