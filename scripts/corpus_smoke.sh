#!/usr/bin/env bash
# End-to-end smoke test for the multi-tenant corpus registry: boots the
# release binary, registers a second corpus over REST, mutates it live,
# and proves the generation-snapshot guarantees on the wire:
#
#   * PUT /api/v1/corpora/{name} registers a corpus at generation 0,
#   * document mutations with {"refresh": true} bump the generation,
#   * a queued job pinned at generation G completes against G even after
#     the document it explains is deleted from the live corpus,
#   * an unpinned retired generation answers 410 generation_gone,
#   * /metrics exports the credence_corpus_* families per corpus,
#   * a replacing PUT is not answered from the replaced corpus's cached
#     explanations, and its credence_corpus_merges_total does not fall.
#
# Usage: ./scripts/corpus_smoke.sh   (expects target/release/credence-serve)

set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/credence-serve
ADDR=127.0.0.1:18643
BASE="http://$ADDR"
WORK=target/corpus-smoke

[ -x "$BIN" ] || {
    echo "corpus_smoke: $BIN missing; run cargo build --release first" >&2
    exit 1
}

mkdir -p "$WORK"

# A single job worker so a slow job keeps the queue ordered: the job under
# test stays queued (snapshot pinned) while we mutate the live corpus. RM3
# is not term-decomposable, so the explainers score every candidate's text
# exactly, which is what keeps the worker-occupying search slow.
"$BIN" --addr "$ADDR" --job-workers 1 --ranker rm3 >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

for _ in $(seq 1 80); do
    curl -sf "$BASE/api/v1/health" >/dev/null 2>&1 && break
    kill -0 "$SERVE_PID" 2>/dev/null || {
        echo "corpus_smoke: server died during startup:" >&2
        cat "$WORK/serve.log" >&2
        exit 1
    }
    sleep 0.25
done
curl -sf "$BASE/api/v1/health" >/dev/null || {
    echo "corpus_smoke: /api/v1/health never came up" >&2
    exit 1
}

fail() {
    echo "corpus_smoke: $1" >&2
    echo "--- response ---" >&2
    echo "$2" >&2
    exit 1
}

# --- register a second corpus over REST ------------------------------------
# One 48-sentence document (slow to explain exactly) plus padding: seven
# documents, so a request with k = 7 keeps long-doc inside the ranking
# however RM3 orders it.
body=""
for i in $(seq 0 47); do
    if [ $((i % 4)) -eq 0 ]; then
        body+="The covid outbreak update number $i arrives today. "
    else
        body+="Filler sentence number $i talks about daily life. "
    fi
done
{
    printf '{"docs": ['
    printf '{"name":"long-doc","title":"Long covid doc","body":"%s"}' "$body"
    for i in $(seq 1 6); do
        printf ',{"name":"pad-%s","title":"Report %s","body":"covid outbreak report number %s with several extra words for normalisation."}' \
            "$i" "$i" "$i"
    done
    printf ']}'
} >"$WORK/newsroom.json"

PUT=$(curl -sf -X PUT "$BASE/api/v1/corpora/newsroom" \
    -d @"$WORK/newsroom.json")
echo "$PUT" | grep -q '"corpus":"newsroom"' || fail "PUT corpora missing corpus" "$PUT"
echo "$PUT" | grep -q '"generation":0' || fail "fresh corpus not at generation 0" "$PUT"
echo "corpus_smoke: registered corpus 'newsroom' at generation 0"

LIST=$(curl -sf "$BASE/api/v1/corpora")
echo "$LIST" | grep -q '"default"' || fail "corpora listing missing default" "$LIST"
echo "$LIST" | grep -q '"newsroom"' || fail "corpora listing missing newsroom" "$LIST"

# --- every 2xx names its corpus and generation -----------------------------
RANK=$(curl -sf "$BASE/api/v1/rank" \
    -d '{"query": "covid outbreak", "k": 7, "corpus": "newsroom"}')
echo "$RANK" | grep -q '"corpus":"newsroom"' || fail "rank missing corpus field" "$RANK"
echo "$RANK" | grep -q '"generation":0' || fail "rank missing generation 0" "$RANK"
echo "$RANK" | grep -q '"long-doc"' || fail "rank missing long-doc" "$RANK"
echo "corpus_smoke: rank answered from newsroom@0"

# --- occupy the single worker, then queue the job under test ----------------
SLOW_REQ='{"endpoint": "sentence-removal", "request": {"corpus": "newsroom", "query": "covid outbreak", "k": 7, "doc": 0, "n": 999, "max_size": 3, "max_candidates": 48, "deadline_ms": 8000}}'
SUBMIT=$(curl -sf "$BASE/api/v1/jobs" -d "$SLOW_REQ")
SLOW_ID=$(echo "$SUBMIT" | sed -n 's/.*"job_id":"\([^"]*\)".*/\1/p')
[ -n "$SLOW_ID" ] || fail "slow job submit returned no job_id" "$SUBMIT"
for _ in $(seq 1 120); do
    POLL=$(curl -sf "$BASE/api/v1/jobs/$SLOW_ID")
    echo "$POLL" | grep -q '"status":"queued"' || break
    sleep 0.1
done

TARGET_REQ='{"endpoint": "sentence-removal", "request": {"corpus": "newsroom", "query": "covid outbreak", "k": 7, "doc": 0, "n": 1, "max_size": 1, "max_candidates": 4}}'
SUBMIT=$(curl -sf "$BASE/api/v1/jobs" -d "$TARGET_REQ")
echo "$SUBMIT" | grep -q '"generation":0' || fail "queued job not pinned at generation 0" "$SUBMIT"
JOB_ID=$(echo "$SUBMIT" | sed -n 's/.*"job_id":"\([^"]*\)".*/\1/p')
[ -n "$JOB_ID" ] || fail "target job submit returned no job_id" "$SUBMIT"
echo "corpus_smoke: job $JOB_ID queued against newsroom@0"

# --- mutate the live corpus: delete the very doc the job explains -----------
DEL=$(curl -sf -X DELETE "$BASE/api/v1/corpora/newsroom/docs/long-doc" \
    -d '{"refresh": true}')
echo "$DEL" | grep -q '"status":"applied"' || fail "refresh delete not applied" "$DEL"
echo "$DEL" | grep -q '"generation":0' && fail "delete did not bump the generation" "$DEL"
echo "corpus_smoke: deleted long-doc; newsroom generation bumped"

RANK=$(curl -sf "$BASE/api/v1/rank" \
    -d '{"query": "covid outbreak", "k": 7, "corpus": "newsroom"}')
echo "$RANK" | grep -q '"long-doc"' && fail "live rank still sees the deleted doc" "$RANK"
echo "$RANK" | grep -q '"generation":0' && fail "live rank still at generation 0" "$RANK"
echo "corpus_smoke: live rank answers from the mutated generation"

# --- the pinned job still completes against generation 0 --------------------
POLL=""
for _ in $(seq 1 240); do
    POLL=$(curl -sf "$BASE/api/v1/jobs/$JOB_ID")
    echo "$POLL" | grep -q '"status":"complete"' && break
    echo "$POLL" | grep -Eq '"status":"(queued|running)"' ||
        fail "pinned job ended in an unexpected state" "$POLL"
    sleep 0.25
done
echo "$POLL" | grep -q '"status":"complete"' || fail "pinned job never completed" "$POLL"
echo "$POLL" | grep -q '"generation":0' || fail "pinned job lost its generation" "$POLL"
echo "$POLL" | grep -q '"result"' || fail "pinned job carries no result" "$POLL"
echo "corpus_smoke: job $JOB_ID completed against pinned newsroom@0 after the delete"

# --- once nothing pins generation 0, it is gone -----------------------------
for _ in $(seq 1 240); do
    POLL=$(curl -sf "$BASE/api/v1/jobs/$SLOW_ID")
    echo "$POLL" | grep -Eq '"status":"(queued|running)"' || break
    sleep 0.25
done
GONE=$(curl -s "$BASE/api/v1/rank" \
    -d '{"query": "covid outbreak", "k": 5, "corpus": "newsroom", "generation": 0}')
echo "$GONE" | grep -q '"generation_gone"' ||
    fail "expected generation_gone for retired unpinned generation" "$GONE"
echo "corpus_smoke: retired generation 0 answers 410 generation_gone"

# --- /metrics: per-corpus families ------------------------------------------
METRICS=$(curl -sf "$BASE/metrics")
for SERIES in \
    'credence_corpus_count 2' \
    'credence_corpus_generation{corpus="newsroom"}' \
    'credence_corpus_docs{corpus="newsroom"}' \
    'credence_corpus_pending_ops{corpus="newsroom"}' \
    'credence_corpus_merges_total{corpus="newsroom"}' \
    'credence_corpus_failed{corpus="newsroom"} 0' \
    'credence_corpus_generation{corpus="default"}'; do
    echo "$METRICS" | grep -qF "$SERIES" ||
        fail "/metrics missing $SERIES" "$METRICS"
done
echo "corpus_smoke: /metrics exports the credence_corpus_* families"

# --- removal ----------------------------------------------------------------
DEL=$(curl -sf -X DELETE "$BASE/api/v1/corpora/newsroom")
echo "$DEL" | grep -q '"status":"removed"' || fail "corpus removal failed" "$DEL"
GONE=$(curl -s "$BASE/api/v1/rank" \
    -d '{"query": "covid outbreak", "k": 5, "corpus": "newsroom"}')
echo "$GONE" | grep -q '"corpus_not_found"' ||
    fail "removed corpus still answers" "$GONE"
echo "corpus_smoke: corpus 'newsroom' removed cleanly"

# --- hot-swap: no stale cached explanations, no falling merge counter ------
# The replacement restarts at generation 0, the generation the first
# explanation below was cached under.
merges_of() {
    curl -sf "$BASE/metrics" | sed -n "s/^credence_corpus_merges_total{corpus=\"$1\"} //p"
}
SWAP_A='{"docs": [
    {"name": "a", "body": "The covid outbreak spreads fast. Officials track the covid outbreak daily."},
    {"name": "b", "body": "A covid report arrives. Gardens bloom in spring."},
    {"name": "c", "body": "Harbor drills continue through the weekend."}]}'
SWAP_B='{"docs": [
    {"name": "p", "body": "Gardens bloom in spring. The covid outbreak is mentioned once."},
    {"name": "q", "body": "covid outbreak covid outbreak covid outbreak dominates everything."},
    {"name": "r", "body": "Harbor drills continue through the weekend."}]}'
EXPLAIN='{"corpus": "swap", "query": "covid outbreak", "k": 2, "doc": 0, "n": 1}'
BYPASS='{"corpus": "swap", "query": "covid outbreak", "k": 2, "doc": 0, "n": 1, "explain_cache_bypass": true}'
PUT=$(curl -sf -X PUT "$BASE/api/v1/corpora/swap" -d "$SWAP_A")
echo "$PUT" | grep -q '"generation":0' || fail "corpus 'swap' not at generation 0" "$PUT"
OLD=$(curl -sf "$BASE/api/v1/explain/sentence-removal" -d "$EXPLAIN")
echo "$OLD" | grep -q '"generation":0' || fail "first explain not at swap@0" "$OLD"
ADD=$(curl -sf -X POST "$BASE/api/v1/corpora/swap/docs" \
    -d '{"name": "d", "body": "One more covid note.", "refresh": true}')
echo "$ADD" | grep -q '"status":"applied"' || fail "refresh insert not applied" "$ADD"
MERGES_BEFORE=$(merges_of swap)
[ "${MERGES_BEFORE:-0}" -ge 1 ] ||
    fail "credence_corpus_merges_total{corpus=\"swap\"} missed the merge" "${MERGES_BEFORE:-absent}"
REPUT=$(curl -sf -X PUT "$BASE/api/v1/corpora/swap" -d "$SWAP_B")
echo "$REPUT" | grep -q '"replaced":true' || fail "second PUT did not replace 'swap'" "$REPUT"
CACHED=$(curl -sf "$BASE/api/v1/explain/sentence-removal" -d "$EXPLAIN")
FRESH=$(curl -sf "$BASE/api/v1/explain/sentence-removal" -d "$BYPASS")
[ "$FRESH" != "$OLD" ] || fail "the two corpora should explain doc 0 differently" "$OLD"
[ "$CACHED" = "$FRESH" ] ||
    fail "the replaced corpus answered from the old corpus's cache" "cached: $CACHED
bypass: $FRESH"
echo "corpus_smoke: replaced corpus answers what its cache-bypass twin answers"
MERGES_AFTER=$(merges_of swap)
[ -n "$MERGES_AFTER" ] && [ "$MERGES_AFTER" -ge "$MERGES_BEFORE" ] ||
    fail "credence_corpus_merges_total{corpus=\"swap\"} fell from $MERGES_BEFORE" "${MERGES_AFTER:-absent}"
echo "corpus_smoke: credence_corpus_merges_total{corpus=\"swap\"} kept $MERGES_AFTER across the replacing PUT"
DEL=$(curl -sf -X DELETE "$BASE/api/v1/corpora/swap")
echo "$DEL" | grep -q '"status":"removed"' || fail "corpus 'swap' removal failed" "$DEL"

echo "corpus_smoke: all green"
