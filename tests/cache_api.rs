//! End-to-end and property tests for the cross-request explanation cache:
//! single-flight coalescing over real TCP sockets, deadline-bounded
//! waiting, and byte-parity of cached responses against an uncached
//! server across explainers, retrieval strategies, and generation
//! publishes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use credence_core::EngineConfig;
use credence_index::{DeltaOp, Document};
use credence_json::parse;
use credence_repro::prop::gens;
use credence_repro::wire::raw_request;
use credence_repro::{prop, prop_assert, prop_assert_eq};
use credence_server::http::Request;
use credence_server::{
    handle_request, AppState, ExplainCacheConfig, JobsConfig, RankerChoice, Server,
};

fn demo_docs() -> Vec<Document> {
    vec![
        Document::new(
            "n1",
            "Outbreak news",
            "covid outbreak covid outbreak dominates the news cycle this week entirely",
        ),
        Document::new(
            "n2",
            "Quiet arrival",
            "The covid outbreak arrived quietly. Officials downplayed the covid outbreak \
             for weeks before acting decisively.",
        ),
        Document::new(
            "n3",
            "Conspiracy corner",
            "The covid outbreak is a cover story. A secret microchip hides in every \
             vaccine dose. The microchip tracks your movements constantly.",
        ),
        Document::new(
            "n4",
            "Copycat",
            "A secret microchip hides in every vaccine dose. The microchip tracks your \
             movements constantly and secretly.",
        ),
        Document::new(
            "n5",
            "Harbor drills",
            "Outbreak drills continue at the harbor facility through the weekend shift.",
        ),
        Document::new(
            "n6",
            "Gardens",
            "The garden show opens to record spring crowds.",
        ),
    ]
}

/// One long query-relevant document: under RM3, which scores every
/// candidate's text exactly, a sentence-removal search over it runs for
/// hundreds of milliseconds, long enough for concurrent requests to pile
/// onto one flight.
fn slow_docs() -> Vec<Document> {
    let mut body = String::new();
    for i in 0..40 {
        if i % 4 == 0 {
            body.push_str(&format!(
                "The covid outbreak update number n{i} arrives today. "
            ));
        } else {
            body.push_str(&format!(
                "Filler sentence number n{i} talks about daily life. "
            ));
        }
    }
    let mut docs = vec![Document::new("long", "Long covid doc", &body)];
    for i in 0..4 {
        docs.push(Document::new(
            format!("pad-{i}"),
            "Report",
            "covid outbreak report with several extra words for normalisation",
        ));
    }
    docs
}

/// A sentence-removal body whose search over [`slow_docs`] under RM3 is
/// slow but bounded: `k` covers the corpus, so no removal pushes the
/// document past it and the enumeration runs to its end.
fn slow_body(extra: &str) -> String {
    format!(
        r#"{{"query": "covid outbreak", "k": 5, "doc": 0, "n": 999,
            "max_size": 2, "max_candidates": 40{extra}}}"#
    )
}

/// Read one metric value out of a `/metrics` scrape.
fn metric(text: &str, family: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(family) && l.as_bytes().get(family.len()) == Some(&b' '))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {family} in scrape"))
}

/// A replacing `PUT`, or a `DELETE` then `PUT`, restarts the corpus at
/// generation 0. The new corpus's explanations must not be answered from
/// the cache entries of the corpus it replaced.
#[test]
fn a_replaced_or_re_added_corpus_is_not_answered_from_the_old_cache() {
    let first = r#"{"docs": [
        {"name": "a", "body": "The covid outbreak spreads fast. Officials track the covid outbreak daily."},
        {"name": "b", "body": "A covid report arrives. Gardens bloom in spring."},
        {"name": "c", "body": "Harbor drills continue through the weekend."}]}"#;
    let second = r#"{"docs": [
        {"name": "p", "body": "Gardens bloom in spring. The covid outbreak is mentioned once."},
        {"name": "q", "body": "covid outbreak covid outbreak covid outbreak dominates everything."},
        {"name": "r", "body": "Harbor drills continue through the weekend."}]}"#;
    let explain = r#"{"corpus": "x", "query": "covid outbreak", "k": 2, "doc": 0, "n": 1}"#;
    let bypass = r#"{"corpus": "x", "query": "covid outbreak", "k": 2, "doc": 0, "n": 1,
                     "explain_cache_bypass": true}"#;
    for delete_first in [false, true] {
        let state = AppState::leak(demo_docs(), EngineConfig::fast());
        let call = |method: &str, path: &str, body: &str| {
            let resp = handle_request(
                state,
                &Request {
                    method: method.into(),
                    path: path.into(),
                    headers: Default::default(),
                    body: body.as_bytes().to_vec(),
                },
            );
            (resp.status, String::from_utf8(resp.body).unwrap())
        };
        let path = "/api/v1/explain/sentence-removal";
        assert_eq!(call("PUT", "/api/v1/corpora/x", first).0, 201);
        let old = call("POST", path, explain);
        assert_eq!(old.0, 200, "{}", old.1);
        if delete_first {
            assert_eq!(call("DELETE", "/api/v1/corpora/x", "").0, 200);
        }
        assert_eq!(
            call("PUT", "/api/v1/corpora/x", second).0,
            if delete_first { 201 } else { 200 }
        );
        let again = call("POST", path, explain);
        let fresh = call("POST", path, bypass);
        assert_eq!(fresh.0, 200, "{}", fresh.1);
        assert_ne!(fresh.1, old.1, "the two corpora explain doc 0 differently");
        assert_eq!(again, fresh, "delete first: {delete_first}");
    }
}

#[test]
fn concurrent_identical_explains_run_one_search() {
    let state = AppState::leak_full(
        slow_docs(),
        EngineConfig::fast(),
        RankerChoice::Rm3,
        JobsConfig::default(),
        ExplainCacheConfig::default(),
    );
    let handle = Server::bind("127.0.0.1:0", state).unwrap().spawn().unwrap();
    let addr = handle.addr();

    const N: usize = 6;
    let gate = std::sync::Arc::new(std::sync::Barrier::new(N));
    let threads: Vec<_> = (0..N)
        .map(|_| {
            let gate = std::sync::Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                let (status, _, body) = raw_request(
                    addr,
                    "POST",
                    "/api/v1/explain/sentence-removal",
                    Some(&slow_body("")),
                );
                (status, body)
            })
        })
        .collect();
    let results: Vec<(u16, String)> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for (status, body) in &results {
        assert_eq!(*status, 200);
        assert_eq!(
            body, &results[0].1,
            "all coalesced responses are byte-identical"
        );
    }

    let (_, _, scrape) = raw_request(addr, "GET", "/metrics", None);
    let misses = metric(&scrape, "credence_explain_cache_misses_total");
    let coalesced = metric(&scrape, "credence_explain_cache_coalesced_total");
    let hits = metric(&scrape, "credence_explain_cache_hits_total");
    assert_eq!(misses, 1, "exactly one underlying search ran");
    assert_eq!(
        coalesced + hits,
        N as u64 - 1,
        "every other request was coalesced onto the flight or hit the cache"
    );
    handle.stop();
}

#[test]
fn coalesced_waiter_honors_its_short_deadline() {
    let state = AppState::leak_full(
        slow_docs(),
        EngineConfig::fast(),
        RankerChoice::Rm3,
        JobsConfig::default(),
        ExplainCacheConfig::default(),
    );
    let handle = Server::bind("127.0.0.1:0", state).unwrap().spawn().unwrap();
    let addr = handle.addr();

    // Leader: no deadline, computes the slow search.
    let leader = std::thread::spawn(move || {
        raw_request(
            addr,
            "POST",
            "/api/v1/explain/sentence-removal",
            Some(&slow_body("")),
        )
    });
    // Give the leader a head start so the waiter joins its flight. The
    // waiter's body differs only in deadline_ms, which is excluded from
    // the cache key, so both share one canonical key.
    std::thread::sleep(Duration::from_millis(60));
    let started = Instant::now();
    let (status, _, body) = raw_request(
        addr,
        "POST",
        "/api/v1/explain/sentence-removal",
        Some(&slow_body(r#", "deadline_ms": 40"#)),
    );
    let elapsed = started.elapsed();
    assert_eq!(status, 200, "a tripped budget is not an error: {body}");
    let v = parse(&body).unwrap();
    let status_field = v.get("status").unwrap().as_str().unwrap();
    // Either the leader finished within the waiter's budget (shared
    // payload) or the waiter gave up at its deadline with the canonical
    // partial. It must never block far past its 40ms budget.
    if status_field == "deadline" {
        assert_eq!(v.get("candidates_evaluated").unwrap().as_u64(), Some(0));
    } else {
        assert!(matches!(status_field, "complete" | "exhausted"));
    }
    assert!(
        elapsed < Duration::from_secs(5),
        "waiter blocked {elapsed:?} — far past its 40ms budget"
    );

    let (leader_status, _, _) = leader.join().unwrap();
    assert_eq!(leader_status, 200);
    handle.stop();
}

// ---------------------------------------------------------------------------
// Byte-parity property: cached server vs uncached server.
// ---------------------------------------------------------------------------

struct StatePair {
    cached: &'static AppState,
    uncached: &'static AppState,
}

/// One cached + one cache-disabled server, built once. Cache state
/// deliberately persists across property cases: parity must hold whatever
/// mixture of hits, misses, and coalesced flights a request sequence
/// produces.
fn states() -> &'static StatePair {
    static STATES: OnceLock<StatePair> = OnceLock::new();
    STATES.get_or_init(|| {
        let build = |entries: usize| {
            AppState::leak_full(
                demo_docs(),
                EngineConfig::fast(),
                RankerChoice::Bm25,
                JobsConfig::default(),
                ExplainCacheConfig { entries },
            )
        };
        StatePair {
            cached: build(512),
            uncached: build(0),
        }
    })
}

const ENDPOINTS: [&str; 4] = [
    "/api/v1/explain/sentence-removal",
    "/api/v1/explain/query-augmentation",
    "/api/v1/explain/query-reduction",
    "/api/v1/explain/term-removal",
];
const QUERIES: [&str; 3] = ["covid outbreak", "microchip", "covid"];

/// Decode one generated code point into a request. The space is small
/// (432 distinct requests) so sequences carry duplicates by construction,
/// and duplicates also recur across cases against the same warm cache.
fn decode(code: u32) -> (String, String) {
    let mut c = code as usize;
    let endpoint = ENDPOINTS[c % 4];
    c /= 4;
    let query = QUERIES[c % 3];
    c /= 3;
    let k = 1 + (c % 3);
    c /= 3;
    let doc = c % 6;
    c /= 6;
    let n = 1 + (c % 2);
    let threshold = if endpoint.ends_with("query-augmentation") {
        r#", "threshold": 1"#
    } else {
        ""
    };
    (
        endpoint.to_string(),
        format!(r#"{{"query": "{query}", "k": {k}, "doc": {doc}, "n": {n}{threshold}}}"#),
    )
}

fn post_on(state: &'static AppState, path: &str, body: &str) -> (u16, Vec<u8>) {
    let req = Request {
        method: "POST".into(),
        path: path.into(),
        headers: Default::default(),
        body: body.as_bytes().to_vec(),
    };
    let resp = handle_request(state, &req);
    (resp.status, resp.body)
}

/// Publish a new generation on both servers of a pair by upserting a
/// uniquely-named filler document, so their corpora stay identical and
/// every prior cache key for the live generation goes stale.
fn publish_on(pair: &StatePair) {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    for state in [pair.cached, pair.uncached] {
        let corpus = state.registry().get("default").unwrap();
        let seq = corpus
            .stage(DeltaOp::Upsert(Document::new(
                format!("extra-{id}"),
                "Filler",
                "spring regatta filler text with no outbreak terms",
            )))
            .unwrap();
        assert!(corpus.wait_for_seq(seq, Duration::from_secs(10)));
    }
}

// For random duplicate-bearing request sequences across all four
// explainers, the cached server's
// response body is byte-identical to the cache-disabled server's —
// including straddling a generation publish, which must invalidate
// by keying rather than by serving stale bytes.
prop! {
    config(cases = 16);
    fn cached_responses_match_uncached_server_byte_for_byte(
        codes in gens::vec_of(gens::u32_range(0..432), 2..8),
        publish_at in gens::u32_range(0..8),
    ) {
        let pair = states();
        for (i, &code) in codes.iter().enumerate() {
            if i as u32 == *publish_at {
                publish_on(pair);
            }
            let (path, body) = decode(code);
            let (cached_status, cached_body) = post_on(pair.cached, &path, &body);
            let (fresh_status, fresh_body) = post_on(pair.uncached, &path, &body);
            prop_assert_eq!(cached_status, fresh_status);
            prop_assert!(
                cached_body == fresh_body,
                "byte mismatch for {} {}: cached={:?} fresh={:?}",
                path,
                body,
                String::from_utf8_lossy(&cached_body),
                String::from_utf8_lossy(&fresh_body)
            );
        }
    }
}
