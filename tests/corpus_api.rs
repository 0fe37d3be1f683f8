//! Snapshot-isolation acceptance tests for the multi-tenant corpus
//! registry.
//!
//! The contract under test: a snapshot pinned at generation G answers
//! **bit-identically** to a frozen engine built from G's contents — same
//! `(doc, score.to_bits())` rankings, and byte-identical payloads from the
//! four counterfactual explainers and the two readers of the Doc2Vec space
//! (which the pinned generation trains on first use) — while concurrent
//! mutations advance the live corpus to G+k. Plus the async leg: a job
//! admitted before a mutation executes against its pinned generation even
//! though the live corpus has moved on. And the lazy model: nothing trains
//! Doc2Vec until a request reads it, and then exactly once per generation.

use std::time::{Duration, Instant};

use credence_core::EngineConfig;
use credence_index::{DeltaOp, Document};
use credence_json::{parse, Value};
use credence_repro::wire::raw_request;
use credence_server::http::Request;
use credence_server::service::handle_request;
use credence_server::{AppState, ExplainCacheConfig, JobsConfig, RankerChoice, Server};

/// A corpus rich enough that every explainer and strategy has work to do.
fn parity_docs() -> Vec<Document> {
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
        Document::new(
            "n7",
            "Vaccines ship",
            "Vaccine doses ship to every region as the outbreak response accelerates.",
        ),
        Document::new(
            "n8",
            "Masks",
            "Masks are required indoors while the covid outbreak strains hospitals.",
        ),
    ]
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

/// Pinned generation 0 must answer byte-identically to a frozen engine
/// built from the same contents — its rankings, four counterfactual
/// explainers and both Doc2Vec readers — while a concurrent mutator drives
/// the live corpus generations ahead.
#[test]
fn pinned_generation_matches_frozen_engine_under_concurrent_mutation() {
    let live = AppState::leak(parity_docs(), EngineConfig::fast());
    let frozen = AppState::leak(parity_docs(), EngineConfig::fast());
    // Pin generation 0 for the whole test, the way an in-flight client
    // would: the registry keeps it readable while anything holds it.
    let pin = live
        .registry()
        .snapshot("default", Some(0))
        .expect("generation 0 is live");

    // The concurrent mutator: upserts and deletes folding into new
    // generations while the comparisons below are in flight.
    let corpus = live.registry().get("default").unwrap();
    let mutator = {
        let corpus = std::sync::Arc::clone(&corpus);
        std::thread::spawn(move || {
            let mut last = 0;
            for i in 0..6 {
                last = corpus
                    .stage(DeltaOp::Upsert(Document::new(
                        format!("mut-{i}"),
                        "Mutation",
                        format!("freshly staged outbreak document number {i}"),
                    )))
                    .unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            last = last.max(corpus.stage(DeltaOp::Delete("n6".to_string())).unwrap());
            assert!(
                corpus.wait_for_seq(last, Duration::from_secs(30)),
                "mutations never folded"
            );
        })
    };

    let explainers = [
        (
            "/api/v1/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 2, "doc": 1, "n": 2, "generation": 0}"#,
        ),
        (
            "/api/v1/explain/query-augmentation",
            r#"{"query": "covid outbreak", "k": 3, "doc": 4, "n": 2, "generation": 0}"#,
        ),
        (
            "/api/v1/explain/query-reduction",
            r#"{"query": "covid outbreak hospitals masks", "k": 3, "doc": 7, "generation": 0}"#,
        ),
        (
            "/api/v1/explain/term-removal",
            r#"{"query": "covid outbreak", "k": 2, "doc": 1, "n": 2, "generation": 0}"#,
        ),
        // The two readers of the Doc2Vec space, which the pinned
        // generation trains on first use while the mutator publishes.
        (
            "/api/v1/explain/doc2vec-nearest",
            r#"{"query": "covid outbreak", "k": 2, "doc": 1, "n": 3, "generation": 0}"#,
        ),
        (
            "/api/v1/explain/nearest-to-text",
            r#"{"text": "secret microchip in every vaccine dose", "n": 3, "generation": 0}"#,
        ),
    ];

    // Several passes so at least some run after generations have advanced.
    for round in 0..3 {
        let body = r#"{"query": "covid outbreak", "k": 6, "generation": 0}"#;
        let (live_status, live_bytes) = post_on(live, "/api/v1/rank", body);
        let (frozen_status, frozen_bytes) = post_on(frozen, "/api/v1/rank", body);
        assert_eq!(live_status, 200, "round {round}");
        assert_eq!(frozen_status, 200);
        assert_eq!(
            live_bytes, frozen_bytes,
            "round {round}: pinned ranking must be byte-identical to frozen"
        );
        // Spot-check the (doc, to_bits) contract explicitly.
        let v = parse(std::str::from_utf8(&live_bytes).unwrap()).unwrap();
        let w = parse(std::str::from_utf8(&frozen_bytes).unwrap()).unwrap();
        let rows = |val: &Value| -> Vec<(u64, u64)> {
            val.get("ranking")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|r| {
                    (
                        r.get("doc").unwrap().as_u64().unwrap(),
                        r.get("score").unwrap().as_f64().unwrap().to_bits(),
                    )
                })
                .collect()
        };
        assert_eq!(rows(&v), rows(&w));
        for (path, body) in explainers {
            let (live_status, live_bytes) = post_on(live, path, body);
            let (frozen_status, frozen_bytes) = post_on(frozen, path, body);
            assert_eq!(live_status, 200, "round {round} {path}");
            assert_eq!(frozen_status, 200, "round {round} {path}");
            assert_eq!(
                live_bytes, frozen_bytes,
                "round {round}: pinned {path} payload must be byte-identical to frozen"
            );
        }
        std::thread::sleep(Duration::from_millis(4));
    }

    mutator.join().unwrap();
    assert!(
        corpus.generation() >= 1,
        "the mutator must have advanced the live generation"
    );

    // One final pass after every mutation folded: generation 0 stays
    // pinned and bit-stable even though the live corpus moved to G+k.
    let body = r#"{"query": "covid outbreak", "k": 6, "generation": 0}"#;
    let (_, live_bytes) = post_on(live, "/api/v1/rank", body);
    let (_, frozen_bytes) = post_on(frozen, "/api/v1/rank", body);
    assert_eq!(live_bytes, frozen_bytes);
    // And the live generation answers differently (the corpus changed).
    let (_, head_bytes) = post_on(
        live,
        "/api/v1/rank",
        r#"{"query": "covid outbreak", "k": 6}"#,
    );
    let head = parse(std::str::from_utf8(&head_bytes).unwrap()).unwrap();
    assert!(head.get("generation").unwrap().as_u64().unwrap() >= 1);
    drop(pin);
}

// --- async job pinning over real HTTP ------------------------------------

/// One long query-relevant document keeps the single worker busy.
fn job_docs() -> Vec<Document> {
    let mut body = String::new();
    for i in 0..48 {
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

/// [`raw_request`] with the body parsed as JSON.
fn json_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, Value) {
    let (status, _, body) = raw_request(addr, method, path, body);
    (status, parse(&body).expect("JSON body"))
}

/// A job admitted before a mutation executes against its pinned
/// generation: the document it explains is deleted from the live corpus
/// while the job is still queued, and the job completes anyway.
#[test]
fn queued_job_survives_mutation_of_its_document() {
    // RM3 scores every candidate's text exactly, so a wide search over
    // the long document keeps the worker busy; `k` covers the corpus, so
    // no removal pushes the document past it.
    let state = AppState::leak_full(
        job_docs(),
        EngineConfig::fast(),
        RankerChoice::Rm3,
        JobsConfig {
            workers: 1,
            queue_depth: 8,
            ..JobsConfig::default()
        },
        ExplainCacheConfig::default(),
    );
    let handle = Server::bind("127.0.0.1:0", state).unwrap().spawn().unwrap();
    let addr = handle.addr();

    // Occupy the single worker with a slow search.
    let (status, v) = json_request(
        addr,
        "POST",
        "/api/v1/jobs",
        Some(
            r#"{"endpoint": "sentence-removal",
                "request": {"query": "covid outbreak", "k": 5, "doc": 0, "n": 999,
                            "max_size": 3, "max_candidates": 48,
                            "deadline_ms": 2000}}"#,
        ),
    );
    assert_eq!(status, 202, "{v:?}");
    let slow_id = v.get("job_id").unwrap().as_str().unwrap().to_string();
    let t0 = Instant::now();
    loop {
        let (_, view) = json_request(addr, "GET", &format!("/api/v1/jobs/{slow_id}"), None);
        if view.get("status").unwrap().as_str() != Some("queued") {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "never claimed");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Admit the job under test: it explains doc 0 ("long") at generation 0.
    let (status, v) = json_request(
        addr,
        "POST",
        "/api/v1/jobs",
        Some(
            r#"{"endpoint": "sentence-removal",
                "request": {"query": "covid outbreak", "k": 5, "doc": 0, "n": 1,
                            "max_size": 1, "max_candidates": 4}}"#,
        ),
    );
    assert_eq!(status, 202, "{v:?}");
    assert_eq!(v.get("corpus").unwrap().as_str(), Some("default"));
    assert_eq!(v.get("generation").unwrap().as_u64(), Some(0));
    let job_id = v.get("job_id").unwrap().as_str().unwrap().to_string();

    // Delete that very document from the live corpus, waiting for the fold.
    let (status, v) = json_request(
        addr,
        "DELETE",
        "/api/v1/corpora/default/docs/long",
        Some(r#"{"refresh": true}"#),
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("status").unwrap().as_str(), Some("applied"));
    let mutated_gen = v.get("generation").unwrap().as_u64().unwrap();
    assert!(mutated_gen >= 1);

    // The job still completes, against generation 0, where the doc exists.
    let t0 = Instant::now();
    let result = loop {
        let (status, view) = json_request(addr, "GET", &format!("/api/v1/jobs/{job_id}"), None);
        assert_eq!(status, 200);
        match view.get("status").unwrap().as_str().unwrap() {
            "queued" | "running" => {
                assert!(t0.elapsed() < Duration::from_secs(30), "job never finished");
                std::thread::sleep(Duration::from_millis(5));
            }
            "complete" => break view,
            other => panic!("job ended {other}: {view:?}"),
        }
    };
    assert_eq!(result.get("corpus").unwrap().as_str(), Some("default"));
    assert_eq!(result.get("generation").unwrap().as_u64(), Some(0));
    let payload = result.get("result").unwrap();
    assert_eq!(
        payload.get("generation").unwrap().as_u64(),
        Some(0),
        "the stored payload must name the pinned generation"
    );
    assert!(payload.get("explanations").unwrap().as_array().is_some());

    // Live requests see the mutated corpus...
    let (status, v) = json_request(
        addr,
        "POST",
        "/api/v1/rank",
        Some(r#"{"query": "covid outbreak", "k": 6}"#),
    );
    assert_eq!(status, 200);
    assert!(v.get("generation").unwrap().as_u64().unwrap() >= 1);

    // ...and once nothing pins generation 0 any more, asking for it is 410.
    let (_, slow_view) = json_request(addr, "GET", &format!("/api/v1/jobs/{slow_id}"), None);
    if slow_view.get("status").unwrap().as_str() == Some("running") {
        // Let the slow job (which also pins generation 0) drain first.
        let t0 = Instant::now();
        loop {
            let (_, view) = json_request(addr, "GET", &format!("/api/v1/jobs/{slow_id}"), None);
            let s = view.get("status").unwrap().as_str().unwrap().to_string();
            if s != "queued" && s != "running" {
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(30), "slow job stuck");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let (status, v) = json_request(
        addr,
        "POST",
        "/api/v1/rank",
        Some(r#"{"query": "covid outbreak", "k": 6, "generation": 0}"#),
    );
    assert_eq!(status, 410, "{v:?}");
    assert_eq!(
        v.get("error").unwrap().get("code").unwrap().as_str(),
        Some("generation_gone")
    );

    handle.stop();
}

// --- the lazily trained Doc2Vec space ---------------------------------------

/// Doc2Vec models trained so far, over every generation of every corpus.
fn trainings(state: &AppState) -> u64 {
    state.registry().total_retrieval_stats().doc2vec_trainings
}

/// Nothing trains Doc2Vec but a request that reads it; concurrent first
/// readers share one training; a publish trains nothing; and a deadline
/// that passes while the model trains answers 422 without poisoning the
/// explanation cache.
#[test]
fn doc2vec_trains_once_per_generation_on_first_read() {
    // Filler documents give training enough work for a 1 ms deadline to
    // pass during it; none of them matches the query.
    let mut docs = parity_docs();
    docs.extend((0..80).map(|i| {
        Document::new(
            format!("filler-{i}"),
            "Filler",
            format!(
                "Report {i} on the regional rowing league, garden shows and harbor \
                 drills, with weather notes and travel tips for the spring season {i}."
            ),
        )
    }));
    let state = AppState::leak(docs, EngineConfig::fast());
    let explain = |own: &str| format!(r#"{{"query": "covid outbreak", "k": 5, "doc": 2, {own}}}"#);

    let (status, _) = post_on(
        state,
        "/api/v1/rank",
        r#"{"query": "covid outbreak", "k": 5}"#,
    );
    assert_eq!(status, 200);
    let others = [
        ("/api/v1/explain/sentence-removal", explain(r#""n": 1"#)),
        ("/api/v1/explain/query-augmentation", explain(r#""n": 1"#)),
        (
            "/api/v1/explain/query-reduction",
            explain(r#""max_size": 1"#),
        ),
        ("/api/v1/explain/term-removal", explain(r#""n": 1"#)),
        (
            "/api/v1/explain/feature_attribution",
            explain(r#""samples": 32"#),
        ),
        (
            "/api/v1/explain/cosine-sampled",
            explain(r#""n": 1, "samples": 10"#),
        ),
        ("/api/v1/rerank", explain(r#""body": "a cover story""#)),
    ];
    for (path, body) in &others {
        let (status, bytes) = post_on(state, path, body);
        assert_eq!(status, 200, "{path}: {}", String::from_utf8_lossy(&bytes));
    }
    assert_eq!(
        trainings(state),
        0,
        "no family but doc2vec-nearest reads the model"
    );

    // Eight concurrent first readers, past the explanation cache so that
    // each one reaches the engine: one trains, seven wait for it.
    let first = explain(r#""n": 3, "explain_cache_bypass": true"#);
    let answers: Vec<(u16, Vec<u8>)> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..8)
            .map(|_| s.spawn(|| post_on(state, "/api/v1/explain/doc2vec-nearest", &first)))
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    for (status, bytes) in &answers {
        assert_eq!(*status, 200);
        assert_eq!(bytes, &answers[0].1, "every reader sees the one model");
    }
    assert_eq!(trainings(state), 1);

    // A publish trains nothing; the new generation trains on first read.
    let corpus = state.registry().get("default").unwrap();
    let ticket = corpus
        .stage(DeltaOp::Upsert(Document::new(
            "late",
            "Late",
            "a late covid outbreak bulletin",
        )))
        .unwrap();
    assert!(corpus.wait_for_seq(ticket, Duration::from_secs(30)));
    assert_eq!(corpus.generation(), 1);
    assert_eq!(
        trainings(state),
        1,
        "publishing generation 1 trained nothing"
    );

    // Cold generation 1, 1 ms budget: the deadline passes before the model
    // is ready (or before the search starts). The 422 is not cached: the
    // same request without a deadline (`deadline_ms` is not part of the
    // cache key) answers 200.
    let (status, bytes) = post_on(
        state,
        "/api/v1/explain/doc2vec-nearest",
        &explain(r#""n": 3, "deadline_ms": 1"#),
    );
    assert_eq!(status, 422, "{}", String::from_utf8_lossy(&bytes));
    let error = parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
    assert_eq!(
        error.get("error").unwrap().get("code").unwrap().as_str(),
        Some("deadline_exceeded")
    );
    let (status, bytes) = post_on(
        state,
        "/api/v1/explain/doc2vec-nearest",
        &explain(r#""n": 3"#),
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&bytes));
    let answer = parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
    assert_eq!(answer.get("generation").unwrap().as_u64(), Some(1));
    assert_eq!(trainings(state), 2, "generation 1 trained exactly once");
}
