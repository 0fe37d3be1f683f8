//! End-to-end and property tests for the Rank-LIME feature-attribution
//! subsystem: the determinism contract (byte-identical payloads across
//! fresh vs cached evaluation, sync vs async-job delivery, and
//! cache-enabled vs cache-disabled servers, including straddling a
//! generation publish), surrogate-recovery guarantees, and the
//! `credence_explain_lime_*` metrics surface.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use credence_core::{explain_feature_attribution, EngineConfig, FeatureAttributionConfig};
use credence_index::{Bm25Params, DeltaOp, DocId, Document, InvertedIndex};
use credence_json::{parse, to_string, Value};
use credence_rank::{rank_corpus, Bm25Ranker, Ranker};
use credence_repro::prop::gens;
use credence_repro::wire::raw_request;
use credence_repro::{prop, prop_assert, prop_assert_eq};
use credence_server::http::Request;
use credence_server::{
    handle_request, AppState, ExplainCacheConfig, JobsConfig, RankerChoice, Server,
};
use credence_text::Analyzer;

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

/// Read one counter value out of a `/metrics` scrape.
fn metric(text: &str, family: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(family) && l.as_bytes().get(family.len()) == Some(&b' '))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {family} in scrape"))
}

const BASE_BODY: &str =
    r#"{"query": "covid outbreak", "k": 4, "doc": 2, "samples": 96, "seed": 9, "top_m": 8}"#;

/// The same seeded request must produce byte-identical payloads whether
/// it is evaluated afresh or served from the explanation cache, and
/// whether it is answered synchronously or through the async job queue.
/// (Serial against parallel scoring is pinned in process, by LIME's unit
/// tests.)
#[test]
fn payload_is_byte_identical_across_eval_and_delivery_paths() {
    let state = AppState::leak_full(
        demo_docs(),
        EngineConfig::fast(),
        RankerChoice::Bm25,
        JobsConfig::default(),
        ExplainCacheConfig::default(),
    );
    let handle = Server::bind("127.0.0.1:0", state).unwrap().spawn().unwrap();
    let addr = handle.addr();
    let path = "/api/v1/explain/feature_attribution";

    let (status, _, base) = raw_request(addr, "POST", path, Some(BASE_BODY));
    assert_eq!(status, 200, "{base}");
    let v = parse(&base).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("complete"));
    assert!(
        !v.get("attributions")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty(),
        "{base}"
    );

    // Recomputation with the cache bypassed, so the search actually runs.
    let body = format!(
        r#"{}, "explain_cache_bypass": true}}"#,
        BASE_BODY.trim_end_matches('}')
    );
    let (status, _, got) = raw_request(addr, "POST", path, Some(&body));
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, base, "a recomputed search changed the payload");

    // Cache hit: repeat the canonical request and confirm the scrape saw it.
    let (status, _, repeat) = raw_request(addr, "POST", path, Some(BASE_BODY));
    assert_eq!(status, 200);
    assert_eq!(repeat, base);
    let (_, _, scrape) = raw_request(addr, "GET", "/metrics", None);
    assert!(metric(&scrape, "credence_explain_cache_hits_total") >= 1);

    // Async delivery: the job result is the same payload object.
    let envelope = format!(r#"{{"endpoint": "feature_attribution", "request": {BASE_BODY}}}"#);
    let (status, _, submitted) = raw_request(addr, "POST", "/api/v1/jobs", Some(&envelope));
    assert_eq!(status, 202, "{submitted}");
    let wire = parse(&submitted)
        .unwrap()
        .get("job_id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let numeric: u64 = wire.strip_prefix("job-").unwrap().parse().unwrap();
    assert_eq!(
        state.jobs().wait_terminal(numeric, Duration::from_secs(30)),
        Some(credence_server::JobState::Complete)
    );
    let (status, _, view) = raw_request(addr, "GET", &format!("/api/v1/jobs/{wire}"), None);
    assert_eq!(status, 200);
    let view = parse(&view).unwrap();
    assert_eq!(view.get("result_status").unwrap().as_u64(), Some(200));
    assert_eq!(
        to_string(view.get("result").unwrap()),
        base,
        "job payload must round-trip to the synchronous bytes"
    );
    handle.stop();
}

/// A generation publish must invalidate by keying: the cached server's
/// post-publish response carries the new generation and is byte-identical
/// to a forced recomputation — never stale bytes from the old snapshot.
#[test]
fn generation_publish_invalidates_by_keying() {
    let state = AppState::leak_full(
        demo_docs(),
        EngineConfig::fast(),
        RankerChoice::Bm25,
        JobsConfig::default(),
        ExplainCacheConfig::default(),
    );
    let handle = Server::bind("127.0.0.1:0", state).unwrap().spawn().unwrap();
    let addr = handle.addr();
    let path = "/api/v1/explain/feature_attribution";

    let (status, _, before) = raw_request(addr, "POST", path, Some(BASE_BODY));
    assert_eq!(status, 200, "{before}");
    let gen_before = parse(&before)
        .unwrap()
        .get("generation")
        .unwrap()
        .as_u64()
        .unwrap();

    let corpus = state.registry().get("default").unwrap();
    let seq = corpus
        .stage(DeltaOp::Upsert(Document::new(
            "extra",
            "Filler",
            "spring regatta filler text with no outbreak terms",
        )))
        .unwrap();
    assert!(corpus.wait_for_seq(seq, Duration::from_secs(10)));

    let (status, _, after) = raw_request(addr, "POST", path, Some(BASE_BODY));
    assert_eq!(status, 200, "{after}");
    let gen_after = parse(&after)
        .unwrap()
        .get("generation")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(
        gen_after > gen_before,
        "publish must advance the generation"
    );
    assert_ne!(
        after, before,
        "the stale pre-publish payload leaked through"
    );

    let bypass = format!(
        "{}{}}}",
        BASE_BODY.trim_end_matches('}'),
        r#", "explain_cache_bypass": true"#
    );
    let (status, _, fresh) = raw_request(addr, "POST", path, Some(&bypass));
    assert_eq!(status, 200);
    assert_eq!(
        after, fresh,
        "post-publish cached payload must match a forced recomputation"
    );
    handle.stop();
}

/// The discovery index advertises the route and the scrape renders every
/// `credence_explain_lime_*` family once attributions have run.
#[test]
fn metrics_families_and_discovery_index_cover_the_endpoint() {
    let state = AppState::leak_full(
        demo_docs(),
        EngineConfig::fast(),
        RankerChoice::Bm25,
        JobsConfig::default(),
        ExplainCacheConfig::default(),
    );
    let handle = Server::bind("127.0.0.1:0", state).unwrap().spawn().unwrap();
    let addr = handle.addr();

    let (status, _, index) = raw_request(addr, "GET", "/api/v1", None);
    assert_eq!(status, 200);
    let index = parse(&index).unwrap();
    let routes = index.get("routes").unwrap().as_array().unwrap();
    assert!(
        routes.iter().any(|r| {
            r.get("path").and_then(Value::as_str) == Some("/api/v1/explain/feature_attribution")
                && r.get("method").and_then(Value::as_str) == Some("POST")
                && r.get("endpoint").and_then(Value::as_str) == Some("feature_attribution")
        }),
        "discovery index must list the feature_attribution route"
    );

    let (status, _, body) = raw_request(
        addr,
        "POST",
        "/api/v1/explain/feature_attribution",
        Some(BASE_BODY),
    );
    assert_eq!(status, 200, "{body}");
    let payload = parse(&body).unwrap();
    let attributions = payload.get("attributions").unwrap().as_array().unwrap();

    let (_, _, scrape) = raw_request(addr, "GET", "/metrics", None);
    assert_eq!(metric(&scrape, "credence_explain_lime_fits_total"), 1);
    assert_eq!(
        metric(&scrape, "credence_explain_lime_samples_total"),
        payload
            .get("candidates_evaluated")
            .unwrap()
            .as_u64()
            .unwrap()
    );
    assert_eq!(
        metric(&scrape, "credence_explain_lime_attributions_total"),
        attributions.len() as u64
    );
    assert_eq!(metric(&scrape, "credence_explain_lime_partials_total"), 0);
    for family in [
        "credence_explain_lime_fits_total",
        "credence_explain_lime_samples_total",
        "credence_explain_lime_attributions_total",
        "credence_explain_lime_partials_total",
        "credence_explain_lime_fidelity_avg",
    ] {
        assert!(
            scrape.contains(&format!("# TYPE {family} ")),
            "missing TYPE line for {family}"
        );
    }
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
/// deliberately persists across property cases: parity must hold
/// whatever mixture of hits, misses, and coalesced flights a request
/// sequence produces.
fn state_pair() -> &'static StatePair {
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

const QUERIES: [&str; 3] = ["covid outbreak", "microchip", "covid"];

/// Decode one generated code point into a feature-attribution request.
/// The space is small (1944 distinct requests) so sequences carry
/// duplicates by construction, and duplicates also recur across cases
/// against the same warm cache.
fn decode(code: u32) -> String {
    let mut c = code as usize;
    let query = QUERIES[c % 3];
    c /= 3;
    let k = 1 + (c % 3);
    c /= 3;
    let doc = c % 6;
    c /= 6;
    let samples = 16 + 16 * (c % 3);
    c /= 3;
    let seed = c % 4;
    c /= 4;
    let top_m = 2 + (c % 3);
    format!(
        r#"{{"query": "{query}", "k": {k}, "doc": {doc}, "samples": {samples}, "seed": {seed}, "top_m": {top_m}}}"#
    )
}

fn post_on(state: &'static AppState, body: &str) -> (u16, Vec<u8>) {
    let req = Request {
        method: "POST".into(),
        path: "/api/v1/explain/feature_attribution".into(),
        headers: Default::default(),
        body: body.as_bytes().to_vec(),
    };
    let resp = handle_request(state, &req);
    (resp.status, resp.body)
}

/// Publish a new generation on both servers by upserting a uniquely-named
/// filler document, so their corpora stay identical and every prior cache
/// key for the live generation goes stale.
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

// For random duplicate-bearing request sequences, the cached server's
// feature-attribution response is byte-identical to the cache-disabled
// server's — including straddling a generation publish, which must
// invalidate by keying rather than by serving stale bytes.
prop! {
    config(cases = 12);
    fn cached_attributions_match_uncached_server_byte_for_byte(
        codes in gens::vec_of(gens::u32_range(0..1944), 2..8),
        publish_at in gens::u32_range(0..8),
    ) {
        let pair = state_pair();
        for (i, &code) in codes.iter().enumerate() {
            if i as u32 == *publish_at {
                publish_on(pair);
            }
            let body = decode(code);
            let (cached_status, cached_body) = post_on(pair.cached, &body);
            let (fresh_status, fresh_body) = post_on(pair.uncached, &body);
            prop_assert_eq!(cached_status, fresh_status);
            prop_assert!(
                cached_body == fresh_body,
                "byte mismatch for {}: cached={:?} fresh={:?}",
                body,
                String::from_utf8_lossy(&cached_body),
                String::from_utf8_lossy(&fresh_body)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Surrogate properties: determinism, support, and linear recovery.
// ---------------------------------------------------------------------------

// The sampler is a pure function of its seed: the same request computed
// twice from scratch yields the same result, and a different seed draws
// different masks (so equality is not vacuous).
prop! {
    config(cases = 12);
    fn same_seed_reproduces_the_attribution_exactly(
        seed in gens::u64_any(),
        samples in gens::usize_range(8..64),
    ) {
        let index = InvertedIndex::build(demo_docs(), Analyzer::english());
        let ranker = Bm25Ranker::new(&index, Bm25Params::default());
        let config = FeatureAttributionConfig {
            samples: *samples,
            seed: *seed,
            ..FeatureAttributionConfig::default()
        };
        let ranking = rank_corpus(&ranker, "covid outbreak");
        let a = explain_feature_attribution(&ranker, "covid outbreak", 4, DocId(2), &config, &ranking, None)
            .unwrap();
        let b = explain_feature_attribution(&ranker, "covid outbreak", 4, DocId(2), &config, &ranking, None)
            .unwrap();
        prop_assert_eq!(&a, &b);
    }
}

// A term that never occurs in the document cannot receive attribution
// mass: the surrogate's features are drawn from the document surface, so
// an absent query term simply is not a feature.
prop! {
    config(cases = 12);
    fn absent_query_terms_get_no_attribution(
        seed in gens::u64_any(),
        doc in gens::usize_range(0..4),
    ) {
        let index = InvertedIndex::build(demo_docs(), Analyzer::english());
        let ranker = Bm25Ranker::new(&index, Bm25Params::default());
        let config = FeatureAttributionConfig {
            samples: 32,
            seed: *seed,
            ..FeatureAttributionConfig::default()
        };
        let result = explain_feature_attribution(
            &ranker,
            "covid zebra",
            6,
            DocId(*doc as u32),
            &config,
            &rank_corpus(&ranker, "covid zebra"),
            None,
        );
        if let Ok(result) = result {
            prop_assert!(
                result.attributions.iter().all(|a| a.term != "zebra"),
                "absent term attributed: {:?}",
                result.attributions
            );
        }
    }
}

/// A ranker whose score is exactly linear in analysed token counts:
/// `score(body) = Σ_token weight(token)`. Under it a term-masked variant's
/// score is an exact linear function of the mask, so the λ=0 surrogate
/// must recover each term's true contribution (weight × occurrences).
struct LinearRanker<'a> {
    index: &'a InvertedIndex,
    analyzer: Analyzer,
}

impl LinearRanker<'_> {
    fn weight(token: &str) -> f64 {
        match token {
            "alpha" => 2.0,
            "beta" => 0.7,
            "gamma" => 1.3,
            "delta" => 0.1,
            _ => 0.0,
        }
    }
}

impl Ranker for LinearRanker<'_> {
    fn name(&self) -> &str {
        "linear-bow"
    }

    fn index(&self) -> &InvertedIndex {
        self.index
    }

    fn score_doc(&self, query: &str, doc: DocId) -> f64 {
        let body = &self.index.document(doc).unwrap().body;
        self.score_text(query, body)
    }

    fn score_text(&self, _query: &str, body: &str) -> f64 {
        self.analyzer
            .analyze(body)
            .iter()
            .map(|t| Self::weight(t))
            .sum()
    }
}

// With λ = 0 and the linear bag-of-words ranker the weighted
// least-squares surrogate is not an approximation: it recovers each
// term's exact contribution and explains all the score variance.
prop! {
    config(cases = 12);
    fn lambda_zero_recovers_linear_term_weights(seed in gens::u64_any()) {
        let docs = vec![
            Document::new("t", "Target", "alpha beta beta gamma delta"),
            Document::new("p1", "Pad", "alpha gamma"),
            Document::new("p2", "Pad", "beta delta"),
        ];
        let index = InvertedIndex::build(docs, Analyzer::english());
        let ranker = LinearRanker {
            index: &index,
            analyzer: Analyzer::english(),
        };
        let config = FeatureAttributionConfig {
            samples: 64,
            seed: *seed,
            lambda: 0.0,
            top_m: 10,
            ..FeatureAttributionConfig::default()
        };
        let result =
            explain_feature_attribution(&ranker, "alpha beta gamma", 3, DocId(0), &config, &rank_corpus(&ranker, "alpha beta gamma"), None)
                .unwrap();
        prop_assert!(
            result.fidelity > 0.999,
            "exact linear model must be fully explained, fidelity = {}",
            result.fidelity
        );
        for (term, expected) in [
            ("alpha", 2.0),
            ("beta", 2.0 * 0.7),
            ("gamma", 1.3),
            ("delta", 0.1),
        ] {
            let got = result
                .attributions
                .iter()
                .find(|a| a.term == term)
                .map(|a| a.weight)
                .unwrap_or_else(|| panic!("{term} missing from {:?}", result.attributions));
            prop_assert!(
                (got - expected).abs() < 1e-6,
                "{term}: recovered {got}, true contribution {expected}"
            );
        }
    }
}
