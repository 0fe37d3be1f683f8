//! Bench: the cross-request explanation cache against the search it
//! short-circuits.
//!
//! Both variants post the same sentence-removal request through the
//! in-process REST surface. `warm` repeats a request the cache already
//! holds, so each iteration is a canonical-key build plus an LRU lookup
//! and a payload clone; `cold` carries `explain_cache_bypass: true`, so
//! each iteration re-runs retrieval and candidate evaluation from
//! scratch — the work every repeat would pay without the cache. The
//! `warm >= 10x cold` ratio gate in `bench_check` is the cache's
//! reason to exist, stated as a number.
//!
//! Elements per iteration is 1 (one request), so throughput ratios are
//! exactly the wall-clock ratios.

use std::sync::OnceLock;

use credence_bench::{criterion_group, criterion_main, Criterion, Throughput};
use credence_core::EngineConfig;
use credence_corpus::covid_demo_corpus;
use credence_server::http::Request;
use credence_server::{handle_request, AppState, ExplainCacheConfig, JobsConfig, RankerChoice};

fn app_state() -> &'static AppState {
    static STATE: OnceLock<&'static AppState> = OnceLock::new();
    STATE.get_or_init(|| {
        AppState::leak_full(
            covid_demo_corpus().docs,
            EngineConfig::fast(),
            RankerChoice::Bm25,
            JobsConfig::default(),
            ExplainCacheConfig::default(),
        )
    })
}

/// The explanation request both variants execute: sentence removal on
/// the demo scenario, capped at 64 evaluations so one cold iteration is
/// bounded, deterministic work (`max_evals` is part of the cache key).
fn request_json(extra: &str) -> String {
    let demo = covid_demo_corpus();
    format!(
        r#"{{"query": "{}", "k": {}, "doc": {}, "n": 2, "max_evals": 64{extra}}}"#,
        demo.query, demo.k, demo.fake_news
    )
}

fn post(state: &'static AppState, body: &str) -> Vec<u8> {
    let req = Request {
        method: "POST".into(),
        path: "/api/v1/explain/sentence-removal".into(),
        headers: Default::default(),
        body: body.as_bytes().to_vec(),
    };
    let resp = handle_request(state, &req);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    resp.body
}

fn bench_caching(c: &mut Criterion) {
    let state = app_state();
    let warm_request = request_json("");
    let cold_request = request_json(r#", "explain_cache_bypass": true"#);

    // Prime the cache (and the ranking-cache / replay-memo substrates
    // beneath it) so `warm` measures steady-state hits and `cold`
    // measures recomputation rather than first-touch index warm-up.
    let primed = post(state, &warm_request);
    assert_eq!(
        primed,
        post(state, &cold_request),
        "bypass must reproduce the cached payload byte-for-byte"
    );

    let mut group = c.benchmark_group("caching/throughput");
    group.throughput(Throughput::Elements(1));
    group.bench_function("warm", |b| {
        b.iter(|| post(state, &warm_request));
    });
    group.bench_function("cold", |b| {
        b.iter(|| post(state, &cold_request));
    });
    group.finish();

    let cache = state.explain_cache();
    assert!(cache.hits() > 0, "warm iterations must be cache hits");
    assert!(
        cache.misses() >= 1,
        "priming and bypassed iterations miss by design"
    );
}

criterion_group!(benches, bench_caching);
criterion_main!(benches);
