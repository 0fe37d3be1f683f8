//! Bench: Rank-LIME feature-attribution throughput.
//!
//! `lime/throughput` measures the two axes the subsystem optimises:
//!
//! - `exact_serial` vs `incremental_parallel` — the same 256-sample
//!   surrogate fit, scoring each perturbed document either by
//!   re-analysing the masked body from scratch on one thread or by
//!   replaying its term profile with batch-parallel evaluation.
//!   The `parallel >= 2x serial` ratio gate in `bench_check` is the
//!   reason the sampler replays a `RemovalProfile` at all.
//! - `cold` vs `warm` — the same request posted through the in-process
//!   REST surface with and without `explain_cache_bypass`, showing what
//!   the cross-request cache saves on a repeated attribution (the seeded
//!   payload is a pure function of the cache key, so sharing is safe).
//!
//! Elements per iteration is the deterministic evaluation count
//! (`samples_evaluated`), so throughput ratios are wall-clock ratios.

use std::sync::OnceLock;

use credence_bench::synth_index;
use credence_bench::{criterion_group, criterion_main, Criterion, Throughput};
use credence_core::{
    explain_feature_attribution, EngineConfig, EvalOptions, FeatureAttributionConfig,
};
use credence_corpus::covid_demo_corpus;
use credence_index::Bm25Params;
use credence_rank::{rank_corpus, Bm25Ranker, Opaque, Ranker};
use credence_server::http::Request;
use credence_server::{handle_request, AppState, ExplainCacheConfig, JobsConfig, RankerChoice};

/// Surrogate-fit throughput on a synthetic corpus: 256 masked variants
/// of a long topical document, scored serially via exact re-analysis
/// versus batch-parallel through the term-profile replay.
fn bench_throughput(c: &mut Criterion) {
    let (corpus, index) = synth_index(1200, 13);
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    let query = corpus.topic_query(0, 4);
    let ranking = rank_corpus(&ranker, &query);
    let doc = ranking.entries()[0].0;
    let config = |eval: EvalOptions| FeatureAttributionConfig {
        samples: 256,
        eval,
        ..FeatureAttributionConfig::default()
    };
    let evals = explain_feature_attribution(
        &ranker,
        &query,
        10,
        doc,
        &config(EvalOptions::default()),
        &ranking,
        None,
    )
    .unwrap()
    .samples_evaluated as u64;

    let mut group = c.benchmark_group("lime/throughput");
    group.throughput(Throughput::Elements(evals));
    // The exact arm hides BM25's term weights behind `Opaque`, so every
    // candidate is scored exactly, as under RM3 or neural-sim.
    let opaque = Opaque(&ranker);
    let arms: [(&str, &dyn Ranker, EvalOptions); 2] = [
        ("exact_serial", &opaque, EvalOptions::serial()),
        ("incremental_parallel", &ranker, EvalOptions::default()),
    ];
    for (name, ranker, eval) in arms {
        let config = config(eval);
        group.bench_function(name, |b| {
            b.iter(|| {
                explain_feature_attribution(ranker, &query, 10, doc, &config, &ranking, None)
                    .unwrap()
            });
        });
    }
    group.finish();
}

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

/// The attribution request both cache variants execute on the demo
/// scenario. Everything that varies is part of the cache key, so the
/// warm path is a canonical-key build plus an LRU hit.
fn request_json(extra: &str) -> String {
    let demo = covid_demo_corpus();
    format!(
        r#"{{"query": "{}", "k": {}, "doc": {}, "samples": 128, "seed": 42{extra}}}"#,
        demo.query, demo.k, demo.fake_news
    )
}

fn post(state: &'static AppState, body: &str) -> Vec<u8> {
    let req = Request {
        method: "POST".into(),
        path: "/api/v1/explain/feature_attribution".into(),
        headers: Default::default(),
        body: body.as_bytes().to_vec(),
    };
    let resp = handle_request(state, &req);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    resp.body
}

/// Cold vs warm cache on the in-process REST surface: one element per
/// iteration (one request), mirroring the `caching/throughput` group.
fn bench_cache(c: &mut Criterion) {
    let state = app_state();
    // Prime the cache so every `warm` iteration is a hit.
    let warm_body = request_json("");
    let first = post(state, &warm_body);
    assert_eq!(first, post(state, &warm_body), "warm repeat must be stable");
    let cold_body = request_json(r#", "explain_cache_bypass": true"#);

    let mut group = c.benchmark_group("lime/cache");
    group.throughput(Throughput::Elements(1));
    group.bench_function("warm", |b| b.iter(|| post(state, &warm_body)));
    group.bench_function("cold", |b| b.iter(|| post(state, &cold_body)));
    group.finish();
}

criterion_group!(benches, bench_throughput, bench_cache);
criterion_main!(benches);
