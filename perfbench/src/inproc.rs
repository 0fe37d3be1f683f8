//! In-process replays over an `AppState` built exactly as `credence-serve`
//! builds one (BM25, `EngineConfig::default()`, default job and cache
//! sizes): the untraced dry run that precedes timing, and the traced replay
//! that records spans around the benchmark's calls into each layer.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use credence_core::{
    Budget, CredenceEngine, EngineConfig, FeatureAttributionConfig, QueryAugmentationConfig,
    QueryReductionConfig, SearchBudget, SentenceRemovalConfig, TermRemovalConfig,
};
use credence_embed::nearest_neighbors_quantized;
use credence_index::{
    search_top_k_with, Bm25Params, DeltaOp, DocId, Document, GenerationIndex, InvertedIndex,
    TopKOptions,
};
use credence_rank::Bm25Ranker;
use credence_server::http::{self, Response};
use credence_server::{
    handle_request, App, AppState, ExplainCache, ExplainCacheConfig, JobsConfig, RankerChoice,
};
use credence_text::Analyzer;

use crate::answers::{self, fnv};
use crate::trace::{self, Tracer};
use crate::workload::{top_k, Family, Kind, Op, Workload, K};

/// A fresh `AppState` over `docs`, as `credence-serve` builds it (without
/// its per-request log line).
pub fn app_state(docs: Vec<Document>) -> &'static AppState {
    AppState::leak_full(
        docs,
        EngineConfig::default(),
        RankerChoice::Bm25,
        JobsConfig::default(),
        ExplainCacheConfig::default(),
    )
}

/// Stop the state's job workers and merge threads, so that only the load
/// generator's own threads run during the measured window.
pub fn stop(state: &'static AppState) {
    state.begin_shutdown();
    state.finish_shutdown();
}

/// What a replay answered.
#[derive(Default)]
pub struct Replay {
    /// Body hash of each read, by stream index.
    pub hashes: Vec<u64>,
    /// Explanations returned by each read that takes `n`.
    pub found: Vec<Option<usize>>,
    pub answered: usize,
    pub failures: Vec<String>,
}

fn answer(state: &AppState, op: &Op) -> (Response, Result<answers::Answer, String>) {
    let raw = op.wire();
    let resp = match http::read_request(&raw[..]) {
        Ok(req) => handle_request(state, &req),
        Err(e) => Response::text(400, e.to_string()),
    };
    let checked = answers::check(op, resp.status, &resp.body);
    (resp, checked)
}

/// Answer every generated request in process, on two threads; the writes
/// run on one of them beside the reads.
pub fn dry_run(state: &'static AppState, wl: &Workload) -> Replay {
    let next = AtomicUsize::new(0);
    let worker = |writes: &[Op]| {
        let mut out = Vec::new();
        let mut failures = Vec::new();
        for op in writes {
            if let (_, Err(e)) = answer(state, op) {
                failures.push(e);
            }
        }
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(op) = wl.reads.get(i) else { break };
            match answer(state, op) {
                (resp, Ok(a)) => out.push((i, fnv(&resp.body), a.found)),
                (_, Err(e)) => failures.push(e),
            }
        }
        (out, failures)
    };
    let ((mut a, mut fa), (b, fb)) = std::thread::scope(|s| {
        let other = s.spawn(|| worker(&wl.writes));
        let mine = worker(&[]);
        (mine, other.join().expect("dry-run thread panicked"))
    });
    a.extend(b);
    fa.extend(fb);
    collect(wl, a, fa)
}

fn collect(
    wl: &Workload,
    answered: Vec<(usize, u64, Option<usize>)>,
    failures: Vec<String>,
) -> Replay {
    let mut replay = Replay {
        hashes: vec![0; wl.reads.len()],
        found: vec![None; wl.reads.len()],
        answered: answered.len() + wl.writes.len(),
        failures,
    };
    for (i, h, found) in answered {
        replay.hashes[i] = h;
        replay.found[i] = found;
    }
    replay
}

/// Per-layer numbers from the traced replay.
pub struct Traced {
    pub tracer: Tracer,
    /// Handler time of each read of the stream (ms).
    pub handler_ms: Vec<f64>,
    /// Handler time of each `refresh: true` write, i.e. one publish (ms).
    pub publish_ms: Vec<f64>,
    pub memo_hits: u64,
    pub memo_misses: u64,
}

/// The benchmark's own copy of the layers below the service: a generation
/// index, an engine over its live segment, and an explanation cache.
struct Layers {
    gen: GenerationIndex,
    index: &'static InvertedIndex,
    engine: &'static CredenceEngine<'static>,
    generation: u64,
    cache: ExplainCache,
    retired: Vec<&'static CredenceEngine<'static>>,
}

/// Build an engine over `index` as a corpus publish does. Leaked: the
/// replay keeps every generation's engine alive until exit.
fn build_engine(
    index: Arc<InvertedIndex>,
) -> (&'static InvertedIndex, &'static CredenceEngine<'static>) {
    let index: &'static InvertedIndex = Box::leak(Box::new(index));
    let ranker: &'static Bm25Ranker<'static> =
        Box::leak(Box::new(Bm25Ranker::new(index, Bm25Params::default())));
    (
        index,
        Box::leak(Box::new(CredenceEngine::new(
            ranker,
            EngineConfig::default(),
        ))),
    )
}

/// Span names of the explainer calls, by family.
fn engine_span(family: Family) -> &'static str {
    match family {
        Family::SentenceRemoval => "engine.sentence_removal",
        Family::QueryAugmentation => "engine.query_augmentation",
        Family::QueryReduction => "engine.query_reduction",
        Family::TermRemoval => "engine.term_removal",
        Family::FeatureAttribution => "engine.feature_attribution",
        Family::Doc2VecNearest => "engine.doc2vec_nearest",
        Family::CosineSampled => "engine.cosine_sampled",
        Family::Rerank => "engine.builder_rerank",
    }
}

/// The layer a span's self time is charged to.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "http.read" | "http.write" => "http",
        "json.parse" | "json.write" => "json",
        "registry.snapshot" => "registry",
        "explain_cache" => "explain_cache",
        "engine.rank" => "engine",
        "engine.feature_attribution" => "lime",
        "engine.doc2vec_nearest" | "engine.cosine_sampled" => "nn",
        _ => "evaluator",
    }
}

/// Explainer spans whose durations make `evaluator.search_ms`.
pub const EVALUATOR_SPANS: [&str; 5] = [
    "engine.sentence_removal",
    "engine.query_augmentation",
    "engine.query_reduction",
    "engine.term_removal",
    "engine.builder_rerank",
];

/// Call the explainer behind `family` on `engine`, as the handler does.
fn explain(
    engine: &CredenceEngine<'_>,
    family: Family,
    query: &str,
    doc: u32,
    n: usize,
    edit: Option<&str>,
) {
    let doc = DocId(doc);
    let ok = match family {
        Family::SentenceRemoval => engine
            .sentence_removal(
                query,
                K,
                doc,
                &SentenceRemovalConfig {
                    n,
                    ..Default::default()
                },
            )
            .is_ok(),
        Family::QueryAugmentation => engine
            .query_augmentation(
                query,
                K,
                doc,
                &QueryAugmentationConfig {
                    n,
                    ..Default::default()
                },
            )
            .is_ok(),
        Family::QueryReduction => engine
            .query_reduction(
                query,
                K,
                doc,
                &QueryReductionConfig {
                    n,
                    ..Default::default()
                },
            )
            .is_ok(),
        Family::TermRemoval => engine
            .term_removal(
                query,
                K,
                doc,
                &TermRemovalConfig {
                    n,
                    ..Default::default()
                },
            )
            .is_ok(),
        Family::FeatureAttribution => engine
            .feature_attribution(
                query,
                K,
                doc,
                &FeatureAttributionConfig {
                    max_features: SearchBudget::default().max_candidates,
                    ..Default::default()
                },
            )
            .is_ok(),
        Family::Doc2VecNearest => engine.doc2vec_nearest(query, K, doc, n).is_ok(),
        Family::CosineSampled => engine.cosine_sampled(query, K, doc, n, None).is_ok(),
        Family::Rerank => engine
            .builder_rerank_budgeted(query, K, doc, edit.unwrap_or(""), &Budget::unlimited())
            .is_ok(),
    };
    assert!(
        ok,
        "the handler answered this request, so the explainer must too"
    );
}

/// Whether the server fronts `family` with the explanation cache.
fn cached(family: Family) -> bool {
    matches!(
        family,
        Family::SentenceRemoval
            | Family::QueryAugmentation
            | Family::QueryReduction
            | Family::TermRemoval
            | Family::FeatureAttribution
    )
}

/// Replay the workload's sequence in process on one thread. Each read runs
/// through `handle_request` (the checked answer and the traced handler
/// time), then once more through the benchmark's own calls into each layer,
/// each inside a span under a `request` root. Writes run through the
/// handler (one publish each) and through `GenerationIndex::merge_once` and
/// `CredenceEngine::new` on the benchmark's copy. `extra` reads (the layer
/// probe) are replayed last and not hashed.
pub fn traced_replay(state: &'static AppState, wl: &Workload, extra: &[Op]) -> (Replay, Traced) {
    let mut t = Tracer::new();
    let gen = GenerationIndex::new(wl.docs.clone(), Analyzer::english());
    let (generation, segment) = gen.snapshot();
    let (index, engine) = t.span("engine.build", u32::MAX, |_| build_engine(segment));
    let mut layers = Layers {
        gen,
        index,
        engine,
        generation,
        cache: ExplainCache::new(ExplainCacheConfig::default()),
        retired: Vec::new(),
    };
    let mut probe: Option<GenerationIndex> = None;
    let mut answered = Vec::new();
    let mut failures = Vec::new();
    let mut handler_ms = Vec::new();
    let mut publish_ms = Vec::new();

    // Writes are spread evenly through the reads on `ingest` (one per
    // second of a window over which the reads run), and follow them on
    // `rank` and `explain`, where the write probe runs after the window.
    let reads = wl.reads.len();
    let writes = wl.writes.len();
    let spread = wl.kind == Kind::Ingest;
    let mut order: Vec<(bool, usize)> = Vec::with_capacity(reads + writes + extra.len());
    let mut w = 0;
    for i in 0..reads {
        while spread && w < writes && (w + 1) * reads / (writes + 1) == i {
            order.push((true, w));
            w += 1;
        }
        order.push((false, i));
    }
    order.extend((w..writes).map(|j| (true, j)));
    order.extend((0..extra.len()).map(|i| (false, reads + i)));

    for (rid, (is_write, i)) in order.into_iter().enumerate() {
        let rid = rid as u32;
        let op = if is_write {
            &wl.writes[i]
        } else {
            wl.reads.get(i).unwrap_or_else(|| &extra[i - reads])
        };
        let raw = op.wire();
        let req = match http::read_request(&raw[..]) {
            Ok(r) => r,
            Err(e) => {
                failures.push(e.to_string());
                continue;
            }
        };
        let resp = t.span("service.handle", rid, |_| handle_request(state, &req));
        let ms = (t.spans.last().map_or(0, |s| s.end - s.start)) as f64 / 1e6;
        let checked = answers::check(op, resp.status, &resp.body);
        match (&checked, is_write) {
            (Err(e), _) => failures.push(e.clone()),
            (Ok(_), true) => {
                if matches!(op, Op::Write { .. }) {
                    publish_ms.push(ms);
                }
            }
            (Ok(a), false) => {
                if i < reads {
                    handler_ms.push(ms);
                    answered.push((i, fnv(&resp.body), a.found));
                }
            }
        }
        if checked.is_err() {
            continue;
        }
        match op {
            Op::Register { docs, .. } => {
                probe = Some(GenerationIndex::new(docs.clone(), Analyzer::english()));
            }
            Op::Write {
                corpus,
                name,
                title,
                body,
            } => {
                let doc = Document::new(name.as_str(), title.as_str(), body.as_str());
                let target = if corpus == "default" {
                    &layers.gen
                } else {
                    probe.as_ref().expect("probe registered first")
                };
                target.stage(DeltaOp::Upsert(doc));
                let merged = t.span("generation.merge", rid, |_| target.merge_once());
                if let (Some(outcome), "default") = (merged, corpus.as_str()) {
                    let (index, engine) =
                        t.span("engine.build", rid, |_| build_engine(outcome.index));
                    layers.retired.push(layers.engine);
                    layers.index = index;
                    layers.engine = engine;
                    layers.generation = outcome.generation;
                }
            }
            Op::Rank { .. } | Op::Explain { .. } => {
                read_layers(&mut t, rid, state, &layers, op, &raw, &resp)
            }
        }
    }
    let (memo_hits, memo_misses) = layers
        .retired
        .iter()
        .chain([&layers.engine])
        .fold((0, 0), |(h, m), e| {
            (h + e.replay_memo().hits(), m + e.replay_memo().misses())
        });
    let traced = Traced {
        tracer: t,
        handler_ms,
        publish_ms,
        memo_hits,
        memo_misses,
    };
    (collect(wl, answered, failures), traced)
}

/// One read through the benchmark's own calls into each layer.
fn read_layers(
    t: &mut Tracer,
    rid: u32,
    state: &AppState,
    layers: &Layers,
    op: &Op,
    raw: &[u8],
    resp: &Response,
) {
    let answer = credence_json::parse(std::str::from_utf8(&resp.body).unwrap_or("null"))
        .unwrap_or(credence_json::Value::Null);
    let engine = layers.engine;
    let mut missed = false;
    t.span("request", rid, |t| {
        let req = t
            .span("http.read", rid, |_| http::read_request(raw))
            .expect("parsed once already");
        let body = req.body_utf8().unwrap_or("");
        let _ = t.span("json.parse", rid, |_| credence_json::parse(body));
        let _ = t.span("registry.snapshot", rid, |_| {
            state.registry().snapshot("default", None)
        });
        match op {
            Op::Rank { query } => {
                let before = engine.retrieval_stats().cache_misses;
                t.span("engine.rank", rid, |_| engine.rank(query, K));
                missed = engine.retrieval_stats().cache_misses > before;
            }
            Op::Explain {
                family,
                query,
                doc,
                n,
                edit,
                ..
            } => {
                let call = |t: &mut Tracer| {
                    t.span(engine_span(*family), rid, |_| {
                        explain(engine, *family, query, *doc, *n, edit.as_deref())
                    })
                };
                if cached(*family) {
                    let key = format!("{}\u{0}{}\u{0}{}", op.path(), layers.generation, op.body());
                    t.span("explain_cache", rid, |t| {
                        layers.cache.get_or_compute(&key, None, || {
                            call(t);
                            Response::json(200, String::new())
                        })
                    });
                } else {
                    call(t);
                }
            }
            _ => {}
        }
        let _ = t.span("json.write", rid, |_| credence_json::to_string(&answer));
        let mut out = Vec::with_capacity(resp.body.len() + 256);
        let _ = t.span("http.write", rid, |_| resp.write_to(&mut out));
    });
    // Work nested inside an engine call, where the benchmark cannot put a
    // span, is timed by calling the same public function again right after:
    // `search_top_k_with` after a ranking-cache miss (the engine asks it for
    // every document), and the quantized nearest-neighbour scan after a
    // doc2vec-nearest explanation. These spans are roots of their own.
    let index = layers.index;
    match op {
        Op::Rank { query } if missed => {
            let terms = index.analyze_query(query);
            let opts = TopKOptions::default();
            t.span("topk.search", rid, |_| {
                search_top_k_with(
                    index,
                    Bm25Params::default(),
                    &terms,
                    index.num_docs(),
                    &opts,
                )
            });
        }
        Op::Explain {
            family: Family::Doc2VecNearest,
            query,
            doc,
            n,
            ..
        } => {
            let top = top_k(index, query, K);
            let model = engine.doc2vec();
            let candidates =
                (0..index.num_docs()).filter(|&d| d as u32 != *doc && !top.contains(&(d as u32)));
            t.span("nn.search", rid, |_| {
                nearest_neighbors_quantized(
                    model.doc_vector(*doc as usize),
                    model.quantized(),
                    |d| model.doc_vector(d),
                    candidates,
                    *n,
                )
            });
        }
        _ => {}
    }
}

/// Per-layer self time (p50 in µs, share of the `request` roots). The
/// re-measured nested work is charged to its own rows (`topk`, `nn_scan`)
/// and taken out of the engine call that contains it.
pub fn layer_table(t: &Tracer) -> BTreeMap<&'static str, (f64, f64)> {
    let aux = |name: &str| -> HashMap<u32, u64> {
        t.spans
            .iter()
            .filter(|s| s.name == name && s.parent == trace::NONE)
            .map(|s| (s.request, s.end - s.start))
            .collect()
    };
    let topk = aux("topk.search");
    let scan = aux("nn.search");
    let nested = |s: &trace::Span| match s.name {
        "engine.rank" => topk.get(&s.request).copied().unwrap_or(0),
        "engine.doc2vec_nearest" => scan.get(&s.request).copied().unwrap_or(0),
        _ => 0,
    };
    let (mut layers, total) = trace::layer_self_times(t, "request", layer_of, nested);
    layers.insert("topk", topk.values().copied().collect());
    layers.insert("nn_scan", scan.values().copied().collect());
    layers
        .into_iter()
        .map(|(layer, selfs)| {
            let us: Vec<f64> = selfs.iter().map(|&ns| ns as f64 / 1e3).collect();
            let share = crate::workload::ratio(selfs.iter().sum::<u64>() as f64, total as f64);
            (layer, (trace::p50(&us), share))
        })
        .collect()
}
