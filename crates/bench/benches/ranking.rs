//! Bench: index construction and top-k retrieval at three corpus
//! scales (backs the T-SCALE table's `index` and `rank` columns), a
//! ranking-cache miss's top 10 against a whole-corpus ranking, and a
//! one-document publish against a full build.

use credence_bench::synth_index;
use credence_bench::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use credence_core::{CredenceEngine, EngineConfig};
use credence_corpus::{SynthConfig, SyntheticCorpus};
use credence_index::{
    search_top_k, search_top_k_exhaustive, search_top_k_with, Bm25Params, DeltaOp, Document,
    GenerationIndex, InvertedIndex, TopKOptions,
};
use credence_rank::{rank_corpus_with, Bm25Ranker};
use credence_text::Analyzer;

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    for &n in &[100usize, 300, 1000] {
        let (corpus, _) = synth_index(n, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &corpus.docs, |b, docs| {
            b.iter(|| InvertedIndex::build(docs.clone(), Analyzer::english()));
        });
    }
    group.finish();
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_top_k");
    for &n in &[100usize, 300, 1000] {
        let (corpus, index) = synth_index(n, 7);
        let query = index.analyze_query(&corpus.topic_query(0, 3));
        group.bench_with_input(BenchmarkId::from_parameter(n), &index, |b, index| {
            b.iter(|| search_top_k(index, Bm25Params::default(), &query, 10));
        });
    }
    group.finish();
}

/// Docs-ranked-per-second of the two retrieval paths at `k = 10` on a query
/// with one selective term plus two ubiquitous background terms: the scan
/// (`exhaustive`, the reference) and `search_top_k_with` (`pruned`, which
/// runs MaxScore at this depth). Elements per iteration is the scan's
/// `docs_scored`, identical across variants, so the throughput ratio is
/// exactly the wall-clock ratio.
///
/// The selective term has high tf in doc ids 0..128 and a tf-1 tail over
/// every eighth document after that. The ubiquitous terms keep the scan
/// scoring nearly the whole corpus, while MaxScore fills its heap from the
/// selective list and never reads the ubiquitous ones — the gap the
/// `pruned >= 3x exhaustive` gate rides on.
fn bench_ranking_throughput(c: &mut Criterion) {
    let (corpus, _) = synth_index(1600, 11);
    let mut docs = corpus.docs.clone();
    for (i, doc) in docs.iter_mut().enumerate() {
        if i < 128 {
            doc.body
                .push_str(" Hotspot hotspot hotspot hotspot hotspot hotspot.");
        } else if i % 8 == 0 {
            doc.body.push_str(" Hotspot.");
        }
    }
    let index = InvertedIndex::build(docs, Analyzer::english());
    let query = index.analyze_query("hotspot common0 common1");
    let params = Bm25Params::default();
    let opts = TopKOptions::default();
    // These reference calls double as warm-up so samples measure steady
    // state.
    let (ex_hits, reference) = search_top_k_exhaustive(&index, params, &query, 10);
    let (pr_hits, pr_stats) = search_top_k_with(&index, params, &query, 10, &opts);
    assert_eq!(pr_hits, ex_hits);
    assert_eq!(pr_stats.strategy, "pruned");
    assert!(
        pr_stats.docs_scored * 3 <= reference.docs_scored,
        "fixture must let MaxScore skip the ubiquitous terms: pruned scored {} of {}",
        pr_stats.docs_scored,
        reference.docs_scored
    );

    let mut group = c.benchmark_group("ranking/throughput");
    group.throughput(Throughput::Elements(reference.docs_scored));
    group.bench_function("exhaustive", |b| {
        b.iter(|| search_top_k_exhaustive(&index, params, &query, 10));
    });
    group.bench_function("pruned", |b| {
        b.iter(|| search_top_k_with(&index, params, &query, 10, &opts));
    });
    group.finish();
}

/// Queries per second of a ranking-cache miss on a 3,000-document corpus
/// shaped like the HTTP benchmark's (16 topics of 400 terms, 2,000
/// background terms): `top10` asks an engine without a ranking cache for
/// the top 10, which runs MaxScore, and `whole_corpus` ranks every
/// candidate, as a miss did when the engine cached whole-corpus rankings
/// for `/rank`. Each iteration runs the same pool of 2-4-term queries,
/// every other one carrying one of the 40 most frequent background terms;
/// the `top10 >= 3x whole_corpus` gate rides on what MaxScore leaves
/// unscored.
fn bench_cache_miss(c: &mut Criterion) {
    let corpus = SyntheticCorpus::generate(SynthConfig {
        num_docs: 3_000,
        num_topics: 16,
        topic_vocab: 400,
        background_vocab: 2_000,
        seed: 5,
        ..SynthConfig::default()
    });
    let index = InvertedIndex::build(corpus.docs, Analyzer::english());
    let mut frequent: Vec<(u32, String)> = (0..2_000)
        .map(|i| format!("common{i}"))
        .map(|t| (index.doc_freq_str(&t), t))
        .collect();
    frequent.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let queries: Vec<String> = (0..64)
        .map(|at: usize| {
            let len = 2 + (at / 2) % 3;
            let mut terms = Vec::with_capacity(len);
            if at.is_multiple_of(2) {
                terms.push(frequent[(at / 2) % 40].1.clone());
            }
            // Low word numbers are the topic's most frequent terms.
            let topic = at % 16;
            let words = (at % 7..400)
                .step_by(5)
                .map(|word| format!("topic{topic}word{word}"))
                .filter(|t| index.doc_freq_str(t) > 0);
            terms.extend(words.take(len - terms.len()));
            terms.join(" ")
        })
        .collect();
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    let engine = CredenceEngine::new(
        &ranker,
        EngineConfig {
            ranking_cache: 0,
            ..EngineConfig::fast()
        },
    );
    let opts = TopKOptions::default();
    // The reference calls double as warm-up.
    for q in &queries {
        let (list, _) = rank_corpus_with(&ranker, q, &opts, 1);
        let top: Vec<_> = engine
            .rank(q, 10)
            .iter()
            .map(|r| (r.doc, r.score))
            .collect();
        assert_eq!(top, list.entries()[..top.len()], "{q}");
        assert_eq!(top.len(), 10.min(list.len()), "{q}");
    }
    assert_eq!(engine.cached_queries(), 0, "every call misses");

    let mut group = c.benchmark_group("ranking/cache_miss");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("top10", |b| {
        b.iter(|| {
            for q in &queries {
                engine.rank(q, 10);
            }
        });
    });
    group.bench_function("whole_corpus", |b| {
        b.iter(|| {
            for q in &queries {
                rank_corpus_with(&ranker, q, &opts, 1);
            }
        });
    });
    group.finish();
}

/// Documents per second of a full build (`full_build`) and of a merge
/// that folds one rewrite (`merge_one_upsert`: stage one upsert of an
/// existing document, then `merge_once`), both over the same 1,000
/// documents. Each iteration counts the corpus's documents, so the
/// throughput ratio is the build's time over the merge's: the
/// `merge >= 3x build` gate holds because a merge analyses only the
/// document it rewrote.
fn bench_generation(c: &mut Criterion) {
    let (corpus, _) = synth_index(1000, 7);
    let docs = corpus.docs;
    let gen = GenerationIndex::new(docs.clone(), Analyzer::english());
    let mut next = 0;

    let mut group = c.benchmark_group("generation");
    group.throughput(Throughput::Elements(docs.len() as u64));
    group.bench_function("full_build/1000", |b| {
        b.iter(|| InvertedIndex::build(docs.clone(), Analyzer::english()));
    });
    group.bench_function("merge_one_upsert/1000", |b| {
        b.iter(|| {
            // Rewrite one document with its neighbour's body.
            let (target, source) = (&docs[next], &docs[(next + 1) % docs.len()]);
            next = (next + 1) % docs.len();
            let doc = Document::new(
                target.name.as_str(),
                target.title.as_str(),
                source.body.as_str(),
            );
            gen.stage(DeltaOp::Upsert(doc));
            gen.merge_once().expect("one staged rewrite")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_index_build,
    bench_search,
    bench_ranking_throughput,
    bench_cache_miss,
    bench_generation
);
criterion_main!(benches);
