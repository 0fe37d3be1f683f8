//! Bench: index construction and top-k retrieval at three corpus
//! scales (backs the T-SCALE table's `index` and `rank` columns).

use credence_bench::synth_index;
use credence_bench::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use credence_index::{
    search_top_k, search_top_k_exhaustive, search_top_k_with, Bm25Params, InvertedIndex,
    TopKOptions,
};
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

criterion_group!(
    benches,
    bench_index_build,
    bench_search,
    bench_ranking_throughput
);
criterion_main!(benches);
