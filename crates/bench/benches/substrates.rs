//! Bench: the extension substrates — RM3 expansion and the parallel
//! ranking crossover.

use credence_bench::synth_index;
use credence_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use credence_index::Bm25Params;
use credence_rank::{rank_corpus_scan, Bm25Ranker, Rm3Config, Rm3Ranker};

fn bench_rm3_expansion(c: &mut Criterion) {
    let (corpus, index) = synth_index(300, 7);
    let rm3 = Rm3Ranker::new(&index, Rm3Config::default());
    let query = corpus.topic_query(0, 3);
    c.bench_function("substrates/rm3_expand", |b| {
        b.iter(|| rm3.expand(&query));
    });
}

fn bench_parallel_ranking(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates/rank_parallel");
    group.sample_size(20);
    for &n in &[300usize, 1000] {
        let (corpus, index) = synth_index(n, 7);
        let ranker = Bm25Ranker::new(&index, Bm25Params::default());
        let query = corpus.topic_query(0, 3);
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, _| {
            b.iter(|| rank_corpus_scan(&ranker, &query, 1, None));
        });
        group.bench_with_input(BenchmarkId::new("threads4", n), &n, |b, _| {
            b.iter(|| rank_corpus_scan(&ranker, &query, 4, None));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rm3_expansion, bench_parallel_ranking);
criterion_main!(benches);
