//! Bench: the Figure-3 query-augmentation explanation, plus its
//! scaling in requested explanation count `n`.

use credence_bench::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use credence_bench::{synth_index, DemoSetup};
use credence_core::{
    explain_query_augmentation, EvalOptions, QueryAugmentationConfig, SearchBudget,
};
use credence_index::{Bm25Params, DocId};
use credence_rank::{rank_corpus, Bm25Ranker, Opaque, Ranker};

fn bench_figure3(c: &mut Criterion) {
    let setup = DemoSetup::build();
    let ranker = setup.ranker();
    let fake = DocId(setup.demo.fake_news as u32);
    c.bench_function("query_augmentation/figure3", |b| {
        b.iter(|| {
            explain_query_augmentation(
                &ranker,
                setup.demo.query,
                setup.demo.k,
                fake,
                &QueryAugmentationConfig {
                    n: 7,
                    threshold: 2,
                    ..Default::default()
                },
                &rank_corpus(&ranker, setup.demo.query),
            )
            .unwrap()
        });
    });
}

fn bench_explanation_count(c: &mut Criterion) {
    let setup = DemoSetup::build();
    let ranker = setup.ranker();
    let fake = DocId(setup.demo.fake_news as u32);
    let mut group = c.benchmark_group("query_augmentation/n");
    for &n in &[1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                explain_query_augmentation(
                    &ranker,
                    setup.demo.query,
                    setup.demo.k,
                    fake,
                    &QueryAugmentationConfig {
                        n,
                        threshold: 2,
                        ..Default::default()
                    },
                    &rank_corpus(&ranker, setup.demo.query),
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

/// Candidate-evaluation throughput on a 1200-document synthetic corpus:
/// the exact path re-ranks the whole corpus per candidate augmentation,
/// the incremental path touches only the appended terms' posting lists.
fn bench_throughput(c: &mut Criterion) {
    let (corpus, index) = synth_index(1200, 7);
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    let query = corpus.topic_query(0, 4);
    let ranking = rank_corpus(&ranker, &query);
    // A document that is ranked but well below the threshold, so raising
    // it takes real search work.
    let doc = ranking.entries()[40].0;
    let config = |eval: EvalOptions| QueryAugmentationConfig {
        n: 8,
        threshold: 2,
        budget: SearchBudget {
            max_size: 2,
            max_candidates: 24,
            max_evaluations: 4_000,
        },
        eval,
        ..QueryAugmentationConfig::default()
    };
    let evals = explain_query_augmentation(
        &ranker,
        &query,
        10,
        doc,
        &config(EvalOptions::default()),
        &rank_corpus(&ranker, &query),
    )
    .unwrap()
    .candidates_evaluated as u64;

    let mut group = c.benchmark_group("query_augmentation/throughput");
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
                explain_query_augmentation(
                    ranker,
                    &query,
                    10,
                    doc,
                    &config,
                    &rank_corpus(ranker, &query),
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_figure3,
    bench_explanation_count,
    bench_throughput
);
criterion_main!(benches);
