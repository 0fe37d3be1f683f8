//! Bench: query-reduction explanations (drop terms until the document
//! falls below the cutoff), including candidate-evaluation throughput of
//! the exact-serial path versus the incremental subset scorer.

use credence_bench::{criterion_group, criterion_main, Criterion, Throughput};
use credence_bench::{synth_index, DemoSetup};
use credence_core::{explain_query_reduction, EvalOptions, QueryReductionConfig, SearchBudget};
use credence_index::{Bm25Params, DocId};
use credence_rank::{rank_corpus, Bm25Ranker, Opaque, Ranker};

fn bench_demo(c: &mut Criterion) {
    let setup = DemoSetup::build();
    let ranker = setup.ranker();
    let fake = DocId(setup.demo.fake_news as u32);
    c.bench_function("query_reduction/demo", |b| {
        b.iter(|| {
            explain_query_reduction(
                &ranker,
                setup.demo.query,
                setup.demo.k,
                fake,
                &QueryReductionConfig::default(),
                &rank_corpus(&ranker, setup.demo.query),
            )
        });
    });
}

/// Candidate-evaluation throughput on a synthetic corpus with a wide
/// query: the exact path re-ranks the corpus for every reduced query,
/// the subset scorer only re-reads the kept terms' posting lists.
fn bench_throughput(c: &mut Criterion) {
    let (corpus, index) = synth_index(1200, 11);
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    let query = corpus.topic_query(0, 6);
    let ranking = rank_corpus(&ranker, &query);
    let doc = ranking.entries()[0].0;
    let config = |eval: EvalOptions| QueryReductionConfig {
        n: 8,
        budget: SearchBudget {
            max_size: 4,
            max_candidates: 6,
            max_evaluations: 4_000,
        },
        eval,
        ..QueryReductionConfig::default()
    };
    let evals = explain_query_reduction(
        &ranker,
        &query,
        10,
        doc,
        &config(EvalOptions::default()),
        &rank_corpus(&ranker, &query),
    )
    .unwrap()
    .candidates_evaluated as u64;

    let mut group = c.benchmark_group("query_reduction/throughput");
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
                explain_query_reduction(
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

criterion_group!(benches, bench_demo, bench_throughput);
criterion_main!(benches);
