//! Bench: term-removal explanations (delete document terms until it
//! falls below the cutoff), including candidate-evaluation throughput of
//! the exact-serial path versus the term-profile replay.

use credence_bench::{criterion_group, criterion_main, Criterion, Throughput};
use credence_bench::{synth_index, DemoSetup};
use credence_core::{explain_term_removal, EvalOptions, SearchBudget, TermRemovalConfig};
use credence_index::{Bm25Params, DocId};
use credence_rank::{rank_corpus, Bm25Ranker, Opaque, Ranker};

fn bench_demo(c: &mut Criterion) {
    let setup = DemoSetup::build();
    let ranker = setup.ranker();
    let fake = DocId(setup.demo.fake_news as u32);
    c.bench_function("term_removal/demo", |b| {
        b.iter(|| {
            explain_term_removal(
                &ranker,
                setup.demo.query,
                setup.demo.k,
                fake,
                &TermRemovalConfig::default(),
                &rank_corpus(&ranker, setup.demo.query),
                None,
            )
        });
    });
}

/// Candidate-evaluation throughput on a synthetic corpus: the exact path
/// rewrites and re-analyses the body for every candidate, the replay
/// scores it from the document's term profile; both rank it against
/// frozen pool scores. Measured via `explain_term_removal` against a
/// precomputed base ranking — the engine serves explanations from its
/// ranking cache the same way — so the shared full-corpus ranking pass
/// does not dilute the per-candidate comparison.
fn bench_throughput(c: &mut Criterion) {
    let (corpus, index) = synth_index(1200, 13);
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    let query = corpus.topic_query(0, 4);
    let ranking = rank_corpus(&ranker, &query);
    let doc = ranking.entries()[0].0;
    let config = |eval: EvalOptions| TermRemovalConfig {
        n: 8,
        budget: SearchBudget {
            max_size: 3,
            max_candidates: 24,
            max_evaluations: 4_000,
        },
        eval,
        ..TermRemovalConfig::default()
    };
    let evals = explain_term_removal(
        &ranker,
        &query,
        10,
        doc,
        &config(EvalOptions::default()),
        &ranking,
        None,
    )
    .unwrap()
    .candidates_evaluated as u64;

    let mut group = c.benchmark_group("term_removal/throughput");
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
                explain_term_removal(ranker, &query, 10, doc, &config, &ranking, None).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_demo, bench_throughput);
criterion_main!(benches);
