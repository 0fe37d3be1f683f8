//! Bench: the request-lifecycle budget on the counterfactual search.
//!
//! Three questions: what does carrying a budget cost when it never trips
//! (`unlimited` vs `generous` should be indistinguishable — the check is
//! one atomic load and an `Instant` compare per batch), how quickly a
//! tripped budget hands back a partial result, and the candidate
//! throughput of a capped run.

use credence_bench::DemoSetup;
use credence_bench::{criterion_group, criterion_main, Criterion, Throughput};
use credence_core::{explain_sentence_removal, Budget, SearchBudget, SentenceRemovalConfig};
use credence_index::DocId;
use credence_rank::rank_corpus;

fn config(lifecycle: Budget) -> SentenceRemovalConfig {
    SentenceRemovalConfig {
        n: 8,
        budget: SearchBudget {
            max_size: 3,
            max_candidates: 24,
            max_evaluations: 20_000,
        },
        lifecycle,
        ..SentenceRemovalConfig::default()
    }
}

/// Budget-check overhead: an unlimited run versus one carrying a budget
/// generous enough to never trip.
fn bench_overhead(c: &mut Criterion) {
    let setup = DemoSetup::build();
    let ranker = setup.ranker();
    let fake = DocId(setup.demo.fake_news as u32);
    let mut group = c.benchmark_group("budgeted_search/overhead");
    for (name, lifecycle) in [
        ("unlimited", Budget::unlimited()),
        (
            "generous",
            Budget::unlimited()
                .with_deadline_ms(600_000)
                .with_max_evals(1_000_000),
        ),
    ] {
        let config = config(lifecycle);
        group.bench_function(name, |b| {
            b.iter(|| {
                explain_sentence_removal(
                    &ranker,
                    setup.demo.query,
                    setup.demo.k,
                    fake,
                    &config,
                    &rank_corpus(&ranker, setup.demo.query),
                    None,
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

/// Latency of returning a partial result once the budget trips: an
/// already-expired deadline must come back almost immediately.
fn bench_tripped(c: &mut Criterion) {
    let setup = DemoSetup::build();
    let ranker = setup.ranker();
    let fake = DocId(setup.demo.fake_news as u32);
    c.bench_function("budgeted_search/expired_deadline", |b| {
        b.iter(|| {
            let config = config(Budget::unlimited().with_deadline_ms(0));
            let result = explain_sentence_removal(
                &ranker,
                setup.demo.query,
                setup.demo.k,
                fake,
                &config,
                &rank_corpus(&ranker, setup.demo.query),
                None,
            )
            .unwrap();
            assert!(result.status.is_partial());
            result
        });
    });
}

/// Candidate throughput of an eval-capped run (the prefix-consistent
/// partial search the server serves under `max_evals`).
fn bench_capped_throughput(c: &mut Criterion) {
    let setup = DemoSetup::build();
    let ranker = setup.ranker();
    let fake = DocId(setup.demo.fake_news as u32);
    const CAP: usize = 64;
    let config = config(Budget::unlimited().with_max_evals(CAP));
    let evals = explain_sentence_removal(
        &ranker,
        setup.demo.query,
        setup.demo.k,
        fake,
        &config,
        &rank_corpus(&ranker, setup.demo.query),
        None,
    )
    .unwrap()
    .candidates_evaluated as u64;

    let mut group = c.benchmark_group("budgeted_search/capped");
    group.throughput(Throughput::Elements(evals));
    group.bench_function("max_evals", |b| {
        b.iter(|| {
            explain_sentence_removal(
                &ranker,
                setup.demo.query,
                setup.demo.k,
                fake,
                &config,
                &rank_corpus(&ranker, setup.demo.query),
                None,
            )
            .unwrap()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_overhead,
    bench_tripped,
    bench_capped_throughput
);
criterion_main!(benches);
