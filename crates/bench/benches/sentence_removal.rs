//! Bench: the Figure-2 sentence-removal explanation on the demo
//! corpus, plus its scaling in document length (sentences).

use credence_bench::DemoSetup;
use credence_bench::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use credence_core::{explain_sentence_removal, EvalOptions, SearchBudget, SentenceRemovalConfig};
use credence_index::{Bm25Params, DocId, Document, InvertedIndex};
use credence_rank::{rank_corpus, Bm25Ranker, Opaque, Ranker};
use credence_text::Analyzer;

fn bench_figure2(c: &mut Criterion) {
    let setup = DemoSetup::build();
    let ranker = setup.ranker();
    let fake = DocId(setup.demo.fake_news as u32);
    c.bench_function("sentence_removal/figure2", |b| {
        b.iter(|| {
            explain_sentence_removal(
                &ranker,
                setup.demo.query,
                setup.demo.k,
                fake,
                &SentenceRemovalConfig::default(),
                &rank_corpus(&ranker, setup.demo.query),
                None,
            )
            .unwrap()
        });
    });
}

/// A document whose relevance is spread over `s` sentences, two of which
/// carry the query terms.
fn long_doc_corpus(sentences: usize) -> InvertedIndex {
    let mut body = String::from("The covid outbreak begins here. ");
    for i in 0..sentences.saturating_sub(2) {
        body.push_str(&format!(
            "Filler sentence number {i} talks about daily life. "
        ));
    }
    body.push_str("The covid outbreak ends here.");
    let mut docs = vec![Document::from_body(body)];
    for i in 0..12 {
        docs.push(Document::from_body(format!(
            "covid outbreak report number {i} with several extra words to pad the length of \
             this story for realistic normalisation."
        )));
    }
    InvertedIndex::build(docs, Analyzer::english())
}

fn bench_doc_length(c: &mut Criterion) {
    let mut group = c.benchmark_group("sentence_removal/doc_length");
    for &s in &[5usize, 10, 20] {
        let index = long_doc_corpus(s);
        let ranker = Bm25Ranker::new(&index, Bm25Params::default());
        group.bench_with_input(BenchmarkId::from_parameter(s), &ranker, |b, ranker| {
            b.iter(|| {
                explain_sentence_removal(
                    ranker,
                    "covid outbreak",
                    10,
                    DocId(0),
                    &SentenceRemovalConfig::default(),
                    &rank_corpus(ranker, "covid outbreak"),
                    None,
                )
            });
        });
    }
    group.finish();
}

/// A long document that still ranks inside the cutoff: every fourth
/// sentence carries the query terms, so its BM25 score survives the
/// length normalisation and the search must remove several sentences
/// to push it out.
fn throughput_corpus(sentences: usize) -> InvertedIndex {
    let mut body = String::new();
    for i in 0..sentences {
        if i % 4 == 0 {
            body.push_str(&format!(
                "The covid outbreak update number {i} arrives today. "
            ));
        } else {
            body.push_str(&format!(
                "Filler sentence number {i} talks about daily life. "
            ));
        }
    }
    let mut docs = vec![Document::from_body(body)];
    for i in 0..12 {
        docs.push(Document::from_body(format!(
            "covid outbreak report number {i} with several extra words to pad the length of \
             this story for realistic normalisation."
        )));
    }
    InvertedIndex::build(docs, Analyzer::english())
}

/// Candidate-evaluation throughput: the exact-serial reference path versus
/// the incremental (delta-scoring) parallel engine on a long document,
/// with a budget that forces the search deep into multi-sentence combos.
fn bench_throughput(c: &mut Criterion) {
    let index = throughput_corpus(48);
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    let config = |eval: EvalOptions| SentenceRemovalConfig {
        n: 16,
        budget: SearchBudget {
            max_size: 3,
            max_candidates: 48,
            max_evaluations: 6_000,
        },
        eval,
        ..SentenceRemovalConfig::default()
    };
    // Both paths evaluate identical candidate sets (the engine is
    // bit-deterministic), so one warmup run fixes the denominator.
    let evals = explain_sentence_removal(
        &ranker,
        "covid outbreak",
        10,
        DocId(0),
        &config(EvalOptions::default()),
        &rank_corpus(&ranker, "covid outbreak"),
        None,
    )
    .unwrap()
    .candidates_evaluated as u64;

    let mut group = c.benchmark_group("sentence_removal/throughput");
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
                explain_sentence_removal(
                    ranker,
                    "covid outbreak",
                    10,
                    DocId(0),
                    &config,
                    &rank_corpus(ranker, "covid outbreak"),
                    None,
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_figure2, bench_doc_length, bench_throughput);
criterion_main!(benches);
