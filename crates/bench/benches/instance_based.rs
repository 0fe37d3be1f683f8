//! Bench: the Figure-4 instance-based explainers — cosine-sampled
//! across sample sizes, and doc2vec nearest-neighbour lookup (model
//! pre-trained, as in the running system). Each iteration also ranks the
//! corpus per document, as the library callers without an engine do.

use credence_bench::DemoSetup;
use credence_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use credence_core::{cosine_sampled, doc2vec_nearest, CosineSampledConfig};
use credence_embed::{Doc2Vec, Doc2VecConfig};
use credence_index::DocId;
use credence_rank::rank_corpus;

fn bench_cosine_sampled(c: &mut Criterion) {
    let setup = DemoSetup::build();
    let ranker = setup.ranker();
    let fake = DocId(setup.demo.fake_news as u32);
    let mut group = c.benchmark_group("instance/cosine_sampled");
    for &s in &[10usize, 30, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(s), &s, |b, &s| {
            b.iter(|| {
                cosine_sampled(
                    &ranker,
                    setup.demo.query,
                    setup.demo.k,
                    fake,
                    3,
                    &CosineSampledConfig {
                        samples: s,
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

fn bench_doc2vec_nearest(c: &mut Criterion) {
    let setup = DemoSetup::build();
    let ranker = setup.ranker();
    let fake = DocId(setup.demo.fake_news as u32);
    let analyzer = setup.index.analyzer();
    let seqs: Vec<Vec<usize>> = setup
        .index
        .documents()
        .iter()
        .map(|d| {
            analyzer
                .analyze(&d.body)
                .iter()
                .filter_map(|t| setup.index.vocabulary().id(t).map(|x| x as usize))
                .collect()
        })
        .collect();
    let model = Doc2Vec::train(
        &seqs,
        setup.index.vocabulary().len(),
        &Doc2VecConfig {
            dim: 32,
            epochs: 10,
            ..Default::default()
        },
    );
    c.bench_function("instance/doc2vec_nearest", |b| {
        b.iter(|| {
            let ranking = rank_corpus(&ranker, setup.demo.query);
            let (query, k) = (setup.demo.query, setup.demo.k);
            doc2vec_nearest(&ranker, &model, query, k, fake, 3, &ranking).unwrap()
        });
    });
}

criterion_group!(benches, bench_cosine_sampled, bench_doc2vec_nearest);
criterion_main!(benches);
