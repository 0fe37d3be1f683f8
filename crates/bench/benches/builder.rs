//! Bench: the Figure-5 builder operations — structured edit
//! application and pool re-ranking.

use credence_bench::DemoSetup;
use credence_bench::{criterion_group, criterion_main, Criterion};
use credence_core::{apply_edits, test_edits, Edit};
use credence_index::DocId;
use credence_rank::rank_corpus;

fn bench_apply_edits(c: &mut Criterion) {
    let setup = DemoSetup::build();
    let body = &setup
        .index
        .document(DocId(setup.demo.fake_news as u32))
        .unwrap()
        .body;
    let edits = [
        Edit::replace("covid", "flu"),
        Edit::replace("covid-19", "flu"),
        Edit::replace("outbreak", "the flu"),
    ];
    c.bench_function("builder/apply_edits", |b| {
        b.iter(|| apply_edits(body, &edits));
    });
}

fn bench_figure5_rerank(c: &mut Criterion) {
    let setup = DemoSetup::build();
    let ranker = setup.ranker();
    let fake = DocId(setup.demo.fake_news as u32);
    let edits = [
        Edit::replace("covid", "flu"),
        Edit::replace("covid-19", "flu"),
        Edit::replace("outbreak", "the flu"),
    ];
    c.bench_function("builder/figure5_rerank", |b| {
        b.iter(|| {
            test_edits(
                &ranker,
                setup.demo.query,
                setup.demo.k,
                fake,
                &edits,
                &rank_corpus(&ranker, setup.demo.query),
            )
            .unwrap()
        });
    });
}

criterion_group!(benches, bench_apply_edits, bench_figure5_rerank);
criterion_main!(benches);
