//! Black-box genericity: §II-A defines the ranker as a black box, so every
//! explanation algorithm must work unchanged against *any* `Ranker`
//! implementation. These tests run the full explanation suite against BM25,
//! query-likelihood (both smoothers), and the neural-sim hybrid.

use credence_core::{
    cosine_sampled, explain_query_augmentation, explain_sentence_removal, test_perturbation,
    Budget, CosineSampledConfig, QueryAugmentationConfig, SentenceRemovalConfig,
};
use credence_corpus::covid_demo_corpus;
use credence_index::{Bm25Params, DocId, InvertedIndex};
use credence_rank::{
    rank_corpus, Bm25Ranker, NeuralSimConfig, NeuralSimRanker, QlSmoothing, QueryLikelihoodRanker,
    Ranker, Rm3Config, Rm3Ranker,
};
use credence_text::Analyzer;

fn build_index() -> InvertedIndex {
    InvertedIndex::build(covid_demo_corpus().docs, Analyzer::english())
}

/// Run the same end-to-end story against one ranker: find the fake-news
/// article wherever this model ranks it, then explain it four ways.
fn exercise_ranker(ranker: &dyn Ranker, fake_news: DocId) {
    let query = "covid outbreak";

    let ranking = rank_corpus(ranker, query);
    let rank = ranking
        .rank_of(fake_news)
        .unwrap_or_else(|| panic!("{}: fake news must be ranked", ranker.name()));

    // The fake article is relevant under every model (it is about the
    // query's topic), but its exact rank is model-specific; pick the
    // smallest demo-like cutoff that keeps it inside the top-k.
    let k = rank.max(10);
    assert!(
        rank <= k + 2,
        "{}: fake news unexpectedly deep at {rank}",
        ranker.name()
    );

    // Sentence removal: any returned explanation must be valid.
    let sr = explain_sentence_removal(
        ranker,
        query,
        k,
        fake_news,
        &SentenceRemovalConfig {
            n: 1,
            ..Default::default()
        },
        &ranking,
        None,
    )
    .unwrap_or_else(|e| panic!("{}: sentence removal failed: {e}", ranker.name()));
    for e in &sr.explanations {
        assert!(
            e.new_rank > k,
            "{}: invalid explanation {e:?}",
            ranker.name()
        );
    }

    // Query augmentation (only meaningful when not already rank 1).
    if rank > 1 {
        let qa = explain_query_augmentation(
            ranker,
            query,
            k,
            fake_news,
            &QueryAugmentationConfig {
                n: 2,
                threshold: rank - 1,
                ..Default::default()
            },
            &ranking,
        )
        .unwrap_or_else(|e| panic!("{}: query augmentation failed: {e}", ranker.name()));
        for e in &qa.explanations {
            assert!(
                e.new_rank < rank,
                "{}: augmentation must raise the rank: {e:?}",
                ranker.name()
            );
        }
    }

    // Cosine-sampled instances: never from the top-k, never the instance.
    let top: Vec<DocId> = ranking.top_k(k);
    let cs = cosine_sampled(
        ranker,
        query,
        k,
        fake_news,
        3,
        &CosineSampledConfig::default(),
        &ranking,
    )
    .unwrap_or_else(|e| panic!("{}: cosine sampled failed: {e}", ranker.name()));
    for e in &cs {
        assert!(
            !top.contains(&e.doc),
            "{}: {e:?} is relevant",
            ranker.name()
        );
        assert_ne!(e.doc, fake_news);
    }

    // Builder: gutting the document must always be a valid counterfactual,
    // whatever the model (no query terms, no semantic affinity).
    let outcome = test_perturbation(
        ranker,
        query,
        k,
        fake_news,
        "entirely unrelated text",
        &ranking,
        &Budget::unlimited(),
    )
    .unwrap_or_else(|e| panic!("{}: builder failed: {e}", ranker.name()));
    assert!(
        outcome.new_rank >= rank,
        "{}: gutted document cannot rise",
        ranker.name()
    );
}

#[test]
fn bm25_anserini_defaults() {
    let idx = build_index();
    let demo = covid_demo_corpus();
    let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
    exercise_ranker(&ranker, DocId(demo.fake_news as u32));
}

#[test]
fn bm25_robertson_parameters() {
    let idx = build_index();
    let demo = covid_demo_corpus();
    let ranker = Bm25Ranker::new(&idx, Bm25Params::robertson());
    exercise_ranker(&ranker, DocId(demo.fake_news as u32));
}

#[test]
fn query_likelihood_dirichlet() {
    let idx = build_index();
    let demo = covid_demo_corpus();
    let ranker = QueryLikelihoodRanker::new(&idx, QlSmoothing::Dirichlet { mu: 1000.0 });
    exercise_ranker(&ranker, DocId(demo.fake_news as u32));
}

#[test]
fn query_likelihood_jelinek_mercer() {
    let idx = build_index();
    let demo = covid_demo_corpus();
    let ranker = QueryLikelihoodRanker::new(&idx, QlSmoothing::JelinekMercer { lambda: 0.5 });
    exercise_ranker(&ranker, DocId(demo.fake_news as u32));
}

#[test]
fn bm25_rm3_feedback() {
    let idx = build_index();
    let demo = covid_demo_corpus();
    let ranker = Rm3Ranker::new(&idx, Rm3Config::default());
    exercise_ranker(&ranker, DocId(demo.fake_news as u32));
}

#[test]
fn neural_sim_hybrid() {
    let idx = build_index();
    let demo = covid_demo_corpus();
    let ranker = NeuralSimRanker::train(&idx, NeuralSimConfig::default());
    exercise_ranker(&ranker, DocId(demo.fake_news as u32));
}

/// The scoring contract every implementation must honour: indexed and
/// ad-hoc scoring agree on identical text.
#[test]
fn doc_text_agreement_across_all_rankers() {
    let idx = build_index();
    let bm25 = Bm25Ranker::new(&idx, Bm25Params::default());
    let ql = QueryLikelihoodRanker::new(&idx, QlSmoothing::default());
    let jm = QueryLikelihoodRanker::new(&idx, QlSmoothing::JelinekMercer { lambda: 0.3 });
    let neural = NeuralSimRanker::train(&idx, NeuralSimConfig::default());
    let rankers: Vec<&dyn Ranker> = vec![&bm25, &ql, &jm, &neural];
    for ranker in rankers {
        for d in idx.doc_ids().take(12) {
            let body = &idx.document(d).unwrap().body;
            let a = ranker.score_doc("covid outbreak vaccine", d);
            let b = ranker.score_text("covid outbreak vaccine", body);
            assert!(
                (a - b).abs() < 1e-9,
                "{}: doc {d} scores diverge: {a} vs {b}",
                ranker.name()
            );
        }
    }
}

/// Different models produce different rankings (the explainers are not
/// accidentally coupled to one scorer).
#[test]
fn models_disagree_somewhere() {
    let idx = build_index();
    let bm25 = Bm25Ranker::new(&idx, Bm25Params::default());
    let ql = QueryLikelihoodRanker::new(&idx, QlSmoothing::JelinekMercer { lambda: 0.9 });
    let a = rank_corpus(&bm25, "covid outbreak vaccine tracking");
    let b = rank_corpus(&ql, "covid outbreak vaccine tracking");
    let order_a: Vec<DocId> = a.entries().iter().map(|&(d, _)| d).collect();
    let order_b: Vec<DocId> = b.entries().iter().map(|&(d, _)| d).collect();
    assert_ne!(order_a, order_b, "expected some rank disagreement");
}
