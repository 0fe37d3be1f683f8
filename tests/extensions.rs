//! Integration tests for the extension modules: term-level counterfactuals,
//! the saliency baseline and the explanation metrics, all exercised on the
//! demo corpus end to end.

use credence_core::metrics::{
    certify_minimality, jaccard_at_k, kendall_tau, verify_sentence_removal,
};
use credence_core::{
    explain_saliency, explain_sentence_removal, explain_term_removal, SaliencyUnit,
    SentenceRemovalConfig, TermRemovalConfig,
};
use credence_corpus::covid_demo_corpus;
use credence_index::{Bm25Params, DocId, InvertedIndex};
use credence_rank::{rank_corpus, Bm25Ranker};
use credence_text::Analyzer;

fn setup() -> (InvertedIndex, credence_corpus::DemoCorpus) {
    let demo = covid_demo_corpus();
    let index = InvertedIndex::build(demo.docs.clone(), Analyzer::english());
    (index, demo)
}

#[test]
fn term_removal_on_the_fake_news_article() {
    let (index, demo) = setup();
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    let fake = DocId(demo.fake_news as u32);
    let result = explain_term_removal(
        &ranker,
        demo.query,
        demo.k,
        fake,
        &TermRemovalConfig::default(),
        &rank_corpus(&ranker, demo.query),
        None,
    )
    .unwrap();
    let e = &result.explanations[0];
    assert!(e.new_rank > demo.k);
    // Term removal needs at most the two query terms.
    assert!(e.removed_terms.len() <= 2, "{:?}", e.removed_terms);
    assert!(e
        .removed_terms
        .iter()
        .all(|t| t == "covid" || t == "outbreak"));
}

#[test]
fn saliency_on_the_fake_news_article_matches_fig2_structure() {
    let (index, demo) = setup();
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    let fake = DocId(demo.fake_news as u32);
    let exp = explain_saliency(&ranker, demo.query, fake, SaliencyUnit::Sentence).unwrap();
    // The two most salient sentences are exactly the Fig-2 counterfactual
    // pair: the first and the last.
    let top2: Vec<usize> = exp.weights[..2].iter().map(|w| w.index).collect();
    assert!(top2.contains(&0));
    assert!(top2.contains(&(exp.weights.len() - 1)));
}

#[test]
fn fig2_explanation_passes_metric_checks() {
    let (index, demo) = setup();
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    let fake = DocId(demo.fake_news as u32);
    let result = explain_sentence_removal(
        &ranker,
        demo.query,
        demo.k,
        fake,
        &SentenceRemovalConfig::default(),
        &rank_corpus(&ranker, demo.query),
        None,
    )
    .unwrap();
    let e = &result.explanations[0];
    assert!(verify_sentence_removal(
        &ranker, demo.query, demo.k, fake, e
    ));
    assert!(certify_minimality(&ranker, demo.query, demo.k, fake, e));
}

#[test]
fn ranker_agreement_metrics_are_sane() {
    let (index, _) = setup();
    let bm25 = Bm25Ranker::new(&index, Bm25Params::default());
    let robertson = Bm25Ranker::new(&index, Bm25Params::robertson());
    let a = rank_corpus(&bm25, "covid outbreak");
    let b = rank_corpus(&robertson, "covid outbreak");
    // Same model family with different parameters: strong but imperfect
    // agreement.
    let tau = kendall_tau(&a, &b).unwrap();
    assert!(tau > 0.5, "tau {tau}");
    let jac = jaccard_at_k(&a, &b, 10);
    assert!(jac > 0.5, "jaccard {jac}");
    // Self-agreement is perfect.
    assert_eq!(kendall_tau(&a, &a), Some(1.0));
    assert_eq!(jaccard_at_k(&a, &a, 10), 1.0);
}

#[test]
fn saliency_is_consistent_across_granularities() {
    let (index, demo) = setup();
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    let fake = DocId(demo.fake_news as u32);
    let by_term = explain_saliency(&ranker, demo.query, fake, SaliencyUnit::Term).unwrap();
    // The top term saliencies are exactly the query terms.
    let top2: Vec<&str> = by_term.weights[..2]
        .iter()
        .map(|w| w.unit.as_str())
        .collect();
    assert!(top2.contains(&"covid"));
    assert!(top2.contains(&"outbreak"));
}
