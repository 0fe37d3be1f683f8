//! End-to-end reproduction of the paper's demonstration scenarios
//! (Figures 2–5) over the recreated COVID-19 Articles corpus.
//!
//! Each test mirrors one figure of the paper and asserts the *shape* of the
//! published result: who ranks where, which perturbation is minimal, which
//! terms distinguish the fake-news article, and which instance document the
//! embedding model surfaces.

use credence_core::{
    Budget, CredenceEngine, Edit, EngineConfig, QueryAugmentationConfig, SentenceRemovalConfig,
};
use credence_corpus::covid_demo_corpus;
use credence_index::{Bm25Params, DocId, InvertedIndex};
use credence_rank::Bm25Ranker;
use credence_text::Analyzer;

fn with_engine<T>(f: impl FnOnce(&CredenceEngine<'_>, &credence_corpus::DemoCorpus) -> T) -> T {
    let demo = covid_demo_corpus();
    let index = InvertedIndex::build(demo.docs.clone(), Analyzer::english());
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    let engine = CredenceEngine::new(&ranker, EngineConfig::fast());
    f(&engine, &demo)
}

/// The running example's premise: the fake-news article ranks 3/10 for
/// "covid outbreak".
#[test]
fn running_example_premise() {
    with_engine(|engine, demo| {
        let ranking = engine.rank(demo.query, demo.k);
        assert_eq!(ranking.len(), 10);
        assert_eq!(ranking[2].doc, DocId(demo.fake_news as u32));
        assert_eq!(ranking[2].rank, 3);
    });
}

/// Figure 2: one sentence-removal counterfactual. The minimal perturbation
/// removes exactly the two sentences mentioning *covid* and *outbreak*
/// (importance 2 each, combination score 4), dropping the article from rank
/// 3 to rank 11 (> k = 10).
#[test]
fn figure2_sentence_removal() {
    with_engine(|engine, demo| {
        let doc = DocId(demo.fake_news as u32);
        let result = engine
            .sentence_removal(demo.query, demo.k, doc, &SentenceRemovalConfig::default())
            .unwrap();
        assert_eq!(result.old_rank, 3);
        assert_eq!(result.explanations.len(), 1);
        let e = &result.explanations[0];

        // Minimal: exactly two sentences — the first and the last.
        assert_eq!(e.removed.len(), 2);
        assert_eq!(e.removed[0], 0, "first sentence removed");
        assert_eq!(
            e.removed[1],
            result.sentences.len() - 1,
            "last sentence removed"
        );
        // Both score 2; the combination scores 4 (the figure's narration).
        assert_eq!(result.importance[e.removed[0]], 2.0);
        assert_eq!(result.importance[e.removed[1]], 2.0);
        assert_eq!(e.importance, 4.0);
        // Rank 3 -> rank 11 = k + 1.
        assert_eq!(e.new_rank, demo.k + 1);
        // The perturbed body no longer mentions the query terms.
        let perturbed = e.perturbed_body.to_lowercase();
        assert!(!perturbed.contains("covid"));
        assert!(!perturbed.contains("outbreak"));
        // Every single-sentence removal was tried first and failed:
        // sentences + 1 evaluations to reach the first valid pair.
        assert_eq!(e.candidates_evaluated, result.sentences.len() + 1);
    });
}

/// Figure 3: seven query-augmentation counterfactuals with threshold 2.
/// "covid outbreak 5g" reaches rank 2 and "covid outbreak 5g microchip"
/// rank 1; the distinguishing terms carry the top TF-IDF scores.
#[test]
fn figure3_query_augmentation() {
    with_engine(|engine, demo| {
        let doc = DocId(demo.fake_news as u32);
        let result = engine
            .query_augmentation(
                demo.query,
                demo.k,
                doc,
                &QueryAugmentationConfig {
                    n: 7,
                    threshold: 2,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(result.old_rank, 3);
        assert_eq!(result.explanations.len(), 7, "seven explanations requested");
        for e in &result.explanations {
            assert!(e.new_rank <= 2, "threshold respected: {e:?}");
            assert!(e.augmented_query.starts_with("covid outbreak "));
        }
        // The distinguishing conspiracy terms appear among the augmentations.
        let all_terms: Vec<&str> = result
            .explanations
            .iter()
            .flat_map(|e| e.terms.iter().map(String::as_str))
            .collect();
        assert!(
            all_terms.iter().any(|t| t.contains("microchip")),
            "microchip among {all_terms:?}"
        );
        assert!(all_terms.contains(&"5g"), "5g among {all_terms:?}");

        // The two headline augmentations of the figure, checked directly.
        let r5g = engine.full_ranking("covid outbreak 5g").rank_of(doc);
        assert_eq!(r5g, Some(2), "covid outbreak 5G -> rank 2/10");
        let r5gm = engine
            .full_ranking("covid outbreak 5g microchip")
            .rank_of(doc);
        assert_eq!(r5gm, Some(1), "covid outbreak 5G microchip -> rank 1/10");
    });
}

/// Figure 4: the Doc2Vec-nearest instance-based counterfactual surfaces the
/// near-duplicate fake-news article, which is highly similar yet absent
/// from the original top-10.
#[test]
fn figure4_doc2vec_nearest_instance() {
    with_engine(|engine, demo| {
        let doc = DocId(demo.fake_news as u32);
        let out = engine.doc2vec_nearest(demo.query, demo.k, doc, 1).unwrap();
        assert_eq!(out.len(), 1);
        let instance = &out[0];
        assert_eq!(
            instance.doc,
            DocId(demo.near_duplicate as u32),
            "the near-copy is the nearest non-relevant instance"
        );
        // The paper reports 75% similarity; we assert a healthy band rather
        // than the exact number (different embedding stack).
        assert!(
            instance.similarity > 0.4 && instance.similarity < 0.9999,
            "similarity {} should be high but not identical",
            instance.similarity
        );
        // Not among the top-10 for the original query.
        let ranking = engine.full_ranking(demo.query);
        match ranking.rank_of(instance.doc) {
            None => {}
            Some(r) => assert!(r > demo.k),
        }
    });
}

/// Figure 4, cosine-sampled variant: sampling non-relevant documents and
/// ranking them by BM25-score-vector cosine also surfaces the near-copy.
#[test]
fn figure4_cosine_sampled_instance() {
    with_engine(|engine, demo| {
        let doc = DocId(demo.fake_news as u32);
        // s larger than the non-relevant pool => exhaustive.
        let out = engine
            .cosine_sampled(demo.query, demo.k, doc, 1, Some(1000))
            .unwrap();
        assert_eq!(out[0].doc, DocId(demo.near_duplicate as u32));
        assert!(out[0].similarity > 0.5);
    });
}

/// Figure 5: the builder. Replacing covid/covid-19 with "flu" and
/// "outbreak" with "the flu" lowers the article from rank 3 to rank 11
/// (= k+1) — the green check mark — and the pool report includes the
/// revealed rank-11 document.
#[test]
fn figure5_builder() {
    with_engine(|engine, demo| {
        let doc = DocId(demo.fake_news as u32);
        let outcome = engine
            .builder_edits(
                demo.query,
                demo.k,
                doc,
                &[
                    Edit::replace("covid", "flu"),
                    Edit::replace("covid-19", "flu"),
                    Edit::replace("outbreak", "the flu"),
                ],
            )
            .unwrap();
        assert_eq!(outcome.old_rank, 3);
        assert_eq!(outcome.new_rank, demo.k + 1, "rank 3 -> 11");
        assert!(outcome.valid, "green check mark");
        assert_eq!(
            outcome.revealed,
            Some(DocId(demo.rank11 as u32)),
            "the flu-outbreak story is the revealed k+1 document"
        );
        // The edited body really lost the query terms.
        let lower = outcome.edited_body.to_lowercase();
        assert!(!lower.contains("covid"));
        assert!(!lower.contains("outbreak"));
        assert!(lower.contains("flu"));
        // Pool rows are a permutation of 1..=k+1 and everyone else moved up
        // or stayed.
        let mut ranks: Vec<usize> = outcome.rows.iter().map(|r| r.new_rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (1..=demo.k + 1).collect::<Vec<_>>());
        for row in outcome.rows.iter().filter(|r| !r.substituted) {
            assert!(row.movement() <= 0);
        }
    });
}

/// The Browse-Topics modal (§III-C): LDA over the ranked top-10 groups the
/// conspiracy vocabulary into a browsable topic.
#[test]
fn browse_topics_over_ranked_documents() {
    with_engine(|engine, demo| {
        let topics = engine.topics(demo.query, demo.k, 3).unwrap();
        assert_eq!(topics.len(), 3);
        let all_terms: Vec<&str> = topics
            .iter()
            .flat_map(|t| t.terms.iter().map(|(s, _)| s.as_str()))
            .collect();
        // The query's own terms dominate the ranked set.
        assert!(all_terms.contains(&"covid"));
        let weights: f64 = topics.iter().map(|t| t.weight).sum();
        assert!((weights - 1.0).abs() < 1e-9);
    });
}

/// Explanation validity is re-checkable end to end: re-running Figure 2's
/// accepted perturbation through the builder endpoint reports it valid.
#[test]
fn figure2_explanation_validates_through_builder() {
    with_engine(|engine, demo| {
        let doc = DocId(demo.fake_news as u32);
        let sr = engine
            .sentence_removal(demo.query, demo.k, doc, &SentenceRemovalConfig::default())
            .unwrap();
        let perturbed = &sr.explanations[0].perturbed_body;
        let outcome = engine
            .builder_rerank_budgeted(demo.query, demo.k, doc, perturbed, &Budget::unlimited())
            .unwrap();
        assert!(outcome.valid);
        assert_eq!(outcome.new_rank, sr.explanations[0].new_rank);
    });
}
