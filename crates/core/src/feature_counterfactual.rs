//! Feature-level counterfactual explanations — the paper's future work,
//! implemented.
//!
//! §II-A closes with: "In future work, we plan to explain ranking models
//! that support richer sets of features (e.g., user preferences)." Given a
//! [`FeatureAwareRanker`], this
//! explainer finds *minimal sets of feature changes* that lower a document's
//! rank beyond `k` — the exact analogue of sentence removal, with features
//! as the perturbation unit.
//!
//! Candidate perturbations set one feature to an extreme of its `[0, 1]`
//! range (the direction that *hurts* the document's score, i.e. toward 0
//! for positively-weighted features). Candidate importance is the score
//! mass the change removes, `w_i · f_i`; combinations are enumerated
//! size-major, importance-descending — the same minimality-ordered search
//! as the textual explainers.

use credence_index::DocId;
use credence_rank::features::FeatureAwareRanker;
use credence_rank::rank_corpus;

use crate::budget::Budget;
use crate::combos::{CandidateOrdering, ComboSearch, SearchBudget};
use crate::error::{check_instance, ranked_within, ExplainError};
use crate::evaluator::{drive_search, EvalOptions};

/// Configuration for the feature-counterfactual explainer.
#[derive(Debug, Clone)]
pub struct FeatureCfConfig {
    /// Maximum number of explanations to return.
    pub n: usize,
    /// Search limits.
    pub budget: SearchBudget,
    /// Candidate ordering.
    pub ordering: CandidateOrdering,
}

impl Default for FeatureCfConfig {
    fn default() -> Self {
        Self {
            n: 1,
            budget: SearchBudget::default(),
            ordering: CandidateOrdering::ImportanceGuided,
        }
    }
}

/// One feature change within an explanation.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureChange {
    /// Feature index in the schema.
    pub feature: usize,
    /// Feature name.
    pub name: String,
    /// The document's actual value.
    pub from: f64,
    /// The counterfactual value.
    pub to: f64,
}

/// A feature-level counterfactual explanation.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureCfExplanation {
    /// The minimal set of feature changes.
    pub changes: Vec<FeatureChange>,
    /// Score mass removed by the changes.
    pub importance: f64,
    /// Rank before the changes.
    pub old_rank: usize,
    /// Rank after the changes, within the top-(k+1) pool.
    pub new_rank: usize,
    /// Cumulative candidates evaluated at acceptance.
    pub candidates_evaluated: usize,
}

/// Result of a feature-counterfactual request.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureCfResult {
    /// Explanations found, in discovery order.
    pub explanations: Vec<FeatureCfExplanation>,
    /// Per-feature importance (`w_i · f_i`), schema order.
    pub importance: Vec<f64>,
    /// Total candidates evaluated.
    pub candidates_evaluated: usize,
    /// Original rank.
    pub old_rank: usize,
}

/// Generate feature-level counterfactuals for `doc` under `query` with
/// cutoff `k`.
pub fn explain_feature_changes<R: FeatureAwareRanker>(
    ranker: &R,
    query: &str,
    k: usize,
    doc: DocId,
    config: &FeatureCfConfig,
) -> Result<FeatureCfResult, ExplainError> {
    check_instance(ranker.index(), query, k, doc, || Ok(()))?;
    if ranker.schema().is_empty() {
        return Err(ExplainError::NoCandidateTerms(doc));
    }
    let ranking = rank_corpus(ranker, query);
    let old_rank = ranked_within(&ranking, doc, k)?;
    let pool = ranking.top_k(k.saturating_add(1));
    let pool_scores: Vec<(DocId, f64)> = pool
        .iter()
        .map(|&d| (d, ranker.score_doc(query, d)))
        .collect();

    // Candidate i = "set feature i to the hurting extreme" (0 for positive
    // weights, 1 for negative). Importance = score mass removed.
    let actual = ranker.features(doc).to_vec();
    let weights = ranker.weights().to_vec();
    let targets: Vec<f64> = weights
        .iter()
        .map(|&w| if w >= 0.0 { 0.0 } else { 1.0 })
        .collect();
    let importance: Vec<f64> = weights
        .iter()
        .zip(&actual)
        .zip(&targets)
        .map(|((&w, &f), &t)| (w * (f - t)).abs())
        .collect();

    let mut search = ComboSearch::new(&importance, config.budget, config.ordering);
    let found = drive_search(
        &mut search,
        config.n,
        &EvalOptions::serial(),
        &Budget::unlimited(),
        |combo| {
            let mut hypothetical = actual.clone();
            for &i in &combo.items {
                hypothetical[i] = targets[i];
            }
            let new_score = ranker.score_with_features(query, doc, &hypothetical);
            // Rank within the pool under the hypothetical score; ties break
            // by doc id, matching `rerank_pool`.
            1 + pool_scores
                .iter()
                .filter(|&&(d, s)| d != doc && (s > new_score || (s == new_score && d < doc)))
                .count()
        },
        |combo, new_rank, committed| {
            (new_rank > k).then(|| FeatureCfExplanation {
                changes: combo
                    .items
                    .iter()
                    .map(|&i| FeatureChange {
                        feature: i,
                        name: ranker.schema().names()[i].clone(),
                        from: actual[i],
                        to: targets[i],
                    })
                    .collect(),
                importance: combo.score,
                old_rank,
                new_rank,
                candidates_evaluated: committed,
            })
        },
    );

    Ok(FeatureCfResult {
        explanations: found.explanations,
        importance,
        candidates_evaluated: found.candidates_evaluated,
        old_rank,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use credence_index::{Bm25Params, Document, InvertedIndex};
    use credence_rank::features::{FeatureRanker, FeatureSchema};
    use credence_rank::{Bm25Ranker, Ranker};
    use credence_text::Analyzer;

    fn index() -> InvertedIndex {
        InvertedIndex::build(
            vec![
                Document::from_body("covid outbreak coverage tonight"), // 0
                Document::from_body("covid outbreak coverage tonight"), // 1
                Document::from_body("covid outbreak coverage tonight"), // 2
                Document::from_body("covid outbreak coverage tonight"), // 3
            ],
            Analyzer::english(),
        )
    }

    /// Identical text; rank order is entirely feature-driven:
    /// doc 0 (0.9, 0.9) > doc 1 (0.8, 0.5) > doc 2 (0.3, 0.4) > doc 3 (0.1, 0.1).
    fn ranker(idx: &InvertedIndex) -> FeatureRanker<'_, Bm25Ranker<'_>> {
        FeatureRanker::new(
            idx,
            Bm25Ranker::new(idx, Bm25Params::default()),
            FeatureSchema::new(["recency", "popularity"]),
            vec![1.0, 1.0],
            vec![
                vec![0.9, 0.9],
                vec![0.8, 0.5],
                vec![0.3, 0.4],
                vec![0.1, 0.1],
            ],
        )
    }

    #[test]
    fn single_feature_change_suffices_for_doc1() {
        let idx = index();
        let r = ranker(&idx);
        // k = 2: doc 1 ranks second (1.3 feature mass). Zeroing recency
        // (0.8) drops it to 0.5 < doc 2's 0.7 and doc 3's 0.2? doc3 = 0.2,
        // so doc1 at 0.5 sits third -> rank 3 > k.
        let result = explain_feature_changes(
            &r,
            "covid outbreak",
            2,
            DocId(1),
            &FeatureCfConfig::default(),
        )
        .unwrap();
        assert_eq!(result.old_rank, 2);
        let e = &result.explanations[0];
        assert_eq!(e.changes.len(), 1);
        assert_eq!(e.changes[0].name, "recency");
        assert_eq!(e.changes[0].to, 0.0);
        assert!(e.new_rank > 2);
    }

    #[test]
    fn importance_reflects_score_mass() {
        let idx = index();
        let r = ranker(&idx);
        let result = explain_feature_changes(
            &r,
            "covid outbreak",
            2,
            DocId(1),
            &FeatureCfConfig::default(),
        )
        .unwrap();
        assert!((result.importance[0] - 0.8).abs() < 1e-12);
        assert!((result.importance[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn strong_documents_need_multiple_changes() {
        let idx = index();
        let r = ranker(&idx);
        // Doc 0 (1.8 mass): zeroing recency leaves 0.9 > doc 2's 0.7, so a
        // pair is needed to leave the top 2.
        let result = explain_feature_changes(
            &r,
            "covid outbreak",
            2,
            DocId(0),
            &FeatureCfConfig::default(),
        )
        .unwrap();
        let e = &result.explanations[0];
        assert_eq!(e.changes.len(), 2, "{e:?}");
        assert!(e.new_rank > 2);
        // Singles were tried first (minimality).
        assert!(e.candidates_evaluated > 2);
    }

    #[test]
    fn negative_weights_push_toward_one() {
        let idx = index();
        let r = FeatureRanker::new(
            &idx,
            Bm25Ranker::new(&idx, Bm25Params::default()),
            FeatureSchema::new(["staleness"]),
            vec![-1.0],
            vec![vec![0.0], vec![0.2], vec![0.9], vec![1.0]],
        );
        // doc 0 is best (no staleness). Its counterfactual sets staleness
        // to 1.0.
        let result = explain_feature_changes(
            &r,
            "covid outbreak",
            2,
            DocId(0),
            &FeatureCfConfig::default(),
        )
        .unwrap();
        let e = &result.explanations[0];
        assert_eq!(e.changes[0].to, 1.0);
        assert!(e.new_rank > 2);
    }

    #[test]
    fn validation_errors() {
        let idx = index();
        let r = ranker(&idx);
        assert!(explain_feature_changes(&r, "", 2, DocId(0), &FeatureCfConfig::default()).is_err());
        assert!(
            explain_feature_changes(&r, "covid", 0, DocId(0), &FeatureCfConfig::default()).is_err()
        );
        assert!(matches!(
            explain_feature_changes(&r, "covid", 2, DocId(9), &FeatureCfConfig::default()),
            Err(ExplainError::DocNotFound(_))
        ));
        assert!(matches!(
            explain_feature_changes(
                &r,
                "covid outbreak",
                2,
                DocId(3),
                &FeatureCfConfig::default()
            ),
            Err(ExplainError::DocNotRelevant { .. })
        ));
    }

    #[test]
    fn explanations_revalidate_under_hypothetical_scoring() {
        let idx = index();
        let r = ranker(&idx);
        let k = 2;
        let result = explain_feature_changes(
            &r,
            "covid outbreak",
            k,
            DocId(1),
            &FeatureCfConfig {
                n: 3,
                ..Default::default()
            },
        )
        .unwrap();
        use credence_rank::features::FeatureAwareRanker as _;
        for e in &result.explanations {
            let mut features = r.features(DocId(1)).to_vec();
            for c in &e.changes {
                features[c.feature] = c.to;
            }
            let hypo = r.score_with_features("covid outbreak", DocId(1), &features);
            // The hypothetical score must fall below at least
            // (pool_size - k) pool documents.
            let better = [DocId(0), DocId(2), DocId(3)]
                .iter()
                .filter(|&&d| r.score_doc("covid outbreak", d) > hypo)
                .count();
            assert!(better >= 2, "doc must sink below rank {k}");
        }
    }
}
