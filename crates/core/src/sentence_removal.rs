//! Counterfactual *document* explanations by sentence removal (§II-C).
//!
//! > "An explanation identifies a minimal subset of sentences in a given
//! > instance document whose removal lowers the rank of the document
//! > beyond k."
//!
//! The algorithm, exactly as the paper specifies:
//!
//! 1. Score every sentence of the instance document with an **importance**
//!    equal to the number of sentence terms that appear in the search query.
//! 2. Enumerate candidate sentence subsets first by perturbation size
//!    (ascending), then by summed importance (descending) —
//!    [`crate::combos::ComboSearch`].
//! 3. For each candidate, materialise the perturbed document, re-rank it
//!    against the original top-(k+1) pool (the same substitution re-ranking
//!    the builder uses, §III-C), and accept it into the explanation set when
//!    its new rank exceeds `k`.
//! 4. Stop after `n` explanations or when the budget is exhausted.
//!
//! Size-major enumeration guarantees the first accepted explanation is
//! minimal: "all perturbations with j removals must be evaluated before
//! those with j+1".

use credence_index::DocId;
use credence_rank::{PoolScorer, RankedList, Ranker, RemovalProfile};
use credence_text::{split_sentences, Sentence};

use crate::budget::{Budget, SearchStatus};
use crate::combos::{CandidateOrdering, ComboSearch, SearchBudget};
use crate::error::{check_instance, ranked_within, ExplainError};
use crate::evaluator::{drive_search, EvalOptions, ReplayMemo};
use crate::explanation::SentenceRemovalExplanation;

/// Configuration for the sentence-removal explainer.
#[derive(Debug, Clone)]
pub struct SentenceRemovalConfig {
    /// Maximum number of explanations to return (`n` in the paper).
    pub n: usize,
    /// Search limits.
    pub budget: SearchBudget,
    /// Candidate ordering (the ablation knob; the paper's algorithm is
    /// [`CandidateOrdering::ImportanceGuided`]).
    pub ordering: CandidateOrdering,
    /// Candidate-evaluation threading.
    pub eval: EvalOptions,
    /// Request-lifecycle bounds (deadline / eval cap / cancel flag). The
    /// default is [`Budget::unlimited`], which changes nothing.
    pub lifecycle: Budget,
}

impl Default for SentenceRemovalConfig {
    fn default() -> Self {
        Self {
            n: 1,
            budget: SearchBudget::default(),
            ordering: CandidateOrdering::ImportanceGuided,
            eval: EvalOptions::default(),
            lifecycle: Budget::unlimited(),
        }
    }
}

/// Result of a sentence-removal explanation request.
#[derive(Debug, Clone, PartialEq)]
pub struct SentenceRemovalResult {
    /// The explanations found, in discovery order.
    pub explanations: Vec<SentenceRemovalExplanation>,
    /// The document's sentences, as segmented.
    pub sentences: Vec<Sentence>,
    /// Per-sentence importance scores.
    pub importance: Vec<f64>,
    /// Total candidate perturbations evaluated.
    pub candidates_evaluated: usize,
    /// The document's original rank.
    pub old_rank: usize,
    /// How the search ended; anything but [`SearchStatus::Complete`] marks
    /// the result as the best-so-far prefix of a budget-limited run.
    pub status: SearchStatus,
}

/// Importance of a sentence: the number of its terms that appear in the
/// query (both sides analysed identically, so "Covid-19," matches "covid-19"
/// and stemmed forms agree with the index).
fn sentence_importance(ranker: &dyn Ranker, query: &str, sentence: &str) -> f64 {
    let analyzer = ranker.index().analyzer();
    let query_terms: std::collections::HashSet<String> =
        analyzer.analyze(query).into_iter().collect();
    analyzer
        .analyze(sentence)
        .iter()
        .filter(|t| query_terms.contains(t.as_str()))
        .count() as f64
}

/// Generate counterfactual document explanations for `doc` under `query`
/// with cutoff `k`, against the query's corpus `ranking` (the engine passes
/// its cached ranking; other callers pass `&rank_corpus(ranker, query)`).
///
/// A term-decomposable ranker replays each candidate from the document's
/// sentence profile ([`RemovalProfile::sentences`]); any other ranker
/// scores the perturbed text exactly. With a `memo`, the profile and the
/// top-(k+1) pool scorer are fetched from (or deposited into) it instead of
/// rebuilt, so repeated requests for the same document skip the
/// analyse-and-fold setup. Shared state is read-only during scoring, so the
/// result is bit-identical either way.
///
/// Errors when the document does not exist, the query is empty, the document
/// is not in the top-k (there is nothing to push out), or it has no
/// sentences.
pub fn explain_sentence_removal(
    ranker: &dyn Ranker,
    query: &str,
    k: usize,
    doc: DocId,
    config: &SentenceRemovalConfig,
    ranking: &RankedList,
    memo: Option<&ReplayMemo>,
) -> Result<SentenceRemovalResult, ExplainError> {
    let document = check_instance(ranker.index(), query, k, doc, || Ok(()))?;
    let old_rank = ranked_within(ranking, doc, k)?;

    let sentences = split_sentences(&document.body);
    if sentences.is_empty() {
        return Err(ExplainError::NoSentences(doc));
    }

    // The §III-C pool: the top-(k+1) documents of the original ranking.
    let pool = ranking.top_k(k.saturating_add(1));

    let importance: Vec<f64> = sentences
        .iter()
        .map(|s| sentence_importance(ranker, query, &s.text))
        .collect();

    let mut budget = config.budget;
    // Removing every sentence is allowed only when the paper's notion of a
    // perturbed document stays meaningful; cap at #sentences.
    budget.max_size = budget.max_size.min(sentences.len());

    let mut search = ComboSearch::new(&importance, budget, config.ordering);

    // Incremental evaluation: sentence tf profiles are analysed once, the
    // fixed pool scores once; each candidate then costs O(removed × |query|)
    // (plus an O(k) rank scan) instead of a full re-tokenise and re-rank.
    let texts: Vec<&str> = sentences.iter().map(|s| s.text.as_str()).collect();
    let build = || RemovalProfile::sentences(ranker, query, &texts);
    let profile = match memo {
        Some(m) => m.sentence_profile(query, doc, build),
        None => build().map(std::sync::Arc::new),
    };
    let pool_scorer = match memo {
        Some(m) => m.pool_scorer(query, k, doc, || PoolScorer::new(ranker, query, &pool, doc)),
        None => std::sync::Arc::new(PoolScorer::new(ranker, query, &pool, doc)),
    };
    let perturbed_body_without = |removed: &[usize]| -> String {
        sentences
            .iter()
            .filter(|s| !removed.contains(&s.index))
            .map(|s| s.text.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    };

    let found = drive_search(
        &mut search,
        config.n,
        &config.eval,
        &config.lifecycle,
        |combo| {
            let score = match &profile {
                Some(p) => p.score_without(ranker, &combo.items),
                None => ranker.score_text(query, &perturbed_body_without(&combo.items)),
            };
            pool_scorer.rank_for(score)
        },
        |combo, new_rank, committed| {
            (new_rank > k).then(|| SentenceRemovalExplanation {
                removed: combo.items.clone(),
                removed_text: combo
                    .items
                    .iter()
                    .map(|&i| sentences[i].text.clone())
                    .collect(),
                perturbed_body: perturbed_body_without(&combo.items),
                importance: combo.score,
                old_rank,
                new_rank,
                candidates_evaluated: committed,
            })
        },
    );

    Ok(SentenceRemovalResult {
        explanations: found.explanations,
        sentences,
        importance,
        candidates_evaluated: found.candidates_evaluated,
        old_rank,
        status: found.status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use credence_index::{Bm25Params, Document, InvertedIndex};
    use credence_rank::{rank_corpus, rerank_pool, Bm25Ranker};
    use credence_text::Analyzer;

    /// Tiny corpus where doc 0 is relevant through exactly two sentences.
    fn fixture() -> InvertedIndex {
        InvertedIndex::build(
            vec![
                Document::from_body(
                    "The covid outbreak worries everyone. Gardens are quiet this week. \
                     Officials tracked the covid outbreak closely.",
                ),
                Document::from_body(
                    "covid outbreak updates arrive hourly for readers following the regional \
                     evening news bulletin.",
                ),
                Document::from_body(
                    "covid outbreak statistics were published early this morning by the county \
                     health department office.",
                ),
                Document::from_body("The annual garden show opened downtown."),
            ],
            Analyzer::english(),
        )
    }

    #[test]
    fn finds_minimal_two_sentence_counterfactual() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        // k = 2: doc 0 ranks in the top two (tf 2 for both terms).
        let result = explain_sentence_removal(
            &ranker,
            "covid outbreak",
            2,
            DocId(0),
            &SentenceRemovalConfig::default(),
            &rank_corpus(&ranker, "covid outbreak"),
            None,
        )
        .unwrap();
        assert_eq!(result.explanations.len(), 1);
        let e = &result.explanations[0];
        // Both covid sentences (0 and 2) must go; the garden sentence stays.
        assert_eq!(e.removed, vec![0, 2]);
        assert!(e.new_rank > 2);
        assert_eq!(e.old_rank, 1);
        assert!((e.importance - 4.0).abs() < 1e-12);
        assert!(!e.perturbed_body.contains("covid"));
        assert!(e.perturbed_body.contains("Gardens"));
    }

    #[test]
    fn importance_scores_count_query_terms() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let result = explain_sentence_removal(
            &ranker,
            "covid outbreak",
            2,
            DocId(0),
            &SentenceRemovalConfig::default(),
            &rank_corpus(&ranker, "covid outbreak"),
            None,
        )
        .unwrap();
        assert_eq!(result.importance, vec![2.0, 0.0, 2.0]);
    }

    #[test]
    fn single_sentence_removals_tried_first() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let result = explain_sentence_removal(
            &ranker,
            "covid outbreak",
            2,
            DocId(0),
            &SentenceRemovalConfig::default(),
            &rank_corpus(&ranker, "covid outbreak"),
            None,
        )
        .unwrap();
        // 3 singles all fail, then (0,2) is the top-importance pair.
        assert_eq!(result.explanations[0].candidates_evaluated, 4);
    }

    #[test]
    fn multiple_explanations_requested() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let result = explain_sentence_removal(
            &ranker,
            "covid outbreak",
            2,
            DocId(0),
            &SentenceRemovalConfig {
                n: 3,
                ..Default::default()
            },
            &rank_corpus(&ranker, "covid outbreak"),
            None,
        )
        .unwrap();
        // (0,2), (0,1,2) — and any other subset containing both 0 and 2.
        assert!(result.explanations.len() >= 2);
        for e in &result.explanations {
            assert!(e.removed.contains(&0) && e.removed.contains(&2));
            assert!(e.new_rank > 2, "every accepted explanation is valid");
        }
        // Sizes never decrease across the discovery order.
        let sizes: Vec<usize> = result
            .explanations
            .iter()
            .map(|e| e.removed.len())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn doc_outside_top_k_is_rejected() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let err = explain_sentence_removal(
            &ranker,
            "covid outbreak",
            1,
            DocId(2),
            &SentenceRemovalConfig::default(),
            &rank_corpus(&ranker, "covid outbreak"),
            None,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ExplainError::DocNotRelevant { rank: Some(_), .. }
        ));
    }

    #[test]
    fn unranked_doc_is_rejected() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let err = explain_sentence_removal(
            &ranker,
            "covid outbreak",
            2,
            DocId(3),
            &SentenceRemovalConfig::default(),
            &rank_corpus(&ranker, "covid outbreak"),
            None,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ExplainError::DocNotRelevant { rank: None, .. }
        ));
    }

    #[test]
    fn missing_doc_and_bad_params() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        assert!(matches!(
            explain_sentence_removal(
                &ranker,
                "covid",
                2,
                DocId(99),
                &SentenceRemovalConfig::default(),
                &rank_corpus(&ranker, "covid"),
                None
            ),
            Err(ExplainError::DocNotFound(_))
        ));
        assert!(matches!(
            explain_sentence_removal(
                &ranker,
                "covid",
                0,
                DocId(0),
                &SentenceRemovalConfig::default(),
                &rank_corpus(&ranker, "covid"),
                None
            ),
            Err(ExplainError::InvalidParameter(_))
        ));
        assert!(matches!(
            explain_sentence_removal(
                &ranker,
                "zzz qqq",
                2,
                DocId(0),
                &SentenceRemovalConfig::default(),
                &rank_corpus(&ranker, "zzz qqq"),
                None
            ),
            Err(ExplainError::EmptyQuery)
        ));
    }

    #[test]
    fn budget_exhaustion_returns_partial_result() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let result = explain_sentence_removal(
            &ranker,
            "covid outbreak",
            2,
            DocId(0),
            &SentenceRemovalConfig {
                n: 1,
                budget: SearchBudget {
                    max_evaluations: 2,
                    ..SearchBudget::default()
                },
                ..Default::default()
            },
            &rank_corpus(&ranker, "covid outbreak"),
            None,
        )
        .unwrap();
        assert!(result.explanations.is_empty());
        assert_eq!(result.candidates_evaluated, 2);
    }

    #[test]
    fn every_returned_explanation_is_a_valid_counterfactual() {
        // Validity invariant: re-checking each explanation independently
        // reproduces new_rank > k.
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let k = 2;
        let result = explain_sentence_removal(
            &ranker,
            "covid outbreak",
            k,
            DocId(0),
            &SentenceRemovalConfig {
                n: 5,
                ..Default::default()
            },
            &rank_corpus(&ranker, "covid outbreak"),
            None,
        )
        .unwrap();
        let ranking = rank_corpus(&ranker, "covid outbreak");
        let pool = ranking.top_k(k + 1);
        for e in &result.explanations {
            let rows = rerank_pool(
                &ranker,
                "covid outbreak",
                &pool,
                Some((DocId(0), &e.perturbed_body)),
            );
            let rank = rows.iter().find(|r| r.substituted).unwrap().new_rank;
            assert_eq!(rank, e.new_rank);
            assert!(rank > k);
        }
    }
}
