//! Counterfactual query *reduction* — the symmetric completion of §II-D.
//!
//! The paper's counterfactual queries append terms to *raise* a document;
//! the natural dual asks which of the query's own terms keep the document
//! relevant: a minimal subset of query terms whose **removal** lowers the
//! document's rank beyond `k`. ("Your article only ranks for `covid
//! outbreak` because of `outbreak` — drop it and the article disappears.")
//!
//! Together the four generative explainers cover the full perturbation
//! grid the paper's framework implies:
//!
//! | | perturb document | perturb query |
//! |---|---|---|
//! | **lower rank** | sentence removal (§II-C) | query reduction (this) |
//! | **raise rank** | builder edits (§III-C) | query augmentation (§II-D) |
//!
//! Candidates are the query's distinct analysed terms; a candidate's
//! importance is the document's BM25-style weight for that term (how much
//! score mass the document draws from it), and the usual size-major,
//! importance-descending enumeration guarantees minimality. Removing every
//! query term is excluded — an empty query has no ranking to speak of.

use std::collections::HashSet;

use credence_index::DocId;
use credence_rank::{rank_corpus_scan, RankedList, Ranker, SubsetScorer};

use crate::budget::{Budget, SearchStatus};
use crate::combos::{CandidateOrdering, ComboSearch, SearchBudget};
use crate::error::{check_instance, ranked_within, ExplainError};
use crate::evaluator::{drive_search, EvalOptions};

/// Configuration for the query-reduction explainer.
#[derive(Debug, Clone)]
pub struct QueryReductionConfig {
    /// Maximum number of explanations to return.
    pub n: usize,
    /// Search limits.
    pub budget: SearchBudget,
    /// Candidate ordering.
    pub ordering: CandidateOrdering,
    /// Candidate-evaluation threading.
    pub eval: EvalOptions,
    /// Request-lifecycle bounds (deadline / eval cap / cancel flag).
    pub lifecycle: Budget,
}

impl Default for QueryReductionConfig {
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

/// A query-reduction counterfactual.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReductionExplanation {
    /// The removed query terms (surface forms from the original query).
    pub removed_terms: Vec<String>,
    /// The reduced query.
    pub reduced_query: String,
    /// Summed importance of the removed terms.
    pub importance: f64,
    /// The document's rank under the original query.
    pub old_rank: usize,
    /// The document's rank under the reduced query (`None` when it is no
    /// longer retrieved at all — the strongest form of "beyond k").
    pub new_rank: Option<usize>,
    /// Cumulative candidates evaluated at acceptance.
    pub candidates_evaluated: usize,
}

/// Result of a query-reduction request.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReductionResult {
    /// Explanations found, in discovery order.
    pub explanations: Vec<QueryReductionExplanation>,
    /// The query's candidate terms with their importance, best first.
    pub candidates: Vec<(String, f64)>,
    /// Total candidates evaluated.
    pub candidates_evaluated: usize,
    /// Rank under the original query.
    pub old_rank: usize,
    /// How the search ended; anything but [`SearchStatus::Complete`] marks
    /// the result as the best-so-far prefix of a budget-limited run.
    pub status: SearchStatus,
}

/// Generate query-reduction counterfactuals for `doc` under `query` with
/// cutoff `k`, against the query's corpus `ranking` (the engine passes its
/// cached ranking; other callers pass `&rank_corpus(ranker, query)`).
pub fn explain_query_reduction(
    ranker: &dyn Ranker,
    query: &str,
    k: usize,
    doc: DocId,
    config: &QueryReductionConfig,
    ranking: &RankedList,
) -> Result<QueryReductionResult, ExplainError> {
    let index = ranker.index();
    check_instance(index, query, k, doc, || Ok(()))?;

    // Distinct query terms in surface form, keyed by analysed form.
    let mut surfaces: Vec<(String, String)> = Vec::new(); // (analysed, surface)
    let mut seen: HashSet<String> = HashSet::new();
    for tok in index.analyzer().analyze_tokens(query) {
        if seen.insert(tok.term.clone()) {
            surfaces.push((tok.term, tok.raw.to_lowercase()));
        }
    }
    // The query analyses to a term (checked above), so `surfaces` is
    // non-empty.
    if surfaces.len() < 2 {
        return Err(ExplainError::InvalidParameter(
            "query reduction needs at least two distinct query terms",
        ));
    }
    let old_rank = ranked_within(ranking, doc, k)?;

    // Importance: how much of the document's score each query term carries,
    // measured by scoring the document against the single-term query.
    let candidates: Vec<(String, f64)> = {
        let mut c: Vec<(String, f64)> = surfaces
            .iter()
            .map(|(_, surface)| (surface.clone(), ranker.score_doc(surface, doc)))
            .collect();
        c.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        c
    };

    // Map each candidate (importance order) back to its query-order surface
    // position so the incremental scorer can rank kept-term subsets.
    let query_surfaces: Vec<&str> = surfaces.iter().map(|(_, s)| s.as_str()).collect();
    let kept_positions = |combo_items: &[usize]| -> Vec<usize> {
        let removed: HashSet<&str> = combo_items
            .iter()
            .map(|&i| candidates[i].0.as_str())
            .collect();
        (0..query_surfaces.len())
            .filter(|&qi| !removed.contains(query_surfaces[qi]))
            .collect()
    };
    // The incremental ranker scores only documents in the kept terms'
    // posting lists; models without drop-zero semantics fall back to a full
    // corpus re-rank per candidate.
    let scorer = SubsetScorer::new(ranker, &query_surfaces);
    let rank_exact = |kept: &[usize]| -> Option<usize> {
        let reduced: Vec<&str> = kept.iter().map(|&qi| query_surfaces[qi]).collect();
        rank_corpus_scan(ranker, &reduced.join(" "), 1, None).rank_of(doc)
    };

    let scores: Vec<f64> = candidates.iter().map(|c| c.1).collect();
    let mut budget = config.budget;
    // Never remove every term.
    budget.max_size = budget.max_size.min(candidates.len() - 1);
    let mut search = ComboSearch::new(&scores, budget, config.ordering);
    let found = drive_search(
        &mut search,
        config.n,
        &config.eval,
        &config.lifecycle,
        |combo| {
            let kept = kept_positions(&combo.items);
            match &scorer {
                Some(s) => s.rank_with(&kept, doc),
                None => rank_exact(&kept),
            }
        },
        |combo, new_rank, committed| {
            // Dropping out of the ranking altogether is the strongest
            // form of "beyond k".
            if new_rank.is_some_and(|r| r <= k) {
                return None;
            }
            let mut removed_terms: Vec<String> = combo
                .items
                .iter()
                .map(|&i| candidates[i].0.clone())
                .collect();
            removed_terms.sort();
            let reduced_query = kept_positions(&combo.items)
                .into_iter()
                .map(|qi| query_surfaces[qi])
                .collect::<Vec<_>>()
                .join(" ");
            Some(QueryReductionExplanation {
                removed_terms,
                reduced_query,
                importance: combo.score,
                old_rank,
                new_rank,
                candidates_evaluated: committed,
            })
        },
    );

    Ok(QueryReductionResult {
        explanations: found.explanations,
        candidates,
        candidates_evaluated: found.candidates_evaluated,
        old_rank,
        status: found.status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use credence_index::{Bm25Params, Document, InvertedIndex};
    use credence_rank::{rank_corpus, Bm25Ranker};
    use credence_text::Analyzer;

    /// Doc 0 depends on "covid"; many other docs own "outbreak".
    fn fixture() -> InvertedIndex {
        InvertedIndex::build(
            vec![
                Document::from_body("covid covid covid guidance for travellers this spring"),
                Document::from_body("outbreak outbreak outbreak at the harbor facility"),
                Document::from_body("outbreak drills outbreak continue weekly"),
                Document::from_body("outbreak notices posted outbreak everywhere"),
                Document::from_body("garden fair tickets on sale"),
            ],
            Analyzer::english(),
        )
    }

    #[test]
    fn removing_the_supporting_term_drops_the_document() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        // For "covid outbreak", doc 0 is relevant only through "covid".
        let k = 4;
        let result = explain_query_reduction(
            &r,
            "covid outbreak",
            k,
            DocId(0),
            &QueryReductionConfig::default(),
            &rank_corpus(&r, "covid outbreak"),
        )
        .unwrap();
        assert!(!result.explanations.is_empty());
        let e = &result.explanations[0];
        assert_eq!(e.removed_terms, vec!["covid".to_string()]);
        assert_eq!(e.reduced_query, "outbreak");
        assert_eq!(e.new_rank, None, "doc 0 has no outbreak terms");
    }

    #[test]
    fn candidates_ordered_by_document_support() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let result = explain_query_reduction(
            &r,
            "covid outbreak",
            4,
            DocId(0),
            &QueryReductionConfig::default(),
            &rank_corpus(&r, "covid outbreak"),
        )
        .unwrap();
        assert_eq!(result.candidates[0].0, "covid");
        assert!(result.candidates[0].1 > result.candidates[1].1);
    }

    #[test]
    fn never_removes_every_term() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let result = explain_query_reduction(
            &r,
            "covid outbreak",
            4,
            DocId(0),
            &QueryReductionConfig {
                n: 10,
                ..Default::default()
            },
            &rank_corpus(&r, "covid outbreak"),
        )
        .unwrap();
        for e in &result.explanations {
            assert!(e.removed_terms.len() < 2, "{e:?}");
            assert!(!e.reduced_query.is_empty());
        }
    }

    #[test]
    fn single_term_queries_rejected() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let err = explain_query_reduction(
            &r,
            "covid",
            4,
            DocId(0),
            &QueryReductionConfig::default(),
            &rank_corpus(&r, "covid"),
        )
        .unwrap_err();
        assert!(matches!(err, ExplainError::InvalidParameter(_)));
    }

    #[test]
    fn validation_errors() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        assert!(explain_query_reduction(
            &r,
            "covid outbreak",
            0,
            DocId(0),
            &QueryReductionConfig::default(),
            &rank_corpus(&r, "covid outbreak")
        )
        .is_err());
        assert!(matches!(
            explain_query_reduction(
                &r,
                "covid outbreak",
                4,
                DocId(9),
                &QueryReductionConfig::default(),
                &rank_corpus(&r, "covid outbreak")
            ),
            Err(ExplainError::DocNotFound(_))
        ));
        assert!(matches!(
            explain_query_reduction(
                &r,
                "covid outbreak",
                4,
                DocId(4),
                &QueryReductionConfig::default(),
                &rank_corpus(&r, "covid outbreak")
            ),
            Err(ExplainError::DocNotRelevant { .. })
        ));
        assert!(matches!(
            explain_query_reduction(
                &r,
                "zzz qqq",
                4,
                DocId(0),
                &Default::default(),
                &rank_corpus(&r, "zzz qqq")
            ),
            Err(ExplainError::EmptyQuery)
        ));
    }

    #[test]
    fn explanations_revalidate() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let k = 4;
        let result = explain_query_reduction(
            &r,
            "covid outbreak",
            k,
            DocId(0),
            &QueryReductionConfig {
                n: 3,
                ..Default::default()
            },
            &rank_corpus(&r, "covid outbreak"),
        )
        .unwrap();
        for e in &result.explanations {
            let ranking = rank_corpus(&r, &e.reduced_query);
            assert_eq!(ranking.rank_of(DocId(0)), e.new_rank);
        }
    }
}
