//! Term-level counterfactual documents — the granularity ablation.
//!
//! §II-C motivates *sentence* removal by grammar preservation: "to generate
//! counterfactual explanations in terms of a selected document without
//! corrupting its grammar, we consider removing sentences". This module
//! implements the alternative the paper implicitly argues against — removing
//! individual *terms* — so the trade-off can be measured (T-GRAIN in
//! EXPERIMENTS.md): term removal finds smaller, more surgical perturbations,
//! at the cost of ungrammatical counterfactuals and a larger search space.
//!
//! The algorithm is the same minimality-ordered search: candidate terms are
//! the document's distinct terms scored by the number of occurrences that
//! match the query (mirroring the sentence-importance heuristic); removing a
//! term removes *all* of its occurrences.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use credence_index::{DocId, InvertedIndex};
use credence_rank::{PoolScorer, RankedList, Ranker, RemovalProfile};
use credence_text::tokenize;

use crate::budget::{Budget, SearchStatus};
use crate::combos::{CandidateOrdering, ComboSearch, SearchBudget};
use crate::error::{check_instance, ranked_within, ExplainError};
use crate::evaluator::{drive_search, EvalOptions, ReplayMemo};

/// Configuration for the term-removal explainer.
#[derive(Debug, Clone)]
pub struct TermRemovalConfig {
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

impl Default for TermRemovalConfig {
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

/// A term-removal counterfactual explanation.
#[derive(Debug, Clone, PartialEq)]
pub struct TermRemovalExplanation {
    /// The removed terms (surface forms as they appear in the document).
    pub removed_terms: Vec<String>,
    /// The perturbed body (all occurrences of the removed terms deleted).
    pub perturbed_body: String,
    /// Summed importance of the removed terms.
    pub importance: f64,
    /// Rank before perturbation.
    pub old_rank: usize,
    /// Rank after perturbation within the top-(k+1) pool.
    pub new_rank: usize,
    /// Cumulative candidates evaluated at acceptance.
    pub candidates_evaluated: usize,
}

/// Result of a term-removal request.
#[derive(Debug, Clone, PartialEq)]
pub struct TermRemovalResult {
    /// Explanations found, in discovery order.
    pub explanations: Vec<TermRemovalExplanation>,
    /// The candidate terms with their importance scores, best first.
    pub candidates: Vec<(String, f64)>,
    /// Total candidates evaluated.
    pub candidates_evaluated: usize,
    /// Original rank of the document.
    pub old_rank: usize,
    /// How the search ended; anything but [`SearchStatus::Complete`] marks
    /// the result as the best-so-far prefix of a budget-limited run.
    pub status: SearchStatus,
}

/// Remove every occurrence of the given surface terms (matched on the
/// normalised token) from `body`, collapsing leftover whitespace. Shared
/// with the LIME surrogate's exact scoring fallback.
pub(crate) fn remove_terms(body: &str, terms: &HashSet<String>) -> String {
    let mut out = String::with_capacity(body.len());
    let mut cursor = 0usize;
    for tok in tokenize(body) {
        out.push_str(&body[cursor..tok.start]);
        cursor = tok.end;
        if !terms.contains(&tok.term) {
            out.push_str(&tok.raw);
        }
    }
    out.push_str(&body[cursor..]);
    // Collapse double spaces produced by removals.
    let mut collapsed = String::with_capacity(out.len());
    let mut prev_space = false;
    for c in out.chars() {
        if c == ' ' {
            if !prev_space {
                collapsed.push(c);
            }
            prev_space = true;
        } else {
            prev_space = false;
            collapsed.push(c);
        }
    }
    collapsed.trim().to_string()
}

/// Candidate terms for the document-perturbation explainers: the document's
/// distinct surface (normalised) terms, scored by how many of their
/// occurrences are query terms (after full analysis) — the term-level
/// analogue of sentence importance — sorted best first with alphabetical
/// ties. Terms with zero query affinity are still candidates (the search
/// may need them), but sort last.
///
/// Term removal and the LIME surrogate (`crate::lime`) both derive their
/// candidate lists through this one function, in this exact order, because
/// [`ReplayMemo`] keys term profiles by `(query, doc)` alone: a profile
/// deposited by either explainer must replay bit-identically for the
/// other, which requires an identical surface list.
pub(crate) fn document_term_candidates(
    index: &InvertedIndex,
    query: &str,
    body: &str,
) -> Vec<(String, f64)> {
    let analyzer = index.analyzer();
    let query_terms: HashSet<String> = analyzer.analyze(query).into_iter().collect();
    let tokens = tokenize(body);
    let mut occurrences: HashMap<&str, f64> = HashMap::new();
    let mut order: Vec<&str> = Vec::new();
    for tok in &tokens {
        let count = occurrences.entry(tok.term.as_str()).or_insert_with(|| {
            order.push(tok.term.as_str());
            0.0
        });
        *count += 1.0;
    }
    let mut candidates: Vec<(String, f64)> = order
        .into_iter()
        .map(|term| {
            let analyzed = analyzer.analyze(term);
            let matches_query = analyzed
                .first()
                .is_some_and(|t| query_terms.contains(t.as_str()));
            let score = if matches_query {
                occurrences[term]
            } else {
                0.0
            };
            (term.to_string(), score)
        })
        .collect();
    candidates.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    candidates
}

/// The term profile ([`RemovalProfile::terms`]) of `body` over the
/// `candidates` of [`document_term_candidates`], through `memo` when there
/// is one; `None` when the ranker is not term-decomposable.
pub(crate) fn term_profile(
    ranker: &dyn Ranker,
    query: &str,
    doc: DocId,
    body: &str,
    candidates: &[(String, f64)],
    memo: Option<&ReplayMemo>,
) -> Option<Arc<RemovalProfile>> {
    let surfaces: Vec<&str> = candidates.iter().map(|c| c.0.as_str()).collect();
    let build = || RemovalProfile::terms(ranker, query, body, &surfaces);
    match memo {
        Some(m) => m.term_profile(query, doc, build),
        None => build().map(Arc::new),
    }
}

/// Generate term-removal counterfactuals for `doc` under `query`, against
/// the query's corpus `ranking` (the engine passes its cached ranking; other
/// callers pass `&rank_corpus(ranker, query)`).
///
/// Every candidate is ranked against the precomputed top-(k+1) pool
/// scores ([`PoolScorer`]). A term-decomposable ranker replays the
/// candidate's score from the term profile; any other ranker scores the
/// perturbed body exactly. With a `memo`, the profile and the pool scorer
/// are fetched from (or deposited into) it instead of rebuilt; shared
/// state is read-only during scoring, so the result is bit-identical
/// either way.
pub fn explain_term_removal(
    ranker: &dyn Ranker,
    query: &str,
    k: usize,
    doc: DocId,
    config: &TermRemovalConfig,
    ranking: &RankedList,
    memo: Option<&ReplayMemo>,
) -> Result<TermRemovalResult, ExplainError> {
    let index = ranker.index();
    let document = check_instance(index, query, k, doc, || Ok(()))?;
    let old_rank = ranked_within(ranking, doc, k)?;
    let pool = ranking.top_k(k.saturating_add(1));

    let candidates = document_term_candidates(index, query, &document.body);
    if candidates.is_empty() {
        return Err(ExplainError::NoCandidateTerms(doc));
    }

    // The perturbed body is only materialised for accepted explanations
    // when the profile replays the candidate's score.
    let pool_scorer = match memo {
        Some(m) => m.pool_scorer(query, k, doc, || PoolScorer::new(ranker, query, &pool, doc)),
        None => Arc::new(PoolScorer::new(ranker, query, &pool, doc)),
    };
    let profile = term_profile(ranker, query, doc, &document.body, &candidates, memo);

    let scores: Vec<f64> = candidates.iter().map(|c| c.1).collect();
    let mut search = ComboSearch::new(&scores, config.budget, config.ordering);
    let found = drive_search(
        &mut search,
        config.n,
        &config.eval,
        &config.lifecycle,
        |combo| {
            if let Some(profile) = &profile {
                let score = profile.score_without(ranker, &combo.items);
                return (pool_scorer.rank_for(score), None);
            }
            let terms: HashSet<String> = combo
                .items
                .iter()
                .map(|&i| candidates[i].0.clone())
                .collect();
            let perturbed = remove_terms(&document.body, &terms);
            let score = ranker.score_text(query, &perturbed);
            (pool_scorer.rank_for(score), Some(perturbed))
        },
        |combo, (new_rank, perturbed), committed| {
            if new_rank <= k {
                return None;
            }
            let mut removed: Vec<String> = combo
                .items
                .iter()
                .map(|&i| candidates[i].0.clone())
                .collect();
            let perturbed = perturbed.unwrap_or_else(|| {
                let terms: HashSet<String> = removed.iter().cloned().collect();
                remove_terms(&document.body, &terms)
            });
            removed.sort();
            Some(TermRemovalExplanation {
                removed_terms: removed,
                perturbed_body: perturbed,
                importance: combo.score,
                old_rank,
                new_rank,
                candidates_evaluated: committed,
            })
        },
    );

    Ok(TermRemovalResult {
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
    use credence_rank::{rank_corpus, rerank_pool, Bm25Ranker};
    use credence_text::Analyzer;

    fn fixture() -> InvertedIndex {
        InvertedIndex::build(
            vec![
                Document::from_body(
                    "The covid outbreak worries everyone. Gardens are quiet. \
                     Officials tracked the covid outbreak closely.",
                ),
                Document::from_body(
                    "covid outbreak updates arrive hourly for readers following the regional \
                     evening news bulletin.",
                ),
                Document::from_body(
                    "covid outbreak statistics were published early this morning by the \
                     county health department office.",
                ),
                Document::from_body("The annual garden show opened downtown."),
            ],
            Analyzer::english(),
        )
    }

    #[test]
    fn removes_the_minimal_term_set() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let result = explain_term_removal(
            &ranker,
            "covid outbreak",
            2,
            DocId(0),
            &TermRemovalConfig::default(),
            &rank_corpus(&ranker, "covid outbreak"),
            None,
        )
        .unwrap();
        assert!(!result.explanations.is_empty());
        let e = &result.explanations[0];
        assert!(e.new_rank > 2);
        // The perturbed body has lost the removed query terms entirely.
        for t in &e.removed_terms {
            assert!(!e.perturbed_body.to_lowercase().contains(t));
        }
    }

    #[test]
    fn term_removal_is_finer_grained_than_sentences() {
        // Removing the two query terms ("covid", "outbreak") guts relevance
        // without discarding whole sentences: the explanation removes at
        // most 2 terms while sentence removal needs 2 full sentences.
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let result = explain_term_removal(
            &ranker,
            "covid outbreak",
            2,
            DocId(0),
            &TermRemovalConfig::default(),
            &rank_corpus(&ranker, "covid outbreak"),
            None,
        )
        .unwrap();
        let e = &result.explanations[0];
        assert!(e.removed_terms.len() <= 2, "{:?}", e.removed_terms);
        // Non-removed content survives.
        assert!(e.perturbed_body.contains("Gardens"));
    }

    #[test]
    fn importance_ranks_query_terms_first() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let result = explain_term_removal(
            &ranker,
            "covid outbreak",
            2,
            DocId(0),
            &TermRemovalConfig::default(),
            &rank_corpus(&ranker, "covid outbreak"),
            None,
        )
        .unwrap();
        let top2: Vec<&str> = result.candidates[..2]
            .iter()
            .map(|c| c.0.as_str())
            .collect();
        assert!(top2.contains(&"covid"));
        assert!(top2.contains(&"outbreak"));
        assert_eq!(result.candidates[0].1, 2.0, "tf within the document");
    }

    #[test]
    fn validation_errors() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        assert!(matches!(
            explain_term_removal(
                &ranker,
                "covid",
                0,
                DocId(0),
                &TermRemovalConfig::default(),
                &rank_corpus(&ranker, "covid"),
                None
            ),
            Err(ExplainError::InvalidParameter(_))
        ));
        assert!(matches!(
            explain_term_removal(
                &ranker,
                "covid outbreak",
                2,
                DocId(3),
                &TermRemovalConfig::default(),
                &rank_corpus(&ranker, "covid outbreak"),
                None
            ),
            Err(ExplainError::DocNotRelevant { .. })
        ));
        assert!(matches!(
            explain_term_removal(
                &ranker,
                "covid outbreak",
                2,
                DocId(9),
                &TermRemovalConfig::default(),
                &rank_corpus(&ranker, "covid outbreak"),
                None
            ),
            Err(ExplainError::DocNotFound(_))
        ));
    }

    #[test]
    fn remove_terms_preserves_other_text() {
        let terms: HashSet<String> = ["covid".to_string()].into_iter().collect();
        let out = remove_terms("The covid outbreak, covid again.", &terms);
        assert_eq!(out, "The outbreak, again.");
    }

    #[test]
    fn remove_terms_handles_punctuation_adjacency() {
        let terms: HashSet<String> = ["covid-19".to_string()].into_iter().collect();
        let out = remove_terms("Covid-19, they said. (Covid-19!)", &terms);
        assert!(!out.to_lowercase().contains("covid"));
    }

    #[test]
    fn every_explanation_revalidates() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let k = 2;
        let result = explain_term_removal(
            &ranker,
            "covid outbreak",
            k,
            DocId(0),
            &TermRemovalConfig {
                n: 4,
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
