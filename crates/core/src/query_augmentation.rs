//! Counterfactual *query* explanations by term augmentation (§II-D).
//!
//! > "A valid explanation identifies a minimal set of terms that, when
//! > appended to the query, raises the rank of a selected document beyond
//! > some threshold."
//!
//! The algorithm, as specified:
//!
//! 1. Build candidate terms from the instance document, excluding terms
//!    already in the query (and stopwords, which the analyzer drops).
//! 2. Score each candidate with TF-IDF — frequency in the instance document,
//!    exclusivity among the ranked set `D^M` (the displayed top-k).
//! 3. Enumerate candidate-term combinations first by perturbation size
//!    (ascending), then by summed TF-IDF (descending).
//! 4. A candidate is a valid explanation when the document's rank under the
//!    augmented query reaches the threshold (`new_rank <= threshold`).
//! 5. Stop after `n` explanations or budget exhaustion.

use std::collections::{HashMap, HashSet};

use credence_index::score::tf_idf;
use credence_index::DocId;
use credence_rank::{rank_corpus_scan, AugmentedScorer, RankedList, Ranker};

use crate::budget::{Budget, SearchStatus};
use crate::combos::{CandidateOrdering, ComboSearch, SearchBudget};
use crate::error::{check_instance, ranked_within, ExplainError};
use crate::evaluator::{drive_search, EvalOptions};
use crate::explanation::QueryAugmentationExplanation;

/// Configuration for the query-augmentation explainer.
#[derive(Debug, Clone)]
pub struct QueryAugmentationConfig {
    /// Maximum number of explanations to return.
    pub n: usize,
    /// Rank the document must reach for an augmentation to count
    /// (`new_rank <= threshold`; Fig. 3 uses 2).
    pub threshold: usize,
    /// Search limits.
    pub budget: SearchBudget,
    /// Candidate ordering (ablation knob; the paper uses TF-IDF-guided).
    pub ordering: CandidateOrdering,
    /// Candidate-evaluation threading.
    pub eval: EvalOptions,
    /// Request-lifecycle bounds (deadline / eval cap / cancel flag).
    pub lifecycle: Budget,
}

impl Default for QueryAugmentationConfig {
    fn default() -> Self {
        Self {
            n: 1,
            threshold: 1,
            budget: SearchBudget::default(),
            ordering: CandidateOrdering::ImportanceGuided,
            eval: EvalOptions::default(),
            lifecycle: Budget::unlimited(),
        }
    }
}

/// One scored candidate term.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateTerm {
    /// The term in its document surface form (for display and appending).
    pub surface: String,
    /// The analysed (stemmed) form used for statistics.
    pub analyzed: String,
    /// Term frequency in the instance document.
    pub tf: u32,
    /// Number of top-k documents containing the term.
    pub set_df: u32,
    /// The TF-IDF score within the ranked set.
    pub tfidf: f64,
}

/// Result of a query-augmentation explanation request.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAugmentationResult {
    /// The explanations found, in discovery order.
    pub explanations: Vec<QueryAugmentationExplanation>,
    /// The scored candidate terms, sorted by TF-IDF descending.
    pub candidates: Vec<CandidateTerm>,
    /// Total augmented queries evaluated.
    pub candidates_evaluated: usize,
    /// The document's rank under the original query.
    pub old_rank: usize,
    /// How the search ended; anything but [`SearchStatus::Complete`] marks
    /// the result as the best-so-far prefix of a budget-limited run.
    pub status: SearchStatus,
}

/// Collect candidate terms from the instance document: analysed terms absent
/// from the analysed query, with their most frequent surface form.
fn collect_candidates(
    ranker: &dyn Ranker,
    query: &str,
    doc: DocId,
    top_k: &[DocId],
) -> Vec<CandidateTerm> {
    let index = ranker.index();
    let analyzer = index.analyzer();
    let body = &index.document(doc).expect("caller validated doc").body;

    let query_terms: HashSet<String> = analyzer.analyze(query).into_iter().collect();

    // Count analysed terms and track surface forms (most frequent wins;
    // ties broken by first appearance for determinism).
    let mut tf: HashMap<String, u32> = HashMap::new();
    let mut surfaces: HashMap<String, HashMap<String, (u32, usize)>> = HashMap::new();
    for (pos, tok) in analyzer.analyze_tokens(body).into_iter().enumerate() {
        if query_terms.contains(&tok.term) {
            continue;
        }
        *tf.entry(tok.term.clone()).or_insert(0) += 1;
        let surface = tok.raw.to_lowercase();
        let entry = surfaces
            .entry(tok.term)
            .or_default()
            .entry(surface)
            .or_insert((0, pos));
        entry.0 += 1;
    }

    // Set-level document frequency over the displayed ranking.
    let vocab = index.vocabulary();
    let mut candidates: Vec<CandidateTerm> = tf
        .into_iter()
        .map(|(analyzed, tf)| {
            let set_df = vocab.id(&analyzed).map_or(0, |tid| {
                top_k
                    .iter()
                    .filter(|&&d| index.term_freq(d, tid) > 0)
                    .count() as u32
            });
            let tfidf = tf_idf(tf, set_df, top_k.len());
            let surface = surfaces[&analyzed]
                .iter()
                .max_by(|a, b| (a.1 .0).cmp(&b.1 .0).then_with(|| b.1 .1.cmp(&a.1 .1)))
                .map(|(s, _)| s.clone())
                .unwrap_or_else(|| analyzed.clone());
            CandidateTerm {
                surface,
                analyzed,
                tf,
                set_df,
                tfidf,
            }
        })
        .collect();
    candidates.sort_by(|a, b| {
        b.tfidf
            .partial_cmp(&a.tfidf)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.analyzed.cmp(&b.analyzed))
    });
    candidates
}

/// Generate counterfactual query explanations for `doc` under `query` with
/// cutoff `k`, against the query's corpus `ranking` (the engine passes its
/// cached ranking; other callers pass `&rank_corpus(ranker, query)`).
///
/// Unlike sentence removal, the instance document need only be *ranked* (its
/// rank may exceed the threshold by any amount); raising an already-top-1
/// document is rejected as `InvalidParameter`.
pub fn explain_query_augmentation(
    ranker: &dyn Ranker,
    query: &str,
    k: usize,
    doc: DocId,
    config: &QueryAugmentationConfig,
    ranking: &RankedList,
) -> Result<QueryAugmentationResult, ExplainError> {
    check_instance(ranker.index(), query, k, doc, || {
        if config.threshold == 0 {
            return Err(ExplainError::InvalidParameter(
                "threshold must be at least 1",
            ));
        }
        Ok(())
    })?;
    let old_rank = ranked_within(ranking, doc, usize::MAX)?;
    if old_rank <= config.threshold {
        return Err(ExplainError::InvalidParameter(
            "document already ranks at or above the threshold",
        ));
    }

    let top_k = ranking.top_k(k);
    let candidates = collect_candidates(ranker, query, doc, &top_k);
    if candidates.is_empty() {
        return Err(ExplainError::NoCandidateTerms(doc));
    }

    let surfaces: Vec<&str> = candidates.iter().map(|c| c.surface.as_str()).collect();
    // The incremental ranker only re-scores documents in the appended terms'
    // posting lists; when a precondition fails (non-decomposable model, a
    // surface that re-analyses oddly) every candidate re-ranks the corpus.
    let scorer = AugmentedScorer::new(ranker, ranking, &surfaces);
    let rank_exact = |combo_items: &[usize]| -> Option<usize> {
        let appended: Vec<&str> = combo_items.iter().map(|&i| surfaces[i]).collect();
        let augmented_query = format!("{} {}", query, appended.join(" "));
        rank_corpus_scan(ranker, &augmented_query, 1, None).rank_of(doc)
    };

    let scores: Vec<f64> = candidates.iter().map(|c| c.tfidf).collect();
    let mut search = ComboSearch::new(&scores, config.budget, config.ordering);
    let found = drive_search(
        &mut search,
        config.n,
        &config.eval,
        &config.lifecycle,
        |combo| match &scorer {
            Some(s) => s.rank_with(&combo.items, doc),
            None => rank_exact(&combo.items),
        },
        |combo, new_rank, committed| {
            let new_rank = new_rank.filter(|&r| r <= config.threshold)?;
            let terms: Vec<String> = combo
                .items
                .iter()
                .map(|&i| candidates[i].surface.clone())
                .collect();
            let augmented_query = format!("{} {}", query, terms.join(" "));
            Some(QueryAugmentationExplanation {
                terms,
                augmented_query,
                tfidf: combo.score,
                old_rank,
                new_rank,
                candidates_evaluated: committed,
            })
        },
    );

    Ok(QueryAugmentationResult {
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

    /// Doc 2 ranks below docs 0/1 for "covid outbreak" but contains the
    /// exclusive high-signal terms "microchip" and "5g".
    fn fixture() -> InvertedIndex {
        InvertedIndex::build(
            vec![
                Document::from_body(
                    "covid outbreak coverage continues. The covid outbreak dominates headlines \
                     again today across the region.",
                ),
                Document::from_body(
                    "covid outbreak numbers climb. Hospitals monitor the covid outbreak \
                     carefully through the weekend period.",
                ),
                Document::from_body(
                    "The covid outbreak is a hoax spread by elites. A secret 5g microchip \
                     hides in every vaccine dose. The microchip tracks your location.",
                ),
                Document::from_body("Garden fair tickets are on sale at the gate."),
                Document::from_body("The 5g rollout reached the northern suburbs quickly."),
            ],
            Analyzer::english(),
        )
    }

    fn ranker(idx: &InvertedIndex) -> Bm25Ranker<'_> {
        Bm25Ranker::new(idx, Bm25Params::default())
    }

    #[test]
    fn instance_ranks_third_initially() {
        let idx = fixture();
        let r = ranker(&idx);
        let ranking = rank_corpus(&r, "covid outbreak");
        assert_eq!(ranking.rank_of(DocId(2)), Some(3));
    }

    #[test]
    fn finds_single_term_augmentation() {
        let idx = fixture();
        let r = ranker(&idx);
        let result = explain_query_augmentation(
            &r,
            "covid outbreak",
            3,
            DocId(2),
            &QueryAugmentationConfig {
                n: 1,
                threshold: 1,
                ..Default::default()
            },
            &rank_corpus(&r, "covid outbreak"),
        )
        .unwrap();
        assert_eq!(result.old_rank, 3);
        assert_eq!(result.explanations.len(), 1);
        let e = &result.explanations[0];
        assert_eq!(e.terms.len(), 1, "a single exclusive term suffices");
        assert_eq!(e.new_rank, 1);
        assert!(e.augmented_query.starts_with("covid outbreak "));
    }

    #[test]
    fn top_candidate_is_the_exclusive_frequent_term() {
        let idx = fixture();
        let r = ranker(&idx);
        let result = explain_query_augmentation(
            &r,
            "covid outbreak",
            3,
            DocId(2),
            &QueryAugmentationConfig::default(),
            &rank_corpus(&r, "covid outbreak"),
        )
        .unwrap();
        // "microchip" has tf 2 and set-df 1 → highest TF-IDF.
        assert_eq!(result.candidates[0].analyzed, "microchip");
        assert_eq!(result.candidates[0].tf, 2);
        assert_eq!(result.candidates[0].set_df, 1);
    }

    #[test]
    fn candidates_exclude_query_terms() {
        let idx = fixture();
        let r = ranker(&idx);
        let result = explain_query_augmentation(
            &r,
            "covid outbreak",
            3,
            DocId(2),
            &QueryAugmentationConfig::default(),
            &rank_corpus(&r, "covid outbreak"),
        )
        .unwrap();
        for c in &result.candidates {
            assert_ne!(c.analyzed, "covid");
            assert_ne!(c.analyzed, "outbreak");
        }
    }

    #[test]
    fn multiple_explanations_are_all_valid() {
        let idx = fixture();
        let r = ranker(&idx);
        let result = explain_query_augmentation(
            &r,
            "covid outbreak",
            3,
            DocId(2),
            &QueryAugmentationConfig {
                n: 5,
                threshold: 2,
                ..Default::default()
            },
            &rank_corpus(&r, "covid outbreak"),
        )
        .unwrap();
        assert!(!result.explanations.is_empty());
        for e in &result.explanations {
            assert!(e.new_rank <= 2, "{e:?}");
            // Independent re-check.
            let ranking = rank_corpus(&r, &e.augmented_query);
            assert_eq!(ranking.rank_of(DocId(2)), Some(e.new_rank));
        }
        // Minimality ordering: sizes never decrease.
        let sizes: Vec<usize> = result.explanations.iter().map(|e| e.terms.len()).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");
    }

    #[test]
    fn already_top_ranked_doc_rejected() {
        let idx = fixture();
        let r = ranker(&idx);
        let err = explain_query_augmentation(
            &r,
            "covid outbreak",
            3,
            DocId(0),
            &QueryAugmentationConfig {
                threshold: 1,
                ..Default::default()
            },
            &rank_corpus(&r, "covid outbreak"),
        )
        .unwrap_err();
        assert!(matches!(err, ExplainError::InvalidParameter(_)));
    }

    #[test]
    fn unranked_doc_rejected() {
        let idx = fixture();
        let r = ranker(&idx);
        let err = explain_query_augmentation(
            &r,
            "covid outbreak",
            3,
            DocId(3),
            &QueryAugmentationConfig::default(),
            &rank_corpus(&r, "covid outbreak"),
        )
        .unwrap_err();
        assert!(matches!(err, ExplainError::DocNotRelevant { .. }));
    }

    #[test]
    fn invalid_parameters_rejected() {
        let idx = fixture();
        let r = ranker(&idx);
        assert!(explain_query_augmentation(
            &r,
            "covid outbreak",
            0,
            DocId(2),
            &QueryAugmentationConfig::default(),
            &rank_corpus(&r, "covid outbreak")
        )
        .is_err());
        assert!(explain_query_augmentation(
            &r,
            "covid outbreak",
            3,
            DocId(2),
            &QueryAugmentationConfig {
                threshold: 0,
                ..Default::default()
            },
            &rank_corpus(&r, "covid outbreak")
        )
        .is_err());
        assert!(matches!(
            explain_query_augmentation(
                &r,
                "covid outbreak",
                3,
                DocId(99),
                &QueryAugmentationConfig::default(),
                &rank_corpus(&r, "covid outbreak")
            ),
            Err(ExplainError::DocNotFound(_))
        ));
    }

    #[test]
    fn surface_forms_are_appended_not_stems() {
        // "tracks" stems to "track"; the augmented query must carry a
        // surface form from the document, which re-analyses to the same stem.
        let idx = fixture();
        let r = ranker(&idx);
        let result = explain_query_augmentation(
            &r,
            "covid outbreak",
            3,
            DocId(2),
            &QueryAugmentationConfig {
                n: 8,
                threshold: 2,
                ..Default::default()
            },
            &rank_corpus(&r, "covid outbreak"),
        )
        .unwrap();
        let analyzer = idx.analyzer();
        for c in &result.candidates {
            let reanalyzed = analyzer.analyze(&c.surface);
            assert_eq!(
                reanalyzed,
                vec![c.analyzed.clone()],
                "surface {} must re-analyse to {}",
                c.surface,
                c.analyzed
            );
        }
    }
}
