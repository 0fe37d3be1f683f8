//! RM3 pseudo-relevance feedback (Lavrenko & Croft relevance models, as
//! shipped in Anserini's `-rm3` flag).
//!
//! RM3 runs the original query, assumes the top `fb_docs` results are
//! relevant, estimates a relevance model over their terms, keeps the
//! `fb_terms` strongest, and re-queries with the expanded term set —
//! interpolating original and expansion weights with `alpha`.
//!
//! In this reproduction RM3 is a fourth black-box ranker family: it is the
//! most *query-dependent* model (perturbing a document in the feedback set
//! changes the expanded query itself), which makes it a stress test for the
//! explainers' black-box assumption — covered in `tests/black_box_rankers`-
//! style integration tests.

use std::collections::HashMap;

use credence_index::score::bm25_term_weight;
use credence_index::{
    search_top_k_with, search_weighted_top_k_with, Bm25Params, DocId, InvertedIndex, SearchHit,
    TopKOptions, TopKStats,
};
use credence_text::TermId;

use crate::ranker::Ranker;

/// RM3 configuration.
#[derive(Debug, Clone, Copy)]
pub struct Rm3Config {
    /// Number of feedback documents (Anserini default 10).
    pub fb_docs: usize,
    /// Number of expansion terms kept (Anserini default 10).
    pub fb_terms: usize,
    /// Weight of the *original* query (Anserini default 0.5).
    pub alpha: f64,
    /// BM25 parameters of the underlying scorer.
    pub bm25: Bm25Params,
}

impl Default for Rm3Config {
    fn default() -> Self {
        Self {
            fb_docs: 10,
            fb_terms: 10,
            alpha: 0.5,
            bm25: Bm25Params::default(),
        }
    }
}

/// A weighted expanded query.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpandedQuery {
    /// `(term, weight)` pairs, weights summing to ~1, sorted by weight
    /// descending (ties by term id).
    pub terms: Vec<(TermId, f64)>,
}

/// BM25 + RM3 ranker.
#[derive(Debug, Clone)]
pub struct Rm3Ranker<'a> {
    index: &'a InvertedIndex,
    config: Rm3Config,
}

impl<'a> Rm3Ranker<'a> {
    /// Create an RM3 ranker over `index`.
    pub fn new(index: &'a InvertedIndex, config: Rm3Config) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.alpha),
            "alpha must be in [0,1]"
        );
        assert!(config.fb_docs > 0 && config.fb_terms > 0);
        Self { index, config }
    }

    /// Build the expanded query for `query` (exposed for inspection and
    /// tests). Returns the original query weights when there is no feedback
    /// signal at all.
    pub fn expand(&self, query: &str) -> ExpandedQuery {
        let q = self.index.analyze_query(query);
        if q.is_empty() {
            return ExpandedQuery { terms: Vec::new() };
        }
        // Original query model: uniform over query occurrences.
        let mut original: HashMap<TermId, f64> = HashMap::new();
        for &t in &q {
            *original.entry(t).or_insert(0.0) += 1.0 / q.len() as f64;
        }

        // First pass: BM25 top-k (MaxScore) — bit-identical to scoring the whole
        // corpus, sorting (score desc, doc asc) and truncating to fb_docs.
        let (hits, _) = search_top_k_with(
            self.index,
            self.config.bm25,
            &q,
            self.config.fb_docs,
            &TopKOptions::default(),
        );
        let scored: Vec<(DocId, f64)> = hits.into_iter().map(|h| (h.doc, h.score)).collect();

        // Relevance model: P(t|R) ∝ Σ_d P(t|d) · score(d).
        let mut feedback: HashMap<TermId, f64> = HashMap::new();
        let score_sum: f64 = scored.iter().map(|&(_, s)| s).sum();
        if score_sum > 0.0 {
            for &(d, s) in &scored {
                let len = self.index.doc_len(d).max(1) as f64;
                for &(t, tf) in self.index.doc_terms(d) {
                    *feedback.entry(t).or_insert(0.0) += (tf as f64 / len) * (s / score_sum);
                }
            }
        }
        // Keep the strongest fb_terms.
        let mut fb: Vec<(TermId, f64)> = feedback.into_iter().collect();
        fb.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        fb.truncate(self.config.fb_terms);
        let fb_mass: f64 = fb.iter().map(|&(_, w)| w).sum();

        // Interpolate: alpha·original + (1−alpha)·feedback (normalised).
        let mut combined: HashMap<TermId, f64> = HashMap::new();
        for (&t, &w) in &original {
            *combined.entry(t).or_insert(0.0) += self.config.alpha * w;
        }
        if fb_mass > 0.0 {
            for &(t, w) in &fb {
                *combined.entry(t).or_insert(0.0) += (1.0 - self.config.alpha) * (w / fb_mass);
            }
        }
        let mut terms: Vec<(TermId, f64)> = combined.into_iter().collect();
        terms.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        ExpandedQuery { terms }
    }

    fn score_expanded_counts(
        &self,
        expanded: &ExpandedQuery,
        doc_terms: &[(TermId, u32)],
        doc_len: u32,
    ) -> f64 {
        expanded
            .terms
            .iter()
            .map(|&(t, w)| {
                let tf = doc_terms
                    .binary_search_by_key(&t, |&(x, _)| x)
                    .map(|i| doc_terms[i].1)
                    .unwrap_or(0);
                w * bm25_term_weight(self.config.bm25, self.index.stats(), t, tf, doc_len)
            })
            .sum()
    }
}

impl Ranker for Rm3Ranker<'_> {
    fn name(&self) -> &str {
        "bm25+rm3"
    }

    fn index(&self) -> &InvertedIndex {
        self.index
    }

    fn score_doc(&self, query: &str, doc: DocId) -> f64 {
        let expanded = self.expand(query);
        self.score_expanded_counts(
            &expanded,
            self.index.doc_terms(doc),
            self.index.doc_len(doc),
        )
    }

    fn score_text(&self, query: &str, body: &str) -> f64 {
        let expanded = self.expand(query);
        let (terms, len) = self.index.analyze_adhoc(body);
        self.score_expanded_counts(&expanded, &terms, len)
    }

    fn retrieve_top_k(
        &self,
        query: &str,
        k: usize,
        opts: &TopKOptions,
    ) -> Option<(Vec<SearchHit>, TopKStats)> {
        // Expand once (score_doc re-expands per document — the dominant cost
        // of ranking a corpus under RM3) and hand the weighted query to the
        // top-k retrieval, whose exact scorer folds `w * bm25_term_weight` in
        // the same slice order as `score_expanded_counts`: bit-identical.
        let expanded = self.expand(query);
        Some(search_weighted_top_k_with(
            self.index,
            self.config.bm25,
            &expanded.terms,
            k,
            opts,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rerank::rank_corpus;
    use credence_index::Document;
    use credence_text::Analyzer;

    fn index() -> InvertedIndex {
        InvertedIndex::build(
            vec![
                Document::from_body(
                    "covid outbreak hospital quarantine ventilator hospital quarantine",
                ),
                Document::from_body("covid outbreak quarantine hospital beds fill quickly"),
                Document::from_body(
                    "hospital quarantine ventilator shortages continue this winter",
                ),
                Document::from_body("garden flowers bloom in the spring sunshine"),
                Document::from_body("the rowing club wins the spring regatta"),
            ],
            Analyzer::english(),
        )
    }

    #[test]
    fn expansion_includes_feedback_terms() {
        let idx = index();
        let r = Rm3Ranker::new(&idx, Rm3Config::default());
        let expanded = r.expand("covid outbreak");
        let vocab = idx.vocabulary();
        let names: Vec<&str> = expanded
            .terms
            .iter()
            .map(|&(t, _)| vocab.term(t).unwrap())
            .collect();
        assert!(names.contains(&"covid"));
        assert!(names.contains(&"outbreak"));
        // Co-occurring terms from the feedback docs enter the query.
        assert!(
            names.contains(&"hospit") || names.contains(&"quarantin"),
            "{names:?}"
        );
        // Weights are normalised-ish and descending.
        let total: f64 = expanded.terms.iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        assert!(expanded.terms.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn feedback_surfaces_related_unqueried_documents() {
        // Doc 2 shares no query term but matches the feedback terms.
        let idx = index();
        let rm3 = Rm3Ranker::new(&idx, Rm3Config::default());
        let ranking = rank_corpus(&rm3, "covid outbreak");
        assert!(
            ranking.rank_of(DocId(2)).is_some(),
            "feedback expansion must retrieve doc 2"
        );
        // The garden doc stays unretrieved.
        assert!(ranking.rank_of(DocId(3)).is_none());
    }

    #[test]
    fn doc_and_text_scores_agree() {
        let idx = index();
        let r = Rm3Ranker::new(&idx, Rm3Config::default());
        for d in idx.doc_ids() {
            let body = idx.document(d).unwrap().body.clone();
            let a = r.score_doc("covid outbreak", d);
            let b = r.score_text("covid outbreak", &body);
            assert!((a - b).abs() < 1e-12, "doc {d}");
        }
    }

    #[test]
    fn alpha_one_reduces_to_plain_bm25_ordering() {
        let idx = index();
        let rm3 = Rm3Ranker::new(
            &idx,
            Rm3Config {
                alpha: 1.0,
                ..Default::default()
            },
        );
        let bm25 = crate::bm25::Bm25Ranker::new(&idx, Bm25Params::default());
        let a = rank_corpus(&rm3, "covid outbreak");
        let b = rank_corpus(&bm25, "covid outbreak");
        // Same order over the docs both retrieve (RM3 keeps original terms
        // only, so the matched sets coincide).
        let order_a: Vec<DocId> = a.entries().iter().map(|&(d, _)| d).collect();
        let order_b: Vec<DocId> = b.entries().iter().map(|&(d, _)| d).collect();
        assert_eq!(order_a, order_b);
    }

    #[test]
    fn empty_query_expands_to_nothing() {
        let idx = index();
        let r = Rm3Ranker::new(&idx, Rm3Config::default());
        assert!(r.expand("zzz qqq").terms.is_empty());
        assert_eq!(r.score_doc("zzz qqq", DocId(0)), 0.0);
    }

    #[test]
    fn fb_terms_caps_expansion_size() {
        let idx = index();
        let r = Rm3Ranker::new(
            &idx,
            Rm3Config {
                fb_terms: 2,
                ..Default::default()
            },
        );
        let expanded = r.expand("covid outbreak");
        // At most 2 feedback terms + 2 original terms.
        assert!(expanded.terms.len() <= 4, "{}", expanded.terms.len());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        let idx = index();
        let _ = Rm3Ranker::new(
            &idx,
            Rm3Config {
                alpha: 1.5,
                ..Default::default()
            },
        );
    }
}
