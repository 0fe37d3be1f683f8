//! Exact top-k retrieval over the inverted index.
//!
//! Ties broken by ascending `DocId` so results are fully deterministic (the
//! counterfactual algorithms compare ranks before/after perturbation and
//! need stable tie-breaks). The traversal itself lives in [`crate::topk`],
//! whose two paths are bit-identical to scoring every candidate.

use std::cmp::Ordering;

use credence_text::TermId;

use crate::doc::DocId;
use crate::index::InvertedIndex;
use crate::score::Bm25Params;
use crate::topk::{search_top_k_with, TopKOptions};

/// One search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The matching document.
    pub doc: DocId,
    /// Its score under the retrieval model.
    pub score: f64,
}

/// Rank the corpus for `query` (a bag of analysed term ids) under BM25 and
/// return the top `k` hits, best first. Documents scoring zero (no query
/// term) are never returned.
pub fn search_top_k(
    index: &InvertedIndex,
    params: Bm25Params,
    query: &[TermId],
    k: usize,
) -> Vec<SearchHit> {
    search_top_k_with(index, params, query, k, &TopKOptions::default()).0
}

/// The best-first order: descending score, ascending doc id on ties.
pub(crate) fn compare_hits(a: &SearchHit, b: &SearchHit) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.doc.cmp(&b.doc))
}

/// Sort hits best-first: descending score, ascending doc id on ties.
pub fn sort_hits(hits: &mut [SearchHit]) {
    hits.sort_unstable_by(compare_hits);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::Document;
    use credence_text::Analyzer;

    fn index() -> InvertedIndex {
        InvertedIndex::build(
            vec![
                Document::from_body("covid outbreak covid emergency"), // 0: strong
                Document::from_body("covid numbers rising"),           // 1: weaker
                Document::from_body("garden flowers bloom"),           // 2: no match
                Document::from_body("outbreak of joy in the city"),    // 3: partial
            ],
            Analyzer::english(),
        )
    }

    #[test]
    fn returns_best_first() {
        let idx = index();
        let q = idx.analyze_query("covid outbreak");
        let hits = search_top_k(&idx, Bm25Params::default(), &q, 10);
        assert_eq!(hits[0].doc, DocId(0));
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn non_matching_docs_excluded() {
        let idx = index();
        let q = idx.analyze_query("covid outbreak");
        let hits = search_top_k(&idx, Bm25Params::default(), &q, 10);
        assert!(hits.iter().all(|h| h.doc != DocId(2)));
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn k_truncates() {
        let idx = index();
        let q = idx.analyze_query("covid outbreak");
        let hits = search_top_k(&idx, Bm25Params::default(), &q, 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].doc, DocId(0));
    }

    #[test]
    fn k_zero_and_empty_query() {
        let idx = index();
        let q = idx.analyze_query("covid");
        assert!(search_top_k(&idx, Bm25Params::default(), &q, 0).is_empty());
        assert!(search_top_k(&idx, Bm25Params::default(), &[], 5).is_empty());
    }

    #[test]
    fn tie_break_is_by_doc_id() {
        let idx = InvertedIndex::build(
            vec![
                Document::from_body("alpha beta"),
                Document::from_body("alpha beta"),
                Document::from_body("alpha beta"),
            ],
            Analyzer::english(),
        );
        let q = idx.analyze_query("alpha");
        let hits = search_top_k(&idx, Bm25Params::default(), &q, 3);
        let ids: Vec<u32> = hits.iter().map(|h| h.doc.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn heap_truncation_keeps_best_under_ties() {
        let idx = InvertedIndex::build(
            (0..10).map(|_| Document::from_body("alpha beta")).collect(),
            Analyzer::english(),
        );
        let q = idx.analyze_query("alpha");
        let hits = search_top_k(&idx, Bm25Params::default(), &q, 4);
        let ids: Vec<u32> = hits.iter().map(|h| h.doc.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "lowest doc ids win ties");
    }

    #[test]
    fn matches_full_sort_reference() {
        let idx = index();
        let q = idx.analyze_query("covid outbreak city");
        let k = 3;
        let fast = search_top_k(&idx, Bm25Params::default(), &q, k);
        // Reference: score everything, sort, truncate.
        let mut all: Vec<SearchHit> = idx
            .doc_ids()
            .map(|d| SearchHit {
                doc: d,
                score: crate::score::bm25_score_indexed(Bm25Params::default(), &idx, &q, d),
            })
            .filter(|h| h.score > 0.0)
            .collect();
        sort_hits(&mut all);
        all.truncate(k);
        assert_eq!(fast.len(), all.len());
        for (a, b) in fast.iter().zip(all.iter()) {
            assert_eq!(a.doc, b.doc);
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }
}
