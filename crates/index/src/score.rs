//! Term weighting: BM25 (Lucene variant) and TF-IDF.
//!
//! BM25 is the first-stage scorer, as in Anserini. TF-IDF is used by the
//! query-augmentation explainer (§II-D) to score candidate terms "based on
//! their frequency in, and exclusivity to, the instance document" among the
//! ranked set.

use credence_text::TermId;

use crate::doc::DocId;
use crate::index::{InvertedIndex, TermBound};
use crate::stats::CollectionStats;

/// BM25 free parameters.
///
/// Defaults are Anserini's (`k1 = 0.9`, `b = 0.4`), the values CREDENCE's
/// retrieval stack shipped with; [`Bm25Params::robertson`] gives the classic
/// `k1 = 1.2`, `b = 0.75`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Params {
    /// Term-frequency saturation.
    pub k1: f64,
    /// Length-normalisation strength.
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Self { k1: 0.9, b: 0.4 }
    }
}

impl Bm25Params {
    /// The classic Robertson/Sparck-Jones parametrisation.
    pub fn robertson() -> Self {
        Self { k1: 1.2, b: 0.75 }
    }
}

/// Lucene's BM25 idf: `ln(1 + (N - df + 0.5) / (df + 0.5))`.
///
/// Always positive, monotonically decreasing in `df`.
pub fn bm25_idf(num_docs: usize, df: u32) -> f64 {
    let n = num_docs as f64;
    let df = df as f64;
    (1.0 + (n - df + 0.5) / (df + 0.5)).ln()
}

/// BM25 weight of one term with frequency `tf` in a document of length
/// `doc_len`, under collection statistics `stats`.
pub fn bm25_term_weight(
    params: Bm25Params,
    stats: &CollectionStats,
    term: TermId,
    tf: u32,
    doc_len: u32,
) -> f64 {
    if tf == 0 {
        return 0.0;
    }
    let idf = bm25_idf(stats.num_docs, stats.df(term));
    let tf = tf as f64;
    let norm = params.k1 * (1.0 - params.b + params.b * doc_len as f64 / stats.avg_doc_len());
    idf * tf * (params.k1 + 1.0) / (tf + norm)
}

/// Upper bound on [`bm25_term_weight`] over every posting of a term, from
/// the statistics frozen at index-build time.
///
/// The BM25 weight is weakly monotone increasing in `tf` and weakly monotone
/// decreasing in document length (for `k1 > 0`, `0 <= b <= 1`), and each
/// IEEE-754 operation in the formula is correctly rounded and therefore
/// weakly monotone, so evaluating at (`max_tf`, `min_norm_len`) dominates the
/// weight of any actual posting to within a few ulps of rounding slack
/// (absorbed by the caller's bound inflation; see `topk`).
pub fn bm25_term_upper_bound(
    params: Bm25Params,
    stats: &CollectionStats,
    term: TermId,
    bound: TermBound,
) -> f64 {
    if bound.max_tf == 0 {
        return 0.0;
    }
    let idf = bm25_idf(stats.num_docs, stats.df(term));
    let tf = bound.max_tf as f64;
    let norm = params.k1 * (1.0 - params.b + params.b * bound.min_norm_len);
    idf * tf * (params.k1 + 1.0) / (tf + norm)
}

/// BM25 score of an indexed document for a bag of query term ids.
///
/// Duplicate query terms accumulate, mirroring Lucene's behaviour for
/// repeated terms — this matters for query-augmentation counterfactuals,
/// where appended terms strictly add score mass.
pub fn bm25_score_indexed(
    params: Bm25Params,
    index: &InvertedIndex,
    query: &[TermId],
    doc: DocId,
) -> f64 {
    let doc_len = index.doc_len(doc);
    query
        .iter()
        .map(|&t| bm25_term_weight(params, index.stats(), t, index.term_freq(doc, t), doc_len))
        .sum()
}

/// BM25 score of an *ad-hoc* document given as `(term, tf)` pairs (sorted by
/// term id) and its analysed length. Used to score perturbed documents that
/// are not in the index, against the frozen statistics.
pub fn bm25_score_adhoc(
    params: Bm25Params,
    stats: &CollectionStats,
    query: &[TermId],
    doc_terms: &[(TermId, u32)],
    doc_len: u32,
) -> f64 {
    query
        .iter()
        .map(|&t| {
            let tf = doc_terms
                .binary_search_by_key(&t, |&(x, _)| x)
                .map(|i| doc_terms[i].1)
                .unwrap_or(0);
            bm25_term_weight(params, stats, t, tf, doc_len)
        })
        .sum()
}

/// Smoothed TF-IDF of a term within a document set of size `set_size`, where
/// the term occurs in `set_df` of the set's documents and `tf` times in the
/// instance document: `tf * ln((1 + set_size) / (1 + set_df)) + 1)` — the
/// scikit-learn-style smoothing used in the original Python implementation.
pub fn tf_idf(tf: u32, set_df: u32, set_size: usize) -> f64 {
    let idf = (((1 + set_size) as f64) / ((1 + set_df) as f64)).ln() + 1.0;
    tf as f64 * idf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::Document;
    use credence_text::Analyzer;

    #[test]
    fn idf_is_positive_and_decreasing() {
        let n = 1000;
        let mut prev = f64::INFINITY;
        for df in [1u32, 5, 50, 500, 999] {
            let idf = bm25_idf(n, df);
            assert!(idf > 0.0);
            assert!(idf < prev, "idf must decrease with df");
            prev = idf;
        }
    }

    #[test]
    fn idf_handles_df_equal_n() {
        // Lucene's formulation stays positive even when every doc has the term.
        assert!(bm25_idf(10, 10) > 0.0);
    }

    #[test]
    fn term_weight_zero_for_absent_term() {
        let stats = CollectionStats {
            num_docs: 10,
            total_terms: 100,
            doc_freq: vec![5],
            coll_freq: vec![20],
        };
        assert_eq!(
            bm25_term_weight(Bm25Params::default(), &stats, 0, 0, 10),
            0.0
        );
    }

    #[test]
    fn term_weight_monotone_in_tf() {
        let stats = CollectionStats {
            num_docs: 10,
            total_terms: 100,
            doc_freq: vec![3],
            coll_freq: vec![9],
        };
        let p = Bm25Params::default();
        let mut prev = 0.0;
        for tf in 1..20 {
            let w = bm25_term_weight(p, &stats, 0, tf, 10);
            assert!(w > prev, "BM25 must increase with tf");
            prev = w;
        }
    }

    #[test]
    fn term_weight_saturates() {
        let stats = CollectionStats {
            num_docs: 10,
            total_terms: 100,
            doc_freq: vec![3],
            coll_freq: vec![9],
        };
        let p = Bm25Params::default();
        let w1 = bm25_term_weight(p, &stats, 0, 1, 10);
        let w2 = bm25_term_weight(p, &stats, 0, 2, 10);
        let w9 = bm25_term_weight(p, &stats, 0, 9, 10);
        let w10 = bm25_term_weight(p, &stats, 0, 10, 10);
        assert!(w2 - w1 > w10 - w9, "marginal gain must shrink (saturation)");
    }

    #[test]
    fn longer_docs_are_penalised() {
        let stats = CollectionStats {
            num_docs: 10,
            total_terms: 100, // avgdl = 10
            doc_freq: vec![3],
            coll_freq: vec![9],
        };
        let p = Bm25Params::default();
        let short = bm25_term_weight(p, &stats, 0, 2, 5);
        let long = bm25_term_weight(p, &stats, 0, 2, 50);
        assert!(short > long);
    }

    #[test]
    fn hand_computed_bm25() {
        // N = 2, avgdl = 3, df(t) = 1, tf = 1, doc_len = 3, k1=0.9, b=0.4.
        let stats = CollectionStats {
            num_docs: 2,
            total_terms: 6,
            doc_freq: vec![1],
            coll_freq: vec![1],
        };
        let idf = (1.0_f64 + (2.0 - 1.0 + 0.5) / 1.5).ln(); // ln(2)
        let expected = idf * 1.0 * 1.9 / (1.0 + 0.9 * (1.0 - 0.4 + 0.4 * 3.0 / 3.0));
        let got = bm25_term_weight(Bm25Params::default(), &stats, 0, 1, 3);
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn indexed_and_adhoc_scores_agree() {
        let idx = InvertedIndex::build(
            vec![
                Document::from_body("covid outbreak covid response"),
                Document::from_body("city council meeting agenda"),
            ],
            Analyzer::english(),
        );
        let q = idx.analyze_query("covid outbreak");
        let p = Bm25Params::default();
        let indexed = bm25_score_indexed(p, &idx, &q, DocId(0));
        let (terms, len) = idx.analyze_adhoc(&idx.document(DocId(0)).unwrap().body);
        let adhoc = bm25_score_adhoc(p, idx.stats(), &q, &terms, len);
        assert!((indexed - adhoc).abs() < 1e-12);
    }

    #[test]
    fn duplicate_query_terms_accumulate() {
        let idx = InvertedIndex::build(
            vec![Document::from_body("covid outbreak here")],
            Analyzer::english(),
        );
        let p = Bm25Params::default();
        let q1 = idx.analyze_query("covid");
        let q2 = idx.analyze_query("covid covid");
        let s1 = bm25_score_indexed(p, &idx, &q1, DocId(0));
        let s2 = bm25_score_indexed(p, &idx, &q2, DocId(0));
        assert!((s2 - 2.0 * s1).abs() < 1e-12);
    }

    #[test]
    fn term_upper_bound_dominates_every_posting() {
        let idx = InvertedIndex::build(
            vec![
                Document::from_body("covid covid covid outbreak response teams in the city"),
                Document::from_body("covid outbreak"),
                Document::from_body("city council meeting agenda covers the outbreak response"),
                Document::from_body("garden flowers bloom"),
            ],
            Analyzer::english(),
        );
        for p in [Bm25Params::default(), Bm25Params::robertson()] {
            for (tid, _) in idx.vocabulary().iter() {
                let ub = bm25_term_upper_bound(p, idx.stats(), tid, idx.term_bound(tid));
                for posting in idx.postings(tid) {
                    let w =
                        bm25_term_weight(p, idx.stats(), tid, posting.tf, idx.doc_len(posting.doc));
                    assert!(
                        w <= ub * (1.0 + 1e-9),
                        "posting weight {w} exceeds bound {ub}"
                    );
                }
            }
        }
    }

    #[test]
    fn tf_idf_prefers_exclusive_terms() {
        // Term appearing in 1 of 10 ranked docs beats one in 9 of 10.
        let rare = tf_idf(2, 1, 10);
        let common = tf_idf(2, 9, 10);
        assert!(rare > common);
        // And frequency in the instance document scales the score.
        assert!(tf_idf(4, 1, 10) > tf_idf(2, 1, 10));
    }

    #[test]
    fn tf_idf_zero_tf_is_zero() {
        assert_eq!(tf_idf(0, 3, 10), 0.0);
    }
}
