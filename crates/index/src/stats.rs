//! Collection statistics, decoupled from the physical index.
//!
//! The counterfactual algorithms repeatedly score *perturbed* documents that
//! are not in the index (sentence-removed variants, user edits from the
//! builder). Scoring them consistently requires the corpus-level statistics —
//! document frequency, average document length, collection size — to stay
//! fixed at their original values, exactly as Lucene does when monoT5 rescored
//! Anserini candidates in the original system. [`CollectionStats`] is that
//! frozen snapshot.

use credence_text::TermId;

/// Frozen corpus-level statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollectionStats {
    /// Number of documents in the corpus.
    pub num_docs: usize,
    /// Total number of term occurrences across the corpus.
    pub total_terms: u64,
    /// Document frequency per term id (index = `TermId`).
    pub doc_freq: Vec<u32>,
    /// Collection frequency per term id.
    pub coll_freq: Vec<u64>,
}

impl CollectionStats {
    /// Average document length in terms; 1.0 for an empty collection so
    /// length normalisation never divides by zero.
    pub fn avg_doc_len(&self) -> f64 {
        if self.num_docs == 0 {
            1.0
        } else {
            (self.total_terms as f64 / self.num_docs as f64).max(1.0)
        }
    }

    /// Document frequency of a term (0 when out of range).
    #[inline]
    pub fn df(&self, term: TermId) -> u32 {
        self.doc_freq.get(term as usize).copied().unwrap_or(0)
    }

    /// Collection frequency of a term (0 when out of range).
    #[inline]
    pub fn cf(&self, term: TermId) -> u64 {
        self.coll_freq.get(term as usize).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_safe() {
        let s = CollectionStats::default();
        assert_eq!(s.avg_doc_len(), 1.0);
        assert_eq!(s.df(0), 0);
        assert_eq!(s.cf(7), 0);
    }

    #[test]
    fn avg_doc_len() {
        let s = CollectionStats {
            num_docs: 4,
            total_terms: 40,
            doc_freq: vec![2, 4],
            coll_freq: vec![5, 9],
        };
        assert_eq!(s.avg_doc_len(), 10.0);
        assert_eq!(s.df(1), 4);
        assert_eq!(s.cf(0), 5);
    }
}
