//! Sparse score vectors and cosine similarity.
//!
//! §II-E of the paper: "we build numeric vector representations of each
//! corpus document using their BM25 scores … we calculate similarity using a
//! cosine similarity formula." A document's vector assigns each of its terms
//! that term's BM25 weight within the document; two documents are similar
//! when they emphasise the same terms with similar strength.

use credence_text::TermId;

use crate::doc::DocId;
use crate::index::InvertedIndex;
use crate::score::{bm25_term_weight, Bm25Params};

/// A sparse vector over term ids, sorted by term id, no explicit zeros.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVector {
    entries: Vec<(TermId, f64)>,
}

impl SparseVector {
    /// Build from unsorted `(term, weight)` pairs; zero weights are dropped
    /// and duplicate terms accumulate.
    pub fn from_pairs(mut pairs: Vec<(TermId, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(t, _)| t);
        let mut entries: Vec<(TermId, f64)> = Vec::with_capacity(pairs.len());
        for (t, w) in pairs {
            if w == 0.0 {
                continue;
            }
            match entries.last_mut() {
                Some(last) if last.0 == t => last.1 += w,
                _ => entries.push((t, w)),
            }
        }
        Self { entries }
    }

    /// The non-zero entries, sorted by term id.
    pub fn entries(&self) -> &[(TermId, f64)] {
        &self.entries
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt()
    }

    /// Dot product with another sparse vector (merge join).
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.entries, &other.entries);
        let mut sum = 0.0;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }
}

/// Cosine similarity in `[-1, 1]`; zero when either vector is empty.
pub fn cosine_similarity(a: &SparseVector, b: &SparseVector) -> f64 {
    let denom = a.norm() * b.norm();
    if denom == 0.0 {
        0.0
    } else {
        (a.dot(b) / denom).clamp(-1.0, 1.0)
    }
}

/// The BM25 score vector of an indexed document: each term of the document
/// weighted by its BM25 contribution (tf saturation × idf × length norm).
pub fn bm25_doc_vector(index: &InvertedIndex, params: Bm25Params, doc: DocId) -> SparseVector {
    let len = index.doc_len(doc);
    let pairs = index
        .doc_terms(doc)
        .iter()
        .map(|&(t, tf)| (t, bm25_term_weight(params, index.stats(), t, tf, len)))
        .collect();
    SparseVector::from_pairs(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::Document;
    use credence_text::Analyzer;

    #[test]
    fn from_pairs_sorts_dedups_drops_zeros() {
        let v = SparseVector::from_pairs(vec![(3, 1.0), (1, 2.0), (3, 1.5), (2, 0.0)]);
        assert_eq!(v.entries(), &[(1, 2.0), (3, 2.5)]);
    }

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let v = SparseVector::from_pairs(vec![(0, 1.0), (5, 2.0), (9, 3.0)]);
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_disjoint_vectors_is_zero() {
        let a = SparseVector::from_pairs(vec![(0, 1.0), (1, 1.0)]);
        let b = SparseVector::from_pairs(vec![(2, 1.0), (3, 1.0)]);
        assert_eq!(cosine_similarity(&a, &b), 0.0);
    }

    #[test]
    fn cosine_with_empty_vector_is_zero() {
        let a = SparseVector::from_pairs(vec![(0, 1.0)]);
        let empty = SparseVector::default();
        assert_eq!(cosine_similarity(&a, &empty), 0.0);
        assert_eq!(cosine_similarity(&empty, &empty), 0.0);
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let a = SparseVector::from_pairs(vec![(0, 1.0), (1, 2.0)]);
        let b = SparseVector::from_pairs(vec![(0, 10.0), (1, 20.0)]);
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_is_symmetric() {
        let a = SparseVector::from_pairs(vec![(0, 1.0), (1, 2.0), (4, 0.5)]);
        let b = SparseVector::from_pairs(vec![(1, 3.0), (4, 1.0), (7, 2.0)]);
        assert!((cosine_similarity(&a, &b) - cosine_similarity(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn doc_vectors_reflect_term_overlap() {
        let idx = InvertedIndex::build(
            vec![
                Document::from_body("covid outbreak microchip tracking vaccine"),
                Document::from_body("covid outbreak microchip tracking vaccine"),
                Document::from_body("garden flowers bloom in spring sunshine"),
            ],
            Analyzer::english(),
        );
        let p = Bm25Params::default();
        let v0 = bm25_doc_vector(&idx, p, DocId(0));
        let v1 = bm25_doc_vector(&idx, p, DocId(1));
        let v2 = bm25_doc_vector(&idx, p, DocId(2));
        assert!((cosine_similarity(&v0, &v1) - 1.0).abs() < 1e-12);
        assert!(cosine_similarity(&v0, &v2) < 0.1);
    }
}
