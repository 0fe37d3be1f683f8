//! The neural-ranker stand-in (monoT5 substitute).
//!
//! The original CREDENCE demo reranked with monoT5, a sequence-to-sequence
//! cross-encoder. Its observable property — the only one the counterfactual
//! algorithms depend on — is that it scores query–document pairs by
//! *semantic* affinity, rewarding documents that discuss the query's topic
//! even beyond exact term overlap, while still being strongly driven by the
//! query terms themselves.
//!
//! [`NeuralSimRanker`] reproduces that behaviour with components trained
//! from scratch on the corpus: an SGNS word-embedding space
//! (`credence-embed`) provides the semantic signal as the cosine similarity
//! between the mean query vector and the mean document vector, and a
//! saturated BM25 component provides the lexical signal:
//!
//! ```text
//! score(q, d) = α · max(0, cos(v̄_q, v̄_d)) + (1 − α) · bm25(q, d) / (1 + bm25(q, d))
//! ```
//!
//! Both components lie in `[0, 1)`, so `α` meaningfully interpolates. The
//! model is a black box to the explainers: they only call
//! [`Ranker::score_doc`] / [`Ranker::score_text`].

use credence_embed::vecmath::cosine;
use credence_embed::{Word2Vec, Word2VecConfig};
use credence_index::score::{bm25_score_adhoc, bm25_score_indexed};
use credence_index::{Bm25Params, DocId, InvertedIndex};
use credence_text::TermId;

use crate::ranker::Ranker;

/// Configuration of the neural-sim ranker.
#[derive(Debug, Clone)]
pub struct NeuralSimConfig {
    /// Weight of the semantic (embedding) component, in `[0, 1]`.
    pub alpha: f64,
    /// BM25 parameters of the lexical component.
    pub bm25: Bm25Params,
    /// Embedding training configuration.
    pub embedding: Word2VecConfig,
}

impl Default for NeuralSimConfig {
    fn default() -> Self {
        Self {
            alpha: 0.4,
            bm25: Bm25Params::default(),
            embedding: Word2VecConfig {
                dim: 48,
                epochs: 5,
                ..Word2VecConfig::default()
            },
        }
    }
}

/// The trained hybrid ranker.
pub struct NeuralSimRanker<'a> {
    index: &'a InvertedIndex,
    config: NeuralSimConfig,
    embeddings: Word2Vec,
    /// Precomputed mean vector per document (row-major `num_docs × dim`).
    doc_vectors: Vec<f32>,
}

impl<'a> NeuralSimRanker<'a> {
    /// Train the embedding space on the corpus and precompute document
    /// vectors. Deterministic under the embedded seed.
    pub fn train(index: &'a InvertedIndex, config: NeuralSimConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.alpha),
            "alpha must lie in [0, 1]"
        );
        let sequences: Vec<Vec<usize>> = index
            .documents()
            .iter()
            .map(|d| {
                index
                    .analyze_query(&d.body)
                    .into_iter()
                    .map(|id| id as usize)
                    .collect()
            })
            .collect();
        let embeddings = Word2Vec::train(&sequences, index.vocabulary().len(), &config.embedding);
        let dim = embeddings.dim();
        let mut this = Self {
            index,
            config,
            embeddings,
            doc_vectors: Vec::new(),
        };
        // Compute document vectors through the same (term, tf) path that
        // `score_text` uses, so indexed and ad-hoc scoring agree bitwise.
        let mut doc_vectors = vec![0.0f32; index.num_docs() * dim];
        for d in index.doc_ids() {
            let v = this.mean_vector_of_counts(index.doc_terms(d));
            doc_vectors[d.index() * dim..(d.index() + 1) * dim].copy_from_slice(&v);
        }
        this.doc_vectors = doc_vectors;
        this
    }

    /// The trained embedding model (exposed for diagnostics).
    pub fn embeddings(&self) -> &Word2Vec {
        &self.embeddings
    }

    fn mean_vector_of_counts(&self, terms: &[(TermId, u32)]) -> Vec<f32> {
        let dim = self.embeddings.dim();
        let mut v = vec![0.0f32; dim];
        let mut total = 0u32;
        for &(t, tf) in terms {
            let w = self.embeddings.vector(t as usize);
            for (vi, wi) in v.iter_mut().zip(w) {
                *vi += tf as f32 * wi;
            }
            total += tf;
        }
        if total > 0 {
            let inv = 1.0 / total as f32;
            for x in v.iter_mut() {
                *x *= inv;
            }
        }
        v
    }

    fn query_vector(&self, query: &str) -> Vec<f32> {
        let ids: Vec<usize> = self
            .index
            .analyze_query(query)
            .iter()
            .map(|&t| t as usize)
            .collect();
        self.embeddings.mean_vector(&ids)
    }

    fn combine(&self, semantic: f64, bm25: f64) -> f64 {
        let lexical = bm25 / (1.0 + bm25);
        self.config.alpha * semantic.max(0.0) + (1.0 - self.config.alpha) * lexical
    }
}

impl Ranker for NeuralSimRanker<'_> {
    fn name(&self) -> &str {
        "neural-sim"
    }

    fn index(&self) -> &InvertedIndex {
        self.index
    }

    fn score_doc(&self, query: &str, doc: DocId) -> f64 {
        let qv = self.query_vector(query);
        let dim = self.embeddings.dim();
        let dv = &self.doc_vectors[doc.index() * dim..(doc.index() + 1) * dim];
        let semantic = cosine(&qv, dv) as f64;
        let q = self.index.analyze_query(query);
        let lexical = bm25_score_indexed(self.config.bm25, self.index, &q, doc);
        self.combine(semantic, lexical)
    }

    fn score_text(&self, query: &str, body: &str) -> f64 {
        let qv = self.query_vector(query);
        let (terms, len) = self.index.analyze_adhoc(body);
        let dv = self.mean_vector_of_counts(&terms);
        let semantic = cosine(&qv, &dv) as f64;
        let q = self.index.analyze_query(query);
        let lexical = bm25_score_adhoc(self.config.bm25, self.index.stats(), &q, &terms, len);
        self.combine(semantic, lexical)
    }

    fn zero_means_unmatched(&self) -> bool {
        // The semantic component can give positive relevance to documents
        // with no query term; every document participates in the ranking.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use credence_index::Document;
    use credence_text::Analyzer;

    /// A corpus with a clear covid cluster and a clear gardening cluster,
    /// plus a covid-adjacent document that never uses the query terms.
    fn index() -> InvertedIndex {
        let mut docs = Vec::new();
        for i in 0..12 {
            if i % 2 == 0 {
                docs.push(Document::from_body(
                    "covid outbreak infections quarantine hospital vaccine pandemic \
                     covid outbreak infections quarantine hospital vaccine pandemic",
                ));
            } else {
                docs.push(Document::from_body(
                    "garden flowers bloom soil seeds spring compost \
                     garden flowers bloom soil seeds spring compost",
                ));
            }
        }
        // Covid-adjacent, no literal query terms.
        docs.push(Document::from_body(
            "infections quarantine hospital vaccine pandemic wards \
             infections quarantine hospital vaccine pandemic wards",
        ));
        // Garden control of the same shape.
        docs.push(Document::from_body(
            "flowers soil seeds spring compost mulch \
             flowers soil seeds spring compost mulch",
        ));
        InvertedIndex::build(docs, Analyzer::english())
    }

    fn ranker(idx: &InvertedIndex) -> NeuralSimRanker<'_> {
        NeuralSimRanker::train(
            idx,
            NeuralSimConfig {
                embedding: Word2VecConfig {
                    dim: 24,
                    epochs: 20,
                    ..Word2VecConfig::default()
                },
                ..NeuralSimConfig::default()
            },
        )
    }

    #[test]
    fn doc_and_text_scores_agree() {
        let idx = index();
        let r = ranker(&idx);
        for d in idx.doc_ids() {
            let body = &idx.document(d).unwrap().body;
            let a = r.score_doc("covid outbreak", d);
            let b = r.score_text("covid outbreak", body);
            assert!((a - b).abs() < 1e-9, "doc {d}: {a} vs {b}");
        }
    }

    #[test]
    fn rewards_semantic_match_beyond_term_overlap() {
        // The defining monoT5-like property: the covid-adjacent document
        // (no query terms) must outscore the garden document (no query
        // terms either) for a covid query.
        let idx = index();
        let r = ranker(&idx);
        let adjacent = r.score_doc("covid outbreak", DocId(12));
        let garden = r.score_doc("covid outbreak", DocId(13));
        assert!(
            adjacent > garden,
            "semantically related {adjacent} must beat unrelated {garden}"
        );
        assert!(adjacent > 0.0);
    }

    #[test]
    fn lexical_match_still_dominates() {
        let idx = index();
        let r = ranker(&idx);
        let on_topic = r.score_doc("covid outbreak", DocId(0));
        let adjacent = r.score_doc("covid outbreak", DocId(12));
        assert!(on_topic > adjacent);
    }

    #[test]
    fn scores_bounded() {
        let idx = index();
        let r = ranker(&idx);
        for d in idx.doc_ids() {
            let s = r.score_doc("covid outbreak garden", d);
            assert!((0.0..=1.0).contains(&s), "score {s} out of bounds");
        }
    }

    #[test]
    fn alpha_zero_is_pure_lexical_ordering() {
        let idx = index();
        let r = NeuralSimRanker::train(
            &idx,
            NeuralSimConfig {
                alpha: 0.0,
                embedding: Word2VecConfig {
                    dim: 8,
                    epochs: 1,
                    ..Word2VecConfig::default()
                },
                ..NeuralSimConfig::default()
            },
        );
        // No-query-term docs must score exactly 0 when alpha = 0.
        assert_eq!(r.score_doc("covid", DocId(13)), 0.0);
        assert!(r.score_doc("covid", DocId(0)) > 0.0);
    }

    #[test]
    fn ranks_every_document() {
        let idx = index();
        let r = ranker(&idx);
        assert!(!r.zero_means_unmatched());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        let idx = index();
        let _ = NeuralSimRanker::train(
            &idx,
            NeuralSimConfig {
                alpha: 1.5,
                ..NeuralSimConfig::default()
            },
        );
    }
}
