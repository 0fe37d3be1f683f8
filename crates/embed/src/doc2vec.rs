//! PV-DBOW Doc2Vec (Le & Mikolov 2014), the model behind the paper's
//! *Doc2Vec Nearest* instance-based explainer (§II-E).
//!
//! PV-DBOW learns one vector per document by training the document vector to
//! predict each word sampled from the document, with negative sampling —
//! the distributed-bag-of-words variant the gensim default (`dm=0`) CREDENCE
//! used maps to. [`Doc2Vec::infer`] embeds an *unseen* document (e.g. a
//! builder perturbation) by freezing the word-output matrix and training only
//! a fresh document vector, exactly as gensim's `infer_vector` does.

use std::sync::OnceLock;

use credence_rng::rngs::StdRng;
use credence_rng::{Rng, SeedableRng};

use crate::nn::QuantizedVectors;
use crate::sampling::UnigramTable;
use crate::vecmath::cosine;
use crate::word2vec::{decayed_lr, Sgns};

/// Hyper-parameters for PV-DBOW training.
#[derive(Debug, Clone)]
pub struct Doc2VecConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Initial learning rate (linearly decayed).
    pub lr: f32,
    /// Epochs used by [`Doc2Vec::infer`] for unseen documents.
    pub infer_epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Doc2VecConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            negatives: 5,
            epochs: 20,
            lr: 0.025,
            infer_epochs: 40,
            seed: 42,
        }
    }
}

/// A trained PV-DBOW model over a fixed corpus.
#[derive(Debug, Clone)]
pub struct Doc2Vec {
    dim: usize,
    vocab_size: usize,
    /// Row-major `num_docs × dim` document vectors.
    doc_vecs: Vec<f32>,
    /// Row-major `vocab_size × dim` word-output matrix.
    output: Vec<f32>,
    /// Negative-sampling table (None for an empty corpus).
    table: Option<UnigramTable>,
    config: Doc2VecConfig,
    num_docs: usize,
    /// Lazily-built i8 quantisation of `doc_vecs`, shared by the
    /// shortlist-then-rescore nearest-neighbour path.
    quantized: OnceLock<QuantizedVectors>,
}

impl Doc2Vec {
    /// Train on `docs`: one word-id sequence per document, ids in
    /// `0..vocab_size`.
    pub fn train(docs: &[Vec<usize>], vocab_size: usize, config: &Doc2VecConfig) -> Self {
        Self::train_with(
            docs,
            vocab_size,
            config,
            |sgns, center, output, word, lr, rng| sgns.update(center, output, word, lr, rng),
        )
    }

    /// [`Self::train`] with the SGNS step passed in, so that tests can run
    /// the same loop with the sequential reference step.
    fn train_with(
        docs: &[Vec<usize>],
        vocab_size: usize,
        config: &Doc2VecConfig,
        mut update: impl FnMut(&mut Sgns<'_>, &mut [f32], &mut [f32], usize, f32, &mut StdRng),
    ) -> Self {
        assert!(config.dim > 0, "embedding dimension must be positive");
        let mut counts = vec![0u64; vocab_size];
        let mut total_tokens = 0u64;
        for d in docs {
            for &w in d {
                debug_assert!(w < vocab_size, "word id {w} out of range");
                counts[w] += 1;
                total_tokens += 1;
            }
        }
        let dim = config.dim;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let scale = 0.5 / dim as f32;
        let mut doc_vecs: Vec<f32> = (0..docs.len() * dim)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        let mut output = vec![0.0f32; vocab_size * dim];
        let table = UnigramTable::standard(&counts);

        if let Some(table) = &table {
            let total_steps = (total_tokens as usize).max(1) * config.epochs.max(1);
            let mut step = 0usize;
            let mut sgns = Sgns::new(table, config.negatives, dim);
            for _ in 0..config.epochs {
                for (doc_id, words) in docs.iter().enumerate() {
                    let center = &mut doc_vecs[doc_id * dim..(doc_id + 1) * dim];
                    for &word in words {
                        let lr = decayed_lr(config.lr, step, total_steps);
                        step += 1;
                        update(&mut sgns, center, &mut output, word, lr, &mut rng);
                    }
                }
            }
        }

        Self {
            dim,
            vocab_size,
            doc_vecs,
            output,
            table,
            config: config.clone(),
            num_docs: docs.len(),
            quantized: OnceLock::new(),
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of trained document vectors.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Size of the word vocabulary the model was trained against.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// The trained vector of corpus document `doc`.
    pub fn doc_vector(&self, doc: usize) -> &[f32] {
        &self.doc_vecs[doc * self.dim..(doc + 1) * self.dim]
    }

    /// The i8 quantisation of the document vectors, built on first use and
    /// cached. Feed it to
    /// [`nearest_neighbors_quantized`](crate::nn::nearest_neighbors_quantized)
    /// together with [`Self::doc_vector`] for the exact-rescore pass.
    pub fn quantized(&self) -> &QuantizedVectors {
        self.quantized.get_or_init(|| {
            QuantizedVectors::build(self.num_docs, self.dim, |d| self.doc_vector(d))
        })
    }

    /// Cosine similarity between two trained document vectors.
    pub fn similarity(&self, a: usize, b: usize) -> f32 {
        cosine(self.doc_vector(a), self.doc_vector(b))
    }

    /// Infer a vector for an unseen document (word ids in `0..vocab_size`),
    /// freezing the word-output matrix. Deterministic given the model seed.
    pub fn infer(&self, words: &[usize]) -> Vec<f32> {
        self.infer_with(words, |sgns, center, output, word, lr, rng| {
            sgns.update_frozen(center, output, word, lr, rng)
        })
    }

    /// [`Self::infer`] with the frozen SGNS step passed in, so that tests
    /// can run the same loop with the sequential reference step.
    fn infer_with(
        &self,
        words: &[usize],
        mut update: impl FnMut(&mut Sgns<'_>, &mut [f32], &[f32], usize, f32, &mut StdRng),
    ) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x9e37_79b9);
        let scale = 0.5 / self.dim as f32;
        let mut vec_buf: Vec<f32> = (0..self.dim)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        let Some(table) = &self.table else {
            return vec_buf;
        };
        if words.is_empty() {
            return vec_buf;
        }
        // Train a single "document row" against the output matrix, read
        // but never written (gensim freezes syn1neg during infer_vector).
        let total_steps = words.len() * self.config.infer_epochs.max(1);
        let mut step = 0usize;
        let mut sgns = Sgns::new(table, self.config.negatives, self.dim);
        for _ in 0..self.config.infer_epochs {
            for &w in words {
                debug_assert!(w < self.vocab_size, "word id {w} out of range");
                let lr = decayed_lr(self.config.lr, step, total_steps);
                step += 1;
                update(&mut sgns, &mut vec_buf, &self.output, w, lr, &mut rng);
            }
        }
        vec_buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word2vec::tests::{bits, parity_cases};

    #[test]
    fn training_and_inference_match_the_sequential_reference_bit_for_bit() {
        for (n, case) in parity_cases().iter().enumerate() {
            let cfg = Doc2VecConfig {
                dim: case.dim,
                negatives: case.negatives,
                epochs: case.epochs,
                infer_epochs: case.epochs + 1,
                lr: 0.05,
                seed: n as u64,
            };
            let fast = Doc2Vec::train(&case.docs, case.vocab, &cfg);
            let reference =
                Doc2Vec::train_with(&case.docs, case.vocab, &cfg, |s, c, o, w, lr, rng| {
                    s.update_reference(c, o, w, lr, rng)
                });
            for d in 0..case.docs.len() {
                assert_eq!(
                    bits(fast.doc_vector(d)),
                    bits(reference.doc_vector(d)),
                    "case {n} doc {d}"
                );
            }
            assert_eq!(
                bits(&fast.output),
                bits(&reference.output),
                "case {n} output"
            );
            for words in &case.docs {
                let inferred = reference.infer_with(words, |s, c, o, w, lr, rng| {
                    s.update_frozen_reference(c, o, w, lr, rng)
                });
                assert_eq!(
                    bits(&fast.infer(words)),
                    bits(&inferred),
                    "case {n} infer {words:?}"
                );
            }
        }
    }

    /// Corpus with two clusters of documents over disjoint vocabularies.
    fn clustered_docs() -> (Vec<Vec<usize>>, usize) {
        let mut docs = Vec::new();
        for i in 0..30 {
            let base = if i < 15 { 0 } else { 6 };
            let d: Vec<usize> = (0..30).map(|j| base + (i + j) % 6).collect();
            docs.push(d);
        }
        (docs, 12)
    }

    fn quick_cfg() -> Doc2VecConfig {
        Doc2VecConfig {
            dim: 16,
            epochs: 15,
            ..Default::default()
        }
    }

    #[test]
    fn learns_document_clusters() {
        let (docs, v) = clustered_docs();
        let model = Doc2Vec::train(&docs, v, &quick_cfg());
        let intra = model.similarity(0, 1);
        let inter = model.similarity(0, 20);
        assert!(
            intra > inter + 0.2,
            "intra-cluster {intra} should exceed inter-cluster {inter}"
        );
    }

    #[test]
    fn near_duplicate_documents_are_similar() {
        // Mirrors Fig. 4: a near-copy of a document should embed nearby.
        let mut docs: Vec<Vec<usize>> = Vec::new();
        for i in 0..20 {
            let base = (i % 4) * 5;
            docs.push((0..40).map(|j| base + (i + j) % 5).collect());
        }
        // doc 20 = near copy of doc 0 (same 5-word vocabulary, shifted).
        docs.push((0..40).map(|j| (j + 3) % 5).collect());
        let model = Doc2Vec::train(&docs, 20, &quick_cfg());
        let dup_sim = model.similarity(0, 20);
        let other_sim = model.similarity(0, 1); // different cluster (base 5)
        assert!(
            dup_sim > other_sim,
            "near-duplicate sim {dup_sim} must beat cross-cluster {other_sim}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (docs, v) = clustered_docs();
        let m1 = Doc2Vec::train(&docs, v, &quick_cfg());
        let m2 = Doc2Vec::train(&docs, v, &quick_cfg());
        assert_eq!(m1.doc_vector(5), m2.doc_vector(5));
    }

    #[test]
    fn infer_places_copy_near_original() {
        let (docs, v) = clustered_docs();
        let model = Doc2Vec::train(&docs, v, &quick_cfg());
        let inferred = model.infer(&docs[0]);
        let sim_same = cosine(model.doc_vector(0), &inferred);
        let sim_other = cosine(model.doc_vector(20), &inferred);
        assert!(
            sim_same > sim_other,
            "inferred copy of doc 0 should be nearer doc 0 ({sim_same}) than doc 20 ({sim_other})"
        );
    }

    #[test]
    fn infer_is_deterministic() {
        let (docs, v) = clustered_docs();
        let model = Doc2Vec::train(&docs, v, &quick_cfg());
        assert_eq!(model.infer(&docs[3]), model.infer(&docs[3]));
    }

    #[test]
    fn infer_empty_document_returns_init_vector() {
        let (docs, v) = clustered_docs();
        let model = Doc2Vec::train(&docs, v, &quick_cfg());
        let vec = model.infer(&[]);
        assert_eq!(vec.len(), model.dim());
        assert!(vec.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn empty_corpus_is_safe() {
        let model = Doc2Vec::train(&[], 5, &quick_cfg());
        assert_eq!(model.num_docs(), 0);
        let v = model.infer(&[1, 2, 3]);
        assert_eq!(v.len(), model.dim());
    }

    #[test]
    fn vectors_finite_after_training() {
        let (docs, v) = clustered_docs();
        let model = Doc2Vec::train(&docs, v, &quick_cfg());
        for d in 0..model.num_docs() {
            assert!(model.doc_vector(d).iter().all(|x| x.is_finite()));
        }
    }
}
