//! Determinism regression for every seeded stochastic component.
//!
//! The hermetic RNG's whole point is byte-reproducible runs: with fixed
//! seeds, two fits of the same model on the same data must agree exactly —
//! not approximately — so experiment tables and BENCH trajectories are
//! diffable across machines. Each test here runs a component twice and
//! compares outputs with `==` (bit equality for floats), plus one sanity
//! check that changing the seed actually changes the output.

use credence_core::{cosine_sampled, CosineSampledConfig};
use credence_corpus::{SynthConfig, SyntheticCorpus};
use credence_embed::{Doc2Vec, Doc2VecConfig};
use credence_index::{Bm25Params, InvertedIndex};
use credence_rank::{rank_corpus, Bm25Ranker};
use credence_text::Analyzer;
use credence_topics::{LdaConfig, LdaModel};

fn synth(seed: u64) -> SyntheticCorpus {
    SyntheticCorpus::generate(SynthConfig {
        num_docs: 60,
        seed,
        ..SynthConfig::default()
    })
}

/// Token-id sequences for embedding training, via the built index's own
/// analyzer and vocabulary.
fn sequences(index: &InvertedIndex) -> (Vec<Vec<usize>>, usize) {
    let analyzer = index.analyzer();
    let seqs = index
        .documents()
        .iter()
        .map(|d| {
            analyzer
                .analyze(&d.body)
                .iter()
                .filter_map(|t| index.vocabulary().id(t).map(|x| x as usize))
                .collect()
        })
        .collect();
    (seqs, index.vocabulary().len())
}

#[test]
fn synthetic_corpus_is_seed_deterministic() {
    let a = synth(7);
    let b = synth(7);
    assert_eq!(a.docs, b.docs);

    let c = synth(8);
    assert_ne!(
        a.docs, c.docs,
        "different seeds must give different corpora"
    );
}

#[test]
fn doc2vec_training_is_seed_deterministic() {
    let corpus = synth(7);
    let index = InvertedIndex::build(corpus.docs.clone(), Analyzer::english());
    let (seqs, vocab) = sequences(&index);
    let cfg = Doc2VecConfig {
        dim: 16,
        epochs: 3,
        ..Doc2VecConfig::default()
    };

    let m1 = Doc2Vec::train(&seqs, vocab, &cfg);
    let m2 = Doc2Vec::train(&seqs, vocab, &cfg);
    for d in 0..m1.num_docs() {
        assert_eq!(m1.doc_vector(d), m2.doc_vector(d), "doc vector {d} differs");
    }
    // Inference is seeded too (it perturbs a fresh vector).
    assert_eq!(m1.infer(&seqs[0]), m2.infer(&seqs[0]));

    let m3 = Doc2Vec::train(&seqs, vocab, &Doc2VecConfig { seed: 43, ..cfg });
    assert_ne!(
        m1.doc_vector(0),
        m3.doc_vector(0),
        "different seeds must give different embeddings"
    );
}

#[test]
fn lda_fit_is_seed_deterministic() {
    let corpus = synth(7);
    let index = InvertedIndex::build(corpus.docs.clone(), Analyzer::english());
    let (seqs, vocab) = sequences(&index);
    let cfg = LdaConfig {
        num_topics: 4,
        iterations: 20,
        ..LdaConfig::default()
    };

    let m1 = LdaModel::fit(&seqs, vocab, &cfg);
    let m2 = LdaModel::fit(&seqs, vocab, &cfg);
    for t in 0..cfg.num_topics {
        for w in 0..vocab {
            assert_eq!(m1.phi(t, w), m2.phi(t, w), "phi({t},{w}) differs");
        }
        assert_eq!(m1.top_words(t, 10), m2.top_words(t, 10));
    }
    for d in 0..m1.num_docs() {
        for t in 0..cfg.num_topics {
            assert_eq!(m1.theta(d, t), m2.theta(d, t), "theta({d},{t}) differs");
        }
    }

    let m3 = LdaModel::fit(&seqs, vocab, &LdaConfig { seed: 43, ..cfg });
    let same = (0..cfg.num_topics).all(|t| (0..vocab).all(|w| m1.phi(t, w) == m3.phi(t, w)));
    assert!(
        !same,
        "different seeds must give different topic assignments"
    );
}

#[test]
fn cosine_sampled_explainer_is_seed_deterministic() {
    let corpus = synth(7);
    let index = InvertedIndex::build(corpus.docs.clone(), Analyzer::english());
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    let query = corpus.topic_query(0, 3);
    let ranking = rank_corpus(&ranker, &query);
    assert!(
        !ranking.is_empty(),
        "synthetic query must retrieve documents"
    );
    let doc = ranking.top_k(1)[0];
    let cfg = CosineSampledConfig {
        samples: 10,
        ..CosineSampledConfig::default()
    };

    let e1 = cosine_sampled(&ranker, &query, 1, doc, 5, &cfg, &ranking).unwrap();
    let e2 = cosine_sampled(&ranker, &query, 1, doc, 5, &cfg, &ranking).unwrap();
    assert_eq!(e1.len(), e2.len());
    for (a, b) in e1.iter().zip(&e2) {
        assert_eq!(a.doc, b.doc);
        assert_eq!(a.similarity, b.similarity);
        assert_eq!(a.rank, b.rank);
    }
}
