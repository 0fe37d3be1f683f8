//! Embedding substrate for the CREDENCE reproduction.
//!
//! The paper's *Doc2Vec Nearest* instance-based explainer (§II-E) trains a
//! Doc2Vec model (Le & Mikolov 2014) over the corpus and returns the most
//! similar non-relevant documents. The original system used gensim; this
//! crate implements the same model family from scratch:
//!
//! * [`vecmath`] — dense vector primitives,
//! * [`sampling`] — the `f(w)^0.75` unigram table for negative sampling,
//! * [`word2vec`] — skip-gram with negative sampling (SGNS), used by the
//!   semantic component of the neural-ranker stand-in,
//! * [`doc2vec`] — PV-DBOW document vectors with post-hoc inference for
//!   unseen (e.g. perturbed) documents,
//! * [`nn`] — exact top-n nearest-neighbour search by cosine similarity.
//!
//! All training is deterministic given a seed.

#![warn(missing_docs)]

pub mod doc2vec;
pub mod nn;
pub mod sampling;
pub mod vecmath;
pub mod word2vec;

pub use doc2vec::{Doc2Vec, Doc2VecConfig};
pub use nn::{nearest_neighbors, nearest_neighbors_quantized, Neighbor, QuantizedVectors};
pub use sampling::UnigramTable;
pub use vecmath::{cosine, dot, norm};
pub use word2vec::{Word2Vec, Word2VecConfig};
