//! Black-box rankers for the CREDENCE reproduction.
//!
//! §II-A of the paper defines the ranking function `R(q, d, D, M)` over a
//! *black-box* model `M` — the explanation algorithms only ever ask for
//! ranks, never for gradients or internals. This crate supplies that
//! interface and three interchangeable models:
//!
//! * [`Bm25Ranker`] — the Anserini first-stage ranker,
//! * [`QueryLikelihoodRanker`] — Dirichlet/Jelinek-Mercer smoothed language
//!   model ranking,
//! * [`NeuralSimRanker`] — the monoT5 stand-in: a hybrid of corpus-trained
//!   embedding similarity and lexical BM25 evidence (see DESIGN.md for why
//!   this preserves the behaviour the explainers depend on).
//!
//! [`rerank`] implements the two ranking operations every CREDENCE
//! explainer is built from: ranking the corpus, and re-ranking a top-(k+1)
//! pool with one document substituted for a perturbed version (§III-C).
//! The corpus is ranked two ways: [`rank_corpus`] / [`rank_corpus_with`]
//! run the model's index retrieval ([`Ranker::retrieve_top_k`]) where it has
//! one, and [`rank_corpus_scan`] scores every document — the fallback for
//! the other models and the bit-exact reference retrieval is tested
//! against.

#![warn(missing_docs)]

pub mod bm25;
pub mod incremental;
pub mod neural;
pub mod ql;
pub mod ranker;
pub mod rerank;
pub mod rm3;

pub use bm25::Bm25Ranker;
pub use incremental::{par_map_until, AugmentedScorer, PoolScorer, RemovalProfile, SubsetScorer};
pub use neural::{NeuralSimConfig, NeuralSimRanker};
pub use ql::{QlSmoothing, QueryLikelihoodRanker};
pub use ranker::{Opaque, Ranker};
pub use rerank::{
    rank_corpus, rank_corpus_scan, rank_corpus_with, rerank_pool, PoolEntry, RankedList,
};
pub use rm3::{Rm3Config, Rm3Ranker};
