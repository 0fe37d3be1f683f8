//! Indexing and retrieval substrate for the CREDENCE reproduction.
//!
//! CREDENCE's original backend created a Lucene index through
//! Pyserini/Anserini and used it for (a) first-stage retrieval, (b) collection
//! statistics feeding TF-IDF candidate-term scores, and (c) BM25 score vectors
//! for the cosine-sampled instance-based explainer. This crate rebuilds that
//! surface from scratch:
//!
//! * [`doc`] — the document model ([`Document`], [`DocId`]),
//! * [`blocks`] — block-compressed posting lists (delta-encoded, bit-packed
//!   doc ids and term frequencies), the index's only posting storage,
//! * [`generation`] — generation-snapshot wrapper over [`index`]: a delta
//!   segment of staged mutations folded into fresh immutable segments by a
//!   background merge thread, with `Arc`-snapshot lock-free readers,
//! * [`index`] — an in-memory inverted index with postings, document lengths,
//!   and frequency statistics,
//! * [`stats`] — collection statistics decoupled from the index so ad-hoc
//!   (perturbed) documents can be scored against corpus-level statistics,
//! * [`score`] — BM25 (Lucene variant) and TF-IDF weighting,
//! * [`search`] — exact top-k retrieval,
//! * [`topk`] — the two exact top-k paths behind [`search`]: a scan over the
//!   blocks, and MaxScore pruning when `k` is below the candidate count,
//! * [`vector`] — sparse per-term score vectors + cosine similarity, the
//!   representation behind the *Cosine Sampled* explainer (§II-E).

#![warn(missing_docs)]

pub mod blocks;
pub mod doc;
pub mod generation;
pub mod highlight;
pub mod index;
pub mod partition;
pub mod phrase;
pub mod score;
pub mod search;
pub mod stats;
pub mod topk;
pub mod vector;

pub use blocks::{BlockMeta, CompressedPostings, DEFAULT_BLOCK_SIZE};
pub use doc::{DocId, Document};
pub use generation::{
    spawn_merger, DeltaOp, DocExists, GenerationIndex, MergeOutcome, MergerHandle,
};
pub use highlight::{best_snippet, highlight_terms, Highlight, Snippet};
pub use index::{InvertedIndex, Posting, TermBound};
pub use partition::{doc_partition, PartitionSpec};
pub use phrase::{analyze_phrase, phrase_freq, search_phrase};
pub use score::{bm25_idf, bm25_term_upper_bound, Bm25Params};
pub use search::{search_top_k, sort_hits, SearchHit};
pub use stats::CollectionStats;
pub use topk::{
    search_top_k_exhaustive, search_top_k_with, search_weighted_top_k_with, TopKOptions, TopKStats,
};
pub use vector::{cosine_similarity, SparseVector};
