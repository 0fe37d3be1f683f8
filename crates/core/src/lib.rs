//! # CREDENCE — counterfactual explanations for document ranking
//!
//! A from-scratch Rust reproduction of *"CREDENCE: Counterfactual
//! Explanations for Document Ranking"* (ICDE 2023). Given a corpus, a
//! black-box ranking model (`credence-rank`), and a query, this crate
//! generates the paper's four explanation families:
//!
//! 1. **Counterfactual documents** ([`sentence_removal`], §II-C) — minimal
//!    sets of sentences whose removal pushes a ranked document beyond `k`.
//! 2. **Counterfactual queries** ([`query_augmentation`], §II-D) — minimal
//!    sets of document terms which, appended to the query, raise the
//!    document's rank above a threshold.
//! 3. **Instance-based counterfactuals** ([`instance_based`], §II-E) —
//!    actual non-relevant corpus documents highly similar to the instance
//!    document, via Doc2Vec nearest neighbours or cosine over sampled BM25
//!    score vectors.
//! 4. **Build-your-own counterfactuals** ([`builder`], §III-C) — arbitrary
//!    user edits, re-ranked against the original top-(k+1) pool with
//!    validity checking.
//!
//! Each family has exactly one public function, and every one of them but
//! saliency takes the query's corpus ranking `D^M` as a
//! [`credence_rank::RankedList`]: pass `&rank_corpus(ranker, query)`, or let
//! the engine pass its cached ranking. They start from one shared instance
//! check (`k ≥ 1`, the document exists, the query analyses to a term, the
//! document is ranked within `k`), and the combination searches run one
//! accept-until-`n` loop ([`evaluator`]) over the minimality-ordered
//! enumeration of [`combos`]. [`engine`] exposes one façade
//! ([`CredenceEngine`]) mirroring the original system's REST backend
//! (Figure 1), including the LDA topic-browsing endpoint; [`Lru`] is the
//! O(1) LRU behind its ranking cache and the server's explanation cache.
//!
//! ## Quick start
//!
//! ```
//! use credence_core::{CredenceEngine, EngineConfig};
//! use credence_index::{Bm25Params, Document, InvertedIndex};
//! use credence_rank::Bm25Ranker;
//! use credence_text::Analyzer;
//!
//! let docs = vec![
//!     Document::from_body("covid outbreak strains hospitals. Masks required indoors."),
//!     Document::from_body("covid outbreak closes schools. Classes move online."),
//!     Document::from_body("garden show opens. Flowers bloom downtown."),
//! ];
//! let index = InvertedIndex::build(docs, Analyzer::english());
//! let ranker = Bm25Ranker::new(&index, Bm25Params::default());
//! let engine = CredenceEngine::new(&ranker, EngineConfig::fast());
//! let ranking = engine.rank("covid outbreak", 2);
//! assert_eq!(ranking.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod builder;
pub mod combos;
pub mod engine;
pub mod error;
pub mod evaluator;
pub mod explanation;
pub mod instance_based;
pub mod lime;
pub mod lru;
pub mod metrics;
pub mod query_augmentation;
pub mod query_reduction;
pub mod registry;
pub mod saliency;
pub mod sentence_removal;
pub mod term_removal;

pub use budget::{Budget, SearchStatus};
pub use builder::{apply_edits, test_edits, test_perturbation, BuilderOutcome, Edit};
pub use combos::{CandidateOrdering, ComboSearch, SearchBudget};
pub use credence_index::TopKOptions;
pub use engine::{CredenceEngine, EngineConfig, RetrievalStats};
pub use error::ExplainError;
pub use evaluator::{EvalOptions, ReplayMemo};
pub use explanation::{
    InstanceExplanation, QueryAugmentationExplanation, SentenceRemovalExplanation,
};
pub use instance_based::{cosine_sampled, doc2vec_nearest, CosineSampledConfig};
pub use lime::{
    explain_feature_attribution, FeatureAttribution, FeatureAttributionConfig,
    FeatureAttributionResult,
};
pub use lru::Lru;
pub use query_augmentation::{explain_query_augmentation, QueryAugmentationConfig};
pub use query_reduction::{
    explain_query_reduction, QueryReductionConfig, QueryReductionExplanation,
};
pub use registry::{
    bm25_factory, Corpus, CorpusInfo, CorpusRegistry, CorpusSnapshot, RankerFactory, SnapshotError,
    StageError,
};
pub use saliency::{explain_saliency, SaliencyExplanation, SaliencyUnit};
pub use sentence_removal::{explain_sentence_removal, SentenceRemovalConfig};
pub use term_removal::{explain_term_removal, TermRemovalConfig, TermRemovalExplanation};
