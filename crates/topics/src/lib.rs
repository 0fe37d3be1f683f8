//! Topic-modelling substrate for the CREDENCE reproduction.
//!
//! CREDENCE's *Browse Topics* feature (§II-B, §III-C) runs LDA over the
//! currently ranked top-k documents "allowing users to browse clusters of
//! terms found in selected documents, for the purpose of discovering
//! important terms that may influence relevance". The original system used
//! scikit-learn's LDA; this crate implements LDA from scratch with the
//! collapsed Gibbs sampler (Griffiths & Steyvers 2004):
//!
//! * [`lda`] — the sampler and fitted model,
//! * [`summary`] — human-readable topic summaries resolved through a
//!   [`credence_text::Vocabulary`].

#![warn(missing_docs)]

pub mod lda;
pub mod summary;

pub use lda::{LdaConfig, LdaModel};
pub use summary::{summarize_topics, TopicSummary};
