//! Workspace root for the CREDENCE reproduction.
//!
//! This crate re-exports the public surface of every workspace member so the
//! integration tests under `tests/` and the runnable binaries under
//! `examples/` can exercise the whole system through one dependency.

#[cfg(any(test, feature = "testkit"))]
pub mod prop;
#[cfg(any(test, feature = "testkit"))]
pub mod wire;

pub use credence_core as core;
pub use credence_corpus as corpus;
pub use credence_embed as embed;
pub use credence_index as index;
pub use credence_json as json;
pub use credence_rank as rank;
pub use credence_server as server;
pub use credence_text as text;
pub use credence_topics as topics;
