//! The CREDENCE REST server.
//!
//! The original system exposes its backend as a FastAPI/Uvicorn REST API
//! (Figure 1). This crate reproduces that system boundary with a minimal
//! HTTP/1.1 server built on `std::net` — no async runtime, no web
//! framework — so the whole stack remains from-scratch Rust:
//!
//! * [`http`] — request parsing and response serialisation,
//! * [`requests`] — typed request structs parsed from JSON in one place
//!   (all invalid fields reported at once, unknown fields rejected),
//! * [`explainers`] — the explanation-family registry: one registration
//!   per cached, job-able family (its own fields, run step and payload),
//!   from which the handler, cache key, jobs, routes, metrics labels and
//!   the CLI's `explain` arm are derived,
//! * [`service`] — the endpoint handlers mapping the typed requests onto
//!   [`credence_core::CredenceEngine`] calls through a single route
//!   table,
//! * [`metrics`] — the zero-dependency observability registry served at
//!   `GET /metrics` in Prometheus text format,
//! * [`server`] — the TCP accept loop with one worker thread per
//!   connection (bounded by `--max-connections`) and a clean-shutdown
//!   handle,
//! * [`jobs`] — the async explanation job subsystem: a bounded submission
//!   queue, a fixed worker pool executing searches through the same
//!   respond step as the synchronous endpoints, and a TTL'd result store,
//! * [`client`] — the blocking fanout HTTP client with deadline handling
//!   and failure classification,
//! * [`router`] — scatter-gather cluster mode: `/rank` fans out one leg
//!   per doc-hash partition and merges with the retrieval tie-break,
//!   proven byte-identical to single-node; doc-affine endpoints relay to
//!   the owner worker.
//!
//! ## Endpoints (all JSON)
//!
//! Canonical paths live under `/api/v1`; every API route also answers at
//! its historical unversioned path as a deprecated alias carrying a
//! `Deprecation: true` header and a `Link` to the successor. The search
//! endpoints accept the shared lifecycle/search knobs `deadline_ms?`,
//! `max_evals?`, `max_size?`, `max_candidates?`, `eval_threads?`,
//! `eval_parallel_threshold?`, `eval_exact?`, `explain_cache_bypass?` and
//! report `status`
//! (`complete` | `exhausted` | `deadline` | `cancelled`) plus
//! `candidates_evaluated` alongside their explanations.
//!
//! | Method | Path                                 | Body |
//! |--------|--------------------------------------|------|
//! | GET    | `/api/v1/health`                     | — |
//! | GET    | `/metrics`                           | — (Prometheus text) |
//! | GET    | `/api/v1/corpus`                     | — |
//! | GET    | `/api/v1/doc/{id}`                   | — |
//! | POST   | `/api/v1/rank`                       | `{query, k}` |
//! | POST   | `/api/v1/explain/sentence-removal`   | `{query, k, doc, n?, …knobs}` |
//! | POST   | `/api/v1/explain/query-augmentation` | `{query, k, doc, n?, threshold?, …knobs}` |
//! | POST   | `/api/v1/explain/query-reduction`    | `{query, k, doc, n?, …knobs}` |
//! | POST   | `/api/v1/explain/term-removal`       | `{query, k, doc, n?, …knobs}` |
//! | POST   | `/api/v1/explain/feature_attribution`| `{query, k, doc, samples?, seed?, top_m?, lambda?, …knobs}` |
//! | POST   | `/api/v1/explain/doc2vec-nearest`    | `{query, k, doc, n?}` |
//! | POST   | `/api/v1/explain/cosine-sampled`     | `{query, k, doc, n?, samples?}` |
//! | POST   | `/api/v1/explain/nearest-to-text`    | `{text, n?, query?, k?}` |
//! | POST   | `/api/v1/topics`                     | `{query, k, num_topics?}` |
//! | POST   | `/api/v1/snippet`                    | `{query, doc, window?}` |
//! | POST   | `/api/v1/rerank`                     | `{query, k, doc, body, deadline_ms?}` |
//! | POST   | `/api/v1/jobs`                       | `{endpoint, request}` → `202 {job_id, status}` (or `429` + `Retry-After`) |
//! | GET    | `/api/v1/jobs/{id}`                  | — (`status`: `queued…expired`; `result` once terminal; `410` after TTL) |
//! | DELETE | `/api/v1/jobs/{id}`                  | — (queued → `cancelled`; running → budget cancel flag raised) |
//!
//! Errors use one envelope, `{"error": {"code", "message", ...}}`, with
//! the stable codes from [`credence_core::ExplainError::code`].

#![warn(missing_docs)]

pub mod client;
pub mod explain_cache;
pub mod explainers;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod requests;
pub mod router;
pub mod server;
pub mod service;

pub use client::{FailureKind, FanoutError, WireResponse};
pub use explain_cache::{ExplainCache, ExplainCacheConfig};
pub use jobs::{JobRunner, JobState, JobsConfig};
pub use metrics::Metrics;
pub use router::{RouterConfig, RouterState};
pub use server::{App, Server, ServerHandle, ServerOptions};
pub use service::{handle_request, AppState, RankerChoice, API_PREFIX};
