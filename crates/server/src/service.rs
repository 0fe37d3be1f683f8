//! Endpoint handlers: JSON in, JSON out, engine in the middle.
//!
//! Routing is table-driven: every endpoint registers once in the route
//! table (`FIXED_ROUTES` plus one row per registered explanation family)
//! with its canonical `/api/v1/...` path, and the dispatcher also serves
//! each API route at its historical unversioned path as a **deprecated
//! alias** that answers with a `Deprecation: true` header and a `Link` to
//! the successor. Request bodies parse through the typed structs in
//! [`crate::requests`] (all invalid fields reported at once, unknown
//! fields rejected), errors serialise through one envelope —
//! `{"error": {"code", "message", ...}}` with the stable codes from
//! [`ExplainError::code`] — and every request is counted and timed in the
//! [`Metrics`] registry exposed at `GET /metrics`.
//!
//! Serving is multi-tenant: requests resolve a [`CorpusSnapshot`] out of
//! the [`CorpusRegistry`] (by `corpus` name and optional pinned
//! `generation`) and run entirely against that immutable snapshot. The
//! corpus-lifecycle routes (`/api/v1/corpora...`) register, mutate, and
//! remove corpora at runtime, and every 2xx body carries a top-level
//! `corpus` + `generation` envelope naming the snapshot that answered.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use credence_core::{
    Corpus, CorpusInfo, CorpusRegistry, CorpusSnapshot, EngineConfig, ExplainError, RankerFactory,
    SnapshotError,
};
use credence_index::{Bm25Params, DeltaOp, DocId, Document, InvertedIndex, TopKOptions};
use credence_json::{obj, parse, to_string, Value};
use credence_rank::{
    Bm25Ranker, NeuralSimConfig, NeuralSimRanker, PoolEntry, QlSmoothing, QueryLikelihoodRanker,
    Ranker, Rm3Config, Rm3Ranker,
};
use credence_text::Analyzer;

use crate::explain_cache::{ExplainCache, ExplainCacheConfig};
use crate::explainers::{Explainer, LimeStats, EXPLAINERS};
use crate::http::{Request, Response};
use crate::jobs::{CancelOutcome, JobRunner, JobView, JobsConfig, SubmitOutcome};
use crate::metrics::{render_family, Metrics};
use crate::requests::{
    CorpusPutRequest, CorpusRef, CosineSampledRequest, Doc2VecNearestRequest, DocAddRequest,
    DocPutRequest, ExplainRequest, FieldError, JobSubmitRequest, NearestToTextRequest, RankRequest,
    RefreshRequest, RerankRequest, SnippetRequest, TopicsRequest, DEFAULT_CORPUS,
};

/// The API version prefix canonical routes live under.
pub const API_PREFIX: &str = "/api/v1";

/// Everything a request handler needs, with `'static` lifetime so worker
/// threads can share it. Construct via [`AppState::leak`], which builds the
/// default corpus once and leaks the state (a deliberate one-time
/// allocation for the lifetime of the process, exactly like the original
/// service loading its Lucene index at startup). Further corpora register
/// and retire at runtime through the registry.
pub struct AppState {
    registry: CorpusRegistry,
    factory: RankerFactory,
    config: EngineConfig,
    metrics: Metrics,
    jobs: JobRunner,
    explain_cache: ExplainCache,
    pub(crate) lime: LimeStats,
    log_requests: AtomicBool,
}

/// Which ranking model the server explains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankerChoice {
    /// BM25 with Anserini defaults.
    #[default]
    Bm25,
    /// Query likelihood with Dirichlet smoothing.
    QlDirichlet,
    /// Query likelihood with Jelinek-Mercer smoothing.
    QlJm,
    /// BM25 + RM3 pseudo-relevance feedback.
    Rm3,
    /// The neural-sim hybrid (trains embeddings at startup).
    Neural,
}

impl RankerChoice {
    /// Parse a CLI-style name (`bm25`, `ql`, `ql-jm`, `rm3`, `neural`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "bm25" => Some(Self::Bm25),
            "ql" | "ql-dirichlet" => Some(Self::QlDirichlet),
            "ql-jm" => Some(Self::QlJm),
            "rm3" | "bm25+rm3" => Some(Self::Rm3),
            "neural" | "neural-sim" => Some(Self::Neural),
            _ => None,
        }
    }

    /// Build this ranking model over `index`.
    pub fn build(self, index: &InvertedIndex) -> Box<dyn Ranker + '_> {
        match self {
            Self::Bm25 => Box::new(Bm25Ranker::new(index, Bm25Params::default())),
            Self::QlDirichlet => {
                Box::new(QueryLikelihoodRanker::new(index, QlSmoothing::default()))
            }
            Self::QlJm => Box::new(QueryLikelihoodRanker::new(
                index,
                QlSmoothing::JelinekMercer { lambda: 0.5 },
            )),
            Self::Rm3 => Box::new(Rm3Ranker::new(index, Rm3Config::default())),
            Self::Neural => Box::new(NeuralSimRanker::train(index, NeuralSimConfig::default())),
        }
    }
}

/// The per-generation ranker constructor for `choice`. Every corpus in the
/// registry builds its rankers through this, so hot-swaps and merge-folded
/// generations all serve the model the process was started with.
fn ranker_factory(choice: RankerChoice) -> RankerFactory {
    Arc::new(move |index: &'static InvertedIndex| choice.build(index))
}

impl AppState {
    /// Build the full backend over `docs` and leak it to `'static`.
    pub fn leak(docs: Vec<Document>, config: EngineConfig) -> &'static AppState {
        Self::leak_with(docs, config, RankerChoice::Bm25)
    }

    /// Build the backend with an explicit ranking model.
    pub fn leak_with(
        docs: Vec<Document>,
        config: EngineConfig,
        choice: RankerChoice,
    ) -> &'static AppState {
        Self::leak_jobs(docs, config, choice, JobsConfig::default())
    }

    /// Build the backend with explicit ranking model and job-subsystem
    /// sizing, and start the job worker pool. `docs` becomes generation 0
    /// of the `"default"` corpus.
    pub fn leak_jobs(
        docs: Vec<Document>,
        config: EngineConfig,
        choice: RankerChoice,
        jobs: JobsConfig,
    ) -> &'static AppState {
        Self::leak_full(docs, config, choice, jobs, ExplainCacheConfig::default())
    }

    /// [`AppState::leak_jobs`] with explicit explanation-cache sizing
    /// (`cache.entries == 0` disables cross-request caching and
    /// coalescing).
    pub fn leak_full(
        docs: Vec<Document>,
        config: EngineConfig,
        choice: RankerChoice,
        jobs: JobsConfig,
        cache: ExplainCacheConfig,
    ) -> &'static AppState {
        let factory = ranker_factory(choice);
        let registry = CorpusRegistry::new();
        registry.register(
            DEFAULT_CORPUS,
            docs,
            Analyzer::english(),
            Arc::clone(&factory),
            config.clone(),
        );
        let state: &'static AppState = Box::leak(Box::new(AppState {
            registry,
            factory,
            config,
            metrics: Metrics::new(endpoint_labels()),
            jobs: JobRunner::new(jobs),
            explain_cache: ExplainCache::new(cache),
            lime: LimeStats::default(),
            log_requests: AtomicBool::new(false),
        }));
        state.jobs.start(state);
        state
    }

    /// The multi-tenant corpus registry.
    pub fn registry(&self) -> &CorpusRegistry {
        &self.registry
    }

    /// Register (or hot-swap) a corpus under `name` with the server's
    /// configured ranking model and engine config.
    pub fn register_corpus(&self, name: &str, docs: Vec<Document>) -> Arc<Corpus> {
        self.registry.register(
            name,
            docs,
            Analyzer::english(),
            Arc::clone(&self.factory),
            self.config.clone(),
        )
    }

    /// The default corpus's live snapshot, for in-process use in tests and
    /// experiments.
    pub fn default_snapshot(&self) -> Arc<CorpusSnapshot> {
        self.registry
            .snapshot(DEFAULT_CORPUS, None)
            .expect("the default corpus is registered at startup")
    }

    /// The observability registry (served at `GET /metrics`).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The async explanation job subsystem.
    pub fn jobs(&self) -> &JobRunner {
        &self.jobs
    }

    /// The cross-request explanation cache.
    pub fn explain_cache(&self) -> &ExplainCache {
        &self.explain_cache
    }

    /// Emit one structured log line per request to stderr (off by default
    /// so in-process tests stay quiet; `credence-serve` turns it on).
    pub fn enable_request_logging(&self) {
        self.log_requests.store(true, Ordering::Relaxed);
    }
}

impl crate::server::App for AppState {
    fn handle(&self, request: &Request) -> Response {
        handle_request(self, request)
    }

    fn record_rejected(&self, status: u16) {
        self.metrics.record_request("other", status, 0);
    }

    fn begin_shutdown(&self) {
        self.jobs.begin_shutdown(&self.metrics);
    }

    fn finish_shutdown(&self) {
        self.jobs.join_workers();
        self.registry.shutdown_all();
    }
}

/// A hand-written endpoint; the `&str` is the path remainder of a prefix
/// route.
type HandlerFn = fn(&AppState, &Request, &str) -> Response;

/// How a route answers.
#[derive(Clone, Copy)]
enum Handler {
    /// A hand-written endpoint.
    Fixed(HandlerFn),
    /// A registered explanation family, answered by [`explain`].
    Explain(&'static Explainer),
}

/// One row of the route table.
#[derive(Clone)]
struct Route {
    method: &'static str,
    /// Unversioned path (the canonical form prepends [`API_PREFIX`]).
    path: Cow<'static, str>,
    /// Match `path` as a prefix, passing the remainder to the handler.
    prefix: bool,
    /// API routes are canonical under `/api/v1`; their unversioned form is
    /// a deprecated alias. Infrastructure routes (UI, `/metrics`) are
    /// canonical unversioned.
    versioned: bool,
    /// Metrics label.
    endpoint: &'static str,
    handler: Handler,
}

impl Route {
    /// A versioned API route.
    const fn api(
        method: &'static str,
        path: &'static str,
        endpoint: &'static str,
        handler: HandlerFn,
    ) -> Self {
        Self {
            method,
            path: Cow::Borrowed(path),
            prefix: false,
            versioned: true,
            endpoint,
            handler: Handler::Fixed(handler),
        }
    }

    /// An unversioned infrastructure route.
    const fn infra(path: &'static str, endpoint: &'static str, handler: HandlerFn) -> Self {
        let mut route = Self::api("GET", path, endpoint, handler);
        route.versioned = false;
        route
    }

    /// Match this route's path as a prefix.
    const fn prefix(mut self) -> Self {
        self.prefix = true;
        self
    }
}

/// The hand-written rows of the route table.
const FIXED_ROUTES: &[Route] = &[
    Route::infra("/", "ui", ui),
    Route::infra("/index.html", "ui", ui),
    Route::api("GET", "/health", "health", health),
    Route::infra("/metrics", "metrics", metrics_text),
    Route::api("GET", "/corpus", "corpus", corpus),
    Route::api("GET", "/doc/", "doc", doc).prefix(),
    Route::api("POST", "/rank", "rank", rank),
    Route::api(
        "POST",
        "/explain/doc2vec-nearest",
        "doc2vec_nearest",
        doc2vec_nearest,
    ),
    Route::api(
        "POST",
        "/explain/cosine-sampled",
        "cosine_sampled",
        cosine_sampled,
    ),
    Route::api(
        "POST",
        "/explain/nearest-to-text",
        "nearest_to_text",
        nearest_to_text,
    ),
    Route::api("POST", "/topics", "topics", topics),
    Route::api("POST", "/snippet", "snippet", snippet),
    Route::api("POST", "/rerank", "rerank", rerank),
    Route::api("POST", "/jobs", "jobs", jobs_submit),
    Route::api("GET", "/jobs/", "jobs", jobs_get).prefix(),
    Route::api("DELETE", "/jobs/", "jobs", jobs_cancel).prefix(),
    Route::api("GET", "/corpora", "corpora", corpora_list),
    Route::api("GET", "/corpora/", "corpora", corpora_get).prefix(),
    Route::api("PUT", "/corpora/", "corpora", corpora_put).prefix(),
    Route::api("DELETE", "/corpora/", "corpora", corpora_delete).prefix(),
    Route::api("POST", "/corpora/", "corpora", corpora_post).prefix(),
];

/// The single route table: [`FIXED_ROUTES`] with one `POST
/// /explain/{name}` row per registered family spliced in after `/rank`
/// (early in the walk, and in the order the index lists them). Every row
/// is reachable under [`API_PREFIX`] and, when versioned, at its
/// unversioned alias.
fn routes() -> &'static [Route] {
    static ROUTES: OnceLock<Vec<Route>> = OnceLock::new();
    ROUTES.get_or_init(|| {
        let families = EXPLAINERS.iter().map(|family| Route {
            method: "POST",
            path: Cow::Owned(format!("/explain/{}", family.name)),
            prefix: false,
            versioned: true,
            endpoint: family.label,
            handler: Handler::Explain(family),
        });
        let mut routes = FIXED_ROUTES.to_vec();
        let rank = routes.iter().position(|r| r.path == "/rank");
        let at = rank.map_or(routes.len(), |i| i + 1);
        routes.splice(at..at, families);
        routes
    })
}

/// The metrics registry's endpoint labels: each route's, then `api_index`
/// and the `other` catch-all (unmatched paths, bad methods).
fn endpoint_labels() -> &'static [&'static str] {
    static LABELS: OnceLock<Vec<&'static str>> = OnceLock::new();
    LABELS.get_or_init(|| {
        let mut labels: Vec<&'static str> = Vec::new();
        for route in routes() {
            if !labels.contains(&route.endpoint) {
                labels.push(route.endpoint);
            }
        }
        labels.extend(["api_index", "other"]);
        labels
    })
}

/// Build the unified error envelope:
/// `{"error": {"code": "...", "message": "..."}}`.
pub(crate) fn error_envelope(status: u16, code: &str, message: impl Into<String>) -> Response {
    Response::json(
        status,
        to_string(&obj([(
            "error",
            obj([
                ("code", Value::from(code)),
                ("message", Value::from(message.into())),
            ]),
        )])),
    )
}

/// The envelope for field-validation failures: code `invalid_field`, the
/// first offending field in `field`, and every failure in `details`.
pub(crate) fn invalid_fields_response(errors: Vec<FieldError>) -> Response {
    debug_assert!(!errors.is_empty());
    let message = errors
        .iter()
        .map(|e| format!("'{}' {}", e.field, e.message))
        .collect::<Vec<_>>()
        .join("; ");
    let details: Vec<Value> = errors
        .iter()
        .map(|e| {
            obj([
                ("field", Value::from(e.field.as_str())),
                ("message", Value::from(e.message.as_str())),
            ])
        })
        .collect();
    Response::json(
        400,
        to_string(&obj([(
            "error",
            obj([
                ("code", Value::from("invalid_field")),
                ("message", Value::from(message)),
                ("field", Value::from(errors[0].field.as_str())),
                ("details", Value::Array(details)),
            ]),
        )])),
    )
}

/// Map an [`ExplainError`] to its envelope — the single place the REST
/// status and stable code for every core error are decided.
fn explain_error_response(err: ExplainError) -> Response {
    let status = match err {
        ExplainError::DocNotFound(_) => 404,
        _ => 422,
    };
    error_envelope(status, err.code(), err.to_string())
}

/// Resolve the snapshot a request names, mapping failures to their stable
/// envelopes: `404 corpus_not_found` and `410 generation_gone`.
fn resolve(state: &AppState, corpus: &CorpusRef) -> Result<Arc<CorpusSnapshot>, Response> {
    state
        .registry
        .snapshot(&corpus.corpus, corpus.generation)
        .map_err(|err| match err {
            SnapshotError::CorpusNotFound => error_envelope(
                404,
                "corpus_not_found",
                format!("no corpus registered under '{}'", corpus.corpus),
            ),
            SnapshotError::GenerationGone => error_envelope(
                410,
                "generation_gone",
                format!(
                    "generation {} of corpus '{}' is no longer live and nothing pins it",
                    corpus.generation.unwrap_or(0),
                    corpus.corpus
                ),
            ),
        })
}

/// Prefix `fields` with the `corpus` + `generation` envelope pair naming
/// the snapshot that answered — carried by every 2xx body so clients (and
/// the cluster router) can detect cross-generation skew.
fn with_corpus(
    snap: &CorpusSnapshot,
    fields: Vec<(&'static str, Value)>,
) -> Vec<(&'static str, Value)> {
    let mut all = vec![
        ("corpus", Value::from(snap.corpus().to_string())),
        ("generation", Value::from(snap.generation() as usize)),
    ];
    all.extend(fields);
    all
}

/// Parse the request body as a JSON object.
pub(crate) fn json_body(req: &Request) -> Result<Value, Response> {
    let text = req
        .body_utf8()
        .ok_or_else(|| error_envelope(400, "invalid_json", "body is not UTF-8"))?;
    let value = parse(text)
        .map_err(|e| error_envelope(400, "invalid_json", format!("invalid JSON: {e}")))?;
    if value.as_object().is_none() {
        return Err(error_envelope(
            400,
            "invalid_request",
            "body must be a JSON object",
        ));
    }
    Ok(value)
}

fn pool_entry_json(row: &PoolEntry) -> Value {
    obj([
        ("doc", Value::from(row.doc.0)),
        ("score", Value::from(row.score)),
        ("new_rank", Value::from(row.new_rank)),
        ("old_rank", Value::from(row.old_rank)),
        ("movement", Value::from(row.movement() as f64)),
        ("substituted", Value::from(row.substituted)),
    ])
}

/// Strip the version prefix: `/api/v1/rank` → (`/rank`, true).
pub(crate) fn strip_version(path: &str) -> (&str, bool) {
    match path.strip_prefix(API_PREFIX) {
        Some("") => ("/", true),
        Some(rest) if rest.starts_with('/') => (rest, true),
        _ => (path, false),
    }
}

/// Route one request through the table. Returns the endpoint label (for
/// metrics) alongside the response.
fn dispatch(state: &AppState, req: &Request) -> (&'static str, Response) {
    let (path, versioned) = strip_version(&req.path);
    // `/api/v1` itself is the discovery endpoint. Decided before the table
    // walk: its stripped path ("/") would otherwise collide with the UI
    // root row.
    if versioned && path == "/" {
        return if req.method == "GET" {
            ("api_index", api_index(state, req, ""))
        } else {
            (
                "other",
                error_envelope(405, "method_not_allowed", "method not allowed"),
            )
        };
    }
    let mut path_matched = false;
    for route in routes() {
        let tail = if route.prefix {
            path.strip_prefix(&*route.path)
        } else if path == route.path {
            Some("")
        } else {
            None
        };
        let Some(tail) = tail else { continue };
        path_matched = true;
        if route.method != req.method {
            continue;
        }
        let mut resp = match route.handler {
            Handler::Fixed(handler) => handler(state, req, tail),
            Handler::Explain(family) => explain(state, req, family),
        };
        if route.versioned && !versioned {
            resp = resp.with_header("deprecation", "true").with_header(
                "link",
                format!("<{API_PREFIX}{}>; rel=\"successor-version\"", req.path),
            );
        }
        return (route.endpoint, resp);
    }
    if path_matched {
        (
            "other",
            error_envelope(405, "method_not_allowed", "method not allowed"),
        )
    } else {
        (
            "other",
            error_envelope(404, "not_found", "no such endpoint"),
        )
    }
}

/// Route one request to its handler, recording metrics and (when enabled)
/// one structured log line carrying the request id.
pub fn handle_request(state: &AppState, req: &Request) -> Response {
    let request_id = state.metrics.next_request_id();
    let start = Instant::now();
    let (endpoint, resp) = dispatch(state, req);
    let duration_us = start.elapsed().as_micros() as u64;
    state
        .metrics
        .record_request(endpoint, resp.status, duration_us);
    if state.log_requests.load(Ordering::Relaxed) {
        eprintln!(
            "{}",
            to_string(&obj([
                ("request_id", Value::from(request_id as usize)),
                ("method", Value::from(req.method.as_str())),
                ("path", Value::from(req.path.as_str())),
                ("endpoint", Value::from(endpoint)),
                ("status", Value::from(resp.status as usize)),
                ("duration_us", Value::from(duration_us as usize)),
            ]))
        );
    }
    resp
}

fn ui(_state: &AppState, _req: &Request, _tail: &str) -> Response {
    Response::html(200, include_str!("ui.html").as_bytes().to_vec())
}

fn health(_state: &AppState, _req: &Request, _tail: &str) -> Response {
    Response::json(200, to_string(&obj([("status", Value::from("ok"))])))
}

fn metrics_text(state: &AppState, _req: &Request, _tail: &str) -> Response {
    // Fold every corpus's cumulative retrieval/cache counters into the
    // registry so each scrape sees process-wide totals.
    state
        .metrics
        .record_retrieval(state.registry.total_retrieval_stats());
    let mut text = state.metrics.render();
    // The corpus families render from live registry state on every scrape,
    // so removed corpora vanish instead of lingering as stale label sets.
    let infos = state.registry.list();
    render_family(
        &mut text,
        "credence_corpus_count",
        "gauge",
        "Registered corpora.",
        [("", infos.len() as u64)],
    );
    let per_corpus: [(&str, &str, &str, fn(&CorpusInfo) -> u64); 4] = [
        (
            "credence_corpus_generation",
            "gauge",
            "Live generation per corpus.",
            |i| i.generation,
        ),
        (
            "credence_corpus_docs",
            "gauge",
            "Documents in the live generation.",
            |i| i.num_docs as u64,
        ),
        (
            "credence_corpus_pending_ops",
            "gauge",
            "Staged mutations not yet folded.",
            |i| i.pending_ops as u64,
        ),
        (
            "credence_corpus_merges_total",
            "counter",
            "Generations published by merges.",
            |i| i.merges,
        ),
    ];
    for (name, kind, help, value) in per_corpus {
        let samples = infos
            .iter()
            .map(|i| (format!("{{corpus=\"{}\"}}", i.name), value(i)));
        render_family(&mut text, name, kind, help, samples);
    }
    let cache = &state.explain_cache;
    for (name, kind, help, value) in [
        (
            "credence_explain_cache_hits_total",
            "counter",
            "Explain requests served from the explanation cache.",
            cache.hits(),
        ),
        (
            "credence_explain_cache_misses_total",
            "counter",
            "Explain requests that ran the underlying search.",
            cache.misses(),
        ),
        (
            "credence_explain_cache_coalesced_total",
            "counter",
            "Explain requests that joined an identical in-flight search.",
            cache.coalesced(),
        ),
        (
            "credence_explain_cache_evictions_total",
            "counter",
            "Cached explanations evicted to make room.",
            cache.evictions(),
        ),
        (
            "credence_explain_cache_size",
            "gauge",
            "Explanations currently cached.",
            cache.len() as u64,
        ),
    ] {
        render_family(&mut text, name, kind, help, [("", value)]);
    }
    state.lime.render(&mut text);
    Response::text(200, text)
}

fn corpus(state: &AppState, _req: &Request, _tail: &str) -> Response {
    let snap = match resolve(state, &CorpusRef::default()) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let docs: Vec<Value> = snap
        .index()
        .documents()
        .iter()
        .enumerate()
        .map(|(i, d)| {
            obj([
                ("doc", Value::from(i)),
                ("name", Value::from(d.name.as_str())),
                ("title", Value::from(d.title.as_str())),
            ])
        })
        .collect();
    Response::json(
        200,
        to_string(&obj(with_corpus(
            &snap,
            vec![
                ("num_docs", Value::from(snap.index().num_docs())),
                ("docs", Value::Array(docs)),
            ],
        ))),
    )
}

fn doc(state: &AppState, _req: &Request, id: &str) -> Response {
    let Ok(id) = id.parse::<u32>() else {
        return error_envelope(400, "invalid_field", "document id must be an integer");
    };
    let snap = match resolve(state, &CorpusRef::default()) {
        Ok(s) => s,
        Err(r) => return r,
    };
    match snap.index().document(DocId(id)) {
        None => error_envelope(404, "doc_not_found", format!("document {id} not found")),
        Some(d) => Response::json(
            200,
            to_string(&obj(with_corpus(
                &snap,
                vec![
                    ("doc", Value::from(id)),
                    ("name", Value::from(d.name.as_str())),
                    ("title", Value::from(d.title.as_str())),
                    ("body", Value::from(d.body.as_str())),
                ],
            ))),
        ),
    }
}

fn rank(state: &AppState, req: &Request, _tail: &str) -> Response {
    let body = match json_body(req) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let parsed = match RankRequest::parse(&body) {
        Ok(p) => p,
        Err(errors) => return invalid_fields_response(errors),
    };
    let snap = match resolve(state, &parsed.corpus) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let opts = TopKOptions {
        partition: parsed.partition,
    };
    let rows: Vec<Value> = snap
        .engine()
        .rank_with_options(&parsed.query, parsed.k, &opts)
        .into_iter()
        .map(|r| {
            obj([
                ("doc", Value::from(r.doc.0)),
                ("rank", Value::from(r.rank)),
                ("score", Value::from(r.score)),
                ("name", Value::from(r.name)),
                ("title", Value::from(r.title)),
            ])
        })
        .collect();
    Response::json(
        200,
        to_string(&obj(with_corpus(
            &snap,
            vec![("ranking", Value::Array(rows))],
        ))),
    )
}

/// `POST /api/v1/explain/{name}` for every registered family.
fn explain(state: &AppState, req: &Request, family: &'static Explainer) -> Response {
    let body = match json_body(req) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let parsed = match ExplainRequest::parse(family, &body) {
        Ok(p) => p,
        Err(errors) => return invalid_fields_response(errors),
    };
    let snap = match resolve(state, &parsed.corpus) {
        Ok(s) => s,
        Err(r) => return r,
    };
    respond(state, &snap, &parsed)
}

/// Answer a parsed explanation request against its resolved snapshot
/// through the explanation cache: repeated requests hit, concurrent
/// identical requests coalesce, and `explain_cache_bypass` (or a disabled
/// cache) runs the search directly. Both the synchronous endpoints and
/// the job workers enter here — the single point that keeps job payloads
/// bit-identical to synchronous responses for the same generation, and
/// that unifies the job result store with the cache: a finished job's
/// payload is deposited where a matching synchronous request will hit it,
/// and a cached synchronous payload satisfies a matching job without
/// re-running the search.
pub(crate) fn respond(state: &AppState, snap: &CorpusSnapshot, req: &ExplainRequest) -> Response {
    let run = || {
        let started = Instant::now();
        match req.explain(snap.engine(), Some(state)) {
            Err(e) => explain_error_response(e),
            Ok(payload) => {
                state.metrics.record_search(
                    payload.status.as_str(),
                    payload.evaluated as u64,
                    started.elapsed().as_micros() as u64,
                );
                Response::json(200, payload.into_json(snap.corpus(), snap.generation()))
            }
        }
    };
    if req.controls.cache_bypass {
        return run();
    }
    state
        .explain_cache
        .get_or_compute(&req.cache_key(snap), req.controls.lifecycle.deadline, run)
}

fn instance_json(explanations: &[credence_core::InstanceExplanation]) -> Value {
    Value::Array(
        explanations
            .iter()
            .map(|e| {
                obj([
                    ("doc", Value::from(e.doc.0)),
                    ("similarity", Value::from(e.similarity)),
                    ("rank", e.rank.map(Value::from).unwrap_or(Value::Null)),
                ])
            })
            .collect(),
    )
}

fn doc2vec_nearest(state: &AppState, req: &Request, _tail: &str) -> Response {
    let body = match json_body(req) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let parsed = match Doc2VecNearestRequest::parse(&body) {
        Ok(p) => p,
        Err(errors) => return invalid_fields_response(errors),
    };
    let snap = match resolve(state, &parsed.corpus) {
        Ok(s) => s,
        Err(r) => return r,
    };
    match snap
        .engine()
        .doc2vec_nearest(&parsed.query, parsed.k, DocId(parsed.doc as u32), parsed.n)
    {
        Err(e) => explain_error_response(e),
        Ok(out) => Response::json(
            200,
            to_string(&obj(with_corpus(
                &snap,
                vec![("explanations", instance_json(&out))],
            ))),
        ),
    }
}

fn cosine_sampled(state: &AppState, req: &Request, _tail: &str) -> Response {
    let body = match json_body(req) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let parsed = match CosineSampledRequest::parse(&body) {
        Ok(p) => p,
        Err(errors) => return invalid_fields_response(errors),
    };
    let snap = match resolve(state, &parsed.corpus) {
        Ok(s) => s,
        Err(r) => return r,
    };
    match snap.engine().cosine_sampled(
        &parsed.query,
        parsed.k,
        DocId(parsed.doc as u32),
        parsed.n,
        parsed.samples,
    ) {
        Err(e) => explain_error_response(e),
        Ok(out) => Response::json(
            200,
            to_string(&obj(with_corpus(
                &snap,
                vec![("explanations", instance_json(&out))],
            ))),
        ),
    }
}

fn topics(state: &AppState, req: &Request, _tail: &str) -> Response {
    let body = match json_body(req) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let parsed = match TopicsRequest::parse(&body) {
        Ok(p) => p,
        Err(errors) => return invalid_fields_response(errors),
    };
    let snap = match resolve(state, &parsed.corpus) {
        Ok(s) => s,
        Err(r) => return r,
    };
    match snap
        .engine()
        .topics(&parsed.query, parsed.k, parsed.num_topics)
    {
        Err(e) => explain_error_response(e),
        Ok(topics) => {
            let rows: Vec<Value> = topics
                .iter()
                .map(|t| {
                    obj([
                        ("topic", Value::from(t.topic)),
                        ("weight", Value::from(t.weight)),
                        (
                            "terms",
                            Value::Array(
                                t.terms
                                    .iter()
                                    .map(|(term, p)| {
                                        obj([
                                            ("term", Value::from(term.as_str())),
                                            ("probability", Value::from(*p)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect();
            Response::json(
                200,
                to_string(&obj(with_corpus(
                    &snap,
                    vec![("topics", Value::Array(rows))],
                ))),
            )
        }
    }
}

fn snippet(state: &AppState, req: &Request, _tail: &str) -> Response {
    let body = match json_body(req) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let parsed = match SnippetRequest::parse(&body) {
        Ok(p) => p,
        Err(errors) => return invalid_fields_response(errors),
    };
    let snap = match resolve(state, &parsed.corpus) {
        Ok(s) => s,
        Err(r) => return r,
    };
    match snap
        .engine()
        .snippet(&parsed.query, DocId(parsed.doc as u32), parsed.window)
    {
        Err(e) => explain_error_response(e),
        Ok((highlights, snippet)) => {
            let spans: Vec<Value> = highlights
                .iter()
                .map(|h| obj([("start", Value::from(h.start)), ("end", Value::from(h.end))]))
                .collect();
            let snippet_json = match snippet {
                None => Value::Null,
                Some(s) => obj([
                    ("text", Value::from(s.text)),
                    ("start", Value::from(s.start)),
                    ("end", Value::from(s.end)),
                    ("hits", Value::from(s.hits)),
                ]),
            };
            Response::json(
                200,
                to_string(&obj(with_corpus(
                    &snap,
                    vec![
                        ("highlights", Value::Array(spans)),
                        ("snippet", snippet_json),
                    ],
                ))),
            )
        }
    }
}

fn nearest_to_text(state: &AppState, req: &Request, _tail: &str) -> Response {
    let body = match json_body(req) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let parsed = match NearestToTextRequest::parse(&body) {
        Ok(p) => p,
        Err(errors) => return invalid_fields_response(errors),
    };
    let snap = match resolve(state, &parsed.corpus) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let exclude = parsed.exclude.as_ref().map(|(q, k)| (q.as_str(), *k));
    let out = snap
        .engine()
        .nearest_to_text(&parsed.text, parsed.n, exclude);
    Response::json(
        200,
        to_string(&obj(with_corpus(
            &snap,
            vec![("neighbors", instance_json(&out))],
        ))),
    )
}

fn rerank(state: &AppState, req: &Request, _tail: &str) -> Response {
    let body = match json_body(req) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let parsed = match RerankRequest::parse(&body) {
        Ok(p) => p,
        Err(errors) => return invalid_fields_response(errors),
    };
    let snap = match resolve(state, &parsed.corpus) {
        Ok(s) => s,
        Err(r) => return r,
    };
    match snap.engine().builder_rerank_budgeted(
        &parsed.query,
        parsed.k,
        DocId(parsed.doc as u32),
        &parsed.body,
        &parsed.lifecycle,
    ) {
        Err(e) => explain_error_response(e),
        Ok(outcome) => Response::json(
            200,
            to_string(&obj(with_corpus(
                &snap,
                vec![
                    ("valid", Value::from(outcome.valid)),
                    ("old_rank", Value::from(outcome.old_rank)),
                    ("new_rank", Value::from(outcome.new_rank)),
                    (
                        "revealed",
                        outcome
                            .revealed
                            .map(|d| Value::from(d.0))
                            .unwrap_or(Value::Null),
                    ),
                    (
                        "rows",
                        Value::Array(outcome.rows.iter().map(pool_entry_json).collect()),
                    ),
                ],
            ))),
        ),
    }
}

/// `POST /api/v1/jobs` — admit an explanation request into the queue,
/// pinning the snapshot it names so the job executes against that exact
/// generation no matter how far the corpus advances before a worker gets
/// to it.
fn jobs_submit(state: &AppState, req: &Request, _tail: &str) -> Response {
    let body = match json_body(req) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let parsed = match JobSubmitRequest::parse(&body) {
        Ok(p) => p,
        Err(errors) => return invalid_fields_response(errors),
    };
    let snap = match resolve(state, &parsed.request.corpus) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let (corpus, generation) = (snap.corpus().to_string(), snap.generation());
    match state.jobs.submit(parsed.request, snap, &state.metrics) {
        SubmitOutcome::Accepted(id) => Response::json(
            202,
            to_string(&obj([
                ("corpus", Value::from(corpus)),
                ("generation", Value::from(generation as usize)),
                ("job_id", Value::from(format!("job-{id}"))),
                ("status", Value::from("queued")),
            ])),
        ),
        SubmitOutcome::QueueFull => error_envelope(
            429,
            "queue_full",
            format!(
                "job queue is full ({} waiting); retry later",
                state.jobs.config().queue_depth
            ),
        )
        .with_header("retry-after", "1"),
        SubmitOutcome::ShuttingDown => error_envelope(
            503,
            "shutting_down",
            "server is draining; no new jobs accepted",
        )
        .with_header("retry-after", "1"),
    }
}

/// Parse a `job-<n>` wire id into the runner's numeric id.
fn parse_job_id(tail: &str) -> Option<u64> {
    tail.strip_prefix("job-")?.parse().ok()
}

/// Render one job snapshot: `410` + an embedded `job_expired` error for
/// expired jobs, `200` with the stored result (if any) otherwise.
fn job_response(view: &JobView) -> Response {
    let id = Value::from(format!("job-{}", view.id));
    if view.state == crate::jobs::JobState::Expired {
        return Response::json(
            410,
            to_string(&obj([
                ("corpus", Value::from(view.corpus.clone())),
                ("generation", Value::from(view.generation as usize)),
                ("job_id", id),
                ("status", Value::from("expired")),
                ("endpoint", Value::from(view.endpoint)),
                (
                    "error",
                    obj([
                        ("code", Value::from("job_expired")),
                        (
                            "message",
                            Value::from("the result aged out of the store and was discarded"),
                        ),
                    ]),
                ),
            ])),
        );
    }
    let mut fields: Vec<(&str, Value)> = vec![
        ("corpus", Value::from(view.corpus.clone())),
        ("generation", Value::from(view.generation as usize)),
        ("job_id", id),
        ("status", Value::from(view.state.as_str())),
        ("endpoint", Value::from(view.endpoint)),
    ];
    if let Some((status, payload)) = &view.result {
        fields.push(("result", payload.clone()));
        fields.push(("result_status", Value::from(*status as usize)));
    }
    Response::json(200, to_string(&obj(fields)))
}

/// `GET /api/v1/jobs/{id}` — poll one job.
fn jobs_get(state: &AppState, _req: &Request, tail: &str) -> Response {
    let Some(id) = parse_job_id(tail) else {
        return error_envelope(400, "invalid_field", "job id must look like job-<n>");
    };
    match state.jobs.get(id, &state.metrics) {
        None => error_envelope(404, "job_not_found", format!("no such job: job-{id}")),
        Some(view) => job_response(&view),
    }
}

/// `DELETE /api/v1/jobs/{id}` — cancel one job.
fn jobs_cancel(state: &AppState, _req: &Request, tail: &str) -> Response {
    let Some(id) = parse_job_id(tail) else {
        return error_envelope(400, "invalid_field", "job id must look like job-<n>");
    };
    let wire_id = Value::from(format!("job-{id}"));
    let outcome = match state.jobs.cancel(id, &state.metrics) {
        None => return error_envelope(404, "job_not_found", format!("no such job: job-{id}")),
        Some(o) => o,
    };
    // Re-fetch the view so the envelope carries the job's pinned corpus
    // coordinates, mirroring every other 2xx body.
    let mut fields: Vec<(&str, Value)> = Vec::new();
    if let Some(view) = state.jobs.get(id, &state.metrics) {
        fields.push(("corpus", Value::from(view.corpus.clone())));
        fields.push(("generation", Value::from(view.generation as usize)));
    }
    fields.push(("job_id", wire_id));
    match outcome {
        CancelOutcome::Cancelled => {
            fields.push(("status", Value::from("cancelled")));
            Response::json(200, to_string(&obj(fields)))
        }
        CancelOutcome::CancelRequested => {
            fields.push(("status", Value::from("running")));
            fields.push(("cancel_requested", Value::from(true)));
            Response::json(202, to_string(&obj(fields)))
        }
        CancelOutcome::AlreadyTerminal(state) => {
            fields.push(("status", Value::from(state.as_str())));
            Response::json(200, to_string(&obj(fields)))
        }
    }
}

// ---------------------------------------------------------------------------
// Corpus lifecycle
// ---------------------------------------------------------------------------

/// How long a `refresh: true` mutation waits for its seq ticket to fold into
/// a published generation before giving up with `503 refresh_timeout`.
const REFRESH_TIMEOUT: Duration = Duration::from_secs(30);

/// `GET /api/v1` — the discovery index. Generated from the dispatcher's own
/// route table, so the advertised surface can never drift from what actually
/// serves: each versioned row appears once canonically and once as its
/// deprecated unversioned alias with a `successor` link.
fn api_index(state: &AppState, _req: &Request, _tail: &str) -> Response {
    // Aliases carry `deprecated: true` and their `successor`.
    let row = |method: &str, path: &str, endpoint: &str, successor: Option<String>| {
        let mut fields = vec![
            ("method", Value::from(method)),
            ("path", Value::from(path)),
            ("endpoint", Value::from(endpoint)),
            ("deprecated", Value::from(successor.is_some())),
        ];
        fields.extend(successor.map(|s| ("successor", Value::from(s))));
        obj(fields)
    };
    let mut rows = vec![row("GET", API_PREFIX, "api_index", None)];
    for route in routes() {
        if route.versioned {
            let canonical = format!("{API_PREFIX}{}", route.path);
            rows.push(row(route.method, &canonical, route.endpoint, None));
            rows.push(row(
                route.method,
                &route.path,
                route.endpoint,
                Some(canonical),
            ));
        } else {
            rows.push(row(route.method, &route.path, route.endpoint, None));
        }
    }
    let corpora: Vec<Value> = state
        .registry
        .names()
        .into_iter()
        .map(Value::from)
        .collect();
    Response::json(
        200,
        to_string(&obj([
            ("version", Value::from("v1")),
            ("corpora", Value::Array(corpora)),
            ("routes", Value::Array(rows)),
        ])),
    )
}

/// The object a `/corpora/...` tail names.
enum CorpusTail<'a> {
    /// `/corpora/{name}` — the corpus itself.
    Corpus(&'a str),
    /// `/corpora/{name}/docs` — the document collection.
    Docs(&'a str),
    /// `/corpora/{name}/docs/{id}` — one named document.
    Doc(&'a str, &'a str),
}

fn parse_corpus_tail(tail: &str) -> Result<CorpusTail<'_>, Response> {
    let invalid = || error_envelope(404, "not_found", "no such endpoint");
    match tail.split_once('/') {
        None if !tail.is_empty() => Ok(CorpusTail::Corpus(tail)),
        Some((name, rest)) if !name.is_empty() => match rest.split_once('/') {
            None if rest == "docs" => Ok(CorpusTail::Docs(name)),
            Some(("docs", id)) if !id.is_empty() => Ok(CorpusTail::Doc(name, id)),
            _ => Err(invalid()),
        },
        _ => Err(invalid()),
    }
}

/// Render one corpus summary. Uses the `corpus`/`generation` envelope keys
/// so the listing rows match every other body's vocabulary.
fn corpus_info_json(info: &CorpusInfo) -> Value {
    obj([
        ("corpus", Value::from(info.name.as_str())),
        ("generation", Value::from(info.generation as usize)),
        ("num_docs", Value::from(info.num_docs)),
        ("pending_ops", Value::from(info.pending_ops)),
        ("merges", Value::from(info.merges as usize)),
    ])
}

/// `GET /api/v1/corpora` — list every registered corpus.
fn corpora_list(state: &AppState, _req: &Request, _tail: &str) -> Response {
    let infos: Vec<Value> = state.registry.list().iter().map(corpus_info_json).collect();
    Response::json(200, to_string(&obj([("corpora", Value::Array(infos))])))
}

fn corpus_not_found(name: &str) -> Response {
    error_envelope(
        404,
        "corpus_not_found",
        format!("no corpus registered under '{name}'"),
    )
}

/// Build a [`CorpusRef`] naming the live generation of `name`.
fn live_ref(name: &str) -> CorpusRef {
    CorpusRef {
        corpus: name.to_string(),
        generation: None,
    }
}

/// `GET /api/v1/corpora/{name}[/docs[/{id}]]` — corpus info, the document
/// listing, or one document looked up by external name.
fn corpora_get(state: &AppState, _req: &Request, tail: &str) -> Response {
    let tail = match parse_corpus_tail(tail) {
        Ok(t) => t,
        Err(r) => return r,
    };
    match tail {
        CorpusTail::Corpus(name) => match state.registry.get(name) {
            None => corpus_not_found(name),
            Some(corpus) => Response::json(200, to_string(&corpus_info_json(&corpus.info()))),
        },
        CorpusTail::Docs(name) => {
            let snap = match resolve(state, &live_ref(name)) {
                Ok(s) => s,
                Err(r) => return r,
            };
            let docs: Vec<Value> = snap
                .index()
                .documents()
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    obj([
                        ("doc", Value::from(i)),
                        ("name", Value::from(d.name.as_str())),
                        ("title", Value::from(d.title.as_str())),
                    ])
                })
                .collect();
            Response::json(
                200,
                to_string(&obj(with_corpus(
                    &snap,
                    vec![
                        ("num_docs", Value::from(snap.index().num_docs())),
                        ("docs", Value::Array(docs)),
                    ],
                ))),
            )
        }
        CorpusTail::Doc(name, id) => {
            let snap = match resolve(state, &live_ref(name)) {
                Ok(s) => s,
                Err(r) => return r,
            };
            let found = snap.index().documents().iter().position(|d| d.name == id);
            match found {
                None => error_envelope(
                    404,
                    "doc_not_found",
                    format!("no document named '{id}' in corpus '{name}'"),
                ),
                Some(i) => {
                    let d = &snap.index().documents()[i];
                    Response::json(
                        200,
                        to_string(&obj(with_corpus(
                            &snap,
                            vec![
                                ("doc", Value::from(i)),
                                ("name", Value::from(d.name.as_str())),
                                ("title", Value::from(d.title.as_str())),
                                ("body", Value::from(d.body.as_str())),
                            ],
                        ))),
                    )
                }
            }
        }
    }
}

/// The shared tail of every staged mutation: `202 staged` with the seq
/// ticket, or — under `refresh: true` — wait for the ticket to fold and
/// answer `200 applied` (or `503 refresh_timeout` if the merger can't keep
/// up within [`REFRESH_TIMEOUT`]).
fn mutation_response(corpus: &Corpus, doc: &str, seq: u64, refresh: bool) -> Response {
    if refresh {
        if !corpus.wait_for_seq(seq, REFRESH_TIMEOUT) {
            return error_envelope(
                503,
                "refresh_timeout",
                format!(
                    "staged op {seq} did not fold into a published generation within {}s",
                    REFRESH_TIMEOUT.as_secs()
                ),
            )
            .with_header("retry-after", "1");
        }
        return Response::json(
            200,
            to_string(&obj([
                ("corpus", Value::from(corpus.name())),
                ("generation", Value::from(corpus.generation() as usize)),
                ("name", Value::from(doc)),
                ("status", Value::from("applied")),
            ])),
        );
    }
    Response::json(
        202,
        to_string(&obj([
            ("corpus", Value::from(corpus.name())),
            ("generation", Value::from(corpus.generation() as usize)),
            ("name", Value::from(doc)),
            ("seq", Value::from(seq as usize)),
            ("status", Value::from("staged")),
        ])),
    )
}

/// `PUT /api/v1/corpora/{name}` (register / hot-swap a corpus) and
/// `PUT /api/v1/corpora/{name}/docs/{id}` (upsert one document).
fn corpora_put(state: &AppState, req: &Request, tail: &str) -> Response {
    let tail = match parse_corpus_tail(tail) {
        Ok(t) => t,
        Err(r) => return r,
    };
    let body = match json_body(req) {
        Ok(v) => v,
        Err(r) => return r,
    };
    match tail {
        CorpusTail::Corpus(name) => {
            if name == DEFAULT_CORPUS {
                return error_envelope(
                    409,
                    "corpus_protected",
                    "the default corpus cannot be replaced or removed",
                );
            }
            let parsed = match CorpusPutRequest::parse(&body) {
                Ok(p) => p,
                Err(errors) => return invalid_fields_response(errors),
            };
            let replaced = state.registry.get(name).is_some();
            let num_docs = parsed.docs.len();
            let corpus = state.register_corpus(name, parsed.docs);
            Response::json(
                if replaced { 200 } else { 201 },
                to_string(&obj([
                    ("corpus", Value::from(name)),
                    ("generation", Value::from(corpus.generation() as usize)),
                    ("num_docs", Value::from(num_docs)),
                    ("replaced", Value::from(replaced)),
                ])),
            )
        }
        CorpusTail::Doc(name, id) => {
            let Some(corpus) = state.registry.get(name) else {
                return corpus_not_found(name);
            };
            let parsed = match DocPutRequest::parse(&body) {
                Ok(p) => p,
                Err(errors) => return invalid_fields_response(errors),
            };
            let seq = corpus.stage(DeltaOp::Upsert(Document::new(
                id,
                parsed.title,
                parsed.body,
            )));
            mutation_response(&corpus, id, seq, parsed.refresh)
        }
        CorpusTail::Docs(_) => error_envelope(405, "method_not_allowed", "method not allowed"),
    }
}

/// `POST /api/v1/corpora/{name}/docs` — add one strictly-new document.
fn corpora_post(state: &AppState, req: &Request, tail: &str) -> Response {
    let tail = match parse_corpus_tail(tail) {
        Ok(t) => t,
        Err(r) => return r,
    };
    let CorpusTail::Docs(name) = tail else {
        return error_envelope(405, "method_not_allowed", "method not allowed");
    };
    let Some(corpus) = state.registry.get(name) else {
        return corpus_not_found(name);
    };
    let body = match json_body(req) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let parsed = match DocAddRequest::parse(&body) {
        Ok(p) => p,
        Err(errors) => return invalid_fields_response(errors),
    };
    let doc_name = parsed.doc.name.clone();
    match corpus.stage_insert(parsed.doc) {
        Err(_) => error_envelope(
            409,
            "doc_exists",
            format!("a document named '{doc_name}' already exists in corpus '{name}'"),
        ),
        Ok(seq) => mutation_response(&corpus, &doc_name, seq, parsed.refresh),
    }
}

/// `DELETE /api/v1/corpora/{name}` (remove a corpus) and
/// `DELETE /api/v1/corpora/{name}/docs/{id}` (tombstone one document; the
/// body is optional and may carry `{"refresh": true}`).
fn corpora_delete(state: &AppState, req: &Request, tail: &str) -> Response {
    let tail = match parse_corpus_tail(tail) {
        Ok(t) => t,
        Err(r) => return r,
    };
    match tail {
        CorpusTail::Corpus(name) => {
            if name == DEFAULT_CORPUS {
                return error_envelope(
                    409,
                    "corpus_protected",
                    "the default corpus cannot be replaced or removed",
                );
            }
            let Some(corpus) = state.registry.get(name) else {
                return corpus_not_found(name);
            };
            let generation = corpus.generation();
            state.registry.remove(name);
            Response::json(
                200,
                to_string(&obj([
                    ("corpus", Value::from(name)),
                    ("generation", Value::from(generation as usize)),
                    ("status", Value::from("removed")),
                ])),
            )
        }
        CorpusTail::Doc(name, id) => {
            let Some(corpus) = state.registry.get(name) else {
                return corpus_not_found(name);
            };
            let refresh = match req.body_utf8() {
                Some(text) if !text.trim().is_empty() => {
                    let body = match json_body(req) {
                        Ok(v) => v,
                        Err(r) => return r,
                    };
                    match RefreshRequest::parse(&body) {
                        Ok(p) => p.refresh,
                        Err(errors) => return invalid_fields_response(errors),
                    }
                }
                _ => false,
            };
            if !corpus.doc_exists(id) {
                return error_envelope(
                    404,
                    "doc_not_found",
                    format!("no document named '{id}' in corpus '{name}'"),
                );
            }
            let seq = corpus.stage(DeltaOp::Delete(id.to_string()));
            mutation_response(&corpus, id, seq, refresh)
        }
        CorpusTail::Docs(_) => error_envelope(405, "method_not_allowed", "method not allowed"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn demo_docs() -> Vec<Document> {
        vec![
            Document::new(
                "n1",
                "Outbreak news",
                "covid outbreak covid outbreak dominates the news cycle this week entirely",
            ),
            Document::new(
                "n2",
                "Quiet arrival",
                "The covid outbreak arrived quietly. Officials downplayed the covid outbreak \
                 for weeks before acting decisively.",
            ),
            Document::new(
                "n3",
                "Conspiracy corner",
                "The covid outbreak is a cover story. A secret microchip hides in every \
                 vaccine dose. The microchip tracks your movements constantly.",
            ),
            Document::new(
                "n4",
                "Copycat",
                "A secret microchip hides in every vaccine dose. The microchip tracks your \
                 movements constantly and secretly.",
            ),
            Document::new(
                "n5",
                "Harbor drills",
                "Outbreak drills continue at the harbor facility through the weekend shift.",
            ),
            Document::new(
                "n6",
                "Gardens",
                "The garden show opens to record spring crowds.",
            ),
        ]
    }

    fn state() -> &'static AppState {
        static STATE: OnceLock<&'static AppState> = OnceLock::new();
        STATE.get_or_init(|| AppState::leak(demo_docs(), EngineConfig::fast()))
    }

    fn post(path: &str, body: &str) -> Response {
        let req = Request {
            method: "POST".into(),
            path: path.into(),
            headers: Default::default(),
            body: body.as_bytes().to_vec(),
        };
        handle_request(state(), &req)
    }

    fn get(path: &str) -> Response {
        let req = Request {
            method: "GET".into(),
            path: path.into(),
            headers: Default::default(),
            body: Vec::new(),
        };
        handle_request(state(), &req)
    }

    fn body_json(resp: &Response) -> Value {
        parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    /// The error envelope's code, when the body is an envelope.
    fn error_code(resp: &Response) -> Option<String> {
        body_json(resp)
            .get("error")?
            .get("code")?
            .as_str()
            .map(String::from)
    }

    #[test]
    fn ui_page_served_at_root() {
        let resp = get("/");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "text/html; charset=utf-8");
        assert_eq!(resp.header("deprecation"), None, "the UI is not an alias");
        let html = String::from_utf8(resp.body).unwrap();
        assert!(html.contains("CREDENCE"));
        assert!(html.contains("/explain/"), "UI drives the REST API");
        assert!(html.contains(API_PREFIX), "UI calls the versioned API");
    }

    #[test]
    fn ranker_choice_parses() {
        assert_eq!(RankerChoice::parse("bm25"), Some(RankerChoice::Bm25));
        assert_eq!(RankerChoice::parse("ql"), Some(RankerChoice::QlDirichlet));
        assert_eq!(RankerChoice::parse("rm3"), Some(RankerChoice::Rm3));
        assert_eq!(RankerChoice::parse("neural"), Some(RankerChoice::Neural));
        assert_eq!(RankerChoice::parse("zebra"), None);
    }

    #[test]
    fn state_with_alternative_ranker_serves() {
        let state =
            AppState::leak_with(demo_docs(), EngineConfig::fast(), RankerChoice::QlDirichlet);
        let req = Request {
            method: "POST".into(),
            path: "/api/v1/rank".into(),
            headers: Default::default(),
            body: br#"{"query": "covid outbreak", "k": 3}"#.to_vec(),
        };
        let resp = handle_request(state, &req);
        assert_eq!(resp.status, 200);
        assert_eq!(
            state.default_snapshot().engine().ranker().name(),
            "ql-dirichlet"
        );
    }

    #[test]
    fn health_and_404_and_405() {
        assert_eq!(get("/health").status, 200);
        assert_eq!(get("/api/v1/health").status, 200);
        let missing = get("/nope");
        assert_eq!(missing.status, 404);
        assert_eq!(error_code(&missing).as_deref(), Some("not_found"));
        let req = Request {
            method: "DELETE".into(),
            path: "/rank".into(),
            headers: Default::default(),
            body: Vec::new(),
        };
        let resp = handle_request(state(), &req);
        assert_eq!(resp.status, 405);
        assert_eq!(error_code(&resp).as_deref(), Some("method_not_allowed"));
    }

    #[test]
    fn unversioned_paths_are_deprecated_aliases() {
        let alias = post("/rank", r#"{"query": "covid outbreak", "k": 3}"#);
        assert_eq!(alias.status, 200);
        assert_eq!(alias.header("deprecation"), Some("true"));
        assert_eq!(
            alias.header("link"),
            Some("</api/v1/rank>; rel=\"successor-version\"")
        );

        let canonical = post("/api/v1/rank", r#"{"query": "covid outbreak", "k": 3}"#);
        assert_eq!(canonical.status, 200);
        assert_eq!(canonical.header("deprecation"), None);
        assert_eq!(
            alias.body, canonical.body,
            "aliases serve identical payloads"
        );
    }

    #[test]
    fn alias_link_points_at_the_full_path() {
        let resp = get("/doc/2");
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.header("link"),
            Some("</api/v1/doc/2>; rel=\"successor-version\"")
        );
        assert_eq!(get("/api/v1/doc/2").header("deprecation"), None);
    }

    #[test]
    fn corpus_and_doc_endpoints() {
        let resp = get("/corpus");
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v.get("num_docs").unwrap().as_u64(), Some(6));

        let resp = get("/api/v1/doc/2");
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert!(v
            .get("body")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("microchip"));

        let missing = get("/doc/99");
        assert_eq!(missing.status, 404);
        assert_eq!(error_code(&missing).as_deref(), Some("doc_not_found"));
        assert_eq!(get("/doc/zebra").status, 400);
    }

    #[test]
    fn rank_endpoint() {
        let resp = post("/api/v1/rank", r#"{"query": "covid outbreak", "k": 3}"#);
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        let ranking = v.get("ranking").unwrap().as_array().unwrap();
        assert_eq!(ranking.len(), 3);
        assert_eq!(ranking[0].get("rank").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn rank_validation_errors() {
        assert_eq!(post("/rank", "not json").status, 400);
        assert_eq!(post("/rank", r#"{"k": 3}"#).status, 400);
        assert_eq!(post("/rank", r#"{"query": "covid"}"#).status, 400);
        assert_eq!(post("/rank", r#"[1,2]"#).status, 400);
        assert_eq!(post("/rank", r#"{"query": "covid", "k": -1}"#).status, 400);
    }

    #[test]
    fn invalid_fields_all_reported_in_the_envelope() {
        let resp = post("/api/v1/rank", r#"{"query": 7, "k": "three", "zz": 1}"#);
        assert_eq!(resp.status, 400);
        let v = body_json(&resp);
        let err = v.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("invalid_field"));
        assert!(err.get("field").unwrap().as_str().is_some());
        let details = err.get("details").unwrap().as_array().unwrap();
        assert_eq!(details.len(), 3, "query, k, and the unknown field");
        let fields: Vec<&str> = details
            .iter()
            .map(|d| d.get("field").unwrap().as_str().unwrap())
            .collect();
        assert!(fields.contains(&"query"));
        assert!(fields.contains(&"k"));
        assert!(fields.contains(&"zz"));
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let resp = post(
            "/api/v1/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "deadlin_ms": 5}"#,
        );
        assert_eq!(resp.status, 400);
        let v = body_json(&resp);
        assert_eq!(
            v.get("error").unwrap().get("field").unwrap().as_str(),
            Some("deadlin_ms")
        );
    }

    #[test]
    fn sentence_removal_endpoint() {
        let resp = post(
            "/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}"#,
        );
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v.get("status").unwrap().as_str(), Some("complete"));
        let explanations = v.get("explanations").unwrap().as_array().unwrap();
        assert_eq!(explanations.len(), 1);
        let new_rank = explanations[0].get("new_rank").unwrap().as_u64().unwrap();
        assert!(new_rank > 3);
    }

    #[test]
    fn eval_knobs_change_nothing_but_validate() {
        // The evaluation engine is bit-deterministic: a request that forces
        // the threaded path must produce a byte-identical payload.
        let plain = post(
            "/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}"#,
        );
        let tuned = post(
            "/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1,
                "eval_threads": 3, "eval_parallel_threshold": 1}"#,
        );
        assert_eq!(tuned.status, 200);
        assert_eq!(plain.body, tuned.body);

        let bad = post(
            "/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "eval_threads": "many"}"#,
        );
        assert_eq!(bad.status, 400);
    }

    #[test]
    fn generous_budget_payload_matches_unbudgeted() {
        let plain = post(
            "/api/v1/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}"#,
        );
        let budgeted = post(
            "/api/v1/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1,
                "deadline_ms": 600000, "max_evals": 1000000}"#,
        );
        assert_eq!(budgeted.status, 200);
        assert_eq!(plain.body, budgeted.body);
    }

    #[test]
    fn expired_deadline_returns_well_formed_partial_result() {
        let resp = post(
            "/api/v1/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1, "deadline_ms": 0}"#,
        );
        assert_eq!(resp.status, 200, "a tripped budget is not an error");
        let v = body_json(&resp);
        assert_eq!(v.get("status").unwrap().as_str(), Some("deadline"));
        assert_eq!(v.get("candidates_evaluated").unwrap().as_u64(), Some(0));
        assert!(v
            .get("explanations")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        assert!(v.get("old_rank").unwrap().as_u64().is_some());
        assert!(state().metrics().deadline_hits() > 0);
    }

    #[test]
    fn max_evals_cap_returns_exhausted_prefix() {
        let capped = post(
            "/api/v1/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 5, "max_evals": 1}"#,
        );
        assert_eq!(capped.status, 200);
        let v = body_json(&capped);
        assert_eq!(v.get("status").unwrap().as_str(), Some("exhausted"));
        assert_eq!(v.get("candidates_evaluated").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn metrics_endpoint_exposes_the_registry() {
        // Generate at least one request beforehand so counters are nonzero.
        let _ = post("/api/v1/rank", r#"{"query": "covid outbreak", "k": 3}"#);
        let resp = get("/metrics");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "text/plain; charset=utf-8");
        assert_eq!(resp.header("deprecation"), None, "/metrics is canonical");
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("credence_requests_total{endpoint=\"rank\",status=\"200\"}"));
        assert!(text.contains("credence_request_duration_seconds_bucket"));
        assert!(text.contains("credence_request_duration_quantile_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("credence_deadline_hits_total"));
        assert!(text.contains("credence_candidate_evals_total"));
        assert!(text.contains("credence_searches_total{status=\"complete\"}"));
        assert!(text.contains("credence_retrieval_docs_scored_total"));
        assert!(text.contains("credence_retrieval_docs_pruned_total"));
        assert!(text.contains("credence_retrieval_shards_used_total"));
        assert!(text.contains("credence_ranking_cache_hits_total"));
        assert!(text.contains("credence_ranking_cache_misses_total"));
    }

    #[test]
    fn metrics_reflect_retrieval_after_a_ranked_query() {
        // A fresh state so other tests' cached rankings don't interfere.
        let state = AppState::leak(demo_docs(), EngineConfig::fast());
        let req = Request {
            method: "POST".into(),
            path: "/api/v1/rank".into(),
            headers: Default::default(),
            body: br#"{"query": "covid outbreak", "k": 3}"#.to_vec(),
        };
        assert_eq!(handle_request(state, &req).status, 200);
        let scrape = Request {
            method: "GET".into(),
            path: "/metrics".into(),
            headers: Default::default(),
            body: Vec::new(),
        };
        let text = String::from_utf8(handle_request(state, &scrape).body).unwrap();
        assert!(
            text.contains("credence_ranking_cache_misses_total 1"),
            "one ranking computed:\n{text}"
        );
        assert!(
            !text.contains("credence_retrieval_docs_scored_total 0"),
            "the rank request scored documents:\n{text}"
        );
    }

    #[test]
    fn rank_rejects_the_removed_strategy_fields() {
        for field in [r#""search_strategy": "pruned""#, r#""search_shards": 2"#] {
            let resp = post(
                "/api/v1/rank",
                &format!(r#"{{"query": "covid outbreak", "k": 3, {field}}}"#),
            );
            assert_eq!(resp.status, 400, "{field}");
            assert_eq!(error_code(&resp).as_deref(), Some("invalid_field"));
        }
    }

    #[test]
    fn a_crafted_query_cannot_answer_a_partition_leg_from_the_cache() {
        // JSON lets a client put a NUL in a plain query. Spelling a
        // partition inside the query string must not seed the cache entry a
        // router leg for that partition reads.
        let leg = r#"{"query": "covid", "k": 20, "partition_index": 0, "partition_count": 2}"#;
        let fresh = AppState::leak(demo_docs(), EngineConfig::fast());
        let expected = request_on(fresh, "POST", "/api/v1/rank", leg);
        let state = AppState::leak(demo_docs(), EngineConfig::fast());
        let crafted = r#"{"query": "covid\u0000partition=0/2", "k": 20}"#;
        assert_eq!(
            request_on(state, "POST", "/api/v1/rank", crafted).status,
            200
        );
        let resp = request_on(state, "POST", "/api/v1/rank", leg);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, expected.body);
    }

    #[test]
    fn sentence_removal_doc_errors() {
        let missing = post(
            "/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 99}"#,
        );
        assert_eq!(missing.status, 404);
        assert_eq!(error_code(&missing).as_deref(), Some("doc_not_found"));
        let irrelevant = post(
            "/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 5}"#,
        );
        assert_eq!(irrelevant.status, 422, "garden doc is not relevant");
        assert_eq!(error_code(&irrelevant).as_deref(), Some("doc_not_relevant"));
    }

    #[test]
    fn error_envelope_on_every_endpoint() {
        // Every POST endpoint answers field errors with the envelope.
        let cases = [
            ("/api/v1/rank", r#"{"k": 3}"#),
            ("/api/v1/explain/sentence-removal", r#"{"k": 3}"#),
            ("/api/v1/explain/query-augmentation", r#"{"k": 3}"#),
            ("/api/v1/explain/query-reduction", r#"{"k": 3}"#),
            ("/api/v1/explain/term-removal", r#"{"k": 3}"#),
            ("/api/v1/explain/doc2vec-nearest", r#"{"k": 3}"#),
            ("/api/v1/explain/cosine-sampled", r#"{"k": 3}"#),
            ("/api/v1/explain/nearest-to-text", r#"{"n": 3}"#),
            ("/api/v1/topics", r#"{"k": 3}"#),
            ("/api/v1/snippet", r#"{"doc": 1}"#),
            ("/api/v1/rerank", r#"{"query": "covid", "k": 3, "doc": 2}"#),
        ];
        for (path, body) in cases {
            let resp = post(path, body);
            assert_eq!(resp.status, 400, "{path}");
            let v = body_json(&resp);
            let err = v
                .get("error")
                .unwrap_or_else(|| panic!("{path}: no envelope"));
            assert_eq!(
                err.get("code").unwrap().as_str(),
                Some("invalid_field"),
                "{path}"
            );
            assert!(err.get("message").unwrap().as_str().is_some(), "{path}");
        }
    }

    #[test]
    fn job_endpoints_submit_poll_and_report() {
        let resp = post(
            "/api/v1/jobs",
            r#"{"endpoint": "sentence-removal",
                "request": {"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}}"#,
        );
        assert_eq!(resp.status, 202);
        let v = body_json(&resp);
        assert_eq!(v.get("status").unwrap().as_str(), Some("queued"));
        let job_id = v.get("job_id").unwrap().as_str().unwrap().to_string();
        assert!(job_id.starts_with("job-"));

        let numeric: u64 = job_id.strip_prefix("job-").unwrap().parse().unwrap();
        assert_eq!(
            state()
                .jobs()
                .wait_terminal(numeric, std::time::Duration::from_secs(30)),
            Some(crate::jobs::JobState::Complete)
        );
        let polled = get(&format!("/api/v1/jobs/{job_id}"));
        assert_eq!(polled.status, 200);
        let v = body_json(&polled);
        assert_eq!(v.get("status").unwrap().as_str(), Some("complete"));
        assert_eq!(
            v.get("endpoint").unwrap().as_str(),
            Some("sentence-removal")
        );
        assert_eq!(v.get("result_status").unwrap().as_u64(), Some(200));
        // The stored result is the synchronous endpoint's payload.
        let sync = post(
            "/api/v1/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}"#,
        );
        assert_eq!(*v.get("result").unwrap(), body_json(&sync));
    }

    #[test]
    fn job_submission_validates_the_envelope() {
        let bad = post("/api/v1/jobs", r#"{"endpoint": "saliency", "request": {}}"#);
        assert_eq!(bad.status, 400);
        assert_eq!(error_code(&bad).as_deref(), Some("invalid_field"));

        let no_request = post("/api/v1/jobs", r#"{"endpoint": "term-removal"}"#);
        assert_eq!(no_request.status, 400);

        let nested = post(
            "/api/v1/jobs",
            r#"{"endpoint": "term-removal", "request": {"query": "covid", "k": "x", "doc": 1}}"#,
        );
        assert_eq!(nested.status, 400);
        let v = body_json(&nested);
        let details = v
            .get("error")
            .unwrap()
            .get("details")
            .unwrap()
            .as_array()
            .unwrap();
        assert!(details
            .iter()
            .any(|d| d.get("field").unwrap().as_str() == Some("request.k")));
    }

    #[test]
    fn job_lookup_and_cancel_handle_bad_ids() {
        assert_eq!(get("/api/v1/jobs/zebra").status, 400);
        let missing = get("/api/v1/jobs/job-999999");
        assert_eq!(missing.status, 404);
        assert_eq!(error_code(&missing).as_deref(), Some("job_not_found"));
        let req = Request {
            method: "DELETE".into(),
            path: "/api/v1/jobs/job-999999".into(),
            headers: Default::default(),
            body: Vec::new(),
        };
        assert_eq!(handle_request(state(), &req).status, 404);
    }

    #[test]
    fn query_augmentation_endpoint() {
        let resp = post(
            "/explain/query-augmentation",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 2, "threshold": 1}"#,
        );
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v.get("status").unwrap().as_str(), Some("complete"));
        let explanations = v.get("explanations").unwrap().as_array().unwrap();
        assert!(!explanations.is_empty());
        for e in explanations {
            assert!(e.get("new_rank").unwrap().as_u64().unwrap() <= 1);
            assert!(e
                .get("augmented_query")
                .unwrap()
                .as_str()
                .unwrap()
                .starts_with("covid outbreak"));
        }
    }

    #[test]
    fn query_reduction_endpoint() {
        let resp = post(
            "/explain/query-reduction",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}"#,
        );
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v.get("status").unwrap().as_str(), Some("complete"));
        assert!(v.get("candidates_evaluated").unwrap().as_u64().is_some());
        let explanations = v.get("explanations").unwrap().as_array().unwrap();
        for e in explanations {
            assert!(!e
                .get("removed_terms")
                .unwrap()
                .as_array()
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn term_removal_endpoint() {
        let resp = post(
            "/api/v1/explain/term-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}"#,
        );
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v.get("status").unwrap().as_str(), Some("complete"));
        let explanations = v.get("explanations").unwrap().as_array().unwrap();
        assert!(!explanations.is_empty());
        let e = &explanations[0];
        assert!(!e
            .get("removed_terms")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        assert!(e.get("new_rank").unwrap().as_u64().unwrap() > 3);
    }

    #[test]
    fn instance_endpoints() {
        let resp = post(
            "/explain/doc2vec-nearest",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}"#,
        );
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v.get("explanations").unwrap().as_array().unwrap().len(), 1);

        let resp = post(
            "/explain/cosine-sampled",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1, "samples": 10}"#,
        );
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        let e = &v.get("explanations").unwrap().as_array().unwrap()[0];
        assert_eq!(e.get("doc").unwrap().as_u64(), Some(3), "the copycat");
    }

    #[test]
    fn topics_endpoint() {
        let resp = post(
            "/topics",
            r#"{"query": "covid outbreak", "k": 3, "num_topics": 2}"#,
        );
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v.get("topics").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn rerank_endpoint_runs_figure5() {
        let resp = post(
            "/rerank",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2,
                "body": "The flu is a cover story. A secret chip hides in every dose."}"#,
        );
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v.get("valid").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("new_rank").unwrap().as_u64(), Some(4));
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 4, "pool of k+1 documents");
        assert!(rows
            .iter()
            .any(|r| r.get("substituted").unwrap().as_bool() == Some(true)));
    }

    #[test]
    fn rerank_with_expired_deadline_fails_fast() {
        let resp = post(
            "/api/v1/rerank",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2,
                "body": "The flu is a cover story.", "deadline_ms": 0}"#,
        );
        assert_eq!(resp.status, 422, "the builder has no partial result");
        assert_eq!(error_code(&resp).as_deref(), Some("deadline_exceeded"));
    }

    #[test]
    fn snippet_endpoint() {
        let resp = post(
            "/snippet",
            r#"{"query": "covid outbreak", "doc": 2, "window": 8}"#,
        );
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert!(!v.get("highlights").unwrap().as_array().unwrap().is_empty());
        assert!(
            v.get("snippet")
                .unwrap()
                .get("hits")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
        assert_eq!(
            post("/snippet", r#"{"query": "covid", "doc": 999}"#).status,
            404
        );
    }

    #[test]
    fn nearest_to_text_endpoint() {
        let resp = post(
            "/explain/nearest-to-text",
            r#"{"text": "secret microchip in vaccine doses", "n": 2}"#,
        );
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v.get("neighbors").unwrap().as_array().unwrap().len(), 2);

        let resp = post(
            "/explain/nearest-to-text",
            r#"{"text": "covid outbreak tonight", "n": 2, "query": "covid outbreak", "k": 3}"#,
        );
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn rerank_missing_fields() {
        assert_eq!(
            post("/rerank", r#"{"query": "covid", "k": 3, "doc": 2}"#).status,
            400
        );
    }

    /// Issue a request against a specific (non-shared) leaked state.
    fn request_on(state: &'static AppState, method: &str, path: &str, body: &str) -> Response {
        let req = Request {
            method: method.into(),
            path: path.into(),
            headers: Default::default(),
            body: body.as_bytes().to_vec(),
        };
        handle_request(state, &req)
    }

    #[test]
    fn api_index_reflects_the_route_table() {
        let resp = get("/api/v1");
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v.get("version").unwrap().as_str(), Some("v1"));
        let corpora = v.get("corpora").unwrap().as_array().unwrap();
        assert!(corpora.iter().any(|c| c.as_str() == Some(DEFAULT_CORPUS)));
        let routes = v.get("routes").unwrap().as_array().unwrap();
        let find = |method: &str, path: &str| {
            routes.iter().find(|r| {
                r.get("method").unwrap().as_str() == Some(method)
                    && r.get("path").unwrap().as_str() == Some(path)
            })
        };
        // Every table row shows up canonically and as its deprecated alias.
        for route in super::routes() {
            if route.versioned {
                let canonical = find(route.method, &format!("{API_PREFIX}{}", route.path))
                    .unwrap_or_else(|| panic!("missing canonical row for {}", route.path));
                assert_eq!(canonical.get("deprecated").unwrap().as_bool(), Some(false));
                let alias = find(route.method, &route.path)
                    .unwrap_or_else(|| panic!("missing alias row for {}", route.path));
                assert_eq!(alias.get("deprecated").unwrap().as_bool(), Some(true));
                assert_eq!(
                    alias.get("successor").unwrap().as_str(),
                    Some(format!("{API_PREFIX}{}", route.path).as_str())
                );
            } else {
                assert!(find(route.method, &route.path).is_some());
            }
        }
        // The discovery endpoint lists itself.
        assert!(find("GET", API_PREFIX).is_some());
        // Non-GET on the index is a method error, not a UI fallthrough.
        let req = Request {
            method: "POST".into(),
            path: "/api/v1".into(),
            headers: Default::default(),
            body: Vec::new(),
        };
        assert_eq!(handle_request(state(), &req).status, 405);
    }

    #[test]
    fn route_rows_and_metrics_labels_are_unique() {
        let mut rows: Vec<(&str, &str)> = super::routes()
            .iter()
            .map(|r| (r.method, &*r.path))
            .collect();
        let count = rows.len();
        rows.sort();
        rows.dedup();
        assert_eq!(rows.len(), count, "a (method, path) row registered twice");
        for family in EXPLAINERS {
            let owners = super::routes()
                .iter()
                .filter(|r| r.endpoint == family.label)
                .count();
            assert_eq!(owners, 1, "{} shares its metrics label", family.name);
        }
    }

    #[test]
    fn every_2xx_body_names_its_corpus_and_generation() {
        let resp = post("/api/v1/rank", r#"{"query": "covid outbreak", "k": 3}"#);
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v.get("corpus").unwrap().as_str(), Some(DEFAULT_CORPUS));
        assert_eq!(v.get("generation").unwrap().as_u64(), Some(0));

        let resp = post(
            "/api/v1/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 2, "doc": 1, "n": 1}"#,
        );
        assert_eq!(resp.status, 200);
        let v = body_json(&resp);
        assert_eq!(v.get("corpus").unwrap().as_str(), Some(DEFAULT_CORPUS));
        assert_eq!(v.get("generation").unwrap().as_u64(), Some(0));

        for path in ["/api/v1/corpus", "/api/v1/doc/1"] {
            let v = body_json(&get(path));
            assert_eq!(
                v.get("corpus").unwrap().as_str(),
                Some(DEFAULT_CORPUS),
                "{path}"
            );
            assert_eq!(v.get("generation").unwrap().as_u64(), Some(0), "{path}");
        }
    }

    #[test]
    fn explicit_corpus_and_generation_fields_resolve() {
        let ok = post(
            "/api/v1/rank",
            r#"{"query": "covid outbreak", "k": 3, "corpus": "default", "generation": 0}"#,
        );
        assert_eq!(ok.status, 200);
        let missing = post(
            "/api/v1/rank",
            r#"{"query": "covid outbreak", "k": 3, "corpus": "nope"}"#,
        );
        assert_eq!(missing.status, 404);
        assert_eq!(error_code(&missing).as_deref(), Some("corpus_not_found"));
        let gone = post(
            "/api/v1/rank",
            r#"{"query": "covid outbreak", "k": 3, "generation": 99}"#,
        );
        assert_eq!(gone.status, 410);
        assert_eq!(error_code(&gone).as_deref(), Some("generation_gone"));
    }

    #[test]
    fn corpus_lifecycle_register_mutate_and_remove() {
        let state = AppState::leak(demo_docs(), EngineConfig::fast());
        let put_body = r#"{"docs": [
            {"name": "x1", "title": "One", "body": "alpha beta gamma"},
            {"name": "x2", "title": "Two", "body": "alpha delta epsilon"}
        ]}"#;
        let created = request_on(state, "PUT", "/api/v1/corpora/extra", put_body);
        assert_eq!(created.status, 201);
        let v = body_json(&created);
        assert_eq!(v.get("corpus").unwrap().as_str(), Some("extra"));
        assert_eq!(v.get("replaced").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("num_docs").unwrap().as_u64(), Some(2));

        // Hot-swap answers 200 with replaced=true.
        let swapped = request_on(state, "PUT", "/api/v1/corpora/extra", put_body);
        assert_eq!(swapped.status, 200);
        assert_eq!(
            body_json(&swapped).get("replaced").unwrap().as_bool(),
            Some(true)
        );

        // The listing sees both corpora.
        let list = body_json(&request_on(state, "GET", "/api/v1/corpora", ""));
        let names: Vec<String> = list
            .get("corpora")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|c| c.get("corpus").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["default".to_string(), "extra".to_string()]);

        // Requests route to the named corpus.
        let ranked = request_on(
            state,
            "POST",
            "/api/v1/rank",
            r#"{"query": "alpha", "k": 2, "corpus": "extra"}"#,
        );
        assert_eq!(ranked.status, 200);
        assert_eq!(
            body_json(&ranked).get("corpus").unwrap().as_str(),
            Some("extra")
        );

        // A refreshed insert bumps the generation and becomes visible.
        let added = request_on(
            state,
            "POST",
            "/api/v1/corpora/extra/docs",
            r#"{"name": "x3", "title": "Three", "body": "alpha zeta", "refresh": true}"#,
        );
        assert_eq!(added.status, 200, "{:?}", std::str::from_utf8(&added.body));
        let v = body_json(&added);
        assert_eq!(v.get("status").unwrap().as_str(), Some("applied"));
        assert!(v.get("generation").unwrap().as_u64().unwrap() >= 1);
        let docs = body_json(&request_on(state, "GET", "/api/v1/corpora/extra/docs", ""));
        assert_eq!(docs.get("num_docs").unwrap().as_u64(), Some(3));

        // Duplicate insert is a conflict; upsert and delete are not.
        let dup = request_on(
            state,
            "POST",
            "/api/v1/corpora/extra/docs",
            r#"{"name": "x3", "body": "again"}"#,
        );
        assert_eq!(dup.status, 409);
        assert_eq!(error_code(&dup).as_deref(), Some("doc_exists"));
        let upsert = request_on(
            state,
            "PUT",
            "/api/v1/corpora/extra/docs/x3",
            r#"{"title": "Three v2", "body": "alpha zeta eta", "refresh": true}"#,
        );
        assert_eq!(upsert.status, 200);
        let fetched = body_json(&request_on(
            state,
            "GET",
            "/api/v1/corpora/extra/docs/x3",
            "",
        ));
        assert_eq!(fetched.get("title").unwrap().as_str(), Some("Three v2"));
        let deleted = request_on(
            state,
            "DELETE",
            "/api/v1/corpora/extra/docs/x3",
            r#"{"refresh": true}"#,
        );
        assert_eq!(deleted.status, 200);
        let docs = body_json(&request_on(state, "GET", "/api/v1/corpora/extra/docs", ""));
        assert_eq!(docs.get("num_docs").unwrap().as_u64(), Some(2));

        // The default corpus is protected; removal detaches the rest.
        for method in ["PUT", "DELETE"] {
            let resp = request_on(state, method, "/api/v1/corpora/default", r#"{"docs": []}"#);
            assert_eq!(resp.status, 409, "{method}");
            assert_eq!(error_code(&resp).as_deref(), Some("corpus_protected"));
        }
        let removed = request_on(state, "DELETE", "/api/v1/corpora/extra", "");
        assert_eq!(removed.status, 200);
        let gone = request_on(
            state,
            "POST",
            "/api/v1/rank",
            r#"{"query": "alpha", "k": 2, "corpus": "extra"}"#,
        );
        assert_eq!(gone.status, 404);
        assert_eq!(error_code(&gone).as_deref(), Some("corpus_not_found"));
    }

    #[test]
    fn pinned_generation_still_serves_after_mutation() {
        let state = AppState::leak(demo_docs(), EngineConfig::fast());
        let pin = state.default_snapshot();
        let seq = state
            .registry()
            .get(DEFAULT_CORPUS)
            .unwrap()
            .stage(DeltaOp::Delete("n1".to_string()));
        assert!(state
            .registry()
            .get(DEFAULT_CORPUS)
            .unwrap()
            .wait_for_seq(seq, Duration::from_secs(10)));
        // The live generation advanced past the delete...
        let live = body_json(&request_on(
            state,
            "POST",
            "/api/v1/rank",
            r#"{"query": "covid outbreak", "k": 6}"#,
        ));
        assert!(live.get("generation").unwrap().as_u64().unwrap() >= 1);
        // ...but the pinned one still answers with the original corpus.
        let pinned = body_json(&request_on(
            state,
            "POST",
            "/api/v1/rank",
            r#"{"query": "covid outbreak", "k": 6, "generation": 0}"#,
        ));
        assert_eq!(pinned.get("generation").unwrap().as_u64(), Some(0));
        let pinned_docs = pinned.get("ranking").unwrap().as_array().unwrap().len();
        let live_docs = live.get("ranking").unwrap().as_array().unwrap().len();
        assert!(pinned_docs > live_docs, "{pinned_docs} vs {live_docs}");
        drop(pin);
    }

    #[test]
    fn metrics_expose_corpus_families() {
        let resp = get("/metrics");
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("credence_corpus_count"), "{text}");
        assert!(
            text.contains("credence_corpus_generation{corpus=\"default\"}"),
            "{text}"
        );
        assert!(text.contains("credence_corpus_docs{corpus=\"default\"}"));
        assert!(text.contains("credence_corpus_pending_ops{corpus=\"default\"}"));
        assert!(text.contains("credence_corpus_merges_total{corpus=\"default\"}"));
    }

    /// The error-envelope audit (table-driven): every error path answers
    /// `{"error": {"code", "message"}}` with its documented status + code.
    #[test]
    fn error_envelopes_are_uniform_across_every_path() {
        let cases: Vec<(&str, Response, u16, &str)> = vec![
            ("unknown path", get("/nope"), 404, "not_found"),
            ("bad json", post("/rank", "{nope"), 400, "invalid_json"),
            (
                "non-object body",
                post("/rank", "[1, 2]"),
                400,
                "invalid_request",
            ),
            (
                "field validation",
                post("/rank", r#"{"query": "covid", "k": "three"}"#),
                400,
                "invalid_field",
            ),
            (
                "unknown corpus",
                post("/rank", r#"{"query": "covid", "k": 2, "corpus": "nope"}"#),
                404,
                "corpus_not_found",
            ),
            (
                "dead generation",
                post("/rank", r#"{"query": "covid", "k": 2, "generation": 99}"#),
                410,
                "generation_gone",
            ),
            (
                "missing doc",
                post(
                    "/explain/sentence-removal",
                    r#"{"query": "covid", "k": 2, "doc": 999}"#,
                ),
                404,
                "doc_not_found",
            ),
            (
                "protected corpus",
                request_on(state(), "PUT", "/api/v1/corpora/default", r#"{"docs": []}"#),
                409,
                "corpus_protected",
            ),
            (
                "mutating an unknown corpus",
                request_on(
                    state(),
                    "POST",
                    "/api/v1/corpora/nope/docs",
                    r#"{"name": "d", "body": "b"}"#,
                ),
                404,
                "corpus_not_found",
            ),
            (
                "deleting an unknown doc",
                request_on(state(), "DELETE", "/api/v1/corpora/default/docs/zzz", ""),
                404,
                "doc_not_found",
            ),
            (
                "malformed job id",
                get("/api/v1/jobs/zzz"),
                400,
                "invalid_field",
            ),
            (
                "unknown job",
                get("/api/v1/jobs/job-999"),
                404,
                "job_not_found",
            ),
            (
                "method mismatch",
                request_on(state(), "DELETE", "/api/v1/rank", ""),
                405,
                "method_not_allowed",
            ),
        ];
        for (name, resp, status, code) in cases {
            assert_eq!(resp.status, status, "{name}");
            assert_eq!(resp.content_type, "application/json", "{name}");
            let v = body_json(&resp);
            let err = v
                .get("error")
                .unwrap_or_else(|| panic!("{name}: no envelope"));
            assert_eq!(err.get("code").unwrap().as_str(), Some(code), "{name}");
            assert!(
                err.get("message")
                    .unwrap()
                    .as_str()
                    .is_some_and(|m| !m.is_empty()),
                "{name}: message missing"
            );
        }
    }

    #[test]
    fn explain_cache_hit_serves_identical_bytes() {
        let state = AppState::leak(demo_docs(), EngineConfig::fast());
        let body = r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}"#;
        let baseline = request_on(
            state,
            "POST",
            "/api/v1/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1,
                "explain_cache_bypass": true}"#,
        );
        assert_eq!(baseline.status, 200);
        assert_eq!(state.explain_cache().len(), 0, "bypass does not populate");

        let first = request_on(state, "POST", "/api/v1/explain/sentence-removal", body);
        let second = request_on(state, "POST", "/api/v1/explain/sentence-removal", body);
        assert_eq!(state.explain_cache().hits(), 1);
        assert_eq!(first.body, second.body, "hit is byte-identical");
        assert_eq!(
            first.body, baseline.body,
            "cached payload matches the uncached path"
        );

        // Field order and spelled-out defaults canonicalize to the same key.
        let reordered = request_on(
            state,
            "POST",
            "/api/v1/explain/sentence-removal",
            r#"{"n": 1, "doc": 2, "k": 3, "query": "covid outbreak", "corpus": "default"}"#,
        );
        assert_eq!(state.explain_cache().hits(), 2);
        assert_eq!(reordered.body, first.body);
    }

    #[test]
    fn explain_cache_covers_all_four_explainers() {
        let state = AppState::leak(demo_docs(), EngineConfig::fast());
        let cases = [
            (
                "/api/v1/explain/sentence-removal",
                r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}"#,
            ),
            (
                "/api/v1/explain/query-augmentation",
                r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1, "threshold": 1}"#,
            ),
            (
                "/api/v1/explain/query-reduction",
                r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}"#,
            ),
            (
                "/api/v1/explain/term-removal",
                r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}"#,
            ),
        ];
        for (i, (path, body)) in cases.iter().enumerate() {
            let first = request_on(state, "POST", path, body);
            assert_eq!(first.status, 200, "{path}");
            let again = request_on(state, "POST", path, body);
            assert_eq!(again.body, first.body, "{path}");
            assert_eq!(state.explain_cache().hits(), i as u64 + 1, "{path}");
        }
        assert_eq!(state.explain_cache().len(), 4, "one entry per endpoint");
    }

    #[test]
    fn generation_publish_invalidates_explain_cache_keys() {
        let state = AppState::leak(demo_docs(), EngineConfig::fast());
        let _pin = state.default_snapshot(); // keep generation 0 resolvable
        let body = r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}"#;
        let gen0 = request_on(state, "POST", "/api/v1/explain/sentence-removal", body);
        assert_eq!(gen0.status, 200);
        assert_eq!(state.explain_cache().misses(), 1);

        // Publish a new generation (delete an unrelated doc).
        let corpus = state.registry().get(DEFAULT_CORPUS).unwrap();
        let seq = corpus.stage(DeltaOp::Delete("n6".to_string()));
        assert!(corpus.wait_for_seq(seq, Duration::from_secs(10)));

        let gen1 = request_on(state, "POST", "/api/v1/explain/sentence-removal", body);
        assert_eq!(gen1.status, 200);
        assert_eq!(
            state.explain_cache().misses(),
            2,
            "the new generation's key misses"
        );
        assert_eq!(state.explain_cache().hits(), 0);
        // The gen-0 entry still serves pinned requests.
        let pinned = request_on(
            state,
            "POST",
            "/api/v1/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1, "generation": 0}"#,
        );
        assert_eq!(state.explain_cache().hits(), 1);
        assert_eq!(pinned.body, gen0.body);
    }

    #[test]
    fn finished_job_satisfies_a_matching_synchronous_request() {
        let state = AppState::leak(demo_docs(), EngineConfig::fast());
        let submit = request_on(
            state,
            "POST",
            "/api/v1/jobs",
            r#"{"endpoint": "sentence-removal",
                "request": {"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}}"#,
        );
        assert_eq!(submit.status, 202);
        let id = body_json(&submit)
            .get("job_id")
            .unwrap()
            .as_str()
            .unwrap()
            .strip_prefix("job-")
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(
            state.jobs().wait_terminal(id, Duration::from_secs(30)),
            Some(crate::jobs::JobState::Complete)
        );
        let misses_after_job = state.explain_cache().misses();
        assert!(misses_after_job >= 1, "the job populated the cache");

        let sync = request_on(
            state,
            "POST",
            "/api/v1/explain/sentence-removal",
            r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}"#,
        );
        assert_eq!(sync.status, 200);
        assert_eq!(
            state.explain_cache().misses(),
            misses_after_job,
            "the synchronous request did not re-run the search"
        );
        assert_eq!(state.explain_cache().hits(), 1);
        // And the payload is the job's payload, bit for bit.
        let job_view = state.jobs().get(id, state.metrics()).unwrap();
        let (status, payload) = job_view.result.unwrap();
        assert_eq!(status, 200);
        assert_eq!(payload, body_json(&sync));
    }

    #[test]
    fn explain_cache_families_render_in_metrics() {
        let state = AppState::leak(demo_docs(), EngineConfig::fast());
        let body = r#"{"query": "covid outbreak", "k": 3, "doc": 2, "n": 1}"#;
        request_on(state, "POST", "/api/v1/explain/sentence-removal", body);
        request_on(state, "POST", "/api/v1/explain/sentence-removal", body);
        let scrape = request_on(state, "GET", "/metrics", "");
        let text = String::from_utf8(scrape.body).unwrap();
        for (family, kind) in [
            ("credence_explain_cache_hits_total", "counter"),
            ("credence_explain_cache_misses_total", "counter"),
            ("credence_explain_cache_coalesced_total", "counter"),
            ("credence_explain_cache_evictions_total", "counter"),
            ("credence_explain_cache_size", "gauge"),
            ("credence_ranking_cache_size", "gauge"),
            ("credence_ranking_cache_evictions_total", "counter"),
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} {kind}")),
                "{family}"
            );
        }
        assert!(text.contains("credence_explain_cache_hits_total 1"));
        assert!(text.contains("credence_explain_cache_misses_total 1"));
        assert!(text.contains("credence_explain_cache_size 1"));
    }
}
