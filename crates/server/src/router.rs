//! Scatter-gather cluster router.
//!
//! `credence serve --router` splits ranking across processes: every worker
//! is a plain `credence-serve` over the **full** corpus (replication keeps
//! collection statistics — idf, avgdl — global, which is what makes worker
//! scores bit-identical to single-node), and
//! each `/rank` request is fanned out once per doc-hash partition with
//! `partition_index`/`partition_count` set, so the workers split the
//! *scoring work* rather than the data.
//!
//! The merge applies the same total order as in-process top-k retrieval —
//! score descending, doc id ascending — over the concatenated partition
//! top-ks, then truncates to `k`. Because partitions are disjoint and
//! covering, and every surviving score is produced by the same float fold a
//! single node would run, a complete merge is **byte-identical** to the
//! single-node `/rank` response (the JSON writer emits shortest-round-trip
//! `f64`s, so parse→re-serialize is lossless).
//!
//! Degradation matrix (per `/api/v1/rank` fanout):
//!
//! | failure                    | response |
//! |----------------------------|----------|
//! | any partition unreachable  | `503` + `worker_unavailable` envelope |
//! | partition missed deadline  | `200`, `status: "deadline"`, `missing_partitions` |
//! | partition died mid-request | `200`, `status: "degraded"`, `missing_partitions` |
//! | all partitions failed      | `503` + `worker_unavailable` envelope |
//!
//! Doc-affine endpoints (`/api/v1/explain/*`, `/api/v1/doc/{id}`,
//! `/api/v1/snippet`, `/api/v1/rerank`, jobs) are routed whole to the
//! partition owner's worker and relayed verbatim — replication means any
//! worker answers them bit-identically, so affinity is a load-spreading
//! choice, not a correctness requirement. Corpus-level endpoints
//! round-robin. Every other path, unknown ones included, is forwarded
//! verbatim too, so the router answers exactly what a worker answers. Job
//! wire ids gain a worker tag (`job-<w>-<n>`) so polls and cancels route
//! back to the worker that owns the job; the stored `result` payload is
//! relayed untouched.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use credence_index::{doc_partition, DocId};
use credence_json::{obj, parse, to_string, Value};

use crate::client::{http_request, FailureKind, FanoutError};
use crate::http::{Request, Response, WireResponse};
use crate::metrics::render_family;
use crate::requests::RankRequest;
use crate::server::App;
use crate::service::{error_envelope, json_body, parse_body, API_PREFIX};

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Doc-hash partitions per `/rank` fanout; `0` means one per worker.
    pub partitions: u32,
    /// Default per-leg fanout deadline. Requests carrying their own
    /// `deadline_ms` budget get that budget plus this as grace (the worker
    /// needs time to ship its partial result back).
    pub fanout_deadline_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            partitions: 0,
            fanout_deadline_ms: 2_000,
        }
    }
}

/// Counters for the router's own Prometheus endpoint.
#[derive(Debug, Default)]
struct RouterMetrics {
    requests: AtomicU64,
    fanout_legs: AtomicU64,
    failures_unreachable: AtomicU64,
    failures_deadline: AtomicU64,
    failures_protocol: AtomicU64,
    degraded: AtomicU64,
    unavailable: AtomicU64,
    forwarded: AtomicU64,
    rejected: AtomicU64,
}

impl RouterMetrics {
    fn record_failure(&self, kind: FailureKind) {
        let counter = match kind {
            FailureKind::Unreachable => &self.failures_unreachable,
            FailureKind::Deadline => &self.failures_deadline,
            FailureKind::Protocol => &self.failures_protocol,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// The scatter-gather fanout state served by the accept loop in router
/// mode. Holds no corpus — only worker addresses and counters.
pub struct RouterState {
    workers: Vec<SocketAddr>,
    partitions: u32,
    fanout_deadline: Duration,
    rr: AtomicUsize,
    metrics: RouterMetrics,
}

impl RouterState {
    /// Build a router over `workers` (at least one required).
    pub fn new(workers: Vec<SocketAddr>, config: RouterConfig) -> Self {
        assert!(!workers.is_empty(), "router needs at least one worker");
        let partitions = if config.partitions == 0 {
            workers.len() as u32
        } else {
            config.partitions
        };
        Self {
            workers,
            partitions,
            fanout_deadline: Duration::from_millis(config.fanout_deadline_ms.max(1)),
            rr: AtomicUsize::new(0),
            metrics: RouterMetrics::default(),
        }
    }

    /// Leak to `'static`, matching the engine-state pattern.
    pub fn leak(workers: Vec<SocketAddr>, config: RouterConfig) -> &'static RouterState {
        Box::leak(Box::new(Self::new(workers, config)))
    }

    /// The configured partition count.
    pub fn partitions(&self) -> u32 {
        self.partitions
    }

    /// Worker serving partition `p` (round-robin over workers when there
    /// are more partitions than workers).
    fn worker_for_partition(&self, p: u32) -> (usize, SocketAddr) {
        let w = p as usize % self.workers.len();
        (w, self.workers[w])
    }

    /// Worker owning `doc` — the one serving its partition.
    fn worker_for_doc(&self, doc: u64) -> (usize, SocketAddr) {
        self.worker_for_partition(doc_partition(DocId(doc as u32), self.partitions))
    }

    /// Round-robin pick for corpus-level requests.
    fn next_worker(&self) -> (usize, SocketAddr) {
        let w = self.rr.fetch_add(1, Ordering::Relaxed) % self.workers.len();
        (w, self.workers[w])
    }

    /// The fanout deadline for a request, honouring an explicit
    /// `deadline_ms` budget in the body (plus the configured grace).
    fn leg_deadline(&self, body: Option<&Value>) -> Instant {
        let base = match body
            .and_then(|b| b.get("deadline_ms"))
            .and_then(Value::as_u64)
        {
            Some(ms) => Duration::from_millis(ms) + self.fanout_deadline,
            None => self.fanout_deadline,
        };
        Instant::now() + base
    }

    fn render_metrics(&self) -> String {
        let m = &self.metrics;
        let mut out = String::new();
        for (name, help, counter) in [
            (
                "credence_router_requests_total",
                "Requests handled by the router.",
                &m.requests,
            ),
            (
                "credence_router_fanout_legs_total",
                "Worker requests issued by rank fanout.",
                &m.fanout_legs,
            ),
            (
                "credence_router_forwarded_total",
                "Whole requests relayed to a single worker.",
                &m.forwarded,
            ),
            (
                "credence_router_degraded_total",
                "Partial rank responses served after worker failures.",
                &m.degraded,
            ),
            (
                "credence_router_unavailable_total",
                "Requests answered 503 because workers were unavailable.",
                &m.unavailable,
            ),
            (
                "credence_router_rejected_total",
                "Connections refused at the accept-loop door.",
                &m.rejected,
            ),
        ] {
            render_family(
                &mut out,
                name,
                "counter",
                help,
                [("", counter.load(Ordering::Relaxed))],
            );
        }
        render_family(
            &mut out,
            "credence_router_fanout_failures_total",
            "counter",
            "Worker legs that failed, by kind.",
            [
                ("unreachable", &m.failures_unreachable),
                ("deadline", &m.failures_deadline),
                ("protocol", &m.failures_protocol),
            ]
            .map(|(kind, c)| (format!("{{kind=\"{kind}\"}}"), c.load(Ordering::Relaxed))),
        );
        render_family(
            &mut out,
            "credence_router_workers",
            "gauge",
            "Configured worker processes.",
            [("", self.workers.len())],
        );
        render_family(
            &mut out,
            "credence_router_partitions",
            "gauge",
            "Configured doc-hash partitions.",
            [("", self.partitions)],
        );
        out
    }
}

impl App for RouterState {
    fn handle(&self, request: &Request) -> Response {
        if request.method == "HEAD" {
            // Answered, and forwarded, as `GET`: the connection drops the
            // body, and a worker's answer to `GET` is framed by its body.
            return self.handle(&Request {
                method: "GET".into(),
                ..request.clone()
            });
        }
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let path = request.path.as_str();
        match (request.method.as_str(), path) {
            ("GET", "/metrics") => Response::text(200, self.render_metrics()),
            ("GET", "/api/v1/health") => {
                Response::json(200, to_string(&obj([("status", Value::from("ok"))])))
            }
            ("POST", "/api/v1/rank") => rank_fanout(self, request),
            ("POST", "/api/v1/jobs") => jobs_submit(self, request),
            ("GET" | "DELETE", _) if path.starts_with("/api/v1/jobs/") => {
                jobs_relay(self, request, &path["/api/v1/jobs/".len()..])
            }
            // Corpus lifecycle mutations change worker state, and the
            // cluster's correctness rests on workers being replicas — so
            // they broadcast to every worker instead of picking one.
            // Reads (`GET /api/v1/corpora...`) fall through to round-robin.
            ("PUT" | "DELETE" | "POST", _) if path.starts_with("/api/v1/corpora") => {
                corpora_broadcast(self, request)
            }
            _ => forward(self, request),
        }
    }

    /// Counts the door's 503 only: a request whose handler panicked was
    /// already counted in `credence_router_requests_total`.
    fn record_unhandled(&self, status: u16) {
        if status == 503 {
            self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One merged `/rank` row, keyed for the deterministic total order.
struct MergedRow {
    doc: u64,
    score: f64,
    row: Value,
}

/// Fan `/api/v1/rank` out over every partition and merge with the
/// retrieval tie-break (score desc, doc asc).
fn rank_fanout(state: &RouterState, req: &Request) -> Response {
    let (body, parsed) = match parse_body(req, RankRequest::parse) {
        Ok(p) => p,
        Err(r) => return r,
    };
    if parsed.partition.is_some() {
        return error_envelope(
            400,
            "invalid_field",
            "partition_index/partition_count are router-internal; the router assigns partitions",
        );
    }
    let deadline = state.leg_deadline(Some(&body));
    let partitions = state.partitions;
    let legs: Vec<Result<WireResponse, FanoutError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..partitions)
            .map(|p| {
                let (_, addr) = state.worker_for_partition(p);
                let mut leg_body = body.clone();
                if let Value::Object(m) = &mut leg_body {
                    m.insert("partition_index".to_string(), Value::from(p as usize));
                    m.insert(
                        "partition_count".to_string(),
                        Value::from(partitions as usize),
                    );
                }
                let payload = to_string(&leg_body);
                scope.spawn(move || {
                    http_request(addr, "POST", &req.path, Some(payload.as_bytes()), deadline)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    state
        .metrics
        .fanout_legs
        .fetch_add(partitions as u64, Ordering::Relaxed);

    let mut rows: Vec<MergedRow> = Vec::new();
    let mut missing: Vec<(u32, FailureKind)> = Vec::new();
    // The (corpus, generation) envelope every surviving leg must agree on.
    // Workers are replicas, so a disagreement means the cluster is mid-swap
    // and a merged ranking would mix generations — refuse rather than blend.
    let mut envelope: Option<(String, u64)> = None;
    for (p, leg) in legs.into_iter().enumerate() {
        let p = p as u32;
        match leg {
            Ok(resp) if resp.status == 200 => match parse_ranking_rows(&resp.body) {
                Some((leg_envelope, mut partition_rows)) => {
                    match &envelope {
                        None => envelope = Some(leg_envelope),
                        Some(seen) if *seen != leg_envelope => {
                            return error_envelope(
                                409,
                                "generation_mismatch",
                                format!(
                                    "partition legs answered from different snapshots \
                                     ({}@{} vs {}@{}); retry once the swap settles",
                                    seen.0, seen.1, leg_envelope.0, leg_envelope.1
                                ),
                            );
                        }
                        Some(_) => {}
                    }
                    rows.append(&mut partition_rows);
                }
                None => {
                    state.metrics.record_failure(FailureKind::Protocol);
                    missing.push((p, FailureKind::Protocol));
                }
            },
            Ok(resp) => {
                // The router validated the request, so a worker-side
                // rejection is a fault, not a client error.
                state.metrics.record_failure(FailureKind::Protocol);
                missing.push((p, FailureKind::Protocol));
                let _ = resp;
            }
            Err(e) => {
                state.metrics.record_failure(e.kind);
                missing.push((p, e.kind));
            }
        }
    }

    let unreachable = missing.iter().any(|&(_, k)| k == FailureKind::Unreachable);
    if unreachable || missing.len() == partitions as usize {
        state.metrics.unavailable.fetch_add(1, Ordering::Relaxed);
        let parts: Vec<String> = missing
            .iter()
            .map(|(p, k)| format!("{p}:{}", k.as_str()))
            .collect();
        return error_envelope(
            503,
            "worker_unavailable",
            format!(
                "partitions failed [{}]; ranking would be incomplete",
                parts.join(", ")
            ),
        );
    }

    // The partition-merge contract: concatenate, order by (score desc, doc
    // asc), truncate to k, renumber ranks.
    rows.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.doc.cmp(&b.doc))
    });
    rows.truncate(parsed.k);
    let ranking: Vec<Value> = rows
        .into_iter()
        .enumerate()
        .map(|(i, mut r)| {
            if let Value::Object(m) = &mut r.row {
                m.insert("rank".to_string(), Value::from(i + 1));
            }
            r.row
        })
        .collect();

    // At least one leg survived (checked above), so the envelope is set.
    let (corpus, generation) = envelope.expect("surviving legs carry an envelope");
    let mut fields: Vec<(&str, Value)> = vec![
        ("corpus", Value::from(corpus)),
        ("generation", Value::from(generation as usize)),
    ];
    if missing.is_empty() {
        fields.push(("ranking", Value::Array(ranking)));
        return Response::json(200, to_string(&obj(fields)));
    }
    state.metrics.degraded.fetch_add(1, Ordering::Relaxed);
    let status = if missing.iter().any(|&(_, k)| k == FailureKind::Deadline) {
        "deadline"
    } else {
        "degraded"
    };
    let missing_parts: Vec<Value> = missing
        .iter()
        .map(|&(p, _)| Value::from(p as usize))
        .collect();
    fields.push(("missing_partitions", Value::Array(missing_parts)));
    fields.push(("ranking", Value::Array(ranking)));
    fields.push(("status", Value::from(status)));
    Response::json(200, to_string(&obj(fields)))
}

/// Pull the `(corpus, generation)` envelope and the `(doc, score, row)`
/// triples out of one worker's `/rank` body.
fn parse_ranking_rows(body: &[u8]) -> Option<((String, u64), Vec<MergedRow>)> {
    let text = std::str::from_utf8(body).ok()?;
    let value = parse(text).ok()?;
    let corpus = value.get("corpus")?.as_str()?.to_string();
    let generation = value.get("generation")?.as_u64()?;
    let ranking = value.get("ranking")?.as_array()?;
    let mut rows = Vec::with_capacity(ranking.len());
    for row in ranking {
        let doc = row.get("doc")?.as_u64()?;
        let score = row.get("score")?.as_f64()?;
        rows.push(MergedRow {
            doc,
            score,
            row: row.clone(),
        });
    }
    Some(((corpus, generation), rows))
}

/// Broadcast a corpus-lifecycle mutation to every worker. Replication is
/// the cluster's correctness invariant, so the mutation must land on all of
/// them: any transport failure is `503 worker_unavailable` (the client
/// retries the idempotent PUT/DELETE), and workers disagreeing on the
/// outcome status is `503 cluster_inconsistent`. On agreement the first
/// worker's response is relayed verbatim.
fn corpora_broadcast(state: &RouterState, req: &Request) -> Response {
    let deadline = state.leg_deadline(None);
    let body = if req.body.is_empty() {
        None
    } else {
        Some(req.body.as_slice())
    };
    let legs: Vec<Result<WireResponse, FanoutError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .workers
            .iter()
            .map(|&addr| {
                scope.spawn(move || http_request(addr, &req.method, &req.path, body, deadline))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    state
        .metrics
        .fanout_legs
        .fetch_add(state.workers.len() as u64, Ordering::Relaxed);

    let mut responses = Vec::with_capacity(legs.len());
    for (w, leg) in legs.into_iter().enumerate() {
        match leg {
            Ok(resp) => responses.push(resp),
            Err(e) => {
                state.metrics.record_failure(e.kind);
                state.metrics.unavailable.fetch_add(1, Ordering::Relaxed);
                return error_envelope(
                    503,
                    "worker_unavailable",
                    format!(
                        "worker {w} did not apply the corpus mutation ({}): {}; retry",
                        e.kind.as_str(),
                        e.detail
                    ),
                );
            }
        }
    }
    let first_status = responses[0].status;
    if responses.iter().any(|r| r.status != first_status) {
        let statuses: Vec<String> = responses.iter().map(|r| r.status.to_string()).collect();
        state.metrics.unavailable.fetch_add(1, Ordering::Relaxed);
        return error_envelope(
            503,
            "cluster_inconsistent",
            format!(
                "workers disagreed on the mutation outcome [{}]; inspect worker state",
                statuses.join(", ")
            ),
        );
    }
    relay_response(responses.into_iter().next().unwrap())
}

/// Translate a fanout failure on a whole-request relay into an envelope.
fn relay_failure(state: &RouterState, err: FanoutError) -> Response {
    state.metrics.record_failure(err.kind);
    state.metrics.unavailable.fetch_add(1, Ordering::Relaxed);
    let (code, message) = match err.kind {
        FailureKind::Unreachable => ("worker_unavailable", "worker is unreachable"),
        FailureKind::Deadline => ("worker_timeout", "worker missed the fanout deadline"),
        FailureKind::Protocol => ("worker_failed", "worker connection failed mid-request"),
    };
    error_envelope(503, code, format!("{message}: {}", err.detail))
}

/// Re-wrap a worker response for the router's client.
fn relay_response(resp: WireResponse) -> Response {
    let ct = resp.content_type.as_deref().unwrap_or("application/json");
    if ct.starts_with("text/html") {
        Response::html(resp.status, resp.body)
    } else if ct.starts_with("text/plain") {
        Response::text(
            resp.status,
            String::from_utf8_lossy(&resp.body).into_owned(),
        )
    } else {
        Response::json(
            resp.status,
            String::from_utf8_lossy(&resp.body).into_owned(),
        )
    }
}

/// Forward one request whole, at its own path: to the owner worker when it
/// names a document (`doc` body field or `/api/v1/doc/{id}` path),
/// round-robin otherwise.
fn forward(state: &RouterState, req: &Request) -> Response {
    let body = if req.body.is_empty() {
        None
    } else {
        req.body_utf8().and_then(|t| parse(t).ok())
    };
    let (_, addr) = if let Some(doc) = affine_doc(&body, &req.path) {
        state.worker_for_doc(doc)
    } else {
        state.next_worker()
    };
    let deadline = state.leg_deadline(body.as_ref());
    state.metrics.forwarded.fetch_add(1, Ordering::Relaxed);
    let payload = (!req.body.is_empty()).then_some(req.body.as_slice());
    match http_request(addr, &req.method, &req.path, payload, deadline) {
        Ok(resp) => relay_response(resp),
        Err(e) => relay_failure(state, e),
    }
}

/// The document a request is affine to, when it names one.
fn affine_doc(body: &Option<Value>, path: &str) -> Option<u64> {
    if let Some(id) = path.strip_prefix("/api/v1/doc/") {
        return id.parse::<u64>().ok();
    }
    body.as_ref()?.get("doc")?.as_u64()
}

/// `POST /api/v1/jobs` through the router: route to the owner worker of the
/// request's document and tag the returned wire id with the worker index.
fn jobs_submit(state: &RouterState, req: &Request) -> Response {
    let body = match json_body(req) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let doc = body
        .get("request")
        .and_then(|r| r.get("doc"))
        .and_then(Value::as_u64);
    let (w, addr) = match doc {
        Some(d) => state.worker_for_doc(d),
        None => state.next_worker(),
    };
    let deadline = state.leg_deadline(Some(&body));
    state.metrics.forwarded.fetch_add(1, Ordering::Relaxed);
    match http_request(addr, "POST", &req.path, Some(req.body.as_slice()), deadline) {
        Ok(resp) => rewrite_job_id(resp, w),
        Err(e) => relay_failure(state, e),
    }
}

/// `GET`/`DELETE /api/v1/jobs/job-<w>-<n>` through the router: strip the
/// worker tag, relay to that worker, and re-tag the id in the response.
fn jobs_relay(state: &RouterState, req: &Request, tail: &str) -> Response {
    let Some((w, worker_id)) = parse_router_job_id(tail) else {
        return error_envelope(
            400,
            "invalid_field",
            "job id must look like job-<worker>-<n>",
        );
    };
    if w >= state.workers.len() {
        return error_envelope(404, "job_not_found", format!("no such job: {tail}"));
    }
    let addr = state.workers[w];
    let deadline = state.leg_deadline(None);
    state.metrics.forwarded.fetch_add(1, Ordering::Relaxed);
    match http_request(
        addr,
        &req.method,
        &format!("{API_PREFIX}/jobs/{worker_id}"),
        None,
        deadline,
    ) {
        Ok(resp) => rewrite_job_id(resp, w),
        Err(e) => relay_failure(state, e),
    }
}

/// `job-<w>-<n>` → `(w, "job-<n>")`.
fn parse_router_job_id(tail: &str) -> Option<(usize, String)> {
    let rest = tail.strip_prefix("job-")?;
    let (w, n) = rest.split_once('-')?;
    let w = w.parse::<usize>().ok()?;
    let n = n.parse::<u64>().ok()?;
    Some((w, format!("job-{n}")))
}

/// Re-tag `job_id` fields (`job-<n>` → `job-<w>-<n>`) in a worker's job
/// response. The `result` payload and every other field re-serialise
/// byte-identically (both sides use the same deterministic JSON writer), so
/// job payloads through the router stay bit-identical to single-node jobs.
fn rewrite_job_id(resp: WireResponse, w: usize) -> Response {
    let rewritten = std::str::from_utf8(&resp.body)
        .ok()
        .and_then(|t| parse(t).ok())
        .map(|mut v| {
            if let Value::Object(m) = &mut v {
                if let Some(Value::String(id)) = m.get("job_id") {
                    if let Some(n) = id.strip_prefix("job-") {
                        let tagged = format!("job-{w}-{n}");
                        m.insert("job_id".to_string(), Value::from(tagged));
                    }
                }
            }
            to_string(&v)
        });
    match rewritten {
        Some(body) => Response::json(resp.status, body),
        None => relay_response(resp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_job_ids_round_trip() {
        assert_eq!(
            parse_router_job_id("job-2-17"),
            Some((2, "job-17".to_string()))
        );
        assert_eq!(parse_router_job_id("job-17"), None);
        assert_eq!(parse_router_job_id("nope"), None);
        assert_eq!(parse_router_job_id("job-x-1"), None);
    }

    #[test]
    fn partition_count_defaults_to_worker_count() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let r = RouterState::new(vec![addr, addr, addr], RouterConfig::default());
        assert_eq!(r.partitions(), 3);
        let r = RouterState::new(
            vec![addr],
            RouterConfig {
                partitions: 8,
                ..RouterConfig::default()
            },
        );
        assert_eq!(r.partitions(), 8);
    }

    #[test]
    fn doc_affinity_prefers_path_over_body() {
        let body = Some(obj([("doc", Value::from(4usize))]));
        assert_eq!(affine_doc(&body, "/api/v1/doc/9"), Some(9));
        assert_eq!(affine_doc(&body, "/api/v1/rank"), Some(4));
        assert_eq!(affine_doc(&None, "/api/v1/corpus"), None);
    }
}
