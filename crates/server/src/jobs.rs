//! The asynchronous explanation job subsystem.
//!
//! The counterfactual searches are combinatorial, so a single explanation
//! can legitimately run for seconds even with parallel evaluation and
//! pruned retrieval. Serving heavy traffic therefore needs request
//! *admission* decoupled from explanation *execution*: a client submits a
//! search, gets a job id back immediately, and polls for the result while
//! a fixed worker pool grinds through the queue.
//!
//! The subsystem has three parts, all inside [`JobRunner`]:
//!
//! * a **bounded submission queue** — [`JobRunner::submit`] accepts at most
//!   `queue_depth` waiting jobs and rejects the rest immediately
//!   ([`SubmitOutcome::QueueFull`] → `429` + `Retry-After`), so backpressure
//!   reaches the client instead of piling up as unbounded memory;
//! * a **fixed pool of worker threads** — each worker claims the oldest
//!   queued job and executes it through the same respond step the
//!   synchronous endpoint uses, so a job's stored payload is bit-identical
//!   to the synchronous response for the same request;
//! * a **TTL'd in-memory result store** — results are kept for
//!   `result_ttl_ms` after completion and then tombstoned
//!   ([`JobState::Expired`] → `410`). The TTL is a constant, so completion
//!   order *is* expiry order and eviction pops from the front of one
//!   `VecDeque` — O(1) amortised, no scanning. A `max_jobs` cap bounds the
//!   store itself by evicting the oldest terminal entries outright.
//!
//! ## State machine
//!
//! ```text
//! submit ─▶ queued ─▶ running ─▶ complete | exhausted | deadline
//!             │          │          | cancelled | failed
//!             │          └─ DELETE raises the Budget cancel flag; the
//!             │             search stops at the next candidate batch
//!             └─ DELETE / drain ─▶ cancelled
//! any terminal state ── result_ttl_ms ─▶ expired
//! ```
//!
//! Cancellation rides the existing [`Budget`](credence_core::Budget)
//! machinery: at submission the runner installs a cancel flag via
//! `Budget::ensure_cancel`, and `DELETE /api/v1/jobs/{id}` simply raises
//! it. The worker is never killed — the search observes the flag at its
//! next batch boundary and returns the partial best-so-far result with
//! `status: "cancelled"`, exactly as the synchronous path would.
//!
//! Shutdown ([`JobRunner::begin_shutdown`] + [`JobRunner::join_workers`])
//! drains deterministically: new submissions are rejected, still-queued
//! jobs flip to `cancelled` without running, and workers finish their
//! in-flight jobs (bounded by those jobs' own budgets) before joining. No
//! job is ever dropped mid-run.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use credence_core::CorpusSnapshot;
use credence_json::{parse, Value};

use crate::http::Response;
use crate::metrics::Metrics;
use crate::requests::ExplainRequest;
use crate::service::AppState;

/// Sizing knobs for the job subsystem, in the spirit of
/// [`EngineConfig`](credence_core::EngineConfig): sensible defaults, every
/// field overridable from `credence-serve` flags.
#[derive(Debug, Clone)]
pub struct JobsConfig {
    /// Worker threads executing jobs (`--job-workers`; clamped to ≥ 1).
    pub workers: usize,
    /// Maximum jobs waiting in the queue (`--job-queue-depth`); submissions
    /// beyond this are rejected with `429`.
    pub queue_depth: usize,
    /// How long a finished job's result stays retrievable, in milliseconds
    /// (`--job-result-ttl-ms`).
    pub result_ttl_ms: u64,
    /// Store-size cap: beyond this many tracked jobs, the oldest terminal
    /// entries (tombstones included) are evicted outright.
    pub max_jobs: usize,
}

impl Default for JobsConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 64,
            result_ttl_ms: 300_000,
            max_jobs: 4096,
        }
    }
}

/// Where a job is in its lifecycle. The four middle states mirror
/// [`SearchStatus`](credence_core::SearchStatus) — a finished job reports
/// exactly how its search finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting for a worker.
    Queued,
    /// A worker is executing the search.
    Running,
    /// The search ran to its natural end.
    Complete,
    /// The search hit its `max_evals` cap.
    Exhausted,
    /// The search hit its wall-clock deadline.
    Deadline,
    /// Cancelled — either before running (no result) or mid-search (the
    /// partial best-so-far result is stored).
    Cancelled,
    /// The request was rejected by the handler (the error envelope is
    /// stored as the result payload).
    Failed,
    /// The result aged out of the store; only this tombstone remains.
    Expired,
}

impl JobState {
    /// The stable machine-readable name, serialised as the job's `status`.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Complete => "complete",
            JobState::Exhausted => "exhausted",
            JobState::Deadline => "deadline",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
            JobState::Expired => "expired",
        }
    }

    /// Whether the job will never change state again (except expiring).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A snapshot of one job for the HTTP layer.
#[derive(Debug, Clone)]
pub struct JobView {
    /// Numeric id (rendered as `job-<n>` on the wire).
    pub id: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// The endpoint name the job targets (`sentence-removal`, ...).
    pub endpoint: &'static str,
    /// The corpus the job was pinned to at submission.
    pub corpus: String,
    /// The generation the job was pinned to at submission — the one it
    /// executes against no matter how far the corpus advances.
    pub generation: u64,
    /// The stored outcome — the HTTP status and JSON payload the
    /// synchronous endpoint would have answered with. `None` while the job
    /// is pending, for jobs cancelled before running, and after expiry.
    pub result: Option<(u16, Value)>,
}

/// What [`JobRunner::submit`] decided.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// Queued under this id.
    Accepted(u64),
    /// The bounded queue is full; the client should retry later.
    QueueFull,
    /// The runner is draining for shutdown and takes no new work.
    ShuttingDown,
}

/// What [`JobRunner::cancel`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued and is now terminally cancelled.
    Cancelled,
    /// The job is running; its budget's cancel flag has been raised and
    /// the search will stop at its next candidate batch.
    CancelRequested,
    /// The job had already reached this terminal state.
    AlreadyTerminal(JobState),
}

/// One tracked job.
struct Job {
    state: JobState,
    endpoint: &'static str,
    /// The budget cancel flag shared with the search (installed at
    /// submission via `Budget::ensure_cancel`).
    cancel: Arc<AtomicBool>,
    /// Present while queued; taken by the claiming worker.
    request: Option<ExplainRequest>,
    /// The pinned snapshot the job will execute against. Held from
    /// submission until a worker claims it (then held by the worker for
    /// the duration of the run) — this is what keeps a pinned generation
    /// alive until every admitted job against it has drained.
    snapshot: Option<Arc<CorpusSnapshot>>,
    /// Envelope coordinates of `snapshot`, kept after the snapshot itself
    /// is released so poll responses can always name the pinned generation.
    corpus: String,
    generation: u64,
    /// Present once terminal (except queue-cancelled jobs); dropped at
    /// expiry.
    result: Option<(u16, Value)>,
    submitted_at: Instant,
    /// Set when the job reaches a terminal state.
    expires_at: Option<Instant>,
}

/// Everything behind the runner's mutex.
struct Shared {
    jobs: HashMap<u64, Job>,
    /// Ids awaiting a worker. May contain entries cancelled while queued —
    /// the claim loop skips anything no longer `Queued`.
    queue: VecDeque<u64>,
    /// Submission order, for the `max_jobs` capacity eviction.
    order: VecDeque<u64>,
    /// Completion order. The TTL is constant, so this is also expiry order
    /// and TTL eviction only ever pops from the front — O(1) amortised.
    expiry: VecDeque<u64>,
    next_id: u64,
    accepting: bool,
    shutdown: bool,
}

/// The bounded queue + worker pool + TTL'd result store. One per
/// [`AppState`]; workers start via `JobRunner::start` once the state has
/// been leaked to `'static`.
pub struct JobRunner {
    config: JobsConfig,
    shared: Mutex<Shared>,
    /// Signals workers: the queue gained an entry or shutdown began.
    work: Condvar,
    /// Signals waiters: some job reached a terminal state.
    done: Condvar,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobRunner {
    /// A runner with no workers yet (see `JobRunner::start`).
    pub fn new(config: JobsConfig) -> Self {
        Self {
            config,
            shared: Mutex::new(Shared {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                order: VecDeque::new(),
                expiry: VecDeque::new(),
                next_id: 1,
                accepting: true,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// The configured sizing knobs.
    pub fn config(&self) -> &JobsConfig {
        &self.config
    }

    /// Spawn the worker pool against a leaked state. Called once from
    /// `AppState::leak*`; workers idle on the queue condvar until work or
    /// shutdown arrives.
    pub(crate) fn start(&self, state: &'static AppState) {
        let mut workers = self.workers.lock().unwrap();
        assert!(workers.is_empty(), "job workers already started");
        for i in 0..self.config.workers.max(1) {
            let handle = std::thread::Builder::new()
                .name(format!("credence-job-{i}"))
                .spawn(move || worker_loop(state))
                .expect("spawn job worker");
            workers.push(handle);
        }
    }

    /// Admit one job against a pinned snapshot, installing a cancel flag in
    /// its lifecycle budget so `DELETE` can always reach the running search.
    /// The snapshot is held (keeping its generation alive) until the job
    /// finishes running or is cancelled off the queue.
    pub fn submit(
        &self,
        mut request: ExplainRequest,
        snapshot: Arc<CorpusSnapshot>,
        metrics: &Metrics,
    ) -> SubmitOutcome {
        let mut shared = self.shared.lock().unwrap();
        self.evict(&mut shared, metrics, Instant::now());
        if !shared.accepting {
            metrics.record_job_rejected();
            return SubmitOutcome::ShuttingDown;
        }
        if shared.queue.len() >= self.config.queue_depth {
            metrics.record_job_rejected();
            return SubmitOutcome::QueueFull;
        }
        let id = shared.next_id;
        shared.next_id += 1;
        let cancel = request.controls.lifecycle.ensure_cancel();
        let endpoint = request.family.name;
        let (corpus, generation) = (snapshot.corpus().to_string(), snapshot.generation());
        shared.jobs.insert(
            id,
            Job {
                state: JobState::Queued,
                endpoint,
                cancel,
                request: Some(request),
                snapshot: Some(snapshot),
                corpus,
                generation,
                result: None,
                submitted_at: Instant::now(),
                expires_at: None,
            },
        );
        shared.queue.push_back(id);
        shared.order.push_back(id);
        metrics.record_job_state("queued");
        metrics.set_jobs_queue_depth(shared.queue.len() as u64);
        drop(shared);
        self.work.notify_one();
        SubmitOutcome::Accepted(id)
    }

    /// Look up one job, evicting expired results first.
    pub fn get(&self, id: u64, metrics: &Metrics) -> Option<JobView> {
        let mut shared = self.shared.lock().unwrap();
        self.evict(&mut shared, metrics, Instant::now());
        shared.jobs.get(&id).map(|job| JobView {
            id,
            state: job.state,
            endpoint: job.endpoint,
            corpus: job.corpus.clone(),
            generation: job.generation,
            result: job.result.clone(),
        })
    }

    /// Cancel one job: queued jobs become terminal immediately, running
    /// jobs get their budget cancel flag raised (the search stops at its
    /// next candidate batch and stores the partial result).
    pub fn cancel(&self, id: u64, metrics: &Metrics) -> Option<CancelOutcome> {
        let mut shared = self.shared.lock().unwrap();
        self.evict(&mut shared, metrics, Instant::now());
        let state = shared.jobs.get(&id)?.state;
        let outcome = match state {
            JobState::Queued => {
                let expires_at = Instant::now() + Duration::from_millis(self.config.result_ttl_ms);
                let job = shared.jobs.get_mut(&id).unwrap();
                job.state = JobState::Cancelled;
                job.request = None;
                job.snapshot = None;
                job.expires_at = Some(expires_at);
                // The id stays in `queue`; the claim loop skips it.
                shared.expiry.push_back(id);
                metrics.record_job_state("cancelled");
                CancelOutcome::Cancelled
            }
            JobState::Running => {
                shared
                    .jobs
                    .get(&id)
                    .unwrap()
                    .cancel
                    .store(true, Ordering::Relaxed);
                CancelOutcome::CancelRequested
            }
            terminal => CancelOutcome::AlreadyTerminal(terminal),
        };
        drop(shared);
        self.done.notify_all();
        Some(outcome)
    }

    /// How many jobs are currently waiting for a worker.
    pub fn queue_len(&self) -> usize {
        let shared = self.shared.lock().unwrap();
        shared
            .queue
            .iter()
            .filter(|id| {
                shared
                    .jobs
                    .get(id)
                    .is_some_and(|j| j.state == JobState::Queued)
            })
            .count()
    }

    /// Block until the job reaches a terminal state (or the timeout
    /// passes), returning its state. `None` for unknown ids.
    pub fn wait_terminal(&self, id: u64, timeout: Duration) -> Option<JobState> {
        let deadline = Instant::now() + timeout;
        let mut shared = self.shared.lock().unwrap();
        loop {
            match shared.jobs.get(&id) {
                None => return None,
                Some(job) if job.state.is_terminal() => return Some(job.state),
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return shared.jobs.get(&id).map(|j| j.state);
            }
            let (guard, _) = self.done.wait_timeout(shared, deadline - now).unwrap();
            shared = guard;
        }
    }

    /// Begin draining: reject new submissions, cancel still-queued jobs
    /// (they will never run), and tell workers to exit once the queue is
    /// empty. Running jobs keep their budgets untouched and finish on
    /// their own terms.
    pub fn begin_shutdown(&self, metrics: &Metrics) {
        let mut shared = self.shared.lock().unwrap();
        shared.accepting = false;
        shared.shutdown = true;
        let ttl = Duration::from_millis(self.config.result_ttl_ms);
        while let Some(id) = shared.queue.pop_front() {
            let queued = shared
                .jobs
                .get(&id)
                .is_some_and(|j| j.state == JobState::Queued);
            if !queued {
                continue;
            }
            let job = shared.jobs.get_mut(&id).unwrap();
            job.state = JobState::Cancelled;
            job.request = None;
            job.snapshot = None;
            job.expires_at = Some(Instant::now() + ttl);
            shared.expiry.push_back(id);
            metrics.record_job_state("cancelled");
        }
        metrics.set_jobs_queue_depth(0);
        drop(shared);
        self.work.notify_all();
        self.done.notify_all();
    }

    /// Join the worker pool. Deterministic: workers exit as soon as the
    /// queue is empty after [`JobRunner::begin_shutdown`], so this returns
    /// once every in-flight job has stored its result.
    pub fn join_workers(&self) {
        let handles = std::mem::take(&mut *self.workers.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// [`begin_shutdown`](JobRunner::begin_shutdown) +
    /// [`join_workers`](JobRunner::join_workers).
    pub fn shutdown(&self, metrics: &Metrics) {
        self.begin_shutdown(metrics);
        self.join_workers();
    }

    /// Worker side: block for the next queued job, mark it running, and
    /// hand its request plus pinned snapshot over. `None` once shutdown
    /// drained the queue.
    fn claim(&self, metrics: &Metrics) -> Option<(u64, ExplainRequest, Arc<CorpusSnapshot>)> {
        let mut shared = self.shared.lock().unwrap();
        loop {
            while let Some(id) = shared.queue.pop_front() {
                metrics.set_jobs_queue_depth(shared.queue.len() as u64);
                let Some(job) = shared.jobs.get_mut(&id) else {
                    continue;
                };
                if job.state != JobState::Queued {
                    continue; // cancelled while queued
                }
                job.state = JobState::Running;
                let wait_us = job.submitted_at.elapsed().as_micros() as u64;
                let request = job.request.take().expect("queued job carries its request");
                let snapshot = job
                    .snapshot
                    .take()
                    .expect("queued job carries its snapshot");
                metrics.record_job_state("running");
                metrics.record_job_queue_wait(wait_us);
                return Some((id, request, snapshot));
            }
            if shared.shutdown {
                return None;
            }
            shared = self.work.wait(shared).unwrap();
        }
    }

    /// Worker side: store the outcome and arm the TTL.
    fn finish(
        &self,
        id: u64,
        state: JobState,
        status: u16,
        payload: Value,
        execution_us: u64,
        metrics: &Metrics,
    ) {
        let mut shared = self.shared.lock().unwrap();
        if let Some(job) = shared.jobs.get_mut(&id) {
            job.state = state;
            job.result = Some((status, payload));
            job.expires_at =
                Some(Instant::now() + Duration::from_millis(self.config.result_ttl_ms));
            shared.expiry.push_back(id);
            metrics.record_job_state(state.as_str());
            metrics.record_job_execution(execution_us);
        }
        drop(shared);
        self.done.notify_all();
    }

    /// Evict expired results (front of `expiry` only — the constant TTL
    /// keeps it ordered) and, beyond `max_jobs`, the oldest terminal
    /// entries outright. Live jobs are never touched; their count is
    /// already bounded by `queue_depth` plus the worker count.
    fn evict(&self, shared: &mut Shared, metrics: &Metrics, now: Instant) {
        while let Some(&id) = shared.expiry.front() {
            let Some(job) = shared.jobs.get(&id) else {
                shared.expiry.pop_front();
                continue;
            };
            if !matches!(job.expires_at, Some(t) if t <= now) {
                break;
            }
            shared.expiry.pop_front();
            let job = shared.jobs.get_mut(&id).unwrap();
            job.result = None;
            if job.state != JobState::Expired {
                job.state = JobState::Expired;
                metrics.record_job_state("expired");
            }
        }
        while shared.jobs.len() > self.config.max_jobs {
            let Some(&id) = shared.order.front() else {
                break;
            };
            if shared.jobs.get(&id).is_some_and(|j| !j.state.is_terminal()) {
                break;
            }
            shared.order.pop_front();
            shared.jobs.remove(&id);
        }
    }
}

/// The worker thread body: claim → execute through the synchronous
/// respond step → classify → store.
fn worker_loop(state: &'static AppState) {
    let runner = state.jobs();
    let metrics = state.metrics();
    while let Some((id, request, snapshot)) = runner.claim(metrics) {
        let started = Instant::now();
        let response = crate::service::respond(state, &snapshot, &request);
        let execution_us = started.elapsed().as_micros() as u64;
        // Release the pinned generation before storing the result: once the
        // payload is durable the snapshot no longer needs to stay alive.
        drop(snapshot);
        let (job_state, payload) = job_outcome(&response);
        runner.finish(
            id,
            job_state,
            response.status,
            payload,
            execution_us,
            metrics,
        );
    }
}

/// Map a synchronous handler response onto the job state machine: a `200`
/// adopts the search's own `status` field; anything else is `Failed` with
/// the error envelope stored as the payload.
fn job_outcome(response: &Response) -> (JobState, Value) {
    let payload = std::str::from_utf8(&response.body)
        .ok()
        .and_then(|text| parse(text).ok())
        .unwrap_or(Value::Null);
    let state = if response.status == 200 {
        match payload.get("status").and_then(Value::as_str) {
            Some("exhausted") => JobState::Exhausted,
            Some("deadline") => JobState::Deadline,
            Some("cancelled") => JobState::Cancelled,
            _ => JobState::Complete,
        }
    } else {
        JobState::Failed
    };
    (state, payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requests::JobSubmitRequest;
    use credence_core::EngineConfig;
    use credence_index::Document;

    fn quick_docs() -> Vec<Document> {
        vec![
            Document::new("a", "A", "covid outbreak covid outbreak tonight"),
            Document::new(
                "b",
                "B",
                "The covid outbreak arrived quietly. Officials downplayed the covid \
                 outbreak for weeks before acting decisively.",
            ),
            Document::new("c", "C", "garden fair draws a record crowd"),
        ]
    }

    /// One long query-relevant document: an exact-serial sentence-removal
    /// search over it runs for seconds, long enough to observe `running`.
    fn slow_docs() -> Vec<Document> {
        let mut body = String::new();
        for i in 0..48 {
            if i % 4 == 0 {
                body.push_str(&format!(
                    "The covid outbreak update number n{i} arrives today. "
                ));
            } else {
                body.push_str(&format!(
                    "Filler sentence number n{i} talks about daily life. "
                ));
            }
        }
        let mut docs = vec![Document::new("long", "Long covid doc", &body)];
        for i in 0..4 {
            docs.push(Document::new(
                &format!("pad-{i}"),
                "Report",
                "covid outbreak report with several extra words for normalisation",
            ));
        }
        docs
    }

    fn state_with(docs: Vec<Document>, jobs: JobsConfig) -> &'static AppState {
        AppState::leak_jobs(
            docs,
            EngineConfig::fast(),
            crate::service::RankerChoice::Bm25,
            jobs,
        )
    }

    fn quick_request(body: &str) -> ExplainRequest {
        let family = crate::explainers::find("sentence-removal").unwrap();
        ExplainRequest::parse(family, &parse(body).unwrap()).unwrap()
    }

    /// A sentence-removal search over the 48-sentence doc that runs for
    /// seconds unbudgeted (exact serial evaluation, wide enumeration).
    fn slow_request(deadline_ms: u64) -> ExplainRequest {
        quick_request(&format!(
            r#"{{"query": "covid outbreak", "k": 1, "doc": 0, "n": 999,
                "max_size": 3, "max_candidates": 48,
                "eval_exact": true, "eval_threads": 1,
                "deadline_ms": {deadline_ms}}}"#
        ))
    }

    #[test]
    fn job_payload_matches_the_synchronous_response() {
        let state = state_with(quick_docs(), JobsConfig::default());
        let request = quick_request(r#"{"query": "covid outbreak", "k": 2, "doc": 1, "n": 1}"#);
        let sync = crate::service::respond(state, &state.default_snapshot(), &request);
        let SubmitOutcome::Accepted(id) =
            state
                .jobs()
                .submit(request, state.default_snapshot(), state.metrics())
        else {
            panic!("submission rejected");
        };
        assert_eq!(
            state.jobs().wait_terminal(id, Duration::from_secs(30)),
            Some(JobState::Complete)
        );
        let view = state.jobs().get(id, state.metrics()).unwrap();
        let (status, payload) = view.result.unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            payload,
            parse(std::str::from_utf8(&sync.body).unwrap()).unwrap(),
            "job path stores the synchronous payload bit-identically"
        );
        assert_eq!(view.endpoint, "sentence-removal");
    }

    #[test]
    fn budget_bound_jobs_reach_their_matching_terminal_state() {
        let state = state_with(quick_docs(), JobsConfig::default());
        let capped = quick_request(
            r#"{"query": "covid outbreak", "k": 2, "doc": 1, "n": 5, "max_evals": 1}"#,
        );
        let SubmitOutcome::Accepted(id) =
            state
                .jobs()
                .submit(capped, state.default_snapshot(), state.metrics())
        else {
            panic!("submission rejected");
        };
        assert_eq!(
            state.jobs().wait_terminal(id, Duration::from_secs(30)),
            Some(JobState::Exhausted)
        );
        let (_, payload) = state
            .jobs()
            .get(id, state.metrics())
            .unwrap()
            .result
            .unwrap();
        assert_eq!(payload.get("status").unwrap().as_str(), Some("exhausted"));
    }

    #[test]
    fn doc_errors_store_the_envelope_as_a_failed_result() {
        let state = state_with(quick_docs(), JobsConfig::default());
        let request = quick_request(r#"{"query": "covid outbreak", "k": 2, "doc": 99}"#);
        let SubmitOutcome::Accepted(id) =
            state
                .jobs()
                .submit(request, state.default_snapshot(), state.metrics())
        else {
            panic!("submission rejected");
        };
        assert_eq!(
            state.jobs().wait_terminal(id, Duration::from_secs(30)),
            Some(JobState::Failed)
        );
        let (status, payload) = state
            .jobs()
            .get(id, state.metrics())
            .unwrap()
            .result
            .unwrap();
        assert_eq!(status, 404);
        assert_eq!(
            payload.get("error").unwrap().get("code").unwrap().as_str(),
            Some("doc_not_found")
        );
    }

    #[test]
    fn full_queue_rejects_and_queued_jobs_cancel_without_running() {
        // One worker, one queue slot: a slow job occupies the worker, the
        // next submission fills the queue, the one after bounces.
        let state = state_with(
            slow_docs(),
            JobsConfig {
                workers: 1,
                queue_depth: 1,
                ..JobsConfig::default()
            },
        );
        let SubmitOutcome::Accepted(running) = state.jobs().submit(
            slow_request(10_000),
            state.default_snapshot(),
            state.metrics(),
        ) else {
            panic!("first submission rejected");
        };
        // Wait until the worker has actually claimed it.
        let t0 = Instant::now();
        while state.jobs().get(running, state.metrics()).unwrap().state == JobState::Queued {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "worker never claimed"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let SubmitOutcome::Accepted(waiting) = state.jobs().submit(
            slow_request(10_000),
            state.default_snapshot(),
            state.metrics(),
        ) else {
            panic!("second submission rejected");
        };
        assert!(
            matches!(
                state.jobs().submit(
                    slow_request(10_000),
                    state.default_snapshot(),
                    state.metrics()
                ),
                SubmitOutcome::QueueFull
            ),
            "third submission must bounce off the full queue"
        );

        // Cancel the queued job: terminal immediately, never runs.
        assert_eq!(
            state.jobs().cancel(waiting, state.metrics()),
            Some(CancelOutcome::Cancelled)
        );
        let view = state.jobs().get(waiting, state.metrics()).unwrap();
        assert_eq!(view.state, JobState::Cancelled);
        assert!(view.result.is_none(), "a never-run job has no payload");

        // Cancel the running job: the search stops at its next candidate
        // and stores the partial result with status "cancelled".
        assert_eq!(
            state.jobs().cancel(running, state.metrics()),
            Some(CancelOutcome::CancelRequested)
        );
        assert_eq!(
            state.jobs().wait_terminal(running, Duration::from_secs(10)),
            Some(JobState::Cancelled)
        );
        let (status, payload) = state
            .jobs()
            .get(running, state.metrics())
            .unwrap()
            .result
            .unwrap();
        assert_eq!(
            status, 200,
            "a cancelled search is a partial result, not an error"
        );
        assert_eq!(payload.get("status").unwrap().as_str(), Some("cancelled"));
        assert_eq!(
            state.jobs().cancel(running, state.metrics()),
            Some(CancelOutcome::AlreadyTerminal(JobState::Cancelled))
        );
    }

    #[test]
    fn results_expire_after_the_ttl() {
        let state = state_with(
            quick_docs(),
            JobsConfig {
                result_ttl_ms: 40,
                ..JobsConfig::default()
            },
        );
        let request = quick_request(r#"{"query": "covid outbreak", "k": 2, "doc": 1, "n": 1}"#);
        let SubmitOutcome::Accepted(id) =
            state
                .jobs()
                .submit(request, state.default_snapshot(), state.metrics())
        else {
            panic!("submission rejected");
        };
        assert_eq!(
            state.jobs().wait_terminal(id, Duration::from_secs(30)),
            Some(JobState::Complete)
        );
        std::thread::sleep(Duration::from_millis(80));
        let view = state.jobs().get(id, state.metrics()).unwrap();
        assert_eq!(view.state, JobState::Expired);
        assert!(view.result.is_none(), "the payload is dropped at expiry");
        assert!(state.metrics().jobs_in_state("expired") >= 1);
    }

    #[test]
    fn capacity_eviction_drops_the_oldest_terminal_jobs() {
        let state = state_with(
            quick_docs(),
            JobsConfig {
                max_jobs: 2,
                ..JobsConfig::default()
            },
        );
        let mut ids = Vec::new();
        for _ in 0..4 {
            let request = quick_request(r#"{"query": "covid outbreak", "k": 2, "doc": 1}"#);
            let SubmitOutcome::Accepted(id) =
                state
                    .jobs()
                    .submit(request, state.default_snapshot(), state.metrics())
            else {
                panic!("submission rejected");
            };
            state.jobs().wait_terminal(id, Duration::from_secs(30));
            ids.push(id);
        }
        // A lookup triggers eviction down to max_jobs; the oldest ids are
        // gone entirely (404 on the wire), the newest still resolve.
        assert!(state.jobs().get(ids[3], state.metrics()).is_some());
        assert!(state.jobs().get(ids[0], state.metrics()).is_none());
    }

    #[test]
    fn shutdown_drains_without_dropping_the_running_job() {
        let state = state_with(
            slow_docs(),
            JobsConfig {
                workers: 1,
                queue_depth: 4,
                ..JobsConfig::default()
            },
        );
        // A running job (generous deadline; finishes via its own budget)
        // and a queued one behind it.
        let SubmitOutcome::Accepted(running) = state.jobs().submit(
            slow_request(1_500),
            state.default_snapshot(),
            state.metrics(),
        ) else {
            panic!("first submission rejected");
        };
        let t0 = Instant::now();
        while state.jobs().get(running, state.metrics()).unwrap().state == JobState::Queued {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "worker never claimed"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let SubmitOutcome::Accepted(waiting) = state.jobs().submit(
            slow_request(1_500),
            state.default_snapshot(),
            state.metrics(),
        ) else {
            panic!("second submission rejected");
        };

        state.jobs().shutdown(state.metrics());

        // The queued job was cancelled without running; the running job
        // finished under its own budget and its result was stored.
        assert_eq!(
            state.jobs().get(waiting, state.metrics()).unwrap().state,
            JobState::Cancelled
        );
        let view = state.jobs().get(running, state.metrics()).unwrap();
        assert!(
            view.state.is_terminal(),
            "no job dropped mid-run: {:?}",
            view.state
        );
        assert!(view.result.is_some(), "the drained job stored its payload");

        // New submissions are refused while draining.
        assert!(matches!(
            state.jobs().submit(
                slow_request(1_500),
                state.default_snapshot(),
                state.metrics()
            ),
            SubmitOutcome::ShuttingDown
        ));
    }

    #[test]
    fn submit_envelope_parses_and_classifies() {
        let body = parse(
            r#"{"endpoint": "sentence-removal",
                "request": {"query": "covid", "k": 2, "doc": 1}}"#,
        )
        .unwrap();
        let submit = JobSubmitRequest::parse(&body).unwrap();
        assert_eq!(submit.request.family.name, "sentence-removal");

        let bad = parse(r#"{"endpoint": "saliency", "request": {}}"#).unwrap();
        let errors = JobSubmitRequest::parse(&bad).unwrap_err();
        assert!(errors.iter().any(|e| e.field == "endpoint"));

        let nested = parse(
            r#"{"endpoint": "term-removal", "request": {"query": "covid", "k": "two", "doc": 1}}"#,
        )
        .unwrap();
        let errors = JobSubmitRequest::parse(&nested).unwrap_err();
        assert!(
            errors.iter().any(|e| e.field == "request.k"),
            "inner field errors are prefixed: {errors:?}"
        );
    }
}
