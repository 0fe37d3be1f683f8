//! Zero-dependency service observability.
//!
//! A [`Metrics`] registry of atomic counters and one latency histogram,
//! shared by every connection thread and rendered on demand in the
//! Prometheus text exposition format at `GET /metrics`. Everything is
//! lock-free: counters are `AtomicU64`, the histogram is a fixed array of
//! buckets, and rendering reads a consistent-enough snapshot (Prometheus
//! scrapes tolerate counters advancing between lines).
//!
//! Metric families:
//!
//! * `credence_requests_total{endpoint,status}` — requests served, by route
//!   table endpoint label and HTTP status code;
//! * `credence_request_duration_seconds` — histogram over all requests,
//!   plus `credence_request_duration_quantile_seconds{quantile}` gauges
//!   with bucket-resolution p50/p95/p99 estimates;
//! * `credence_searches_total{status}` — counterfactual searches by
//!   [`SearchStatus`](credence_core::SearchStatus) name;
//! * `credence_deadline_hits_total` — searches stopped by the wall-clock
//!   deadline (a convenience alias of `searches_total{status="deadline"}`);
//! * `credence_candidate_evals_total` and
//!   `credence_search_seconds_total` — candidate evaluations committed and
//!   wall-clock spent inside explainer searches; their rate ratio is the
//!   evaluation throughput;
//! * `credence_retrieval_docs_scored_total`,
//!   `credence_retrieval_docs_pruned_total`,
//!   `credence_retrieval_blocks_decoded_total`,
//!   `credence_retrieval_blocks_skipped_total` — the top-k retrieval work
//!   counters (pruned/scored is the fraction of postings MaxScore skipped),
//!   and `credence_retrieval_shards_used_total`, the threads of the
//!   parallel fallback scan for rankers without index retrieval;
//! * `credence_ranking_cache_hits_total` /
//!   `credence_ranking_cache_misses_total` — the engine's query→ranking
//!   LRU cache effectiveness;
//! * `credence_doc2vec_trainings_total` /
//!   `credence_doc2vec_train_seconds_total` — Doc2Vec models trained (at
//!   most one per generation, on its first doc2vec-nearest or
//!   nearest-to-text request) and the wall-clock seconds they took;
//! * `credence_jobs_queue_depth` (gauge), `credence_jobs_total{state}`,
//!   `credence_jobs_rejected_total`, and the
//!   `credence_jobs_queue_wait_seconds` / `credence_jobs_execution_seconds`
//!   histograms — the async explanation job subsystem (see
//!   [`jobs`](crate::jobs)): how deep the submission queue is, how jobs
//!   progress through their lifecycle, and how admission latency compares
//!   to execution cost.
//!
//! The retrieval, ranking-cache and Doc2Vec families live in the counter
//! block every engine of the corpus registry increments (that work
//! happens outside the HTTP layer); [`Metrics::render`] prints the
//! [`RetrievalStats`] total it is handed.

use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};

use credence_core::RetrievalStats;

/// HTTP status codes tracked with their own counter; anything else lands in
/// the trailing `"other"` bucket.
const STATUSES: [u16; 13] = [
    200, 201, 202, 400, 404, 405, 409, 410, 413, 422, 429, 500, 503,
];

/// Histogram bucket upper bounds, in microseconds (rendered as seconds).
const BUCKETS_US: [u64; 14] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000,
];

/// Search outcome labels, in [`SearchStatus`](credence_core::SearchStatus)
/// order.
const SEARCH_STATUSES: [&str; 4] = ["complete", "exhausted", "deadline", "cancelled"];

/// Job lifecycle labels, in `JobState` order. Counters count *entries into*
/// each state, so one job increments several labels as it progresses.
const JOB_STATES: [&str; 8] = [
    "queued",
    "running",
    "complete",
    "exhausted",
    "deadline",
    "cancelled",
    "failed",
    "expired",
];

/// A fixed-bucket latency histogram (microsecond samples).
struct Histogram {
    /// Non-cumulative per-bucket counts; the last entry is `+Inf`.
    buckets: [AtomicU64; BUCKETS_US.len() + 1],
    sum_us: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }

    fn observe(&self, us: u64) {
        let idx = BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKETS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ([u64; BUCKETS_US.len() + 1], u64) {
        (
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            self.sum_us.load(Ordering::Relaxed),
        )
    }

    /// Bucket-resolution quantile estimate: the upper bound of the first
    /// bucket whose cumulative count reaches `q` of the total, in seconds.
    fn quantile(counts: &[u64], q: f64) -> f64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                let bound = BUCKETS_US
                    .get(i)
                    .copied()
                    .unwrap_or(BUCKETS_US[BUCKETS_US.len() - 1]);
                return bound as f64 / 1e6;
            }
        }
        BUCKETS_US[BUCKETS_US.len() - 1] as f64 / 1e6
    }
}

/// Render one histogram family (buckets, sum, count) onto `out`, returning
/// the per-bucket snapshot for quantile estimation.
fn render_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    histogram: &Histogram,
) -> [u64; BUCKETS_US.len() + 1] {
    let (counts, sum_us) = histogram.snapshot();
    let total: u64 = counts.iter().sum();
    out.push_str(&format!("# HELP {name} {help}\n"));
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cumulative += c;
        let le = match BUCKETS_US.get(i) {
            Some(&bound) => format!("{}", bound as f64 / 1e6),
            None => "+Inf".to_string(),
        };
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
    }
    out.push_str(&format!("{name}_sum {}\n", sum_us as f64 / 1e6));
    out.push_str(&format!("{name}_count {total}\n"));
    counts
}

/// Render one metric family onto `out`: its `# HELP` and `# TYPE` lines,
/// then one `{name}{labels} {value}` line per sample (`labels` is empty or
/// a `{key="value"}` set).
pub(crate) fn render_family<L: Display, V: Display>(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    samples: impl IntoIterator<Item = (L, V)>,
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    for (labels, value) in samples {
        out.push_str(&format!("{name}{labels} {value}\n"));
    }
}

/// The service-wide metrics registry. Construct once per
/// [`AppState`](crate::AppState) with the route table's endpoint labels.
pub struct Metrics {
    endpoints: &'static [&'static str],
    /// `requests[endpoint][status_bucket]`; the extra status bucket is
    /// `"other"`.
    requests: Vec<[AtomicU64; STATUSES.len() + 1]>,
    latency: Histogram,
    searches: [AtomicU64; SEARCH_STATUSES.len()],
    deadline_hits: AtomicU64,
    evals_total: AtomicU64,
    search_us_total: AtomicU64,
    jobs_queue_depth: AtomicU64,
    jobs_states: [AtomicU64; JOB_STATES.len()],
    jobs_rejected: AtomicU64,
    jobs_queue_wait: Histogram,
    jobs_execution: Histogram,
    next_id: AtomicU64,
}

impl Metrics {
    /// A registry tracking the given endpoint labels (the last label should
    /// be a catch-all such as `"other"`; unknown labels fall back to it).
    pub fn new(endpoints: &'static [&'static str]) -> Self {
        assert!(!endpoints.is_empty(), "at least one endpoint label");
        Self {
            endpoints,
            requests: (0..endpoints.len())
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            latency: Histogram::new(),
            searches: std::array::from_fn(|_| AtomicU64::new(0)),
            deadline_hits: AtomicU64::new(0),
            evals_total: AtomicU64::new(0),
            search_us_total: AtomicU64::new(0),
            jobs_queue_depth: AtomicU64::new(0),
            jobs_states: std::array::from_fn(|_| AtomicU64::new(0)),
            jobs_rejected: AtomicU64::new(0),
            jobs_queue_wait: Histogram::new(),
            jobs_execution: Histogram::new(),
            next_id: AtomicU64::new(1),
        }
    }

    /// A fresh id for the next request (1-based, monotonically increasing).
    pub fn next_request_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record one served request.
    pub fn record_request(&self, endpoint: &str, status: u16, duration_us: u64) {
        let e = self
            .endpoints
            .iter()
            .position(|&n| n == endpoint)
            .unwrap_or(self.endpoints.len() - 1);
        let s = STATUSES
            .iter()
            .position(|&c| c == status)
            .unwrap_or(STATUSES.len());
        self.requests[e][s].fetch_add(1, Ordering::Relaxed);
        self.latency.observe(duration_us);
    }

    /// Record one counterfactual search: its outcome label (a
    /// [`SearchStatus`](credence_core::SearchStatus) name), candidates
    /// committed, and wall-clock spent.
    pub fn record_search(&self, status: &str, candidates_evaluated: u64, duration_us: u64) {
        if let Some(i) = SEARCH_STATUSES.iter().position(|&n| n == status) {
            self.searches[i].fetch_add(1, Ordering::Relaxed);
        }
        if status == "deadline" {
            self.deadline_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.evals_total
            .fetch_add(candidates_evaluated, Ordering::Relaxed);
        self.search_us_total
            .fetch_add(duration_us, Ordering::Relaxed);
    }

    /// Total wall-clock deadline hits (for tests and diagnostics).
    pub fn deadline_hits(&self) -> u64 {
        self.deadline_hits.load(Ordering::Relaxed)
    }

    /// Count one job entering the named lifecycle state.
    pub fn record_job_state(&self, state: &str) {
        if let Some(i) = JOB_STATES.iter().position(|&n| n == state) {
            self.jobs_states[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one job submission rejected at admission (full queue or
    /// shutdown).
    pub fn record_job_rejected(&self) {
        self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record how long a job waited in the queue before a worker claimed
    /// it.
    pub fn record_job_queue_wait(&self, us: u64) {
        self.jobs_queue_wait.observe(us);
    }

    /// Record how long a job's search ran on its worker.
    pub fn record_job_execution(&self, us: u64) {
        self.jobs_execution.observe(us);
    }

    /// Publish the current submission-queue length.
    pub fn set_jobs_queue_depth(&self, depth: u64) {
        self.jobs_queue_depth.store(depth, Ordering::Relaxed);
    }

    /// How many jobs have entered the named state (for tests and
    /// diagnostics).
    pub fn jobs_in_state(&self, state: &str) -> u64 {
        JOB_STATES
            .iter()
            .position(|&n| n == state)
            .map(|i| self.jobs_states[i].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Render the registry in the Prometheus text exposition format, with
    /// `retrieval` as the process-wide retrieval, ranking-cache and Doc2Vec
    /// counters.
    pub fn render(&self, retrieval: RetrievalStats) -> String {
        let mut out = String::with_capacity(4096);

        out.push_str(
            "# HELP credence_requests_total Requests served, by endpoint and HTTP status.\n",
        );
        out.push_str("# TYPE credence_requests_total counter\n");
        for (e, row) in self.requests.iter().enumerate() {
            for (s, counter) in row.iter().enumerate() {
                let count = counter.load(Ordering::Relaxed);
                if count == 0 {
                    continue;
                }
                let status = STATUSES
                    .get(s)
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "other".to_string());
                out.push_str(&format!(
                    "credence_requests_total{{endpoint=\"{}\",status=\"{}\"}} {}\n",
                    self.endpoints[e], status, count
                ));
            }
        }

        let counts = render_histogram(
            &mut out,
            "credence_request_duration_seconds",
            "Request latency.",
            &self.latency,
        );

        out.push_str(
            "# HELP credence_request_duration_quantile_seconds Bucket-resolution latency quantiles.\n",
        );
        out.push_str("# TYPE credence_request_duration_quantile_seconds gauge\n");
        for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
            out.push_str(&format!(
                "credence_request_duration_quantile_seconds{{quantile=\"{label}\"}} {}\n",
                Histogram::quantile(&counts, q)
            ));
        }

        out.push_str("# HELP credence_jobs_queue_depth Explanation jobs waiting for a worker.\n");
        out.push_str("# TYPE credence_jobs_queue_depth gauge\n");
        out.push_str(&format!(
            "credence_jobs_queue_depth {}\n",
            self.jobs_queue_depth.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP credence_jobs_total Explanation jobs entering each lifecycle state.\n",
        );
        out.push_str("# TYPE credence_jobs_total counter\n");
        for (i, name) in JOB_STATES.iter().enumerate() {
            out.push_str(&format!(
                "credence_jobs_total{{state=\"{name}\"}} {}\n",
                self.jobs_states[i].load(Ordering::Relaxed)
            ));
        }

        out.push_str(
            "# HELP credence_jobs_rejected_total Job submissions rejected at admission.\n",
        );
        out.push_str("# TYPE credence_jobs_rejected_total counter\n");
        out.push_str(&format!(
            "credence_jobs_rejected_total {}\n",
            self.jobs_rejected.load(Ordering::Relaxed)
        ));

        render_histogram(
            &mut out,
            "credence_jobs_queue_wait_seconds",
            "Time jobs spent queued before a worker claimed them.",
            &self.jobs_queue_wait,
        );
        render_histogram(
            &mut out,
            "credence_jobs_execution_seconds",
            "Time job searches spent executing on a worker.",
            &self.jobs_execution,
        );

        out.push_str("# HELP credence_searches_total Counterfactual searches, by outcome.\n");
        out.push_str("# TYPE credence_searches_total counter\n");
        for (i, name) in SEARCH_STATUSES.iter().enumerate() {
            out.push_str(&format!(
                "credence_searches_total{{status=\"{name}\"}} {}\n",
                self.searches[i].load(Ordering::Relaxed)
            ));
        }

        out.push_str(
            "# HELP credence_deadline_hits_total Searches stopped by the wall-clock deadline.\n",
        );
        out.push_str("# TYPE credence_deadline_hits_total counter\n");
        out.push_str(&format!(
            "credence_deadline_hits_total {}\n",
            self.deadline_hits.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP credence_candidate_evals_total Candidate evaluations committed by explainer searches.\n");
        out.push_str("# TYPE credence_candidate_evals_total counter\n");
        out.push_str(&format!(
            "credence_candidate_evals_total {}\n",
            self.evals_total.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP credence_search_seconds_total Wall-clock seconds spent inside explainer searches.\n");
        out.push_str("# TYPE credence_search_seconds_total counter\n");
        out.push_str(&format!(
            "credence_search_seconds_total {}\n",
            self.search_us_total.load(Ordering::Relaxed) as f64 / 1e6
        ));

        for (name, kind, help, value) in [
            (
                "credence_retrieval_docs_scored_total",
                "counter",
                "Documents scored by the top-k retrieval engine.",
                retrieval.docs_scored,
            ),
            (
                "credence_retrieval_docs_pruned_total",
                "counter",
                "Posting entries skipped by MaxScore pruning.",
                retrieval.docs_pruned,
            ),
            (
                "credence_retrieval_shards_used_total",
                "counter",
                "Threads used by the parallel fallback scan (rankers without index retrieval).",
                retrieval.shards_used,
            ),
            (
                "credence_retrieval_blocks_decoded_total",
                "counter",
                "Posting blocks decoded by top-k retrieval.",
                retrieval.blocks_decoded,
            ),
            (
                "credence_retrieval_blocks_skipped_total",
                "counter",
                "Posting blocks MaxScore pruning never decoded.",
                retrieval.blocks_skipped,
            ),
            (
                "credence_ranking_cache_hits_total",
                "counter",
                "Query ranking-cache lookups served from cache.",
                retrieval.cache_hits,
            ),
            (
                "credence_ranking_cache_misses_total",
                "counter",
                "Query ranking-cache lookups that found no cached ranking.",
                retrieval.cache_misses,
            ),
            (
                "credence_ranking_cache_size",
                "gauge",
                "Rankings currently resident in live ranking caches.",
                retrieval.cache_size,
            ),
            (
                "credence_ranking_cache_evictions_total",
                "counter",
                "Rankings evicted from the cache to make room.",
                retrieval.cache_evictions,
            ),
            (
                "credence_doc2vec_trainings_total",
                "counter",
                "Doc2Vec models trained, on the first request that reads a generation's model.",
                retrieval.doc2vec_trainings,
            ),
        ] {
            render_family(&mut out, name, kind, help, [("", value)]);
        }
        render_family(
            &mut out,
            "credence_doc2vec_train_seconds_total",
            "counter",
            "Wall-clock seconds spent training Doc2Vec models.",
            [("", retrieval.doc2vec_train_us as f64 / 1e6)],
        );

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LABELS: &[&str] = &["rank", "sentence_removal", "other"];

    #[test]
    fn request_ids_are_unique_and_increasing() {
        let m = Metrics::new(LABELS);
        let a = m.next_request_id();
        let b = m.next_request_id();
        assert!(b > a);
    }

    #[test]
    fn request_counters_accumulate_by_endpoint_and_status() {
        let m = Metrics::new(LABELS);
        m.record_request("rank", 200, 1_000);
        m.record_request("rank", 200, 2_000);
        m.record_request("rank", 404, 50);
        m.record_request("unknown-endpoint", 275, 10); // both fall back
        let text = m.render(RetrievalStats::default());
        assert!(text.contains("credence_requests_total{endpoint=\"rank\",status=\"200\"} 2"));
        assert!(text.contains("credence_requests_total{endpoint=\"rank\",status=\"404\"} 1"));
        assert!(text.contains("credence_requests_total{endpoint=\"other\",status=\"other\"} 1"));
        assert!(text.contains("credence_request_duration_seconds_count 4"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new(LABELS);
        m.record_request("rank", 200, 90); // <= 100us bucket
        m.record_request("rank", 200, 90_000); // <= 100ms bucket
        let text = m.render(RetrievalStats::default());
        assert!(text.contains("credence_request_duration_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(text.contains("credence_request_duration_seconds_bucket{le=\"0.1\"} 2"));
        assert!(text.contains("credence_request_duration_seconds_bucket{le=\"+Inf\"} 2"));
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let m = Metrics::new(LABELS);
        for _ in 0..99 {
            m.record_request("rank", 200, 90); // 0.0001s bucket
        }
        m.record_request("rank", 200, 2_000_000); // 2.5s bucket
        let text = m.render(RetrievalStats::default());
        assert!(
            text.contains("credence_request_duration_quantile_seconds{quantile=\"0.5\"} 0.0001")
        );
        assert!(
            text.contains("credence_request_duration_quantile_seconds{quantile=\"0.99\"} 0.0001")
        );
        let m2 = Metrics::new(LABELS);
        for _ in 0..10 {
            m2.record_request("rank", 200, 2_000_000);
        }
        let text = m2.render(RetrievalStats::default());
        assert!(text.contains("quantile=\"0.5\"} 2.5"));
    }

    #[test]
    fn search_metrics_count_outcomes_and_evals() {
        let m = Metrics::new(LABELS);
        m.record_search("complete", 120, 3_000);
        m.record_search("deadline", 40, 5_000);
        m.record_search("deadline", 1, 5_000);
        assert_eq!(m.deadline_hits(), 2);
        let text = m.render(RetrievalStats::default());
        assert!(text.contains("credence_searches_total{status=\"complete\"} 1"));
        assert!(text.contains("credence_searches_total{status=\"deadline\"} 2"));
        assert!(text.contains("credence_deadline_hits_total 2"));
        assert!(text.contains("credence_candidate_evals_total 161"));
        assert!(text.contains("credence_search_seconds_total 0.013"));
    }

    #[test]
    fn empty_registry_renders_zeroes() {
        let m = Metrics::new(LABELS);
        let text = m.render(RetrievalStats::default());
        assert!(text.contains("credence_request_duration_seconds_count 0"));
        assert!(text.contains("credence_deadline_hits_total 0"));
        assert!(text.contains("quantile=\"0.5\"} 0\n"));
        assert!(text.contains("credence_retrieval_docs_scored_total 0"));
        assert!(text.contains("credence_ranking_cache_hits_total 0"));
    }

    #[test]
    fn job_metrics_render_every_family() {
        let m = Metrics::new(LABELS);
        m.record_job_state("queued");
        m.record_job_state("running");
        m.record_job_state("complete");
        m.record_job_state("nonsense"); // unknown labels are ignored
        m.record_job_rejected();
        m.record_job_queue_wait(90);
        m.record_job_execution(90_000);
        m.set_jobs_queue_depth(3);
        assert_eq!(m.jobs_in_state("queued"), 1);
        assert_eq!(m.jobs_in_state("complete"), 1);
        assert_eq!(m.jobs_in_state("nonsense"), 0);
        let text = m.render(RetrievalStats::default());
        assert!(text.contains("credence_jobs_queue_depth 3"));
        assert!(text.contains("credence_jobs_total{state=\"queued\"} 1"));
        assert!(text.contains("credence_jobs_total{state=\"running\"} 1"));
        assert!(text.contains("credence_jobs_total{state=\"expired\"} 0"));
        assert!(text.contains("credence_jobs_rejected_total 1"));
        assert!(text.contains("credence_jobs_queue_wait_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(text.contains("credence_jobs_queue_wait_seconds_count 1"));
        assert!(text.contains("credence_jobs_execution_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("credence_jobs_execution_seconds_count 1"));
    }

    #[test]
    fn job_status_codes_get_their_own_request_buckets() {
        let m = Metrics::new(LABELS);
        m.record_request("rank", 202, 10);
        m.record_request("rank", 410, 10);
        m.record_request("rank", 429, 10);
        m.record_request("rank", 503, 10);
        let text = m.render(RetrievalStats::default());
        for status in ["202", "410", "429", "503"] {
            assert!(
                text.contains(&format!(
                    "credence_requests_total{{endpoint=\"rank\",status=\"{status}\"}} 1"
                )),
                "missing status {status}"
            );
        }
    }

    #[test]
    fn render_prints_the_retrieval_stats_it_is_given() {
        let m = Metrics::new(LABELS);
        let stats = RetrievalStats {
            docs_scored: 100,
            docs_pruned: 40,
            shards_used: 8,
            blocks_decoded: 17,
            blocks_skipped: 23,
            cache_hits: 5,
            cache_misses: 2,
            cache_size: 2,
            cache_evictions: 1,
            doc2vec_trainings: 1,
            doc2vec_train_us: 2_500_000,
        };
        let text = m.render(stats);
        assert!(text.contains("credence_retrieval_docs_scored_total 100"));
        assert!(text.contains("credence_retrieval_docs_pruned_total 40"));
        assert!(text.contains("credence_retrieval_shards_used_total 8"));
        assert!(text.contains("credence_retrieval_blocks_decoded_total 17"));
        assert!(text.contains("credence_retrieval_blocks_skipped_total 23"));
        assert!(text.contains("credence_ranking_cache_hits_total 5"));
        assert!(text.contains("credence_ranking_cache_misses_total 2"));
        assert!(text.contains("credence_ranking_cache_size 2"));
        assert!(text.contains("credence_ranking_cache_evictions_total 1"));
        assert!(text.contains("credence_doc2vec_trainings_total 1"));
        assert!(text.contains("credence_doc2vec_train_seconds_total 2.5"));
    }

    #[test]
    fn all_ranking_cache_families_render_with_declared_types() {
        let m = Metrics::new(LABELS);
        let text = m.render(RetrievalStats::default());
        for (name, kind) in [
            ("credence_ranking_cache_hits_total", "counter"),
            ("credence_ranking_cache_misses_total", "counter"),
            ("credence_ranking_cache_size", "gauge"),
            ("credence_ranking_cache_evictions_total", "counter"),
            ("credence_doc2vec_trainings_total", "counter"),
            ("credence_doc2vec_train_seconds_total", "counter"),
        ] {
            assert!(text.contains(&format!("# TYPE {name} {kind}")), "{name}");
            assert!(text.contains(&format!("\n{name} 0\n")), "{name} value line");
        }
    }
}
