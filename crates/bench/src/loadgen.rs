//! The in-repo load/capacity harness behind the `loadgen` binary.
//!
//! Drives a running CREDENCE server (single-node or router) with a
//! zipfian query mix and sweeps offered QPS points, measuring the
//! latency distribution at each point and emitting the
//! `BENCH_capacity.json` capacity curve (p50/p95/p99 vs offered QPS,
//! with the saturation knee called out).
//!
//! Two driving disciplines:
//!
//! * **closed-loop** — a fixed pool of workers, each pacing its share of
//!   the schedule; a worker never has two requests in flight, so when
//!   the server saturates the workers fall behind their schedule and
//!   the offered rate degrades gracefully.
//! * **open-loop** — every request fires at its scheduled instant
//!   regardless of completions, the discipline that actually exposes a
//!   saturation knee.
//!
//! In both modes latency is measured from the request's *scheduled*
//! start, not its actual send — the coordinated-omission correction:
//! queueing delay behind a saturated server counts against the server.
//!
//! Everything stochastic flows from one seed through [`schedule`], a
//! pure function: the same seed yields the same query sequence and the
//! same arrival offsets, byte for byte (asserted by
//! `tests/determinism.rs`).

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use credence_index::InvertedIndex;
use credence_json::{obj, to_string, Value};
use credence_rng::weighted::CumulativeTable;
use credence_rng::{rngs::StdRng, Rng, SeedableRng};
use credence_server::client::http_request;

/// Schema tag written into `BENCH_capacity.json`.
pub const CAPACITY_SCHEMA: &str = "credence-bench-capacity/1";

/// One scheduled request: a request-pool index and its arrival offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledRequest {
    /// Index into the request pool.
    pub query: usize,
    /// Arrival offset from the start of the point, in milliseconds.
    pub start_ms: f64,
}

/// One poolable request: an API path plus a pre-rendered JSON body.
///
/// The pool abstraction lets the same zipfian schedule drive any
/// endpoint mix — `/api/v1/rank` queries for the capacity sweep, or a
/// small hot set of explanation requests for the cache-effectiveness
/// trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpec {
    /// The request path, e.g. `/api/v1/rank`.
    pub path: String,
    /// JSON request body.
    pub body: String,
}

/// Driving discipline for a capacity point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopMode {
    /// Fixed worker pool; at most `concurrency` requests in flight.
    Closed {
        /// Number of paced workers.
        concurrency: usize,
    },
    /// Fire each request at its scheduled instant, one thread per
    /// request.
    Open,
}

impl LoopMode {
    /// The mode name written into the JSON artifact.
    pub fn as_str(&self) -> &'static str {
        match self {
            LoopMode::Closed { .. } => "closed",
            LoopMode::Open => "open",
        }
    }
}

/// Measured results for one offered-QPS point.
#[derive(Debug, Clone)]
pub struct CapacityPoint {
    /// The offered (scheduled) request rate.
    pub offered_qps: f64,
    /// Completed requests divided by the span from first scheduled
    /// start to last completion.
    pub achieved_qps: f64,
    /// Median latency, milliseconds (scheduled start → completion).
    pub p50_ms: f64,
    /// 95th percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Requests that failed (non-200 response or transport error).
    pub errors: usize,
    /// Requests issued.
    pub requests: usize,
}

/// Derive a deterministic query pool from an index: the highest
/// document-frequency terms, as single-term queries plus adjacent
/// two-term conjunctions. Rank ties break on the term string, so the
/// pool is stable across rebuilds.
pub fn query_pool(index: &InvertedIndex, terms: usize) -> Vec<String> {
    let mut by_df: Vec<(u32, &str)> = index
        .vocabulary()
        .iter()
        .map(|(id, term)| (index.postings_len(id) as u32, term))
        .collect();
    by_df.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
    by_df.truncate(terms);
    let singles: Vec<String> = by_df.iter().map(|(_, t)| t.to_string()).collect();
    let pairs: Vec<String> = singles
        .windows(2)
        .map(|w| format!("{} {}", w[0], w[1]))
        .collect();
    let mut pool = singles;
    pool.extend(pairs);
    pool
}

/// Render a query pool into `/api/v1/rank` request specs.
pub fn rank_pool(queries: &[String], k: usize) -> Vec<RequestSpec> {
    queries
        .iter()
        .map(|q| RequestSpec {
            path: "/api/v1/rank".to_string(),
            body: format!(
                "{{\"k\": {k}, \"query\": {}}}",
                to_string(&Value::from(q.clone()))
            ),
        })
        .collect()
}

/// The `--trace repeated` hot set: a small pool of explanation requests
/// over the demo scenario, spread across all four explainer endpoints
/// and a handful of documents. Zipfian sampling over this pool (via
/// [`schedule`]) concentrates traffic on a few requests, the regime the
/// cross-request explanation cache is built for: a cache-enabled server
/// answers the repeats from memory while a cache-disabled one re-runs
/// every search.
///
/// Deterministic: the pool is a pure function of `(query, k, docs)`, so
/// a seeded schedule over it replays byte-for-byte.
pub fn repeated_explain_pool(query: &str, k: usize, docs: usize) -> Vec<RequestSpec> {
    const ENDPOINTS: [&str; 4] = [
        "/api/v1/explain/sentence-removal",
        "/api/v1/explain/query-augmentation",
        "/api/v1/explain/query-reduction",
        "/api/v1/explain/term-removal",
    ];
    let query_json = to_string(&Value::from(query.to_string()));
    let mut pool = Vec::with_capacity(ENDPOINTS.len() * docs.max(1));
    for rank in 0..docs.max(1) {
        for endpoint in ENDPOINTS {
            // Query augmentation promotes a document to rank <= 1, so
            // the top-ranked document (rank 0) would be rejected with
            // "already ranks at or above threshold" — shift it one down.
            let doc = if endpoint.ends_with("query-augmentation") {
                rank + 1
            } else {
                rank
            };
            // max_evals bounds each miss to a deterministic slice of
            // work; it is part of the cache key, so every repeat of a
            // spec is a hit on a cache-enabled server.
            pool.push(RequestSpec {
                path: endpoint.to_string(),
                body: format!(
                    "{{\"doc\": {doc}, \"k\": {k}, \"max_evals\": 64, \"n\": 2, \
                     \"query\": {query_json}}}"
                ),
            });
        }
    }
    pool
}

/// Build the full request schedule for one point: `n` arrivals at
/// `offered_qps` with exponential (Poisson-process) inter-arrival gaps,
/// each picking a pool index from a zipfian distribution with exponent
/// `zipf_s` (rank 1 most popular).
///
/// Pure: identical `(seed, pool_len, zipf_s, n, offered_qps)` gives an
/// identical schedule. The seed covers both the query mix and the
/// arrival process.
pub fn schedule(
    seed: u64,
    pool_len: usize,
    zipf_s: f64,
    n: usize,
    offered_qps: f64,
) -> Vec<ScheduledRequest> {
    assert!(pool_len > 0, "empty query pool");
    assert!(offered_qps > 0.0, "offered_qps must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = CumulativeTable::new((1..=pool_len).map(|rank| (rank as f64).powf(-zipf_s)))
        .expect("zipf weights are positive");
    let mean_gap_ms = 1000.0 / offered_qps;
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            let query = zipf.sample(&mut rng);
            // Inverse-CDF exponential draw; u is in [0, 1) so 1-u never
            // hits zero and the log stays finite.
            let u: f64 = rng.gen_range(0.0..1.0);
            let gap = -(1.0 - u).ln() * mean_gap_ms;
            let start_ms = at;
            at += gap;
            ScheduledRequest { query, start_ms }
        })
        .collect()
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..=1).
pub fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((q * (sorted_ms.len() - 1) as f64).ceil() as usize).min(sorted_ms.len() - 1);
    sorted_ms[idx]
}

/// POST one pooled request; returns the completion outcome.
fn fire(addr: SocketAddr, spec: &RequestSpec, timeout: Duration) -> bool {
    match http_request(
        addr,
        "POST",
        &spec.path,
        Some(spec.body.as_bytes()),
        Instant::now() + timeout,
    ) {
        Ok(resp) => resp.status == 200,
        Err(_) => false,
    }
}

/// Run one offered-QPS point against `addr` and measure it.
pub fn run_point(
    addr: SocketAddr,
    pool: &[RequestSpec],
    sched: &[ScheduledRequest],
    offered_qps: f64,
    mode: LoopMode,
    timeout: Duration,
) -> CapacityPoint {
    let base = Instant::now();
    // (latency_ms, ok, completion offset from base in ms) per request.
    let outcomes: Vec<(f64, bool, f64)> = match mode {
        LoopMode::Open => {
            let mut handles = Vec::with_capacity(sched.len());
            for req in sched {
                let scheduled = base + Duration::from_secs_f64(req.start_ms / 1000.0);
                let spec = pool[req.query % pool.len()].clone();
                handles.push(std::thread::spawn(move || {
                    let now = Instant::now();
                    if scheduled > now {
                        std::thread::sleep(scheduled - now);
                    }
                    let ok = fire(addr, &spec, timeout);
                    let done = Instant::now();
                    (
                        (done - scheduled).as_secs_f64() * 1e3,
                        ok,
                        (done - base).as_secs_f64() * 1e3,
                    )
                }));
            }
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        }
        LoopMode::Closed { concurrency } => {
            let workers = concurrency.max(1);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let sched = &sched;
                        let pool = &pool;
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            // Round-robin share of the schedule keeps each
                            // worker's arrivals in increasing-time order.
                            for req in sched.iter().skip(w).step_by(workers) {
                                let scheduled =
                                    base + Duration::from_secs_f64(req.start_ms / 1000.0);
                                let now = Instant::now();
                                if scheduled > now {
                                    std::thread::sleep(scheduled - now);
                                }
                                let ok = fire(addr, &pool[req.query % pool.len()], timeout);
                                let done = Instant::now();
                                out.push((
                                    (done - scheduled).as_secs_f64() * 1e3,
                                    ok,
                                    (done - base).as_secs_f64() * 1e3,
                                ));
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_default())
                    .collect()
            })
        }
    };

    let mut latencies: Vec<f64> = outcomes.iter().map(|(l, _, _)| *l).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let errors = outcomes.iter().filter(|(_, ok, _)| !ok).count();
    let last_done_ms = outcomes.iter().map(|(_, _, d)| *d).fold(0.0f64, f64::max);
    let achieved_qps = if last_done_ms > 0.0 {
        outcomes.len() as f64 / (last_done_ms / 1e3)
    } else {
        0.0
    };
    CapacityPoint {
        offered_qps,
        achieved_qps,
        p50_ms: percentile(&latencies, 0.50),
        p95_ms: percentile(&latencies, 0.95),
        p99_ms: percentile(&latencies, 0.99),
        errors,
        requests: outcomes.len(),
    }
}

/// Find the saturation knee: the first point (in sweep order) whose
/// achieved rate falls more than 15% short of its offered rate, or
/// whose p99 exceeds 10x the first point's p99. Returns its offered
/// QPS.
pub fn saturation_knee(points: &[CapacityPoint]) -> Option<f64> {
    let baseline_p99 = points.first().map(|p| p.p99_ms.max(0.05))?;
    points
        .iter()
        .find(|p| p.achieved_qps < 0.85 * p.offered_qps || p.p99_ms > 10.0 * baseline_p99)
        .map(|p| p.offered_qps)
}

/// Render the capacity artifact (`BENCH_capacity.json`).
pub fn capacity_json(
    mode: LoopMode,
    seed: u64,
    requests_per_point: usize,
    points: &[CapacityPoint],
) -> Value {
    let rows: Vec<Value> = points
        .iter()
        .map(|p| {
            obj([
                ("achieved_qps", Value::from(p.achieved_qps)),
                ("errors", Value::from(p.errors)),
                ("offered_qps", Value::from(p.offered_qps)),
                ("p50_ms", Value::from(p.p50_ms)),
                ("p95_ms", Value::from(p.p95_ms)),
                ("p99_ms", Value::from(p.p99_ms)),
                ("requests", Value::from(p.requests)),
            ])
        })
        .collect();
    obj([
        (
            "knee_offered_qps",
            saturation_knee(points).map_or(Value::Null, Value::from),
        ),
        ("mode", Value::from(mode.as_str())),
        ("points", Value::Array(rows)),
        ("requests_per_point", Value::from(requests_per_point)),
        ("schema", Value::from(CAPACITY_SCHEMA)),
        ("seed", Value::from(seed as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_under_a_seed() {
        let a = schedule(42, 10, 1.0, 64, 100.0);
        let b = schedule(42, 10, 1.0, 64, 100.0);
        assert_eq!(a, b);
        let c = schedule(43, 10, 1.0, 64, 100.0);
        assert_ne!(a, c, "a different seed must change the schedule");
    }

    #[test]
    fn schedule_arrivals_are_nondecreasing_and_rate_matched() {
        let sched = schedule(7, 5, 1.0, 2000, 250.0);
        for w in sched.windows(2) {
            assert!(w[1].start_ms >= w[0].start_ms);
        }
        // 2000 arrivals at 250 QPS span about 8 seconds; the Poisson
        // process concentrates tightly at this sample size.
        let span = sched.last().unwrap().start_ms;
        assert!((6000.0..10000.0).contains(&span), "span {span}ms");
    }

    #[test]
    fn zipf_mix_prefers_low_ranks() {
        let sched = schedule(11, 20, 1.0, 4000, 100.0);
        let mut counts = [0usize; 20];
        for req in &sched {
            counts[req.query] += 1;
        }
        assert!(
            counts[0] > counts[19] * 3,
            "rank 1 ({}) should dominate rank 20 ({})",
            counts[0],
            counts[19]
        );
    }

    #[test]
    fn percentiles_are_ordered() {
        let sorted: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let p50 = percentile(&sorted, 0.50);
        let p95 = percentile(&sorted, 0.95);
        let p99 = percentile(&sorted, 0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn knee_detection_flags_the_first_saturated_point() {
        let mk = |offered: f64, achieved: f64, p99: f64| CapacityPoint {
            offered_qps: offered,
            achieved_qps: achieved,
            p50_ms: 1.0,
            p95_ms: 2.0,
            p99_ms: p99,
            errors: 0,
            requests: 100,
        };
        let points = vec![
            mk(100.0, 99.0, 2.0),
            mk(200.0, 198.0, 3.0),
            mk(400.0, 310.0, 40.0),
            mk(800.0, 330.0, 400.0),
        ];
        assert_eq!(saturation_knee(&points), Some(400.0));
        let healthy = vec![mk(100.0, 99.0, 2.0), mk(200.0, 197.0, 2.5)];
        assert_eq!(saturation_knee(&healthy), None);
    }

    #[test]
    fn query_pool_is_deterministic_and_nonempty() {
        let setup = crate::DemoSetup::build();
        let a = query_pool(&setup.index, 12);
        let b = query_pool(&setup.index, 12);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12 + 11, "singles plus adjacent pairs");
        assert!(a.iter().all(|q| !q.trim().is_empty()));
    }

    #[test]
    fn rank_pool_renders_rank_specs() {
        let pool = rank_pool(&["covid".to_string(), "news cycle".to_string()], 7);
        assert_eq!(pool.len(), 2);
        assert!(pool.iter().all(|s| s.path == "/api/v1/rank"));
        assert!(pool[1].body.contains("\"news cycle\""));
        assert!(pool[0].body.contains("\"k\": 7"));
    }

    #[test]
    fn repeated_explain_pool_is_a_deterministic_hot_set() {
        let a = repeated_explain_pool("covid outbreak", 3, 2);
        let b = repeated_explain_pool("covid outbreak", 3, 2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8, "4 endpoints x 2 docs");
        assert_eq!(
            a.iter()
                .filter(|s| s.path == "/api/v1/explain/term-removal")
                .count(),
            2
        );
        assert!(a.iter().all(|s| s.body.contains("\"max_evals\": 64")));
        assert!(a[0].body.contains("\"doc\": 0") && a[4].body.contains("\"doc\": 1"));
        assert!(
            a.iter()
                .filter(|s| s.path == "/api/v1/explain/query-augmentation")
                .all(|s| !s.body.contains("\"doc\": 0")),
            "augmentation never targets the already-top-ranked document"
        );
    }

    #[test]
    fn capacity_json_shape_is_stable() {
        let points = vec![CapacityPoint {
            offered_qps: 50.0,
            achieved_qps: 49.5,
            p50_ms: 1.5,
            p95_ms: 2.0,
            p99_ms: 2.5,
            errors: 0,
            requests: 100,
        }];
        let doc = capacity_json(LoopMode::Open, 42, 100, &points);
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(CAPACITY_SCHEMA)
        );
        assert_eq!(doc.get("mode").and_then(Value::as_str), Some("open"));
        let rows = doc.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("offered_qps").and_then(Value::as_f64),
            Some(50.0)
        );
    }
}
