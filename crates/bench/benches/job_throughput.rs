//! Bench: the async job subsystem against the synchronous path it wraps.
//!
//! `execution_only` measures the raw handler (the work a worker thread
//! performs); `submit_to_complete` measures the same request through the
//! full job lifecycle — envelope parse, queue admission, worker hand-off,
//! result store — so the difference between the two is the subsystem's
//! queue-wait plus bookkeeping overhead. `batch_drain` submits a burst and
//! drains it, putting a number on jobs-per-second with the default
//! two-worker pool.
//!
//! Not in `BENCH_baseline.json` on purpose: queue-wait depends on worker
//! scheduling, so the numbers are reported, not regression-gated.

use std::sync::OnceLock;
use std::time::Duration;

use credence_bench::{criterion_group, criterion_main, Criterion, Throughput};
use credence_core::EngineConfig;
use credence_corpus::covid_demo_corpus;
use credence_json::{parse, Value};
use credence_server::http::Request;
use credence_server::{handle_request, AppState, ExplainCacheConfig, JobsConfig, RankerChoice};

fn app_state() -> &'static AppState {
    static STATE: OnceLock<&'static AppState> = OnceLock::new();
    STATE.get_or_init(|| {
        AppState::leak_full(
            covid_demo_corpus().docs,
            EngineConfig::fast(),
            RankerChoice::Bm25,
            JobsConfig::default(),
            ExplainCacheConfig::default(),
        )
    })
}

/// The explanation request both paths execute: sentence removal on the
/// demo scenario, capped at 64 evaluations so one job is bounded work.
fn request_json() -> String {
    let demo = covid_demo_corpus();
    format!(
        r#"{{"query": "{}", "k": {}, "doc": {}, "n": 2, "max_evals": 64}}"#,
        demo.query, demo.k, demo.fake_news
    )
}

fn post(state: &'static AppState, path: &str, body: &str) -> (u16, Vec<u8>) {
    let req = Request {
        method: "POST".into(),
        path: path.into(),
        headers: Default::default(),
        body: body.as_bytes().to_vec(),
    };
    let resp = handle_request(state, &req);
    (resp.status, resp.body)
}

/// Submit one job over the in-process REST surface, returning its id.
fn submit(state: &'static AppState, request: &str) -> u64 {
    let envelope = format!(r#"{{"endpoint": "sentence-removal", "request": {request}}}"#);
    let (status, body) = post(state, "/api/v1/jobs", &envelope);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    parse(std::str::from_utf8(&body).unwrap())
        .unwrap()
        .get("job_id")
        .and_then(Value::as_str)
        .and_then(|wire| wire.strip_prefix("job-"))
        .and_then(|n| n.parse().ok())
        .expect("submission returns a job id")
}

fn drain(state: &'static AppState, id: u64) {
    let terminal = state
        .jobs()
        .wait_terminal(id, Duration::from_secs(60))
        .expect("job reaches a terminal state");
    assert!(terminal.is_terminal());
}

/// One request: raw synchronous handler vs the full job lifecycle.
fn bench_roundtrip(c: &mut Criterion) {
    let state = app_state();
    let request = request_json();
    let mut group = c.benchmark_group("jobs");
    group.bench_function("execution_only", |b| {
        b.iter(|| {
            let (status, body) = post(state, "/api/v1/explain/sentence-removal", &request);
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
            body
        });
    });
    group.bench_function("submit_to_complete", |b| {
        b.iter(|| drain(state, submit(state, &request)));
    });
    group.finish();
}

/// A burst of submissions drained to completion: sustained jobs/second
/// through the default pool.
fn bench_batch_drain(c: &mut Criterion) {
    let state = app_state();
    let request = request_json();
    let batch: usize =
        if std::env::var("CREDENCE_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0") {
            4
        } else {
            32
        };
    let mut group = c.benchmark_group("jobs");
    group.throughput(Throughput::Elements(batch as u64));
    group.bench_function("batch_drain", |b| {
        b.iter(|| {
            let ids: Vec<u64> = (0..batch).map(|_| submit(state, &request)).collect();
            for id in ids {
                drain(state, id);
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_roundtrip, bench_batch_drain);
criterion_main!(benches);
