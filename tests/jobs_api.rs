//! End-to-end tests for the async explanation job subsystem: submit, poll,
//! cancel, queue backpressure, TTL expiry, and drain-on-shutdown — all over
//! real TCP sockets, the way a client of the REST API experiences it.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use credence_core::EngineConfig;
use credence_index::Document;
use credence_json::{parse, Value};
use credence_repro::wire::raw_request;
use credence_server::{
    AppState, ExplainCacheConfig, JobState, JobsConfig, RankerChoice, Server, ServerHandle,
};

/// Small corpus whose searches finish in milliseconds.
fn quick_docs() -> Vec<Document> {
    vec![
        Document::new("a", "A", "covid outbreak covid outbreak tonight"),
        Document::new(
            "b",
            "B",
            "The covid outbreak arrived quietly. Officials downplayed the covid outbreak \
             for weeks before acting decisively.",
        ),
        Document::new("c", "C", "garden fair draws a record crowd"),
    ]
}

/// One long query-relevant document: under RM3, which scores every
/// candidate's text exactly, a sentence-removal search over it runs for
/// seconds, long enough to keep a worker busy.
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
            format!("pad-{i}"),
            "Report",
            "covid outbreak report with several extra words for normalisation",
        ));
    }
    docs
}

/// The submission envelope for a slow sentence-removal search over
/// [`slow_docs`] under RM3 (wide enumeration, deadline as a safety net):
/// `k` covers the corpus, so no removal pushes the document past it and
/// the search runs to its end.
fn slow_submit_body(deadline_ms: u64) -> String {
    format!(
        r#"{{"endpoint": "sentence-removal",
            "request": {{"query": "covid outbreak", "k": 5, "doc": 0, "n": 999,
                         "max_size": 3, "max_candidates": 48,
                         "deadline_ms": {deadline_ms}}}}}"#
    )
}

struct Harness {
    state: &'static AppState,
    handle: ServerHandle,
}

impl Harness {
    fn boot(docs: Vec<Document>, jobs: JobsConfig) -> Self {
        Self::boot_ranked(docs, RankerChoice::Bm25, jobs)
    }

    /// [`slow_docs`] ranked by RM3, for [`slow_submit_body`].
    fn boot_slow(jobs: JobsConfig) -> Self {
        Self::boot_ranked(slow_docs(), RankerChoice::Rm3, jobs)
    }

    fn boot_ranked(docs: Vec<Document>, ranker: RankerChoice, jobs: JobsConfig) -> Self {
        let cache = ExplainCacheConfig::default();
        let state = AppState::leak_full(docs, EngineConfig::fast(), ranker, jobs, cache);
        let handle = Server::bind("127.0.0.1:0", state).unwrap().spawn().unwrap();
        Self { state, handle }
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    fn request(&self, method: &str, path: &str, body: Option<&str>) -> (u16, String, Value) {
        let (status, headers, body) = raw_request(self.addr(), method, path, body);
        let json = parse(&body).unwrap_or(Value::Null);
        (status, headers, json)
    }

    /// Submit one job, returning its wire id and numeric id.
    fn submit(&self, body: &str) -> (String, u64) {
        let (status, _, v) = self.request("POST", "/api/v1/jobs", Some(body));
        assert_eq!(status, 202, "{v:?}");
        assert_eq!(v.get("status").unwrap().as_str(), Some("queued"));
        let wire = v.get("job_id").unwrap().as_str().unwrap().to_string();
        let numeric = wire.strip_prefix("job-").unwrap().parse().unwrap();
        (wire, numeric)
    }

    /// Spin until the job is claimed by a worker (leaves `queued`).
    fn await_claimed(&self, id: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let view = self.state.jobs().get(id, self.state.metrics()).unwrap();
            if view.state != JobState::Queued {
                return;
            }
            assert!(Instant::now() < deadline, "worker never claimed job {id}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

#[test]
fn submit_poll_complete_matches_synchronous_payload() {
    let h = Harness::boot(quick_docs(), JobsConfig::default());
    let (wire, numeric) = h.submit(
        r#"{"endpoint": "sentence-removal",
            "request": {"query": "covid outbreak", "k": 2, "doc": 1, "n": 1}}"#,
    );
    assert_eq!(
        h.state
            .jobs()
            .wait_terminal(numeric, Duration::from_secs(30)),
        Some(JobState::Complete)
    );

    let (status, _, v) = h.request("GET", &format!("/api/v1/jobs/{wire}"), None);
    assert_eq!(status, 200);
    assert_eq!(v.get("status").unwrap().as_str(), Some("complete"));
    assert_eq!(v.get("result_status").unwrap().as_u64(), Some(200));

    let (sync_status, _, sync) = h.request(
        "POST",
        "/api/v1/explain/sentence-removal",
        Some(r#"{"query": "covid outbreak", "k": 2, "doc": 1, "n": 1}"#),
    );
    assert_eq!(sync_status, 200);
    assert_eq!(
        *v.get("result").unwrap(),
        sync,
        "job payload must be identical to the synchronous response"
    );
    h.handle.stop();
}

#[test]
fn cancelling_a_running_job_frees_the_worker() {
    let h = Harness::boot_slow(JobsConfig {
        workers: 1,
        queue_depth: 8,
        ..JobsConfig::default()
    });
    let (wire, numeric) = h.submit(&slow_submit_body(30_000));
    h.await_claimed(numeric);

    let (status, _, v) = h.request("DELETE", &format!("/api/v1/jobs/{wire}"), None);
    assert_eq!(status, 202, "{v:?}");
    assert_eq!(v.get("cancel_requested").unwrap().as_bool(), Some(true));

    // The search observes the raised budget flag at its next candidate
    // batch and stores its partial best-so-far result.
    assert_eq!(
        h.state
            .jobs()
            .wait_terminal(numeric, Duration::from_secs(10)),
        Some(JobState::Cancelled)
    );
    let (status, _, v) = h.request("GET", &format!("/api/v1/jobs/{wire}"), None);
    assert_eq!(status, 200);
    assert_eq!(v.get("status").unwrap().as_str(), Some("cancelled"));
    assert_eq!(
        v.get("result").unwrap().get("status").unwrap().as_str(),
        Some("cancelled"),
        "partial result carries the search's own status"
    );

    // The freed worker picks up and completes a fresh quick job.
    let (_, next) = h.submit(
        r#"{"endpoint": "term-removal",
            "request": {"query": "covid outbreak", "k": 2, "doc": 1, "n": 1, "max_evals": 2}}"#,
    );
    let state = h
        .state
        .jobs()
        .wait_terminal(next, Duration::from_secs(30))
        .unwrap();
    assert!(state.is_terminal(), "worker was freed: {state:?}");
    h.handle.stop();
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    let h = Harness::boot_slow(JobsConfig {
        workers: 1,
        queue_depth: 1,
        ..JobsConfig::default()
    });
    let (running_wire, running) = h.submit(&slow_submit_body(20_000));
    h.await_claimed(running);
    let (waiting_wire, _) = h.submit(&slow_submit_body(20_000));

    let (status, headers, v) = h.request("POST", "/api/v1/jobs", Some(&slow_submit_body(20_000)));
    assert_eq!(status, 429, "{v:?}");
    assert!(
        headers.to_ascii_lowercase().contains("retry-after"),
        "{headers}"
    );
    assert_eq!(
        v.get("error").unwrap().get("code").unwrap().as_str(),
        Some("queue_full")
    );

    // Unblock the pool so shutdown drains quickly.
    let _ = h.request("DELETE", &format!("/api/v1/jobs/{running_wire}"), None);
    let _ = h.request("DELETE", &format!("/api/v1/jobs/{waiting_wire}"), None);
    h.handle.stop();
}

#[test]
fn expired_results_answer_410() {
    let h = Harness::boot(
        quick_docs(),
        JobsConfig {
            result_ttl_ms: 50,
            ..JobsConfig::default()
        },
    );
    let (wire, numeric) = h.submit(
        r#"{"endpoint": "query-reduction",
            "request": {"query": "covid outbreak", "k": 2, "doc": 1, "n": 1}}"#,
    );
    let state = h
        .state
        .jobs()
        .wait_terminal(numeric, Duration::from_secs(30))
        .unwrap();
    assert!(state.is_terminal());
    std::thread::sleep(Duration::from_millis(100));

    let (status, _, v) = h.request("GET", &format!("/api/v1/jobs/{wire}"), None);
    assert_eq!(status, 410, "{v:?}");
    assert_eq!(v.get("status").unwrap().as_str(), Some("expired"));
    assert_eq!(
        v.get("error").unwrap().get("code").unwrap().as_str(),
        Some("job_expired")
    );
    assert!(v.get("result").is_none(), "the payload was discarded");
    h.handle.stop();
}

#[test]
fn shutdown_drains_without_dropping_jobs() {
    let h = Harness::boot_slow(JobsConfig {
        workers: 1,
        queue_depth: 4,
        ..JobsConfig::default()
    });
    // One job running under a budget that ends it within a couple of
    // seconds, one queued behind it.
    let (_, running) = h.submit(&slow_submit_body(1_500));
    h.await_claimed(running);
    let (_, waiting) = h.submit(&slow_submit_body(1_500));

    let state = h.state;
    h.handle.stop();

    // After stop() returns, the pool has been joined: the running job
    // finished under its own budget with a stored result (never dropped
    // mid-run) and the queued one was cancelled without running.
    let view = state.jobs().get(running, state.metrics()).unwrap();
    assert!(
        view.state.is_terminal(),
        "running job dropped: {:?}",
        view.state
    );
    assert!(view.result.is_some(), "drained job lost its payload");
    let view = state.jobs().get(waiting, state.metrics()).unwrap();
    assert_eq!(view.state, JobState::Cancelled);
    assert!(view.result.is_none(), "never ran, so no payload");

    // The runner refuses further submissions even in-process.
    assert!(matches!(
        state.jobs().submit(
            credence_server::requests::JobSubmitRequest::parse(
                &parse(&slow_submit_body(1_000)).unwrap()
            )
            .unwrap()
            .request,
            state.default_snapshot(),
            state.metrics()
        ),
        credence_server::jobs::SubmitOutcome::ShuttingDown
    ));
}

#[test]
fn metrics_expose_the_job_families() {
    let h = Harness::boot(quick_docs(), JobsConfig::default());
    let (_, numeric) = h.submit(
        r#"{"endpoint": "sentence-removal",
            "request": {"query": "covid outbreak", "k": 2, "doc": 1, "n": 1}}"#,
    );
    h.state
        .jobs()
        .wait_terminal(numeric, Duration::from_secs(30));

    let (status, _, text) = raw_request(h.addr(), "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(text.contains("credence_jobs_queue_depth"), "{text}");
    assert!(
        text.contains("credence_jobs_total{state=\"queued\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("credence_jobs_total{state=\"running\"} 1"),
        "{text}"
    );
    assert!(text.contains("credence_jobs_rejected_total"), "{text}");
    assert!(
        text.contains("credence_jobs_queue_wait_seconds_count 1"),
        "{text}"
    );
    assert!(
        text.contains("credence_jobs_execution_seconds_count 1"),
        "{text}"
    );
    h.handle.stop();
}

#[test]
fn jobs_through_the_router_match_single_node_payloads_bit_for_bit() {
    use credence_server::{RouterConfig, RouterState};

    // A worker behind a router, and an independent single-node control.
    // Both index the same documents, and every substrate is seeded, so
    // the stored result payloads must agree byte for byte.
    let control = Harness::boot(quick_docs(), JobsConfig::default());
    let worker = Harness::boot(quick_docs(), JobsConfig::default());
    let router_state = RouterState::leak(vec![worker.addr()], RouterConfig::default());
    let router = Server::bind("127.0.0.1:0", router_state)
        .unwrap()
        .spawn()
        .unwrap();

    let submit = r#"{"endpoint": "sentence-removal",
        "request": {"query": "covid outbreak", "k": 2, "doc": 1, "n": 1}}"#;

    // Submit through the router: the wire id gains the worker tag.
    let (status, _, v) = raw_request(router.addr(), "POST", "/api/v1/jobs", Some(submit));
    assert_eq!(status, 202, "{v}");
    let routed_id = {
        let v = parse(&v).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("queued"));
        v.get("job_id").unwrap().as_str().unwrap().to_string()
    };
    assert!(
        routed_id.starts_with("job-0-"),
        "router ids carry the worker index: {routed_id}"
    );

    // Poll through the router until the job lands.
    let deadline = Instant::now() + Duration::from_secs(30);
    let routed_view = loop {
        let (status, _, body) = raw_request(
            router.addr(),
            "GET",
            &format!("/api/v1/jobs/{routed_id}"),
            None,
        );
        assert_eq!(status, 200, "{body}");
        let view = parse(&body).unwrap();
        match view.get("status").unwrap().as_str().unwrap() {
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "routed job never finished");
                std::thread::sleep(Duration::from_millis(5));
            }
            _ => break view,
        }
    };
    assert_eq!(
        routed_view.get("status").unwrap().as_str(),
        Some("complete")
    );
    assert_eq!(
        routed_view.get("result_status").unwrap().as_u64(),
        Some(200)
    );
    assert_eq!(
        routed_view.get("job_id").unwrap().as_str(),
        Some(routed_id.as_str()),
        "polled ids stay router-tagged"
    );

    // The same job executed single-node.
    let (wire, numeric) = control.submit(submit);
    assert_eq!(
        control
            .state
            .jobs()
            .wait_terminal(numeric, Duration::from_secs(30)),
        Some(JobState::Complete)
    );
    let (status, _, single_view) = control.request("GET", &format!("/api/v1/jobs/{wire}"), None);
    assert_eq!(status, 200);

    // Bit-identical payloads: compare the serialised result bytes, not
    // just structural equality.
    assert_eq!(
        credence_json::to_string(routed_view.get("result").unwrap()),
        credence_json::to_string(single_view.get("result").unwrap()),
        "router job payloads must be bit-identical to single-node jobs"
    );

    // And both match the synchronous endpoint.
    let (sync_status, _, sync) = control.request(
        "POST",
        "/api/v1/explain/sentence-removal",
        Some(r#"{"query": "covid outbreak", "k": 2, "doc": 1, "n": 1}"#),
    );
    assert_eq!(sync_status, 200);
    assert_eq!(*single_view.get("result").unwrap(), sync);

    // Cancel routing: a DELETE on the tagged id reaches the owner worker
    // (already terminal, so the worker reports the terminal state).
    let (status, _, body) = raw_request(
        router.addr(),
        "DELETE",
        &format!("/api/v1/jobs/{routed_id}"),
        None,
    );
    assert_eq!(status, 200, "{body}");

    // Malformed and out-of-range router ids fail loudly.
    let (status, _, _) = raw_request(router.addr(), "GET", "/api/v1/jobs/job-9", None);
    assert_eq!(status, 400, "single-node ids are not valid router ids");
    let (status, _, _) = raw_request(router.addr(), "GET", "/api/v1/jobs/job-7-1", None);
    assert_eq!(status, 404, "worker index out of range");

    router.stop();
    worker.handle.stop();
    control.handle.stop();
}
