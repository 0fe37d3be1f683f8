//! End-to-end cluster-mode tests: a router process fanning `/api/v1`
//! requests out over real worker servers on real TCP sockets.
//!
//! The headline contract — the reason cluster mode is trustworthy at
//! all — is proven here byte-for-byte: a clustered `/rank` response is
//! *identical* to the single-node response, not merely rank-order
//! equal. The degradation matrix (worker down / worker slow / worker
//! dying mid-request) is exercised against fake workers that misbehave
//! on cue.

use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use credence_core::EngineConfig;
use credence_corpus::covid_demo_corpus;
use credence_json::parse;
use credence_repro::wire::raw_request;
use credence_server::{AppState, RouterConfig, RouterState, Server, ServerHandle};

/// A two-worker cluster plus a single-node control, all over the same
/// leaked engine state so scores come from the same index build.
struct Cluster {
    single: ServerHandle,
    router: ServerHandle,
    #[allow(dead_code)]
    workers: Vec<ServerHandle>,
}

fn cluster() -> &'static Cluster {
    static CLUSTER: OnceLock<Cluster> = OnceLock::new();
    CLUSTER.get_or_init(|| {
        let state = AppState::leak(covid_demo_corpus().docs, EngineConfig::fast());
        let single = Server::bind("127.0.0.1:0", state).unwrap().spawn().unwrap();
        let workers: Vec<ServerHandle> = (0..2)
            .map(|_| Server::bind("127.0.0.1:0", state).unwrap().spawn().unwrap())
            .collect();
        let router_state = RouterState::leak(
            workers.iter().map(|w| w.addr()).collect(),
            RouterConfig::default(),
        );
        let router = Server::bind("127.0.0.1:0", router_state)
            .unwrap()
            .spawn()
            .unwrap();
        Cluster {
            single,
            router,
            workers,
        }
    })
}

#[test]
fn router_rank_is_byte_identical_to_single_node() {
    let c = cluster();
    for (query, k) in [
        ("covid outbreak", 10),
        ("school closure", 5),
        ("vaccine", 1),
        ("covid", 60),
    ] {
        let body = format!("{{\"query\": \"{query}\", \"k\": {k}}}");
        let (ss, _, single) = raw_request(c.single.addr(), "POST", "/api/v1/rank", Some(&body));
        let (rs, _, routed) = raw_request(c.router.addr(), "POST", "/api/v1/rank", Some(&body));
        assert_eq!(ss, 200);
        assert_eq!(rs, 200);
        assert_eq!(
            single, routed,
            "clustered /rank must be byte-identical to single-node for {query:?} k={k}"
        );
    }
}

#[test]
fn router_explainer_is_byte_identical_to_single_node() {
    let c = cluster();
    let body = r#"{"query": "covid outbreak", "k": 10, "doc": 0, "n": 2}"#;
    let (ss, _, single) = raw_request(
        c.single.addr(),
        "POST",
        "/api/v1/explain/sentence-removal",
        Some(body),
    );
    let (rs, _, routed) = raw_request(
        c.router.addr(),
        "POST",
        "/api/v1/explain/sentence-removal",
        Some(body),
    );
    assert_eq!(ss, 200);
    assert_eq!(rs, 200);
    assert_eq!(
        single, routed,
        "doc-affine explainers relay byte-identically through the router"
    );
}

#[test]
fn router_feature_attribution_is_byte_identical_to_single_node() {
    let c = cluster();
    // Seeded sampling keeps the payload deterministic, so the relayed
    // response must match single-node byte-for-byte, not approximately.
    let body = r#"{"query": "covid outbreak", "k": 10, "doc": 0, "samples": 64, "seed": 3}"#;
    let (ss, _, single) = raw_request(
        c.single.addr(),
        "POST",
        "/api/v1/explain/feature_attribution",
        Some(body),
    );
    let (rs, _, routed) = raw_request(
        c.router.addr(),
        "POST",
        "/api/v1/explain/feature_attribution",
        Some(body),
    );
    assert_eq!(ss, 200, "{single}");
    assert_eq!(rs, 200, "{routed}");
    assert_eq!(
        single, routed,
        "feature attribution relays byte-identically through the router"
    );
}

#[test]
fn router_rejects_client_supplied_partition_fields() {
    let c = cluster();
    let (status, _, body) = raw_request(
        c.router.addr(),
        "POST",
        "/api/v1/rank",
        Some(r#"{"query": "covid", "k": 3, "partition_index": 0, "partition_count": 2}"#),
    );
    assert_eq!(status, 400);
    let v = parse(&body).unwrap();
    assert_eq!(
        v.get("error").unwrap().get("code").unwrap().as_str(),
        Some("invalid_field")
    );
}

#[test]
fn router_health_and_metrics_answer_locally() {
    let c = cluster();
    let (status, _, body) = raw_request(c.router.addr(), "GET", "/api/v1/health", None);
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"status":"ok"}"#);
    let (status, _, metrics) = raw_request(c.router.addr(), "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(
        metrics.contains("credence_router_requests_total"),
        "{metrics}"
    );
    assert!(metrics.contains("credence_router_workers 2"), "{metrics}");
}

#[test]
fn head_through_the_router_answers_the_get_head_without_a_body() {
    let c = cluster();
    for path in ["/api/v1/health", "/api/v1/corpus"] {
        let (gs, _, body) = raw_request(c.router.addr(), "GET", path, None);
        let (hs, head, rest) = raw_request(c.router.addr(), "HEAD", path, None);
        assert_eq!((gs, hs), (200, 200), "{path}: {head}");
        assert!(
            head.contains(&format!("content-length: {}\r\n", body.len())),
            "{path}: {head}"
        );
        assert_eq!(rest, "", "{path}: no body after the head");
    }
}

/// An address that refuses connections: bind an ephemeral port, then
/// drop the listener before anyone connects.
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    drop(listener);
    addr
}

/// A fake worker that accepts connections, reads the request, then
/// misbehaves: sleeps past any deadline (`hang: true`) or closes the
/// socket without responding (`hang: false`). Runs detached for the
/// life of the test binary.
fn fake_worker(hang: bool) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                let _ = stream.read(&mut buf);
                if hang {
                    std::thread::sleep(Duration::from_secs(30));
                }
                // Dropping the stream here closes the connection with no
                // response bytes — the mid-request death case.
            });
        }
    });
    addr
}

/// A router over one live worker plus one misbehaving partition.
fn degraded_router(bad: SocketAddr, fanout_deadline_ms: u64) -> ServerHandle {
    let state = AppState::leak(covid_demo_corpus().docs, EngineConfig::fast());
    let live = Server::bind("127.0.0.1:0", state).unwrap().spawn().unwrap();
    let router_state = RouterState::leak(
        vec![live.addr(), bad],
        RouterConfig {
            partitions: 0,
            fanout_deadline_ms,
        },
    );
    // The live worker handle leaks with the cluster — these routers live
    // for the remainder of the test process.
    std::mem::forget(live);
    Server::bind("127.0.0.1:0", router_state)
        .unwrap()
        .spawn()
        .unwrap()
}

#[test]
fn worker_down_at_startup_is_a_503_envelope() {
    let router = degraded_router(dead_addr(), 2_000);
    let (status, _, body) = raw_request(
        router.addr(),
        "POST",
        "/api/v1/rank",
        Some(r#"{"query": "covid outbreak", "k": 5}"#),
    );
    assert_eq!(status, 503, "an unreachable partition refuses the request");
    let v = parse(&body).unwrap();
    let err = v.get("error").unwrap();
    assert_eq!(
        err.get("code").unwrap().as_str(),
        Some("worker_unavailable")
    );
    assert!(
        err.get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unreachable"),
        "{body}"
    );
}

#[test]
fn worker_missing_the_deadline_degrades_to_partial_listing() {
    let router = degraded_router(fake_worker(true), 300);
    let started = Instant::now();
    let (status, _, body) = raw_request(
        router.addr(),
        "POST",
        "/api/v1/rank",
        Some(r#"{"query": "covid outbreak", "k": 5}"#),
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "deadline must bound the fanout, took {:?}",
        started.elapsed()
    );
    assert_eq!(status, 200, "{body}");
    let v = parse(&body).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("deadline"));
    let missing = v.get("missing_partitions").unwrap().as_array().unwrap();
    assert_eq!(missing.len(), 1, "exactly one partition timed out: {body}");
    assert!(
        !v.get("ranking").unwrap().as_array().unwrap().is_empty(),
        "the live partition still contributes rows"
    );
}

#[test]
fn worker_dying_mid_request_degrades_without_hanging() {
    let router = degraded_router(fake_worker(false), 2_000);
    let started = Instant::now();
    let (status, _, body) = raw_request(
        router.addr(),
        "POST",
        "/api/v1/rank",
        Some(r#"{"query": "covid outbreak", "k": 5}"#),
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "a dying worker must not hang the router, took {:?}",
        started.elapsed()
    );
    assert_eq!(status, 200, "{body}");
    let v = parse(&body).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("degraded"));
    assert_eq!(
        v.get("missing_partitions")
            .unwrap()
            .as_array()
            .unwrap()
            .len(),
        1,
        "{body}"
    );
}

#[test]
fn unversioned_paths_through_the_router_answer_404() {
    let c = cluster();
    for (method, path, body) in [
        ("POST", "/rank", Some(r#"{"query": "covid", "k": 3}"#)),
        ("GET", "/health", None),
        ("GET", "/doc/2", None),
        (
            "POST",
            "/explain/sentence-removal",
            Some(r#"{"query": "covid", "k": 3, "doc": 2}"#),
        ),
        ("GET", "/jobs/job-0-1", None),
        ("GET", "/corpora", None),
    ] {
        let (status, headers, body) = raw_request(c.router.addr(), method, path, body);
        assert_eq!(status, 404, "{method} {path}: {body}");
        assert!(body.contains(r#""code":"not_found""#), "{path}: {body}");
        let lower = headers.to_ascii_lowercase();
        assert!(!lower.contains("deprecation"), "{headers}");
        assert!(!lower.contains("link:"), "{headers}");
    }
}

#[test]
fn doc_lookup_routes_to_the_owner_worker() {
    let c = cluster();
    let (ss, _, single) = raw_request(c.single.addr(), "GET", "/api/v1/doc/3", None);
    let (rs, _, routed) = raw_request(c.router.addr(), "GET", "/api/v1/doc/3", None);
    assert_eq!(ss, 200);
    assert_eq!(rs, 200);
    assert_eq!(single, routed, "replicated workers answer /doc identically");
}

#[test]
fn router_rank_parity_holds_for_every_partition_count() {
    // One worker serving 1..=8 partitions: the merge contract cannot
    // depend on how finely the fanout splits the corpus.
    let c = cluster();
    let body = r#"{"query": "covid outbreak", "k": 20}"#;
    let (_, _, single) = raw_request(c.single.addr(), "POST", "/api/v1/rank", Some(body));
    let state = AppState::leak(covid_demo_corpus().docs, EngineConfig::fast());
    let worker = Server::bind("127.0.0.1:0", state).unwrap().spawn().unwrap();
    for partitions in 1..=8u32 {
        let router_state = RouterState::leak(
            vec![worker.addr()],
            RouterConfig {
                partitions,
                fanout_deadline_ms: 10_000,
            },
        );
        let router = Server::bind("127.0.0.1:0", router_state)
            .unwrap()
            .spawn()
            .unwrap();
        let (status, _, routed) = raw_request(router.addr(), "POST", "/api/v1/rank", Some(body));
        assert_eq!(status, 200);
        assert_eq!(
            single, routed,
            "partition count {partitions} must not change the merged bytes"
        );
        std::mem::forget(router);
    }
    std::mem::forget(worker);
}
