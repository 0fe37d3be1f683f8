//! End-to-end REST test: boot the server over the demo corpus on a real TCP
//! socket and drive the Figure 2–5 scenarios through raw HTTP, exactly as
//! the original React front end drove the FastAPI backend.

use std::sync::OnceLock;

use credence_core::EngineConfig;
use credence_corpus::covid_demo_corpus;
use credence_json::{parse, Value};
use credence_repro::wire::raw_request;
use credence_server::{AppState, Server, ServerHandle};

struct TestServer {
    handle: ServerHandle,
    fake_news: usize,
    near_duplicate: usize,
}

fn server() -> &'static TestServer {
    static SERVER: OnceLock<TestServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        let demo = covid_demo_corpus();
        let state = AppState::leak(demo.docs.clone(), EngineConfig::fast());
        let handle = Server::bind("127.0.0.1:0", state).unwrap().spawn().unwrap();
        TestServer {
            handle,
            fake_news: demo.fake_news,
            near_duplicate: demo.near_duplicate,
        }
    })
}

fn request(method: &str, path: &str, body: Option<&str>) -> (u16, Value) {
    let (status, _, body) = raw_request(server().handle.addr(), method, path, body);
    (status, parse(&body).expect("JSON body"))
}

#[test]
fn health_check() {
    let (status, v) = request("GET", "/api/v1/health", None);
    assert_eq!(status, 200);
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
}

#[test]
fn corpus_lists_demo_documents() {
    let (status, v) = request("GET", "/api/v1/corpus", None);
    assert_eq!(status, 200);
    let n = v.get("num_docs").unwrap().as_u64().unwrap();
    assert!(n >= 40);
}

#[test]
fn running_example_over_http() {
    let (status, v) = request(
        "POST",
        "/api/v1/rank",
        Some(r#"{"query": "covid outbreak", "k": 10}"#),
    );
    assert_eq!(status, 200);
    let ranking = v.get("ranking").unwrap().as_array().unwrap();
    assert_eq!(ranking.len(), 10);
    let third = &ranking[2];
    assert_eq!(third.get("rank").unwrap().as_u64(), Some(3));
    assert_eq!(
        third.get("doc").unwrap().as_u64(),
        Some(server().fake_news as u64)
    );
    assert_eq!(
        third.get("name").unwrap().as_str(),
        Some("fake-news-644529")
    );
}

#[test]
fn figure2_over_http() {
    let body = format!(
        r#"{{"query": "covid outbreak", "k": 10, "doc": {}, "n": 1}}"#,
        server().fake_news
    );
    let (status, v) = request("POST", "/api/v1/explain/sentence-removal", Some(&body));
    assert_eq!(status, 200);
    let explanations = v.get("explanations").unwrap().as_array().unwrap();
    assert_eq!(explanations.len(), 1);
    let e = &explanations[0];
    assert_eq!(e.get("old_rank").unwrap().as_u64(), Some(3));
    assert_eq!(e.get("new_rank").unwrap().as_u64(), Some(11));
    assert_eq!(
        e.get("removed_sentences")
            .unwrap()
            .as_array()
            .unwrap()
            .len(),
        2
    );
    assert_eq!(e.get("importance").unwrap().as_f64(), Some(4.0));
}

#[test]
fn figure3_over_http() {
    let body = format!(
        r#"{{"query": "covid outbreak", "k": 10, "doc": {}, "n": 7, "threshold": 2}}"#,
        server().fake_news
    );
    let (status, v) = request("POST", "/api/v1/explain/query-augmentation", Some(&body));
    assert_eq!(status, 200);
    let explanations = v.get("explanations").unwrap().as_array().unwrap();
    assert_eq!(explanations.len(), 7);
    for e in explanations {
        assert!(e.get("new_rank").unwrap().as_u64().unwrap() <= 2);
    }
}

#[test]
fn figure4_over_http() {
    let srv = server();
    let body = format!(
        r#"{{"query": "covid outbreak", "k": 10, "doc": {}, "n": 1}}"#,
        srv.fake_news
    );
    let (status, v) = request("POST", "/api/v1/explain/doc2vec-nearest", Some(&body));
    assert_eq!(status, 200);
    let e = &v.get("explanations").unwrap().as_array().unwrap()[0];
    assert_eq!(
        e.get("doc").unwrap().as_u64(),
        Some(srv.near_duplicate as u64)
    );
    assert!(e.get("similarity").unwrap().as_f64().unwrap() > 0.4);
    assert!(e.get("rank").unwrap().is_null(), "not retrieved originally");

    let (status, v) = request(
        "POST",
        "/api/v1/explain/cosine-sampled",
        Some(&format!(
            r#"{{"query": "covid outbreak", "k": 10, "doc": {}, "n": 1, "samples": 1000}}"#,
            srv.fake_news
        )),
    );
    assert_eq!(status, 200);
    let e = &v.get("explanations").unwrap().as_array().unwrap()[0];
    assert_eq!(
        e.get("doc").unwrap().as_u64(),
        Some(srv.near_duplicate as u64)
    );
}

#[test]
fn figure5_over_http() {
    let srv = server();
    // Fetch the document, apply the Figure-5 edits client-side, re-rank.
    let (status, doc) = request("GET", &format!("/api/v1/doc/{}", srv.fake_news), None);
    assert_eq!(status, 200);
    let original = doc.get("body").unwrap().as_str().unwrap();
    let edited = original
        .replace("covid-19", "flu")
        .replace("Covid-19", "flu")
        .replace("covid", "flu")
        .replace("outbreak", "the flu");
    let payload = credence_json::to_string(&credence_json::obj([
        ("query", Value::from("covid outbreak")),
        ("k", Value::from(10usize)),
        ("doc", Value::from(srv.fake_news)),
        ("body", Value::from(edited)),
    ]));
    let (status, v) = request("POST", "/api/v1/rerank", Some(&payload));
    assert_eq!(status, 200);
    assert_eq!(v.get("valid").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("old_rank").unwrap().as_u64(), Some(3));
    assert_eq!(v.get("new_rank").unwrap().as_u64(), Some(11));
    assert_eq!(v.get("rows").unwrap().as_array().unwrap().len(), 11);
}

#[test]
fn topics_over_http() {
    let (status, v) = request(
        "POST",
        "/api/v1/topics",
        Some(r#"{"query": "covid outbreak", "k": 10, "num_topics": 3}"#),
    );
    assert_eq!(status, 200);
    assert_eq!(v.get("topics").unwrap().as_array().unwrap().len(), 3);
}

#[test]
fn error_statuses_over_http() {
    let (status, v) = request("POST", "/api/v1/rank", Some("not json"));
    assert_eq!(status, 400);
    let err = v.get("error").expect("error envelope");
    assert_eq!(err.get("code").unwrap().as_str(), Some("invalid_json"));
    assert!(err.get("message").unwrap().as_str().is_some());

    let (status, v) = request(
        "POST",
        "/api/v1/explain/sentence-removal",
        Some(r#"{"query": "covid outbreak", "k": 10, "doc": 99999}"#),
    );
    assert_eq!(status, 404);
    assert_eq!(
        v.get("error").unwrap().get("code").unwrap().as_str(),
        Some("doc_not_found")
    );

    let (status, _) = request("GET", "/nonexistent", None);
    assert_eq!(status, 404);
}

#[test]
fn unversioned_paths_answer_404_over_http() {
    let rank = r#"{"query": "covid outbreak", "k": 3}"#;
    for (method, path, body) in [
        ("POST", "/rank", Some(rank)),
        ("GET", "/health", None),
        ("GET", "/doc/2", None),
        ("GET", "/jobs/job-1", None),
        ("GET", "/corpora", None),
    ] {
        let (status, headers, body) = raw_request(server().handle.addr(), method, path, body);
        assert_eq!(status, 404, "{method} {path}");
        assert!(body.contains(r#""code":"not_found""#), "{path}: {body}");
        assert!(!headers.contains("deprecation"), "{headers}");
        assert!(!headers.contains("link:"), "{headers}");
    }
    let (status, headers, _) =
        raw_request(server().handle.addr(), "POST", "/api/v1/rank", Some(rank));
    assert_eq!(status, 200);
    assert!(!headers.contains("deprecation"), "{headers}");
}

#[test]
fn deadline_capped_search_returns_partial_result_over_http() {
    let body = format!(
        r#"{{"query": "covid outbreak", "k": 10, "doc": {}, "n": 1, "deadline_ms": 0}}"#,
        server().fake_news
    );
    let (status, v) = request("POST", "/api/v1/explain/sentence-removal", Some(&body));
    assert_eq!(
        status, 200,
        "a tripped budget is a partial result, not an error"
    );
    assert_eq!(v.get("status").unwrap().as_str(), Some("deadline"));
    assert!(v.get("candidates_evaluated").unwrap().as_u64().is_some());
    assert!(v.get("explanations").unwrap().as_array().is_some());

    // The hit shows up in the metrics registry.
    let (status, _, text) = raw_request(server().handle.addr(), "GET", "/metrics", None);
    assert_eq!(status, 200);
    let hits: u64 = text
        .lines()
        .find(|l| l.starts_with("credence_deadline_hits_total"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
        .expect("deadline-hit counter present");
    assert!(hits >= 1, "{hits}");
}

#[test]
fn metrics_exposition_over_http() {
    // Generate traffic first so the rank counter is nonzero.
    let (status, _) = request(
        "POST",
        "/api/v1/rank",
        Some(r#"{"query": "covid outbreak", "k": 3}"#),
    );
    assert_eq!(status, 200);
    let (status, headers, text) = raw_request(server().handle.addr(), "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(headers.contains("content-type: text/plain"), "{headers}");
    assert!(text.contains("# TYPE credence_requests_total counter"));
    assert!(text.contains("credence_requests_total{endpoint=\"rank\",status=\"200\"}"));
    assert!(text.contains("credence_request_duration_seconds_bucket"));
    assert!(text.contains("credence_request_duration_quantile_seconds{quantile=\"0.95\"}"));
}

/// No single request may abort or panic the server. Each size below once
/// asked for an allocation that fails at once (tens of GiB and up) or
/// overflowed `k + 1`; each now answers with a 200 or a typed envelope, and
/// the next ordinary request is served as usual.
#[test]
fn oversized_requests_answer_and_the_server_keeps_serving() {
    let fake = server().fake_news;
    let explain =
        |own: &str| format!(r#"{{"query": "covid outbreak", "k": 10, "doc": {fake}, {own}}}"#);
    let cases = [
        (
            "/api/v1/explain/nearest-to-text",
            r#"{"text": "covid outbreak", "n": 4294967296}"#.to_string(),
            None,
        ),
        (
            "/api/v1/explain/doc2vec-nearest",
            explain(r#""n": 4294967296"#),
            None,
        ),
        (
            "/api/v1/explain/feature_attribution",
            explain(r#""samples": 4294967296"#),
            Some("invalid_parameter"),
        ),
        (
            "/api/v1/explain/feature_attribution",
            explain(r#""samples": 18446744073709551615"#),
            Some("invalid_parameter"),
        ),
        (
            "/api/v1/topics",
            r#"{"query": "covid outbreak", "k": 10, "num_topics": 1099511627776}"#.to_string(),
            Some("invalid_parameter"),
        ),
        (
            "/api/v1/rerank",
            format!(
                r#"{{"query": "covid outbreak", "k": 18446744073709551615, "doc": {fake},
                    "body": "a cover story"}}"#
            ),
            None,
        ),
    ];
    for (path, body, code) in &cases {
        let (status, v) = request("POST", path, Some(body));
        match code {
            None => assert_eq!(status, 200, "{path} {body}: {v:?}"),
            Some(code) => {
                assert_eq!(status, 422, "{path} {body}: {v:?}");
                let error = v.get("error").expect("an error envelope");
                assert_eq!(error.get("code").unwrap().as_str(), Some(*code), "{path}");
            }
        }
        let (status, _) = request(
            "POST",
            "/api/v1/rank",
            Some(r#"{"query": "covid outbreak", "k": 3}"#),
        );
        assert_eq!(status, 200, "the server still serves after {path} {body}");
    }
}
