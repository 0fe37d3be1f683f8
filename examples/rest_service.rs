//! Drive the CREDENCE REST API end to end in one process: boot the server
//! on an ephemeral port (the Figure-1 architecture's system boundary) and
//! issue the same HTTP calls the React front end would.
//!
//! ```sh
//! cargo run --example rest_service
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;

use credence_core::EngineConfig;
use credence_corpus::covid_demo_corpus;
use credence_server::{AppState, Server};

fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: Option<&str>) -> String {
    let mut conn = TcpStream::connect(addr).unwrap();
    // One request per connection: ask the server to close after its
    // answer, so reading to the end of the stream ends with the answer.
    let raw = match body {
        None => format!("{method} {path} HTTP/1.1\r\nHost: demo\r\nConnection: close\r\n\r\n"),
        Some(b) => format!(
            "{method} {path} HTTP/1.1\r\nHost: demo\r\nConnection: close\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
            b.len()
        ),
    };
    conn.write_all(raw.as_bytes()).unwrap();
    let mut out = String::new();
    conn.read_to_string(&mut out).unwrap();
    out.split("\r\n\r\n").nth(1).unwrap_or("").to_string()
}

fn main() {
    let demo = covid_demo_corpus();
    println!(
        "booting credence server over {} documents...",
        demo.docs.len()
    );
    let state = AppState::leak(demo.docs.clone(), EngineConfig::fast());
    let handle = Server::bind("127.0.0.1:0", state).unwrap().spawn().unwrap();
    let addr = handle.addr();
    println!("listening on http://{addr}\n");

    println!(
        "GET /api/v1/health\n  {}\n",
        http(addr, "GET", "/api/v1/health", None)
    );

    println!("POST /api/v1/rank {{query: \"covid outbreak\", k: 3}}");
    println!(
        "  {}\n",
        http(
            addr,
            "POST",
            "/api/v1/rank",
            Some(r#"{"query": "covid outbreak", "k": 3}"#)
        )
    );

    let body = format!(
        r#"{{"query": "covid outbreak", "k": 10, "doc": {}, "n": 1}}"#,
        demo.fake_news
    );
    println!("POST /api/v1/explain/sentence-removal (the Figure-2 request)");
    println!(
        "  {}\n",
        http(
            addr,
            "POST",
            "/api/v1/explain/sentence-removal",
            Some(&body)
        )
    );

    let body = format!(
        r#"{{"query": "covid outbreak", "k": 10, "doc": {}, "n": 3, "threshold": 2}}"#,
        demo.fake_news
    );
    println!("POST /api/v1/explain/query-augmentation (the Figure-3 request)");
    println!(
        "  {}\n",
        http(
            addr,
            "POST",
            "/api/v1/explain/query-augmentation",
            Some(&body)
        )
    );

    let body = format!(
        r#"{{"query": "covid outbreak", "k": 10, "doc": {}, "n": 1}}"#,
        demo.fake_news
    );
    println!("POST /api/v1/explain/doc2vec-nearest (the Figure-4 request)");
    println!(
        "  {}\n",
        http(addr, "POST", "/api/v1/explain/doc2vec-nearest", Some(&body))
    );

    println!("POST /api/v1/topics");
    println!(
        "  {}\n",
        http(
            addr,
            "POST",
            "/api/v1/topics",
            Some(r#"{"query": "covid outbreak", "k": 10, "num_topics": 3}"#)
        )
    );

    let body = format!(
        r#"{{"query": "covid outbreak", "k": 10, "doc": {}, "n": 1, "deadline_ms": 0}}"#,
        demo.fake_news
    );
    println!("POST /api/v1/explain/sentence-removal with deadline_ms: 0 (partial result)");
    println!(
        "  {}\n",
        http(
            addr,
            "POST",
            "/api/v1/explain/sentence-removal",
            Some(&body)
        )
    );

    println!("GET /metrics (first lines)");
    let metrics = http(addr, "GET", "/metrics", None);
    for line in metrics.lines().take(8) {
        println!("  {line}");
    }
    println!();

    handle.stop();
    println!("server stopped.");
}
