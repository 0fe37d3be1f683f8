//! The `credence-serve` binary: serve the demo corpus (or a JSONL/TSV corpus)
//! over the CREDENCE REST API — or, with `--router`, a scatter-gather
//! cluster router fanning requests over worker processes.
//!
//! ```text
//! credence-serve [--addr 127.0.0.1:8091] [--corpus path.{jsonl,tsv}]
//! credence-serve --router --workers 127.0.0.1:8092,127.0.0.1:8093 \
//!                [--partitions N] [--fanout-deadline-ms MS]
//! ```

use std::net::SocketAddr;
use std::path::Path;
use std::process::ExitCode;

use credence_core::{EngineConfig, EvalOptions};
use credence_corpus::{covid_demo_corpus, load_jsonl, load_tsv};
use credence_server::server::ServerOptions;
use credence_server::service::RankerChoice;
use credence_server::{
    AppState, ExplainCacheConfig, JobsConfig, RouterConfig, RouterState, Server,
};

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:8091".to_string();
    let mut corpus_path: Option<String> = None;
    let mut extra_corpora: Vec<(String, String)> = Vec::new();
    let mut ranker = RankerChoice::Bm25;
    let mut eval = EvalOptions::default();
    let mut jobs = JobsConfig::default();
    let mut cache = ExplainCacheConfig::default();
    let mut options = ServerOptions::default();
    let mut router = false;
    let mut workers: Vec<SocketAddr> = Vec::new();
    let mut router_config = RouterConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => return usage("--addr requires a value"),
            },
            "--router" => router = true,
            "--workers" => match args.next() {
                Some(list) => {
                    for part in list.split(',').filter(|p| !p.trim().is_empty()) {
                        match part.trim().parse::<SocketAddr>() {
                            Ok(a) => workers.push(a),
                            Err(_) => {
                                return usage(&format!("--workers: invalid address {part:?}"))
                            }
                        }
                    }
                }
                None => return usage("--workers requires a comma-separated address list"),
            },
            "--partitions" => match args.next().and_then(|v| v.parse().ok()) {
                Some(p) => router_config.partitions = p,
                None => return usage("--partitions requires an integer (0 = one per worker)"),
            },
            "--fanout-deadline-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) if ms >= 1 => router_config.fanout_deadline_ms = ms,
                _ => return usage("--fanout-deadline-ms requires an integer >= 1"),
            },
            "--corpus" => match args.next() {
                Some(p) => corpus_path = Some(p),
                None => return usage("--corpus requires a value"),
            },
            "--extra-corpus" => match args.next() {
                Some(spec) => match spec.split_once('=') {
                    Some((name, file)) if !name.is_empty() && !file.is_empty() => {
                        extra_corpora.push((name.to_string(), file.to_string()));
                    }
                    _ => return usage("--extra-corpus requires NAME=FILE.jsonl|FILE.tsv"),
                },
                None => return usage("--extra-corpus requires NAME=FILE.jsonl|FILE.tsv"),
            },
            "--ranker" => match args.next().as_deref().and_then(RankerChoice::parse) {
                Some(r) => ranker = r,
                None => return usage("--ranker must be bm25 | ql | ql-jm | rm3 | neural"),
            },
            "--eval-threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => eval.threads = t,
                None => return usage("--eval-threads requires an integer (0 = auto)"),
            },
            "--eval-parallel-threshold" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => eval.parallel_threshold = t,
                None => return usage("--eval-parallel-threshold requires an integer"),
            },
            "--eval-exact" => eval.force_exact = true,
            "--job-workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(w) if w >= 1 => jobs.workers = w,
                _ => return usage("--job-workers requires an integer >= 1"),
            },
            "--job-queue-depth" => match args.next().and_then(|v| v.parse().ok()) {
                Some(d) if d >= 1 => jobs.queue_depth = d,
                _ => return usage("--job-queue-depth requires an integer >= 1"),
            },
            "--job-result-ttl-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ttl) => jobs.result_ttl_ms = ttl,
                None => return usage("--job-result-ttl-ms requires an integer"),
            },
            "--explain-cache-entries" => match args.next().and_then(|v| v.parse().ok()) {
                Some(entries) => cache.entries = entries,
                None => return usage("--explain-cache-entries requires an integer (0 = disable)"),
            },
            "--max-connections" => match args.next().and_then(|v| v.parse().ok()) {
                Some(m) if m >= 1 => options.max_connections = m,
                _ => return usage("--max-connections requires an integer >= 1"),
            },
            "--help" | "-h" => {
                println!(
                    "credence-serve — CREDENCE REST API\n\n\
                     USAGE: credence-serve [--addr HOST:PORT] [--corpus FILE.jsonl|FILE.tsv]\n\
                     \x20                     [--extra-corpus NAME=FILE ...]\n\
                     \x20                     [--router --workers A:P,B:P [--partitions N]\n\
                     \x20                      [--fanout-deadline-ms MS]]\n\
                     \x20                     [--ranker bm25|ql|ql-jm|rm3|neural]\n\
                     \x20                     [--eval-threads N] [--eval-parallel-threshold N]\n\
                     \x20                     [--eval-exact]\n\
                     \x20                     [--job-workers N] [--job-queue-depth N]\n\
                     \x20                     [--job-result-ttl-ms MS] [--max-connections N]\n\
                     \x20                     [--explain-cache-entries N]\n\n\
                     --extra-corpus: register an additional named corpus (repeatable);\n\
                     \x20  serve it via the 'corpus' request field and manage it live\n\
                     \x20  through PUT/DELETE /api/v1/corpora/NAME.\n\
                     --eval-threads: worker threads for counterfactual candidate\n\
                     \x20  evaluation (0 = one per CPU, 1 = serial).\n\
                     --eval-parallel-threshold: smallest candidate batch fanned out\n\
                     \x20  to threads.\n\
                     --eval-exact: disable the incremental scorers (reference path).\n\
                     --job-workers: worker threads executing async explanation jobs\n\
                     \x20  (POST /api/v1/jobs; default 2).\n\
                     --job-queue-depth: waiting jobs accepted before submissions are\n\
                     \x20  rejected with 429 (default 64).\n\
                     --job-result-ttl-ms: how long finished job results stay\n\
                     \x20  retrievable (default 300000).\n\
                     --max-connections: concurrent connection threads before new\n\
                     \x20  sockets are refused with 503 (default 1024).\n\
                     --explain-cache-entries: responses held by the cross-request\n\
                     \x20  explanation cache (default 512; 0 disables caching and\n\
                     \x20  single-flight coalescing). Per-request opt-out via the\n\
                     \x20  explain_cache_bypass body field.\n\
                     --router: run as a scatter-gather router over --workers instead\n\
                     \x20  of serving a corpus. Workers are plain credence-serve\n\
                     \x20  processes over the same corpus; /rank fans out one leg per\n\
                     \x20  doc-hash partition and merges bit-identically to single-node.\n\
                     --workers: comma-separated worker addresses (router mode).\n\
                     --partitions: doc-hash partitions per fanout (0 = one per worker).\n\
                     --fanout-deadline-ms: per-leg worker deadline (default 2000);\n\
                     \x20  requests carrying deadline_ms get that budget plus this grace.\n\n\
                     Without --corpus, serves the built-in COVID-19 Articles demo corpus."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument: {other}")),
        }
    }

    if router {
        if workers.is_empty() {
            return usage("--router requires --workers with at least one address");
        }
        let state = RouterState::leak(workers, router_config);
        let server = match Server::bind_with(addr.as_str(), state, options) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("failed to bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "credence-serve router listening on http://{addr} ({} partitions)",
            state.partitions()
        );
        if let Err(e) = server.run() {
            eprintln!("server error: {e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let docs = match &corpus_path {
        None => covid_demo_corpus().docs,
        Some(p) => match load_corpus_file(p) {
            Ok(docs) => docs,
            Err(e) => {
                eprintln!("failed to load corpus {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    eprintln!("indexing {} documents and training doc2vec...", docs.len());
    let config = EngineConfig {
        eval,
        ..EngineConfig::default()
    };
    let state = AppState::leak_full(docs, config, ranker, jobs, cache);
    for (name, file) in &extra_corpora {
        if name == "default" {
            eprintln!("--extra-corpus: the name 'default' is reserved for --corpus");
            return ExitCode::FAILURE;
        }
        match load_corpus_file(file) {
            Ok(docs) => {
                eprintln!(
                    "indexing extra corpus '{name}' ({} documents)...",
                    docs.len()
                );
                state.register_corpus(name, docs);
            }
            Err(e) => {
                eprintln!("failed to load extra corpus {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    state.enable_request_logging();
    let server = match Server::bind_with(addr.as_str(), state, options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("credence-serve listening on http://{addr}");
    eprintln!("try: curl -s http://{addr}/api/v1/health");
    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Load a `.jsonl` or `.tsv` corpus file (shared by `--corpus` and each
/// `--extra-corpus NAME=FILE`).
fn load_corpus_file(p: &str) -> Result<Vec<credence_index::Document>, credence_corpus::LoadError> {
    let path = Path::new(p);
    if p.ends_with(".tsv") {
        load_tsv(path)
    } else {
        load_jsonl(path)
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\nrun with --help for usage");
    ExitCode::FAILURE
}
