//! `loadgen`: the in-repo load/capacity harness.
//!
//! Sweeps offered-QPS points against a CREDENCE server — an external
//! one via `--addr`, or a self-contained in-process single-node server
//! over the demo corpus when no address is given — and writes the
//! capacity curve to `BENCH_capacity.json` (see
//! [`credence_bench::loadgen`] for the measurement discipline).
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--out BENCH_capacity.json]
//!         [--mode open|closed] [--concurrency N] [--seed S]
//!         [--qps 100,200,400,...] [--requests N] [--k K] [--zipf S]
//!         [--trace rank|repeated]
//! ```
//!
//! `--trace rank` (the default) sweeps `/rank` queries. `--trace
//! repeated` drives a seeded zipfian mix over a small hot set of
//! explanation requests instead — the workload the cross-request
//! explanation cache serves — so hit rates and coalescing show up in
//! `/metrics` under load.
//!
//! `CREDENCE_BENCH_SMOKE=1` (or `--smoke`) shrinks the sweep to a
//! seconds-long sanity pass for CI, which exits non-zero when every request
//! of a point failed.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use credence_bench::loadgen::{
    capacity_json, query_pool, rank_pool, repeated_explain_pool, run_point, schedule, LoopMode,
};
use credence_core::EngineConfig;
use credence_corpus::covid_demo_corpus;
use credence_index::InvertedIndex;
use credence_json::to_string;
use credence_server::{AppState, Server};
use credence_text::Analyzer;

struct Options {
    addr: Option<SocketAddr>,
    out: String,
    mode_open: bool,
    concurrency: usize,
    seed: u64,
    qps: Vec<f64>,
    requests: usize,
    k: usize,
    zipf: f64,
    repeated: bool,
    smoke: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            addr: None,
            out: "BENCH_capacity.json".to_string(),
            mode_open: true,
            concurrency: 8,
            seed: 42,
            qps: Vec::new(),
            requests: 400,
            k: 10,
            zipf: 1.0,
            repeated: false,
            smoke: std::env::var("CREDENCE_BENCH_SMOKE").is_ok_and(|v| v == "1"),
        }
    }
}

fn main() -> ExitCode {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next().and_then(|v| v.parse().ok()) {
                Some(a) => opts.addr = Some(a),
                None => return usage("--addr requires HOST:PORT"),
            },
            "--out" => match args.next() {
                Some(p) => opts.out = p,
                None => return usage("--out requires a path"),
            },
            "--mode" => match args.next().as_deref() {
                Some("open") => opts.mode_open = true,
                Some("closed") => opts.mode_open = false,
                _ => return usage("--mode must be open | closed"),
            },
            "--concurrency" => match args.next().and_then(|v| v.parse().ok()) {
                Some(c) if c >= 1 => opts.concurrency = c,
                _ => return usage("--concurrency requires an integer >= 1"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => opts.seed = s,
                None => return usage("--seed requires an integer"),
            },
            "--qps" => match args.next() {
                Some(list) => {
                    for part in list.split(',').filter(|p| !p.trim().is_empty()) {
                        match part.trim().parse::<f64>() {
                            Ok(q) if q > 0.0 => opts.qps.push(q),
                            _ => return usage("--qps values must be positive numbers"),
                        }
                    }
                }
                None => return usage("--qps requires a comma-separated list"),
            },
            "--requests" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => opts.requests = n,
                _ => return usage("--requests requires an integer >= 1"),
            },
            "--k" => match args.next().and_then(|v| v.parse().ok()) {
                Some(k) if k >= 1 => opts.k = k,
                _ => return usage("--k requires an integer >= 1"),
            },
            "--zipf" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) if (0.0..=4.0).contains(&s) => opts.zipf = s,
                _ => return usage("--zipf requires a number in 0..=4"),
            },
            "--trace" => match args.next().as_deref() {
                Some("rank") => opts.repeated = false,
                Some("repeated") => opts.repeated = true,
                _ => return usage("--trace must be rank | repeated"),
            },
            "--smoke" => opts.smoke = true,
            "--help" | "-h" => {
                println!(
                    "loadgen — CREDENCE load/capacity harness\n\n\
                     USAGE: loadgen [--addr HOST:PORT] [--out FILE]\n\
                     \x20              [--mode open|closed] [--concurrency N]\n\
                     \x20              [--seed S] [--qps A,B,C] [--requests N]\n\
                     \x20              [--k K] [--zipf S] [--trace rank|repeated]\n\
                     \x20              [--smoke]\n\n\
                     Without --addr, boots an in-process single-node server on\n\
                     the demo corpus and drives that. --qps defaults to a sweep\n\
                     that runs past the saturation knee. --trace repeated swaps\n\
                     the /rank mix for a seeded zipfian hot set of explanation\n\
                     requests (exercising the explanation cache).\n\
                     CREDENCE_BENCH_SMOKE=1 (or --smoke) shrinks the sweep\n\
                     for CI."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument: {other}")),
        }
    }
    if opts.smoke {
        if opts.qps.is_empty() {
            opts.qps = if opts.repeated {
                vec![25.0, 50.0]
            } else {
                vec![25.0, 50.0, 100.0, 200.0]
            };
        }
        opts.requests = opts.requests.min(40);
    } else if opts.qps.is_empty() {
        // Explanation requests cost far more than /rank, so the repeated
        // trace sweeps a lower range; a warm cache pushes the knee well
        // past what cold misses could sustain.
        opts.qps = if opts.repeated {
            vec![50.0, 100.0, 200.0, 400.0, 800.0]
        } else {
            vec![250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0]
        };
    }

    // The request pool is derived from the demo corpus either way:
    // workers in a cluster serve the same corpus, and an external
    // single-node target is assumed to as well (queries with no hits
    // still measure the full request path).
    let pool = if opts.repeated {
        let demo = covid_demo_corpus();
        repeated_explain_pool(demo.query, opts.k.min(demo.docs.len()), 3)
    } else {
        let demo_index = InvertedIndex::build(covid_demo_corpus().docs, Analyzer::english());
        rank_pool(&query_pool(&demo_index, 16), opts.k)
    };

    let (addr, _local) = match opts.addr {
        Some(addr) => (addr, None),
        None => {
            eprintln!("loadgen: booting in-process demo server...");
            let state = AppState::leak(covid_demo_corpus().docs, EngineConfig::fast());
            let server = match Server::bind("127.0.0.1:0", state) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("loadgen: bind failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let handle = match server.spawn() {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("loadgen: spawn failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            (handle.addr(), Some(handle))
        }
    };

    let mode = if opts.mode_open {
        LoopMode::Open
    } else {
        LoopMode::Closed {
            concurrency: opts.concurrency,
        }
    };
    let timeout = Duration::from_secs(10);
    let mut points = Vec::new();
    for (i, &qps) in opts.qps.iter().enumerate() {
        // Per-point seed offset keeps arrival processes independent
        // across points while staying a pure function of --seed.
        let sched = schedule(
            opts.seed.wrapping_add(i as u64),
            pool.len(),
            opts.zipf,
            opts.requests,
            qps,
        );
        let point = run_point(addr, &pool, &sched, qps, mode, timeout);
        eprintln!(
            "loadgen: offered {:>8.1} qps  achieved {:>8.1} qps  p50 {:>8.2}ms  p95 {:>8.2}ms  p99 {:>8.2}ms  errors {}",
            point.offered_qps,
            point.achieved_qps,
            point.p50_ms,
            point.p95_ms,
            point.p99_ms,
            point.errors
        );
        points.push(point);
    }

    let doc = capacity_json(mode, opts.seed, opts.requests, &points);
    if let Err(e) = std::fs::write(&opts.out, to_string(&doc) + "\n") {
        eprintln!("loadgen: failed to write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    eprintln!("loadgen: wrote {}", opts.out);
    if let Some(handle) = _local {
        handle.stop();
    }
    // A smoke run checks the server answers at all: a point where every
    // request failed (a wrong path answers 404 to each) fails it.
    if opts.smoke && points.iter().any(|p| p.errors == p.requests) {
        eprintln!("loadgen: every request of a point failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\nrun with --help for usage");
    ExitCode::FAILURE
}
