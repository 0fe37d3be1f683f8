//! The server's command line and boot, shared by the `credence-serve`
//! binary and the CLI's `credence serve`: one flag parser and one start-up
//! path, so both accept the same flags and serve the same way.
//!
//! ```text
//! credence-serve [--addr 127.0.0.1:8091] [--corpus path.{jsonl,tsv}]
//! credence-serve --router --workers 127.0.0.1:8092,127.0.0.1:8093 \
//!                [--partitions N] [--fanout-deadline-ms MS]
//! ```

use std::net::SocketAddr;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

use credence_core::EngineConfig;
use credence_corpus::{covid_demo_corpus, load_jsonl, load_tsv, LoadError};
use credence_index::Document;

use crate::explain_cache::ExplainCacheConfig;
use crate::jobs::JobsConfig;
use crate::router::{RouterConfig, RouterState};
use crate::server::{Server, ServerOptions};
use crate::service::{AppState, RankerChoice};

/// The `--help` text.
const HELP: &str = "credence-serve — CREDENCE REST API\n\n\
     USAGE: credence-serve [--addr HOST:PORT] [--corpus FILE.jsonl|FILE.tsv]\n\
     \x20                     [--extra-corpus NAME=FILE ...]\n\
     \x20                     [--router --workers A:P,B:P [--partitions N]\n\
     \x20                      [--fanout-deadline-ms MS]]\n\
     \x20                     [--ranker bm25|ql|ql-jm|rm3|neural]\n\
     \x20                     [--job-workers N] [--job-queue-depth N]\n\
     \x20                     [--job-result-ttl-ms MS] [--max-connections N]\n\
     \x20                     [--explain-cache-entries N]\n\n\
     --ranker: the ranking model (default bm25). It also decides how\n\
     \x20  explanation candidates are scored: bm25, ql and ql-jm replay\n\
     \x20  them from per-term weights, rm3 and neural re-score their text.\n\
     --extra-corpus: register an additional named corpus (repeatable);\n\
     \x20  serve it via the 'corpus' request field and manage it live\n\
     \x20  through PUT/DELETE /api/v1/corpora/NAME.\n\
     --job-workers: worker threads executing async explanation jobs\n\
     \x20  (POST /api/v1/jobs; default 2).\n\
     --job-queue-depth: waiting jobs accepted before submissions are\n\
     \x20  rejected with 429 (default 64).\n\
     --job-result-ttl-ms: how long finished job results stay\n\
     \x20  retrievable (default 300000).\n\
     --max-connections: concurrent connections, one thread each,\n\
     \x20  before new sockets are refused with 503 (default 1024). A\n\
     \x20  kept-alive connection holds its slot until it closes or\n\
     \x20  idles out (5 s).\n\
     --explain-cache-entries: responses held by the cross-request\n\
     \x20  explanation cache (default 512; 0 disables caching and\n\
     \x20  single-flight coalescing). Per-request opt-out via the\n\
     \x20  explain_cache_bypass body field.\n\
     --router: run as a scatter-gather router over --workers instead\n\
     \x20  of serving a corpus. Workers are plain credence-serve\n\
     \x20  processes over the same corpus; /api/v1/rank fans out one leg\n\
     \x20  per doc-hash partition and merges bit-identically to single-node.\n\
     --workers: comma-separated worker addresses (router mode).\n\
     --partitions: doc-hash partitions per fanout (0 = one per worker).\n\
     --fanout-deadline-ms: per-leg worker deadline (default 2000);\n\
     \x20  requests carrying deadline_ms get that budget plus this grace.\n\n\
     Without --corpus, serves the built-in COVID-19 Articles demo corpus.";

/// What the flags ask for.
#[derive(Debug, Clone)]
struct Boot {
    /// `--addr`.
    addr: String,
    /// `--corpus`: the default corpus's file; the demo corpus when `None`.
    corpus: Option<String>,
    /// `--extra-corpus NAME=FILE`, in flag order.
    extra_corpora: Vec<(String, String)>,
    /// `--ranker`.
    ranker: RankerChoice,
    /// `--job-workers`, `--job-queue-depth`, `--job-result-ttl-ms`.
    jobs: JobsConfig,
    /// `--explain-cache-entries`.
    cache: ExplainCacheConfig,
    /// `--max-connections`.
    server: ServerOptions,
    /// `--router --workers A,B`: route over these workers instead of
    /// serving a corpus.
    workers: Option<Vec<SocketAddr>>,
    /// `--partitions`, `--fanout-deadline-ms`.
    router: RouterConfig,
}

impl Default for Boot {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8091".to_string(),
            corpus: None,
            extra_corpora: Vec::new(),
            ranker: RankerChoice::Bm25,
            jobs: JobsConfig::default(),
            cache: ExplainCacheConfig::default(),
            server: ServerOptions::default(),
            workers: None,
            router: RouterConfig::default(),
        }
    }
}

/// The next argument parsed as `T`, or the usage error `err`.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, err: &str) -> Result<T, String> {
    args.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| err.to_string())
}

/// [`value`] for a flag that must be at least 1.
fn positive<T: FromStr + PartialOrd + From<u8>>(
    args: &mut impl Iterator<Item = String>,
    err: &str,
) -> Result<T, String> {
    value(args, err).and_then(|v: T| (v >= T::from(1)).then_some(v).ok_or(err.to_string()))
}

/// Parse the flags (without the program name). `Ok(None)` asks for
/// [`HELP`]; `Err` is a usage error.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<Boot>, String> {
    let mut boot = Boot::default();
    let (mut router, mut workers) = (false, Vec::new());
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "--addr" => boot.addr = value(args, "--addr requires a value")?,
            "--router" => router = true,
            "--workers" => {
                let list: String =
                    value(args, "--workers requires a comma-separated address list")?;
                for part in list.split(',').filter(|p| !p.trim().is_empty()) {
                    let addr = part.trim().parse::<SocketAddr>();
                    workers.push(addr.map_err(|_| format!("--workers: invalid address {part:?}"))?);
                }
            }
            "--partitions" => {
                let err = "--partitions requires an integer (0 = one per worker)";
                boot.router.partitions = value(args, err)?;
            }
            "--fanout-deadline-ms" => {
                let err = "--fanout-deadline-ms requires an integer >= 1";
                boot.router.fanout_deadline_ms = positive(args, err)?;
            }
            "--corpus" => boot.corpus = Some(value(args, "--corpus requires a value")?),
            "--extra-corpus" => {
                let err = "--extra-corpus requires NAME=FILE.jsonl|FILE.tsv";
                let spec: String = value(args, err)?;
                match spec.split_once('=') {
                    Some(("default", _)) => {
                        return Err(
                            "--extra-corpus: the name 'default' is reserved for --corpus".into(),
                        )
                    }
                    Some((name, file)) if !name.is_empty() && !file.is_empty() => boot
                        .extra_corpora
                        .push((name.to_string(), file.to_string())),
                    _ => return Err(err.to_string()),
                }
            }
            "--ranker" => {
                let name = args.next().unwrap_or_default();
                boot.ranker = RankerChoice::parse(&name)
                    .ok_or("--ranker must be bm25 | ql | ql-jm | rm3 | neural")?;
            }
            "--job-workers" => {
                boot.jobs.workers = positive(args, "--job-workers requires an integer >= 1")?
            }
            "--job-queue-depth" => {
                boot.jobs.queue_depth =
                    positive(args, "--job-queue-depth requires an integer >= 1")?
            }
            "--job-result-ttl-ms" => {
                boot.jobs.result_ttl_ms = value(args, "--job-result-ttl-ms requires an integer")?
            }
            "--explain-cache-entries" => {
                let err = "--explain-cache-entries requires an integer (0 = disable)";
                boot.cache.entries = value(args, err)?;
            }
            "--max-connections" => {
                let err = "--max-connections requires an integer >= 1";
                boot.server.max_connections = positive(args, err)?;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if router {
        if workers.is_empty() {
            return Err("--router requires --workers with at least one address".into());
        }
        boot.workers = Some(workers);
    }
    Ok(Some(boot))
}

/// The documents of a `.jsonl` or `.tsv` corpus file, or of the built-in
/// demo corpus when `path` is `None`.
pub fn load_docs(path: Option<&str>) -> Result<Vec<Document>, LoadError> {
    match path {
        None => Ok(covid_demo_corpus().docs),
        Some(p) if p.ends_with(".tsv") => load_tsv(Path::new(p)),
        Some(p) => load_jsonl(Path::new(p)),
    }
}

/// Build what `boot` asks for and serve it until the server stops: a
/// router over its workers, or the default corpus plus every extra corpus
/// with request logging on.
fn serve(boot: Boot) -> Result<(), String> {
    let addr = boot.addr.as_str();
    if let Some(workers) = boot.workers {
        let state = RouterState::leak(workers, boot.router);
        let server = Server::bind_with(addr, state, boot.server)
            .map_err(|e| format!("failed to bind {addr}: {e}"))?;
        eprintln!(
            "credence-serve router listening on http://{addr} ({} partitions)",
            state.partitions()
        );
        return server.run().map_err(|e| format!("server error: {e}"));
    }
    let corpus = boot.corpus.as_deref();
    let docs = load_docs(corpus)
        .map_err(|e| format!("failed to load corpus {}: {e}", corpus.unwrap_or_default()))?;
    eprintln!("indexing {} documents...", docs.len());
    let state = AppState::leak_full(
        docs,
        EngineConfig::default(),
        boot.ranker,
        boot.jobs,
        boot.cache,
    );
    for (name, file) in &boot.extra_corpora {
        let docs = load_docs(Some(file))
            .map_err(|e| format!("failed to load extra corpus {file}: {e}"))?;
        eprintln!(
            "indexing extra corpus '{name}' ({} documents)...",
            docs.len()
        );
        state.registry().register(name, docs);
    }
    state.enable_request_logging();
    let server = Server::bind_with(addr, state, boot.server)
        .map_err(|e| format!("failed to bind {addr}: {e}"))?;
    eprintln!("credence-serve listening on http://{addr}");
    eprintln!("try: curl -s http://{addr}/api/v1/health");
    server.run().map_err(|e| format!("server error: {e}"))
}

/// The whole of `credence-serve` on `args` (without the program name):
/// print the help text, report a usage or start-up error, or serve.
pub fn main(args: impl IntoIterator<Item = String>) -> ExitCode {
    let outcome = match parse(args) {
        Ok(None) => {
            println!("{HELP}");
            return ExitCode::SUCCESS;
        }
        Ok(Some(boot)) => serve(boot),
        Err(msg) => Err(format!("error: {msg}\nrun with --help for usage")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Option<Boot>, String> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn one_flag_list_sets_every_layer() {
        let boot = parse_line(
            "--addr 127.0.0.1:9 --corpus c.tsv --extra-corpus x=x.jsonl --ranker ql \
             --job-workers 4 --job-queue-depth 9 --job-result-ttl-ms 50 \
             --explain-cache-entries 0 --max-connections 12",
        )
        .unwrap()
        .unwrap();
        assert_eq!(boot.addr, "127.0.0.1:9");
        assert_eq!(boot.corpus.as_deref(), Some("c.tsv"));
        assert_eq!(
            boot.extra_corpora,
            vec![("x".to_string(), "x.jsonl".to_string())]
        );
        assert_eq!(boot.ranker, RankerChoice::QlDirichlet);
        assert_eq!(
            (
                boot.jobs.workers,
                boot.jobs.queue_depth,
                boot.jobs.result_ttl_ms
            ),
            (4, 9, 50)
        );
        assert_eq!(boot.cache.entries, 0);
        assert_eq!(boot.server.max_connections, 12);
        assert!(boot.workers.is_none());
    }

    #[test]
    fn router_flags_parse_and_defaults_hold() {
        let boot = parse_line(
            "--router --workers 127.0.0.1:1,127.0.0.1:2 --partitions 8 --fanout-deadline-ms 5",
        )
        .unwrap()
        .unwrap();
        assert_eq!(boot.workers.map(|w| w.len()), Some(2));
        assert_eq!(
            (boot.router.partitions, boot.router.fanout_deadline_ms),
            (8, 5)
        );
        let plain = parse_line("").unwrap().unwrap();
        assert_eq!(plain.addr, "127.0.0.1:8091");
        assert_eq!(plain.ranker, RankerChoice::Bm25);
        assert!(parse_line("--addr x --help").unwrap().is_none());
    }

    #[test]
    fn bad_flags_are_usage_errors() {
        for line in [
            "--ranker zebra",
            "--ranker",
            "--job-workers 0",
            "--max-connections 0",
            "--fanout-deadline-ms 0",
            "--eval-threads many",
            "--eval-threads 2",
            "--eval-parallel-threshold 1",
            "--eval-exact",
            "--router",
            "--workers 127.0.0.1:1,nope",
            "--extra-corpus default=x.jsonl",
            "--extra-corpus x",
            "--frobnicate",
        ] {
            assert!(parse_line(line).is_err(), "{line}");
        }
    }
}
