//! Subcommand implementations.
//!
//! Each command returns its report as a `String` so the test suite can
//! assert on output without capturing stdout. The corpus defaults to the
//! built-in COVID-19 Articles demo; `--corpus file.{jsonl,tsv}` loads an
//! external collection.

use std::fmt::Write as _;
use std::path::Path;

use credence_core::{
    explain_saliency, test_edits, Budget, CredenceEngine, Edit, EngineConfig, SaliencyUnit,
};
use credence_corpus::{covid_demo_corpus, load_jsonl, load_tsv, save_jsonl, save_tsv};
use credence_corpus::{SynthConfig, SyntheticCorpus};
use credence_index::{DocId, Document, InvertedIndex};
use credence_json::{obj, Value};
use credence_server::explainers::{Explainer, EXPLAINERS};
use credence_server::requests::{ExplainRequest, DEFAULT_CORPUS};
use credence_server::RankerChoice;
use credence_text::{find_collocations, Analyzer, PhraseConfig};

use crate::args::{Args, CliError};

/// Top-level usage text.
pub const USAGE: &str = "\
credence — counterfactual explanations for document ranking (CREDENCE, ICDE 2023)

USAGE: credence <command> [options]

COMMANDS
  rank      --query Q --k K [--corpus F]              rank the corpus
            every command accepts --ranker bm25|ql|ql-jm|rm3|neural (default bm25)
  explain   --type T --query Q --k K --doc ID         generate explanations
            [--n N] [--threshold T] [--samples S] [--corpus F]
            [--deadline-ms MS] [--max-evals N] [--cancel-after-ms MS]
            budget the counterfactual search: stop at the next batch
            boundary once the wall-clock deadline, the evaluation cap, or
            the cancel timer is hit and report the partial best-so-far
            result
            types: sentence-removal | query-augmentation | query-reduction |
                   doc2vec-nearest | cosine-sampled | term-removal | saliency |
                   feature-attribution
            the type may also be given as a subcommand, e.g.
            `credence explain feature-attribution --query Q --doc ID`
            sentence-removal, query-augmentation, query-reduction,
            term-removal and feature-attribution print the same JSON
            payload as their REST endpoint, with the same defaults
            [--samples S] [--seed S] [--top-m M] [--lambda L] tune the
            Rank-LIME surrogate
  builder   --query Q --k K --doc ID                  test your own edits
            [--replace from=to]* [--remove term]* [--corpus F]
  topics    --query Q --k K [--topics N] [--corpus F] browse LDA topics
  analyze   [--corpus F]                              corpus statistics
  generate  --docs N --out FILE [--topics T] [--seed S] [--tsv]
                                                      synthetic corpus
  serve     [--addr HOST:PORT] [--corpus F]           REST API server
            [--extra-corpus NAME=FILE ...]            extra named corpora
            [--router --workers A:P,B:P [--partitions N]
             [--fanout-deadline-ms MS]]               scatter-gather router
  help                                                this text
";

/// Run a parsed command, returning its report.
pub fn run(args: &Args) -> Result<String, CliError> {
    if !args.subcommand.is_empty() && args.command != "explain" {
        return Err(CliError::new(format!(
            "unexpected argument: {}",
            args.subcommand
        )));
    }
    match args.command.as_str() {
        "rank" => rank(args),
        "explain" => explain(args),
        "builder" => builder(args),
        "topics" => topics(args),
        "analyze" => analyze(args),
        "generate" => generate(args),
        "serve" => serve(args),
        "help" | "" => Ok(USAGE.to_string()),
        other => Err(CliError::new(format!(
            "unknown command {other:?}; run `credence help`"
        ))),
    }
}

fn load_corpus(args: &Args) -> Result<Vec<Document>, CliError> {
    match args.get("corpus") {
        None => Ok(covid_demo_corpus().docs),
        Some(path) => {
            let p = Path::new(path);
            let loaded = if path.ends_with(".tsv") {
                load_tsv(p)
            } else {
                load_jsonl(p)
            };
            loaded.map_err(CliError::new)
        }
    }
}

fn with_engine<T>(
    args: &Args,
    f: impl FnOnce(&CredenceEngine<'_>, &InvertedIndex) -> Result<T, CliError>,
) -> Result<T, CliError> {
    let docs = load_corpus(args)?;
    let name = args.get("ranker").unwrap_or("bm25");
    let choice = RankerChoice::parse(name).ok_or_else(|| {
        CliError::new(format!(
            "unknown --ranker {name:?}; use bm25 | ql | ql-jm | rm3 | neural"
        ))
    })?;
    let index = InvertedIndex::build(docs, Analyzer::english());
    let ranker = choice.build(&index);
    let engine = CredenceEngine::new(ranker.as_ref(), EngineConfig::fast());
    f(&engine, &index)
}

fn doc_id(args: &Args) -> Result<DocId, CliError> {
    Ok(DocId(args.require_usize("doc")? as u32))
}

/// Install the `--cancel-after-ms` timer on `budget`: the same cooperative
/// cancel flag `DELETE /api/v1/jobs` raises on the server. With 0 the flag
/// is raised inline — deterministic, no timer race.
fn cancel_after(args: &Args, budget: &mut Budget) -> Result<(), CliError> {
    if args.get("cancel-after-ms").is_none() {
        return Ok(());
    }
    let ms = args.require_usize("cancel-after-ms")? as u64;
    let flag = budget.ensure_cancel();
    if ms == 0 {
        flag.store(true, std::sync::atomic::Ordering::Relaxed);
    } else {
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            flag.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }
    Ok(())
}

fn rank(args: &Args) -> Result<String, CliError> {
    let query = args.require("query")?.to_string();
    let k = args.get_usize("k", 10)?;
    with_engine(args, |engine, _| {
        let mut out = String::new();
        writeln!(out, "ranking for {query:?} (k = {k})").unwrap();
        for row in engine.rank(&query, k) {
            writeln!(
                out,
                "{:>3}. doc {:>4}  {:<24} {:<40} score {:.3}",
                row.rank,
                row.doc,
                row.name,
                truncate(&row.title, 40),
                row.score
            )
            .unwrap();
        }
        Ok(out)
    })
}

fn explain(args: &Args) -> Result<String, CliError> {
    let kind = if args.subcommand.is_empty() {
        args.require("type")?.to_string()
    } else {
        args.subcommand.clone()
    };
    if let Some(family) = EXPLAINERS.iter().find(|f| f.name.replace('_', "-") == kind) {
        return explain_family(args, family);
    }
    let query = args.require("query")?.to_string();
    let k = args.get_usize("k", 10)?;
    let doc = doc_id(args)?;
    let n = args.get_usize("n", 1)?;
    let samples = args.get_usize("samples", 100)?;

    with_engine(args, |engine, index| {
        let mut out = String::new();
        let instances = match kind.as_str() {
            "doc2vec-nearest" => engine.doc2vec_nearest(&query, k, doc, n),
            "cosine-sampled" => engine.cosine_sampled(&query, k, doc, n, Some(samples)),
            "saliency" => {
                let result = explain_saliency(engine.ranker(), &query, doc, SaliencyUnit::Sentence)
                    .map_err(CliError::new)?;
                writeln!(out, "base score {:.3}", result.base_score).unwrap();
                for w in result.weights.iter().take(n.max(5)) {
                    writeln!(out, "  {:+.3}  {}", w.weight, truncate(&w.unit, 70)).unwrap();
                }
                return Ok(out);
            }
            other => return Err(CliError::new(format!("unknown explanation type {other:?}"))),
        };
        for e in &instances.map_err(CliError::new)? {
            let d = index.document(e.doc).expect("instance exists");
            writeln!(
                out,
                "instance doc {} ({}) similarity {:.2} rank {:?}",
                e.doc, d.name, e.similarity, e.rank
            )
            .unwrap();
        }
        Ok(out)
    })
}

/// `explain` for a registered family: build the request body from the
/// flags the family reads — `--query`, `--k` (default 10), `--doc`, its own
/// fields (`--top-m` is `top_m`), `--deadline-ms` and `--max-evals`; other
/// flags are ignored — run it on the local engine and print the family's
/// REST payload for corpus `default` at generation 0. The request is
/// parsed before indexing, so indexing time counts against a deadline.
fn explain_family(args: &Args, family: &'static Explainer) -> Result<String, CliError> {
    let mut body = vec![
        ("query", Value::from(args.require("query")?)),
        ("k", Value::from(args.get_usize("k", 10)?)),
        ("doc", Value::from(args.require_usize("doc")?)),
    ];
    for field in family
        .own_fields()
        .into_iter()
        .chain(["deadline_ms", "max_evals"])
    {
        if let Some(text) = args.get(&field.replace('_', "-")) {
            let value = text
                .parse::<f64>()
                .map_or_else(|_| Value::from(text), Value::from);
            body.push((field, value));
        }
    }
    let mut request = ExplainRequest::parse(family, &obj(body)).map_err(|errors| {
        let messages: Vec<String> = errors
            .iter()
            .map(|e| format!("--{} {}", e.field.replace('_', "-"), e.message))
            .collect();
        CliError::new(messages.join("; "))
    })?;
    cancel_after(args, &mut request.controls.lifecycle)?;
    with_engine(args, |engine, _| {
        let payload = request.explain(engine, None).map_err(CliError::new)?;
        Ok(payload.into_json(DEFAULT_CORPUS, 0) + "\n")
    })
}

fn builder(args: &Args) -> Result<String, CliError> {
    let query = args.require("query")?.to_string();
    let k = args.get_usize("k", 10)?;
    let doc = doc_id(args)?;
    let mut edits = Vec::new();
    for spec in args.get_all("replace") {
        let (from, to) = spec
            .split_once('=')
            .ok_or_else(|| CliError::new(format!("--replace expects from=to, got {spec:?}")))?;
        edits.push(Edit::replace(from, to));
    }
    for term in args.get_all("remove") {
        edits.push(Edit::remove(term.as_str()));
    }
    if edits.is_empty() {
        return Err(CliError::new(
            "builder needs at least one --replace or --remove",
        ));
    }
    with_engine(args, |engine, index| {
        let outcome = test_edits(engine.ranker(), &query, k, doc, &edits).map_err(CliError::new)?;
        let mut out = String::new();
        writeln!(
            out,
            "{} rank {} -> {} (k = {k})",
            if outcome.valid {
                "VALID counterfactual:"
            } else {
                "not a counterfactual:"
            },
            outcome.old_rank,
            outcome.new_rank
        )
        .unwrap();
        for row in &outcome.rows {
            let d = index.document(row.doc).expect("pool doc exists");
            writeln!(
                out,
                "{:>3}. {} doc {:>3} {}{}",
                row.new_rank,
                match row.movement() {
                    m if m < 0 => "up  ",
                    m if m > 0 => "down",
                    _ => "same",
                },
                row.doc,
                d.name,
                if row.substituted { "  [edited]" } else { "" }
            )
            .unwrap();
        }
        Ok(out)
    })
}

fn topics(args: &Args) -> Result<String, CliError> {
    let query = args.require("query")?.to_string();
    let k = args.get_usize("k", 10)?;
    let num_topics = args.get_usize("topics", 3)?;
    with_engine(args, |engine, _| {
        let topics = engine
            .topics(&query, k, num_topics)
            .map_err(CliError::new)?;
        let mut out = String::new();
        for t in &topics {
            let terms: Vec<&str> = t.terms.iter().map(|(s, _)| s.as_str()).collect();
            writeln!(
                out,
                "topic {} (weight {:.2}): {}",
                t.topic,
                t.weight,
                terms.join(", ")
            )
            .unwrap();
        }
        Ok(out)
    })
}

fn analyze(args: &Args) -> Result<String, CliError> {
    let docs = load_corpus(args)?;
    let index = InvertedIndex::build(docs, Analyzer::english());
    let stats = index.stats();
    let mut out = String::new();
    writeln!(out, "documents:      {}", stats.num_docs).unwrap();
    writeln!(out, "distinct terms: {}", index.vocabulary().len()).unwrap();
    writeln!(out, "total terms:    {}", stats.total_terms).unwrap();
    writeln!(out, "avg doc length: {:.1}", stats.avg_doc_len()).unwrap();

    // Highest-df terms.
    let mut by_df: Vec<(u32, &str)> = index
        .vocabulary()
        .iter()
        .map(|(tid, term)| (stats.df(tid), term))
        .collect();
    by_df.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));
    let common: Vec<String> = by_df
        .iter()
        .take(10)
        .map(|(df, t)| format!("{t}({df})"))
        .collect();
    writeln!(out, "most common:    {}", common.join(" ")).unwrap();

    // Collocations over sentence token sequences (surface forms).
    let matching = Analyzer::matching();
    let mut sequences = Vec::new();
    for doc in index.documents() {
        for sentence in credence_text::split_sentences(&doc.body) {
            sequences.push(matching.analyze(&sentence.text));
        }
    }
    let collocations = find_collocations(&sequences, &PhraseConfig::default());
    let top: Vec<String> = collocations
        .iter()
        .filter(|c| !credence_text::is_stopword(&c.a) && !credence_text::is_stopword(&c.b))
        .take(8)
        .map(|c| format!("{} {}({})", c.a, c.b, c.count))
        .collect();
    writeln!(out, "collocations:   {}", top.join(" · ")).unwrap();
    Ok(out)
}

fn generate(args: &Args) -> Result<String, CliError> {
    let num_docs = args.require_usize("docs")?;
    let out_path = args.require("out")?.to_string();
    let topics = args.get_usize("topics", 8)?;
    let seed = args.get_usize("seed", 42)? as u64;
    let corpus = SyntheticCorpus::generate(SynthConfig {
        num_docs,
        num_topics: topics.max(1),
        seed,
        ..SynthConfig::default()
    });
    let path = Path::new(&out_path);
    if args.has("tsv") || out_path.ends_with(".tsv") {
        save_tsv(path, &corpus.docs).map_err(CliError::new)?;
    } else {
        save_jsonl(path, &corpus.docs).map_err(CliError::new)?;
    }
    Ok(format!(
        "wrote {} synthetic documents ({} topics, seed {seed}) to {out_path}\n",
        corpus.docs.len(),
        topics
    ))
}

fn serve(args: &Args) -> Result<String, CliError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:8091").to_string();
    if args.has("router") {
        let mut workers = Vec::new();
        for part in args
            .require("workers")
            .map_err(|_| CliError::new("--router requires --workers A:P,B:P,..."))?
            .split(',')
            .filter(|p| !p.trim().is_empty())
        {
            workers.push(
                part.trim()
                    .parse()
                    .map_err(|_| CliError::new(format!("--workers: invalid address {part:?}")))?,
            );
        }
        if workers.is_empty() {
            return Err(CliError::new("--workers needs at least one address"));
        }
        let config = credence_server::RouterConfig {
            partitions: args.get_usize("partitions", 0)? as u32,
            fanout_deadline_ms: args.get_usize("fanout-deadline-ms", 2000)? as u64,
        };
        let state = credence_server::RouterState::leak(workers, config);
        let server = credence_server::Server::bind(addr.as_str(), state).map_err(CliError::new)?;
        eprintln!(
            "credence router listening on http://{addr} ({} partitions)",
            state.partitions()
        );
        server.run().map_err(CliError::new)?;
        return Ok(String::new());
    }
    let docs = load_corpus(args)?;
    let state = credence_server::AppState::leak(docs, EngineConfig::default());
    for spec in args.get_all("extra-corpus") {
        let Some((name, file)) = spec
            .split_once('=')
            .filter(|(n, f)| !n.is_empty() && !f.is_empty())
        else {
            return Err(CliError::new(
                "--extra-corpus requires NAME=FILE.jsonl|FILE.tsv",
            ));
        };
        if name == "default" {
            return Err(CliError::new(
                "--extra-corpus: the name 'default' is reserved for --corpus",
            ));
        }
        let path = Path::new(file);
        let extra = if file.ends_with(".tsv") {
            load_tsv(path)
        } else {
            load_jsonl(path)
        }
        .map_err(CliError::new)?;
        eprintln!(
            "indexing extra corpus '{name}' ({} documents)...",
            extra.len()
        );
        state.register_corpus(name, extra);
    }
    let server = credence_server::Server::bind(addr.as_str(), state).map_err(CliError::new)?;
    eprintln!("credence listening on http://{addr}");
    server.run().map_err(CliError::new)?;
    Ok(String::new())
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<String, CliError> {
        let args = Args::parse(line.split_whitespace().map(str::to_string)).unwrap();
        run(&args)
    }

    fn json(out: &str) -> Value {
        credence_json::parse(out).unwrap_or_else(|e| panic!("{e}: {out}"))
    }

    #[test]
    fn help_and_unknown() {
        assert!(run_line("help").unwrap().contains("USAGE"));
        assert!(run_line("").unwrap().contains("USAGE"));
        assert!(run_line("frobnicate").is_err());
    }

    #[test]
    fn rank_over_demo_corpus() {
        let out = run_line("rank --query covid_outbreak --k 3");
        // underscores aren't in the corpus; use a real query
        assert!(out.is_ok());
        let out = run_line("rank --query covid --k 3").unwrap();
        assert!(out.contains("ranking for"));
        assert!(out.lines().count() >= 4, "{out}");
    }

    #[test]
    fn explain_sentence_removal_on_fake_news() {
        let demo = covid_demo_corpus();
        let out = run_line(&format!(
            "explain --type sentence-removal --query covid --k 10 --doc {}",
            demo.fake_news
        ));
        // "covid" alone may rank the doc differently; use the demo query.
        let _ = out;
        let out = run_line(&format!(
            "explain --type sentence-removal --query covid --k 12 --doc {}",
            demo.fake_news
        ));
        let _ = out;
        let args = Args::parse(
            [
                "explain",
                "--type",
                "sentence-removal",
                "--query",
                "covid outbreak",
                "--k",
                "10",
                "--doc",
                &demo.fake_news.to_string(),
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let out = json(&run(&args).unwrap());
        assert_eq!(out.get("old_rank").unwrap().as_u64(), Some(3), "{out:?}");
        let explanations = out.get("explanations").unwrap().as_array().unwrap();
        assert_eq!(
            explanations[0].get("new_rank").unwrap().as_u64(),
            Some(11),
            "{out:?}"
        );
    }

    #[test]
    fn explain_all_types_run() {
        let demo = covid_demo_corpus();
        for kind in [
            "query-augmentation",
            "query-reduction",
            "doc2vec-nearest",
            "cosine-sampled",
            "term-removal",
            "saliency",
            "feature-attribution",
        ] {
            let args = Args::parse(
                [
                    "explain",
                    "--type",
                    kind,
                    "--query",
                    "covid outbreak",
                    "--k",
                    "10",
                    "--doc",
                    &demo.fake_news.to_string(),
                    "--threshold",
                    "2",
                    "--n",
                    "2",
                ]
                .iter()
                .map(|s| s.to_string()),
            )
            .unwrap();
            let out = run(&args).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(!out.is_empty(), "{kind} produced no output");
        }
    }

    #[test]
    fn feature_attribution_cli_matches_rest_payload() {
        let demo = covid_demo_corpus();
        let args = Args::parse(
            [
                "explain",
                "feature-attribution",
                "--query",
                "covid outbreak",
                "--k",
                "10",
                "--doc",
                &demo.fake_news.to_string(),
                "--samples",
                "64",
                "--seed",
                "7",
                "--top-m",
                "5",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let cli = run(&args).unwrap();
        assert!(cli.contains("\"attributions\""), "{cli}");

        let state = credence_server::AppState::leak(covid_demo_corpus().docs, EngineConfig::fast());
        let body = format!(
            "{{\"query\": \"covid outbreak\", \"k\": 10, \"doc\": {}, \"samples\": 64, \"seed\": 7, \"top_m\": 5}}",
            demo.fake_news
        );
        let req = credence_server::http::Request {
            method: "POST".into(),
            path: "/api/v1/explain/feature_attribution".into(),
            headers: Default::default(),
            body: body.into_bytes(),
        };
        let resp = credence_server::handle_request(state, &req);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        assert_eq!(
            cli.trim_end(),
            String::from_utf8_lossy(&resp.body),
            "CLI payload must be byte-identical to the REST endpoint"
        );
    }

    #[test]
    fn every_family_prints_its_rest_payload() {
        let demo = covid_demo_corpus();
        let state = credence_server::AppState::leak(covid_demo_corpus().docs, EngineConfig::fast());
        for family in EXPLAINERS {
            let kind = family.name.replace('_', "-");
            // A family's own flags reach its request; the others' are ignored.
            let doc = demo.fake_news.to_string();
            let tokens = [
                "explain",
                &kind,
                "--query",
                "covid outbreak",
                "--k",
                "10",
                "--doc",
                &doc,
                "--n",
                "2",
                "--threshold",
                "2",
                "--samples",
                "48",
                "--seed",
                "5",
                "--top-m",
                "4",
                "--lambda",
                "0.5",
                "--max-evals",
                "400",
            ];
            let args = Args::parse(tokens.iter().map(|s| s.to_string())).unwrap();
            let cli = run(&args).unwrap_or_else(|e| panic!("{kind}: {e}"));

            let own: String = family
                .own_fields()
                .iter()
                .map(|field| {
                    let value = match *field {
                        "n" | "threshold" => "2",
                        "samples" => "48",
                        "seed" => "5",
                        "top_m" => "4",
                        "lambda" => "0.5",
                        other => panic!("no flag value for {other}"),
                    };
                    format!(", \"{field}\": {value}")
                })
                .collect();
            let body = format!(
                "{{\"query\": \"covid outbreak\", \"k\": 10, \"doc\": {}, \"max_evals\": 400{own}}}",
                demo.fake_news
            );
            let req = credence_server::http::Request {
                method: "POST".into(),
                path: format!("/api/v1/explain/{}", family.name),
                headers: Default::default(),
                body: body.into_bytes(),
            };
            let resp = credence_server::handle_request(state, &req);
            assert_eq!(
                resp.status,
                200,
                "{kind}: {}",
                String::from_utf8_lossy(&resp.body)
            );
            assert_eq!(
                cli.trim_end(),
                String::from_utf8_lossy(&resp.body),
                "{kind}: CLI payload must be byte-identical to the REST endpoint"
            );
        }
    }

    #[test]
    fn budget_flags_cap_the_search() {
        let demo = covid_demo_corpus();
        let args = Args::parse(
            [
                "explain",
                "--type",
                "sentence-removal",
                "--query",
                "covid outbreak",
                "--k",
                "10",
                "--doc",
                &demo.fake_news.to_string(),
                "--n",
                "5",
                "--max-evals",
                "1",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let out = json(&run(&args).unwrap());
        assert_eq!(out.get("status").unwrap().as_str(), Some("exhausted"));
        assert_eq!(out.get("candidates_evaluated").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn expired_deadline_reports_a_partial_result() {
        let demo = covid_demo_corpus();
        let args = Args::parse(
            [
                "explain",
                "--type",
                "term-removal",
                "--query",
                "covid outbreak",
                "--k",
                "10",
                "--doc",
                &demo.fake_news.to_string(),
                "--deadline-ms",
                "0",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let out = json(&run(&args).unwrap());
        assert_eq!(out.get("status").unwrap().as_str(), Some("deadline"));
    }

    #[test]
    fn pre_raised_cancel_flag_reports_a_cancelled_partial_result() {
        let demo = covid_demo_corpus();
        let args = Args::parse(
            [
                "explain",
                "--type",
                "term-removal",
                "--query",
                "covid outbreak",
                "--k",
                "10",
                "--doc",
                &demo.fake_news.to_string(),
                "--cancel-after-ms",
                "0",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let out = json(&run(&args).unwrap());
        assert_eq!(out.get("status").unwrap().as_str(), Some("cancelled"));
    }

    #[test]
    fn budget_flags_validate() {
        let err = run_line(
            "explain --type sentence-removal --query covid --k 3 --doc 0 --max-evals pony",
        )
        .unwrap_err();
        assert!(err.to_string().contains("--max-evals"), "{err}");
        let err = run_line(
            "explain --type sentence-removal --query covid --k 3 --doc 0 --cancel-after-ms soon",
        )
        .unwrap_err();
        assert!(err.to_string().contains("--cancel-after-ms"), "{err}");
    }

    #[test]
    fn family_flags_validate_through_the_rest_parser() {
        let err = run_line("explain feature-attribution --query covid --k 3 --doc 0 --lambda pony")
            .unwrap_err();
        assert!(err.to_string().contains("--lambda"), "{err}");
    }

    #[test]
    fn ranker_flag_switches_models() {
        let out = run_line("rank --query covid --k 3 --ranker ql").unwrap();
        assert!(out.contains("ranking for"));
        let out = run_line("rank --query covid --k 3 --ranker rm3").unwrap();
        assert!(out.contains("ranking for"));
        let err = run_line("rank --query covid --k 3 --ranker zebra").unwrap_err();
        assert!(err.to_string().contains("unknown --ranker"));
    }

    #[test]
    fn builder_with_edits() {
        let demo = covid_demo_corpus();
        let args = Args::parse(
            [
                "builder",
                "--query",
                "covid outbreak",
                "--k",
                "10",
                "--doc",
                &demo.fake_news.to_string(),
                "--replace",
                "covid=flu",
                "--remove",
                "outbreak",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("VALID counterfactual"), "{out}");
        assert!(out.contains("[edited]"));
    }

    #[test]
    fn builder_requires_edits() {
        let demo = covid_demo_corpus();
        let err = run_line(&format!(
            "builder --query covid --k 10 --doc {}",
            demo.fake_news
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--replace"));
    }

    #[test]
    fn analyze_reports_statistics() {
        let out = run_line("analyze").unwrap();
        assert!(out.contains("documents:"));
        assert!(out.contains("distinct terms:"));
        assert!(out.contains("collocations:"));
    }

    #[test]
    fn generate_writes_corpus_files() {
        let dir = std::env::temp_dir().join("credence_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("synth.jsonl");
        let out = run_line(&format!("generate --docs 12 --out {}", jsonl.display())).unwrap();
        assert!(out.contains("12 synthetic documents"));
        let docs = load_jsonl(&jsonl).unwrap();
        assert_eq!(docs.len(), 12);

        let tsv = dir.join("synth.tsv");
        run_line(&format!("generate --docs 5 --out {}", tsv.display())).unwrap();
        assert_eq!(load_tsv(&tsv).unwrap().len(), 5);

        // The generated corpus round-trips through rank.
        let args = Args::parse(
            [
                "rank",
                "--query",
                "topic0word0 topic0word1",
                "--k",
                "3",
                "--corpus",
                &jsonl.display().to_string(),
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let ranked = run(&args).unwrap();
        assert!(ranked.contains("1."), "{ranked}");
    }

    #[test]
    fn missing_corpus_file_errors() {
        let err = run_line("rank --query covid --k 3 --corpus /no/such.jsonl").unwrap_err();
        assert!(err.to_string().contains("I/O"), "{err}");
    }

    #[test]
    fn truncate_helper() {
        assert_eq!(truncate("short", 10), "short");
        let t = truncate("a very long string indeed", 10);
        assert!(t.chars().count() <= 10);
        assert!(t.ends_with('…'));
    }
}
