//! End-to-end and per-layer benchmark of the `credence-serve` REST server.
//!
//! ```text
//! perfbench --workload rank|explain|ingest --seed N --seconds S --trace 0|1 \
//!           --server PATH/credence-serve --out DIR
//! ```
//!
//! One run: generate the workload from the seed; answer every generated
//! request in process (the dry run, traced with `--trace 1`); boot
//! `credence-serve` three times for its set-up time; drive a warm-up prefix
//! and then the measured window over HTTP on one connection (`ingest` adds a
//! second for its writes); check every answer; print a summary and, last,
//! one JSON line with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).
//! See README.md beside this file.

mod answers;
mod client;
mod inproc;
mod metrics;
mod process;
mod trace;
mod window;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use workload::Kind;

pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub server: PathBuf,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or("--workload: rank | explain | ingest")?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds: an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".into()),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        server: server.ok_or("--server is required")?,
        out: out.ok_or("--out is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A fixed CPU task (FNV over 4 MiB), median of five timings in ms; run at
/// the start and end of every run so a spread can be traced to the host.
fn calibrate() -> f64 {
    let buf: Vec<u8> = (0..256 * 1024)
        .map(|i: u32| (i.wrapping_mul(31) % 251) as u8)
        .collect();
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut h = 0;
            for _ in 0..16 {
                h ^= answers::fnv(std::hint::black_box(&buf));
            }
            std::hint::black_box(h);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    trace::p50(&times)
}

fn run(args: &Args) -> Result<String, String> {
    let began = Instant::now();
    let mut phases = Vec::new();
    let mut phase = |name: &'static str| phases.push((name, began.elapsed().as_secs_f64()));
    let calib_start = calibrate();
    let wl = workload::Workload::generate(args.kind, args.seed, args.seconds as usize);
    phase("generate");
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = format!("{}-{}", args.kind.name(), args.seed);
    let corpus_file = args.out.join(format!("corpus-{stem}.jsonl"));
    credence_corpus::save_jsonl(&corpus_file, &wl.docs)
        .map_err(|e| format!("writing the corpus: {e}"))?;

    // The dry run answers every generated request before anything is timed;
    // with --trace 1 it is the traced replay.
    let state = inproc::app_state(wl.docs.clone());
    phase("in-process state");
    let (dry, traced) = if args.trace {
        let (dry, traced) = inproc::traced_replay(state, &wl, &wl.layer_probe);
        (dry, Some(traced))
    } else {
        (inproc::dry_run(state, &wl), None)
    };
    inproc::stop(state);
    phase("dry run");

    // Set-up: three boots, the last one serves the run.
    let mut setups = Vec::new();
    let mut boot_rss = Vec::new();
    let mut server = None;
    for _ in 0..3 {
        let ticks = process::machine_ticks();
        let (s, took) = process::Server::boot(&args.server, &corpus_file)
            .map_err(|e| format!("booting {}: {e}", args.server.display()))?;
        setups.push((
            took.as_secs_f64(),
            process::stolen(ticks, process::machine_ticks()),
        ));
        boot_rss.push(s.peak_rss_mib().map_err(|e| e.to_string())?);
        server = Some(s);
    }
    let server = server.expect("booted three times");
    phase("boots");
    let measured = window::drive(&wl, &server, &dry, Duration::from_secs(args.seconds))?;
    let calib_end = calibrate();
    drop(server);
    phase("http");

    let report = metrics::Report {
        args,
        wl: &wl,
        dry: &dry,
        traced: traced.as_ref(),
        measured: &measured,
        setups: &setups,
        boot_rss: &boot_rss,
        calib: (calib_start, calib_end),
        phases: &phases,
    };
    if let Some(t) = &traced {
        let spans = args.out.join(format!("spans-{stem}.json"));
        std::fs::write(&spans, t.tracer.to_json())
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        println!("spans: {}", spans.display());
    }
    Ok(report.render())
}
