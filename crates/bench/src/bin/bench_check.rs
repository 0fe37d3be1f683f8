//! `bench_check`: a throughput-regression gate over the harness's
//! `BENCH_<target>.json` trajectory files.
//!
//! Modes:
//!
//! - `bench_check` — compare the current `BENCH_*.json` records (from
//!   `CREDENCE_BENCH_DIR`, or the workspace's `target/credence-bench`)
//!   against the committed baseline and exit non-zero when any
//!   throughput benchmark regressed by more than the allowed factor.
//! - `bench_check update` — regenerate the baseline from the current
//!   records (commit the result after an intentional perf change).
//!
//! Only records that report `elements_per_sec` (candidate evaluations
//! per second) are gated: the evaluation count per iteration is fixed
//! and deterministic, so even smoke-mode runs give a stable signal,
//! unlike raw wall-clock medians of sub-millisecond benches.
//!
//! Environment:
//!
//! - `CREDENCE_BENCH_BASELINE` — baseline path (default
//!   `BENCH_baseline.json` in the current directory, i.e. the repo root
//!   when run via `ci.sh`).
//! - `CREDENCE_BENCH_REGRESSION_FACTOR` — allowed slowdown factor
//!   (default `2.0`: fail when current throughput is less than half the
//!   baseline).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use credence_json::{parse, to_string, Value};

/// Mirror of the harness's output-directory rule so the gate reads the
/// same files the benches just wrote.
fn bench_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CREDENCE_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    if let Ok(target) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(target).join("credence-bench");
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| ".".into());
    loop {
        if dir.join("Cargo.lock").is_file() {
            return dir.join("target").join("credence-bench");
        }
        if !dir.pop() {
            return PathBuf::from("target").join("credence-bench");
        }
    }
}

fn baseline_path() -> PathBuf {
    std::env::var("CREDENCE_BENCH_BASELINE")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("BENCH_baseline.json"))
}

fn regression_factor() -> f64 {
    std::env::var("CREDENCE_BENCH_REGRESSION_FACTOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|f: &f64| *f >= 1.0)
        .unwrap_or(2.0)
}

/// Read every `BENCH_*.json` in `dir` and collect the throughput
/// records: benchmark name → elements (evaluations) per second.
fn load_throughputs(dir: &std::path::Path) -> std::io::Result<BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(&path)?;
        let Ok(root) = parse(&text) else {
            eprintln!("bench_check: skipping unparseable {}", path.display());
            continue;
        };
        if root.get("schema").and_then(Value::as_str) != Some("credence-bench/1") {
            continue;
        }
        let Some(benches) = root.get("benchmarks").and_then(Value::as_array) else {
            continue;
        };
        for b in benches {
            let (Some(name), Some(eps)) = (
                b.get("name").and_then(Value::as_str),
                b.get("elements_per_sec").and_then(Value::as_f64),
            ) else {
                continue;
            };
            out.insert(name.to_string(), eps);
        }
    }
    Ok(out)
}

fn load_baseline(path: &std::path::Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let root = parse(&text).map_err(|e| format!("baseline {}: {e:?}", path.display()))?;
    if root.get("schema").and_then(Value::as_str) != Some("credence-bench-baseline/1") {
        return Err(format!(
            "baseline {} has the wrong schema tag",
            path.display()
        ));
    }
    let Some(benches) = root.get("benchmarks").and_then(Value::as_object) else {
        return Err("baseline is missing the 'benchmarks' object".into());
    };
    let mut out = BTreeMap::new();
    for (name, v) in benches {
        if let Some(eps) = v.get("elements_per_sec").and_then(Value::as_f64) {
            out.insert(name.clone(), eps);
        }
    }
    Ok(out)
}

fn write_baseline(path: &std::path::Path, current: &BTreeMap<String, f64>) -> std::io::Result<()> {
    let mut benches = BTreeMap::new();
    for (name, eps) in current {
        let mut m = BTreeMap::new();
        m.insert("elements_per_sec".to_string(), Value::Number(*eps));
        benches.insert(name.clone(), Value::Object(m));
    }
    let mut root = BTreeMap::new();
    root.insert(
        "schema".to_string(),
        Value::String("credence-bench-baseline/1".into()),
    );
    root.insert("benchmarks".to_string(), Value::Object(benches));
    std::fs::write(path, to_string(&Value::Object(root)))
}

/// Relative gates: `(fast, slow, min_ratio)` — the `fast` benchmark's
/// throughput must be at least `min_ratio` times the `slow` one's in the
/// *current* records. Unlike the baseline comparison these are absolute
/// claims about the code (e.g. "pruning beats the exhaustive scan"), so
/// they hold on any machine and cannot be washed out by a slow host.
const RATIO_GATES: &[(&str, &str, f64)] = &[
    (
        "ranking/throughput/pruned",
        "ranking/throughput/exhaustive",
        3.0,
    ),
    // The incremental term-removal scorer must clearly beat re-analysing
    // the perturbed body from scratch.
    (
        "term_removal/throughput/incremental_parallel",
        "term_removal/throughput/exact_serial",
        2.0,
    ),
    // A repeated explanation request answered from the cross-request
    // cache must dwarf recomputing it (`explain_cache_bypass: true`).
    ("caching/throughput/warm", "caching/throughput/cold", 10.0),
    // The Rank-LIME sampler must clearly beat exact serial re-scoring
    // when routed through the incremental removal scorer with
    // batch-parallel evaluation.
    (
        "lime/throughput/incremental_parallel",
        "lime/throughput/exact_serial",
        2.0,
    ),
    // A repeated attribution answered from the explain cache must dwarf
    // re-fitting the surrogate.
    ("lime/cache/warm", "lime/cache/cold", 10.0),
];

/// Ratio verdicts: `(fast, slow, required, actual, ok)`. Gates whose
/// records are missing fail (`actual = None`) — the suite must have run.
fn check_ratios(current: &BTreeMap<String, f64>) -> Vec<(String, String, f64, Option<f64>, bool)> {
    RATIO_GATES
        .iter()
        .map(|&(fast, slow, min_ratio)| {
            let actual = match (current.get(fast), current.get(slow)) {
                (Some(&f), Some(&s)) if s > 0.0 => Some(f / s),
                _ => None,
            };
            let ok = actual.is_some_and(|r| r >= min_ratio);
            (fast.to_string(), slow.to_string(), min_ratio, actual, ok)
        })
        .collect()
}

/// One gate verdict: `(name, baseline_eps, current_eps, ok)`. A missing
/// current record fails — either the bench suite did not run or a bench
/// was renamed without `bench_check update`.
fn compare(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    factor: f64,
) -> Vec<(String, f64, Option<f64>, bool)> {
    baseline
        .iter()
        .map(|(name, &base)| {
            let cur = current.get(name).copied();
            let ok = cur.is_some_and(|c| c * factor >= base);
            (name.clone(), base, cur, ok)
        })
        .collect()
}

fn main() -> ExitCode {
    let update = match std::env::args().nth(1).as_deref() {
        Some("update") => true,
        None => false,
        Some(other) => {
            eprintln!("usage: bench_check [update]  (got: {other})");
            return ExitCode::FAILURE;
        }
    };

    let dir = bench_dir();
    let current = match load_throughputs(&dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_check: cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    if current.is_empty() {
        eprintln!(
            "bench_check: no throughput records under {} — run the bench suite first",
            dir.display()
        );
        return ExitCode::FAILURE;
    }

    let baseline_path = baseline_path();
    if update {
        if let Err(e) = write_baseline(&baseline_path, &current) {
            eprintln!("bench_check: cannot write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "bench_check: wrote {} ({} benchmarks)",
            baseline_path.display(),
            current.len()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match load_baseline(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let factor = regression_factor();
    let verdicts = compare(&baseline, &current, factor);
    let mut failed = false;
    for (name, base, cur, ok) in &verdicts {
        let status = if *ok { "ok" } else { "REGRESSED" };
        match cur {
            Some(cur) => eprintln!(
                "bench_check: {status:<9} {name}  baseline {base:.0} evals/s, current {cur:.0} evals/s ({:.2}x)",
                cur / base
            ),
            None => eprintln!("bench_check: {status:<9} {name}  baseline {base:.0} evals/s, current MISSING"),
        }
        failed |= !ok;
    }
    let ratios = check_ratios(&current);
    for (fast, slow, required, actual, ok) in &ratios {
        let status = if *ok { "ok" } else { "FAILED" };
        match actual {
            Some(r) => {
                eprintln!("bench_check: {status:<9} {fast} >= {required}x {slow}  (actual {r:.2}x)")
            }
            None => eprintln!(
                "bench_check: {status:<9} {fast} >= {required}x {slow}  (records MISSING)"
            ),
        }
        failed |= !ok;
    }
    if failed {
        eprintln!(
            "bench_check: throughput regressed more than {factor}x against {} \
             (or a relative gate failed) — investigate, or run \
             `cargo run -p credence-bench --bin bench_check update` \
             after an intentional change",
            baseline_path.display()
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "bench_check: {} throughput benchmarks within {factor}x of baseline, {} ratio gates ok",
        verdicts.len(),
        ratios.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: &[(&str, f64)]) -> BTreeMap<String, f64> {
        entries.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let baseline = map(&[("a", 1000.0), ("b", 1000.0), ("c", 1000.0)]);
        let current = map(&[("a", 600.0), ("b", 499.0), ("c", 2500.0)]);
        let verdicts = compare(&baseline, &current, 2.0);
        let ok: BTreeMap<_, _> = verdicts
            .iter()
            .map(|(n, _, _, ok)| (n.clone(), *ok))
            .collect();
        assert!(ok["a"], "within 2x must pass");
        assert!(!ok["b"], "worse than 2x must fail");
        assert!(ok["c"], "improvements must pass");
    }

    #[test]
    fn compare_fails_missing_benchmarks() {
        let baseline = map(&[("gone", 1000.0)]);
        let verdicts = compare(&baseline, &map(&[]), 2.0);
        assert_eq!(verdicts.len(), 1);
        assert!(!verdicts[0].3);
        assert_eq!(verdicts[0].2, None);
    }

    #[test]
    fn ratio_gates_require_the_margin() {
        // A consistent record set satisfying every gate with headroom:
        // pruned 6x exhaustive, incremental_parallel 5x exact_serial
        // (term-removal and lime),
        // warm 50x cold (caching and lime).
        let pass = map(&[
            ("ranking/throughput/exhaustive", 1000.0),
            ("ranking/throughput/pruned", 6000.0),
            ("term_removal/throughput/exact_serial", 1000.0),
            ("term_removal/throughput/incremental_parallel", 5000.0),
            ("caching/throughput/cold", 100.0),
            ("caching/throughput/warm", 5000.0),
            ("lime/throughput/exact_serial", 1000.0),
            ("lime/throughput/incremental_parallel", 5000.0),
            ("lime/cache/cold", 100.0),
            ("lime/cache/warm", 5000.0),
        ]);
        assert!(
            check_ratios(&pass).iter().all(|v| v.4),
            "ample margins must pass every gate"
        );

        let mut fail = pass.clone();
        fail.insert("ranking/throughput/pruned".to_string(), 2000.0);
        assert!(!check_ratios(&fail)[0].4, "2x must fail a 3x gate");

        let mut missing = pass.clone();
        missing.remove("ranking/throughput/pruned");
        let v = &check_ratios(&missing)[0];
        assert!(!v.4 && v.3.is_none(), "missing records must fail");
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let dir = std::env::temp_dir().join(format!("bench-check-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_baseline.json");
        let current = map(&[("x/throughput", 1234.5)]);
        write_baseline(&path, &current).unwrap();
        let loaded = load_baseline(&path).unwrap();
        assert_eq!(loaded, current);
        std::fs::remove_dir_all(&dir).ok();
    }
}
