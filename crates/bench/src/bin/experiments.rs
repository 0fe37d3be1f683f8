//! The experiment regenerator: reproduces every figure of the paper and the
//! added quantitative tables (see EXPERIMENTS.md), each followed by the
//! checks that state its claim.
//!
//! ```sh
//! cargo run -p credence-bench --bin experiments --release          # everything
//! cargo run -p credence-bench --bin experiments --release -- fig2  # one artefact
//! ```
//!
//! Exit code is non-zero when any check fails or an artefact name is
//! unknown, so this binary doubles as a reproduction gate.

use std::process::ExitCode;

use credence_bench::figures::{fig1, fig2, fig3, fig4, fig5};
use credence_bench::tables::{
    ablation, granularity, instances, quality, ranker_agreement, saliency_comparison, scaling,
};
use credence_bench::Check;

/// A figure or table: it prints its rows and returns its checks.
type Artefact = fn() -> Vec<Check>;

/// Every artefact, by the name that selects it, in the order a full run
/// prints them.
const ARTEFACTS: &[(&str, Artefact)] = &[
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("quality", quality),
    ("scaling", scaling),
    ("ablation", ablation),
    ("instances", instances),
    ("granularity", granularity),
    ("saliency", saliency_comparison),
    ("agreement", ranker_agreement),
];

fn main() -> ExitCode {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = ARTEFACTS.iter().map(|&(name, _)| name).collect();
    let unknown: Vec<&String> = which
        .iter()
        .filter(|a| *a != "all" && !names.contains(&a.as_str()))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown artefact(s) {unknown:?}; choose from: all {}",
            names.join(" ")
        );
        return ExitCode::FAILURE;
    }
    let all = which.is_empty() || which.iter().any(|a| a == "all");

    let mut failed = 0;
    for &(name, artefact) in ARTEFACTS {
        if !all && !which.iter().any(|a| a == name) {
            continue;
        }
        let checks = artefact();
        println!("\n  checks for {name}:");
        for c in &checks {
            let mark = if c.passed { "PASS" } else { "FAIL" };
            println!("    [{mark}] {} (measured: {})", c.claim, c.measured);
        }
        failed += checks.iter().filter(|c| !c.passed).count();
    }

    if failed > 0 {
        eprintln!("\n{failed} check(s) FAILED");
        return ExitCode::FAILURE;
    }
    println!("\nall requested artefacts regenerated; every check passed.");
    ExitCode::SUCCESS
}
