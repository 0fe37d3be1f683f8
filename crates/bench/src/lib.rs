//! Shared fixtures and helpers for the experiment regenerators and the
//! std-only benches.
//!
//! Everything the EXPERIMENTS.md figures and tables need lives here so the
//! `experiments` binary and the benches measure the same code paths with
//! the same inputs; every figure and table returns its [`Check`]s. The [`harness`] module is the offline replacement for
//! criterion; bench targets import its types from the crate root. Every
//! bench here runs in process; the one HTTP load tool is `perfbench/`,
//! which drives the release `credence-serve` over real sockets.

pub mod figures;
pub mod harness;
pub mod tables;

pub use harness::{BenchRecord, Bencher, BenchmarkGroup, BenchmarkId, Criterion, Throughput};

use std::time::{Duration, Instant};

use credence_corpus::{covid_demo_corpus, DemoCorpus, SynthConfig, SyntheticCorpus};
use credence_index::{Bm25Params, InvertedIndex};
use credence_rank::Bm25Ranker;
use credence_text::Analyzer;

/// The demo setup every figure regenerator starts from.
pub struct DemoSetup {
    /// The corpus description (ids of the scenario documents).
    pub demo: DemoCorpus,
    /// The built index.
    pub index: InvertedIndex,
}

impl DemoSetup {
    /// Index the demo corpus.
    pub fn build() -> Self {
        let demo = covid_demo_corpus();
        let index = InvertedIndex::build(demo.docs.clone(), Analyzer::english());
        Self { demo, index }
    }

    /// A BM25 ranker over the demo index (Anserini defaults).
    pub fn ranker(&self) -> Bm25Ranker<'_> {
        Bm25Ranker::new(&self.index, Bm25Params::default())
    }
}

/// Build a synthetic corpus + index at a given scale (documents), with the
/// rest of the generator left at defaults. Deterministic.
pub fn synth_index(num_docs: usize, seed: u64) -> (SyntheticCorpus, InvertedIndex) {
    let corpus = SyntheticCorpus::generate(SynthConfig {
        num_docs,
        seed,
        ..SynthConfig::default()
    });
    let index = InvertedIndex::build(corpus.docs.clone(), Analyzer::english());
    (corpus, index)
}

/// One checked claim of a figure or table: the shape assertion the
/// `experiments` binary prints as PASS or FAIL.
#[derive(Debug, Clone)]
pub struct Check {
    /// What the paper (or the table) claims.
    pub claim: String,
    /// What we measured.
    pub measured: String,
    /// Whether the measurement bears the claim out.
    pub passed: bool,
}

impl Check {
    fn new(claim: impl Into<String>, measured: impl Into<String>, passed: bool) -> Self {
        Self {
            claim: claim.into(),
            measured: measured.into(),
            passed,
        }
    }
}

/// Time a closure, returning `(result, elapsed)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Milliseconds with two decimals, for table cells.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Print a fixed-width table: header row then data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n--- {title} ---");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_setup_builds() {
        let setup = DemoSetup::build();
        assert!(setup.index.num_docs() >= 40);
        assert_eq!(setup.demo.k, 10);
    }

    #[test]
    fn synth_index_scales() {
        let (corpus, index) = synth_index(50, 1);
        assert_eq!(corpus.docs.len(), 50);
        assert_eq!(index.num_docs(), 50);
    }

    #[test]
    fn timing_and_formatting() {
        let (value, elapsed) = timed(|| 42);
        assert_eq!(value, 42);
        assert!(ms(elapsed).parse::<f64>().unwrap() >= 0.0);
    }
}
