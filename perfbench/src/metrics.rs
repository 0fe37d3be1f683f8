//! Metric definitions, the run summary, and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use credence_json::{obj, to_string, Value};

use crate::answers;
use crate::inproc::{self, Replay, Traced, EVALUATOR_SPANS};
use crate::process::{delta, stolen};
use crate::trace::{p50, percentile};
use crate::window::Measured;
use crate::workload::{ratio, Kind, Op, Workload};
use crate::Args;

/// End-to-end metrics: (name, unit). Read throughput and latency are
/// per-layer `http.*` metrics instead, and so is the peak memory after the
/// window: on a shared host their runs spread wider than any bound a gate
/// may use (see README.md).
pub const END_TO_END: [(&str, &str); 4] = [
    ("cpu_ms_per_req", "ms"),
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("write_p50_ms", "ms"),
];

/// Rows of the traced run's layer table.
pub const LAYERS: [&str; 11] = [
    "http",
    "json",
    "registry",
    "explain_cache",
    "engine",
    "topk",
    "evaluator",
    "lime",
    "nn",
    "nn_scan",
    "unattributed",
];

/// Per-layer metrics other than the layer table: (name, unit).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("http.throughput_rps", "req/s"),
    ("http.p50_ms", "ms"),
    ("http.p99_ms", "ms"),
    ("http.conns_per_req", "conn/req"),
    ("http.connect_ms", "ms"),
    ("http.ttfb_ms", "ms"),
    ("http.errors", "count"),
    ("http.overhead_ms", "ms"),
    ("service.handle_ms", "ms"),
    ("service.non2xx", "count"),
    ("service.peak_rss_mb", "MiB"),
    ("json.parse_us", "us"),
    ("json.write_us", "us"),
    ("registry.snapshot_us", "us"),
    ("registry.publishes", "count"),
    ("registry.publish_ms", "ms"),
    ("explain_cache.hit_ratio", "ratio"),
    ("explain_cache.coalesced", "count"),
    ("engine.ranking_cache_hit_ratio", "ratio"),
    ("engine.rank_ms", "ms"),
    ("engine.build_ms", "ms"),
    ("topk.docs_scored_per_query", "docs"),
    ("topk.scored_per_returned", "ratio"),
    ("topk.docs_pruned", "count"),
    ("topk.blocks_skipped", "count"),
    ("topk.blocks_skipped_ratio", "ratio"),
    ("topk.search_ms", "ms"),
    ("evaluator.evals_per_search", "evals"),
    ("evaluator.search_ms", "ms"),
    ("evaluator.replay_memo_hit_ratio", "ratio"),
    ("evaluator.found_ratio", "ratio"),
    ("lime.samples_per_fit", "samples"),
    ("lime.fit_ms", "ms"),
    ("nn.search_ms", "ms"),
    ("generation.merge_ms", "ms"),
    ("trace.handler_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("host.calib_ms", "ms"),
    ("share.frequent_term", "ratio"),
    ("share.repeated", "ratio"),
];

/// Every per-layer metric name with its unit, the layer table included.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for layer in LAYERS {
        names.push((format!("layer.{layer}.self_us"), "us"));
        names.push((format!("layer.{layer}.share"), "ratio"));
    }
    names
}

/// The metric names `BENCHMARK.json` declares: (end_to_end, per_layer).
pub fn declared_names(benchmark_json: &str) -> Result<(Vec<String>, Vec<String>), String> {
    let v = credence_json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name").and_then(Value::as_str).map(str::to_string))
            .collect()
    };
    Ok((names("end_to_end"), names("per_layer")))
}

pub struct Report<'a> {
    pub args: &'a Args,
    pub wl: &'a Workload,
    pub dry: &'a Replay,
    pub traced: Option<&'a Traced>,
    pub measured: &'a Measured,
    /// Set-up time (s) of each boot, with the share of the machine's CPU
    /// time stolen by the hypervisor while it ran.
    pub setups: &'a [(f64, f64)],
    /// Peak resident set (MiB) of each boot when it first answered.
    pub boot_rss: &'a [f64],
    pub calib: (f64, f64),
    /// Seconds since the run began at the end of each phase.
    pub phases: &'a [(&'static str, f64)],
}

/// Reads per block of the window whose 99th percentile `p99_ms` takes the
/// median of.
const P99_BLOCK: usize = 1_000;

/// A slice of the window, a write or a boot is quiet when the hypervisor
/// stole less than this share of the machine's CPU time while it ran.
/// Stolen time stalls the server and the client alike, so a stolen slice
/// measures the host rather than the program.
const QUIET_STEAL: f64 = 0.05;

/// The quiet items, in their order; when fewer than a third are quiet, the
/// least-stolen third (ties included).
fn quiet<T>(items: Vec<(f64, T)>) -> Vec<T> {
    let mut steals: Vec<f64> = items.iter().map(|&(steal, _)| steal).collect();
    steals.sort_by(f64::total_cmp);
    let third = steals
        .get(items.len().div_ceil(3).saturating_sub(1))
        .copied()
        .unwrap_or(0.0);
    items
        .into_iter()
        .filter(|&(steal, _)| steal < QUIET_STEAL || steal <= third)
        .map(|(_, item)| item)
        .collect()
}

/// The median over blocks of `P99_BLOCK` consecutive latencies of each
/// block's 99th percentile (ten samples beyond it in each); the pooled 99th
/// percentile when there is no whole block.
fn block_p99(latencies: &[f64]) -> f64 {
    let blocks: Vec<f64> = latencies
        .chunks_exact(P99_BLOCK)
        .map(|block| percentile(block, 0.99))
        .collect();
    if blocks.is_empty() {
        percentile(latencies, 0.99)
    } else {
        p50(&blocks)
    }
}

/// About one second of the window.
struct Slice {
    /// Requests completed.
    done: f64,
    secs: f64,
    /// Server user+sys CPU time.
    cpu_ms: f64,
    /// Share of the machine's CPU time stolen by the hypervisor.
    steal: f64,
    /// Latencies (ms) of the reads completed.
    latencies: Vec<f64>,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

impl Report<'_> {
    fn d(&self, family: &str) -> Option<f64> {
        delta(&self.measured.before, &self.measured.after, family)
    }

    /// Latencies (ms) of the window reads; a failed read counts as the
    /// whole window, missing every latency limit.
    fn latencies(&self) -> Vec<f64> {
        self.measured.reads.iter().map(|s| ms(s.total)).collect()
    }

    /// The window cut at the server-CPU readings into slices of about a
    /// second, each of at least half a second.
    fn slices(&self) -> Vec<Slice> {
        let m = self.measured;
        m.ticks
            .windows(2)
            .filter_map(|w| {
                let (t0, t1) = (w[0].at, w[1].at);
                let secs = (t1 - t0).as_secs_f64();
                let within = |d: &std::time::Duration| *d > t0 && *d <= t1;
                let latencies: Vec<f64> = m
                    .reads
                    .iter()
                    .filter(|s| within(&s.done))
                    .map(|s| ms(s.total))
                    .collect();
                let done = m.reads.iter().filter(|s| s.ok && within(&s.done)).count()
                    + m.write_done.iter().filter(|d| within(d)).count();
                (secs >= 0.5).then(|| Slice {
                    done: done as f64,
                    secs,
                    cpu_ms: ms(w[1].cpu.saturating_sub(w[0].cpu)),
                    steal: stolen(w[0].machine, w[1].machine),
                    latencies,
                })
            })
            .collect()
    }

    /// The slices the window metrics take their medians over.
    fn quiet_slices(&self) -> Vec<Slice> {
        quiet(self.slices().into_iter().map(|s| (s.steal, s)).collect())
    }

    /// The boot times `setup_s` takes the median of.
    fn quiet_boots(&self) -> Vec<f64> {
        quiet(
            self.setups
                .iter()
                .map(|&(secs, steal)| (steal, secs))
                .collect(),
        )
    }

    /// The write latencies `write_p50_ms` takes the median of.
    fn quiet_writes(&self) -> Vec<f64> {
        quiet(
            self.measured
                .write_ms
                .iter()
                .map(|&(ms, steal)| (steal, ms))
                .collect(),
        )
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let cpu: Vec<f64> = self
            .quiet_slices()
            .iter()
            .map(|s| ratio(s.cpu_ms, s.done))
            .collect();
        vec![
            ("cpu_ms_per_req", p50(&cpu)),
            ("setup_s", p50(&self.quiet_boots())),
            ("rss_mb", p50(self.boot_rss)),
            ("write_p50_ms", p50(&self.quiet_writes())),
        ]
    }

    /// Read throughput (req/s), p50 and p99 latency (ms) over the quiet
    /// slices: the `http.throughput_rps`, `http.p50_ms` and `http.p99_ms`
    /// metrics.
    fn reads(&self) -> (f64, f64, f64) {
        let slices = self.quiet_slices();
        let rates: Vec<f64> = slices.iter().map(|s| ratio(s.done, s.secs)).collect();
        let slice_p50: Vec<f64> = slices.iter().map(|s| p50(&s.latencies)).collect();
        let latencies: Vec<f64> = slices.iter().flat_map(|s| s.latencies.clone()).collect();
        (p50(&rates), p50(&slice_p50), block_p99(&latencies))
    }

    /// Window deltas of `credence_requests_total` series whose status is
    /// not 2xx, `None` when the family is missing.
    fn non2xx_by_series(&self) -> Option<Vec<(String, f64)>> {
        let m = self.measured;
        m.after.family("credence_requests_total")?;
        let before = m.before.labelled("credence_requests_total");
        Some(
            m.after
                .labelled("credence_requests_total")
                .into_iter()
                .filter(|(labels, _)| !labels.contains("status=\"2"))
                .map(|(labels, after)| {
                    let was = before
                        .iter()
                        .find(|(l, _)| *l == labels)
                        .map_or(0.0, |(_, v)| *v);
                    (labels, after - was)
                })
                .filter(|(_, n)| *n != 0.0)
                .collect(),
        )
    }

    /// The per-layer metrics; `None` where a `/metrics` family it needs is
    /// missing, so that the run still completes without it.
    fn per_layer(&self) -> Vec<(String, Option<f64>)> {
        let m = self.measured;
        let wl = self.wl;
        let t = self
            .traced
            .expect("per-layer metrics need the traced replay");
        let d = |f: &str| self.d(f);
        let div = |a: Option<f64>, b: Option<f64>| -> Option<f64> { Some(ratio(a?, b?)) };
        let hit_ratio = |hits: Option<f64>, misses: Option<f64>| div(hits, Some(hits? + misses?));
        let handle_ms = div(
            d("credence_request_duration_seconds_sum").map(|s| s * 1e3),
            d("credence_request_duration_seconds_count"),
        );
        let client: Vec<f64> = m
            .reads
            .iter()
            .map(|s| ms(s.total))
            .chain(m.write_served.iter().map(|&w| ms(w)))
            .collect();
        let requests = client.len() as f64;
        let non2xx = self
            .non2xx_by_series()
            .map(|v| v.iter().map(|(_, n)| n).sum::<f64>() + 0.0);
        let connects: Vec<f64> = m
            .reads
            .iter()
            .filter(|s| s.connect.as_nanos() > 0)
            .map(|s| ms(s.connect))
            .collect();
        let ttfb: Vec<f64> = m.reads.iter().map(|s| ms(s.ttfb)).collect();
        let rc_misses = d("credence_ranking_cache_misses_total");
        let scored = d("credence_retrieval_docs_scored_total");
        let skipped = d("credence_retrieval_blocks_skipped_total");
        let (mut rows, mut found, mut asked) = (0.0, 0.0, 0.0);
        for s in m.reads.iter().filter(|s| s.ok) {
            match &wl.reads[s.pos % wl.reads.len()] {
                Op::Rank { .. } => rows += s.found.unwrap_or(0) as f64,
                Op::Explain { family, n, .. } if family.takes_n() => {
                    found += s.found.unwrap_or(0) as f64;
                    asked += *n as f64;
                }
                _ => {}
            }
        }
        let span_p50 = |names: &[&str]| -> Option<f64> {
            let v: Vec<f64> = names
                .iter()
                .flat_map(|n| t.tracer.durations_ms(n))
                .collect();
            Some(p50(&v))
        };
        let us = |v: Option<f64>| v.map(|ms| ms * 1e3);
        // The traced handler time over the window's mix of reads and writes.
        let writes = m.write_served.len() as f64;
        let reads = m.reads.len() as f64;
        let traced_handler = ratio(
            mean(&t.handler_ms) * reads + mean(&t.publish_ms) * writes,
            reads + writes,
        );
        let (throughput, read_p50, read_p99) = self.reads();
        let mut out: Vec<(String, Option<f64>)> = vec![
            ("http.throughput_rps", Some(throughput)),
            ("http.p50_ms", Some(read_p50)),
            ("http.p99_ms", Some(read_p99)),
            ("http.conns_per_req", Some(ratio(m.opened as f64, requests))),
            ("http.connect_ms", Some(p50(&connects))),
            ("http.ttfb_ms", Some(p50(&ttfb))),
            (
                "http.errors",
                Some(m.reads.iter().filter(|s| !s.ok).count() as f64),
            ),
            ("http.overhead_ms", handle_ms.map(|h| mean(&client) - h)),
            ("service.handle_ms", handle_ms),
            ("service.non2xx", non2xx),
            ("service.peak_rss_mb", Some(m.rss_mib)),
            ("json.parse_us", us(span_p50(&["json.parse"]))),
            ("json.write_us", us(span_p50(&["json.write"]))),
            ("registry.snapshot_us", us(span_p50(&["registry.snapshot"]))),
            (
                "registry.publishes",
                delta(&m.before, &m.last, "credence_corpus_merges_total"),
            ),
            ("registry.publish_ms", Some(p50(&t.publish_ms))),
            (
                "explain_cache.hit_ratio",
                hit_ratio(
                    d("credence_explain_cache_hits_total"),
                    d("credence_explain_cache_misses_total"),
                ),
            ),
            (
                "explain_cache.coalesced",
                d("credence_explain_cache_coalesced_total"),
            ),
            (
                "engine.ranking_cache_hit_ratio",
                hit_ratio(d("credence_ranking_cache_hits_total"), rc_misses),
            ),
            ("engine.rank_ms", span_p50(&["engine.rank"])),
            ("engine.build_ms", span_p50(&["engine.build"])),
            ("topk.docs_scored_per_query", div(scored, rc_misses)),
            ("topk.scored_per_returned", div(scored, Some(rows))),
            (
                "topk.docs_pruned",
                d("credence_retrieval_docs_pruned_total"),
            ),
            ("topk.blocks_skipped", skipped),
            (
                "topk.blocks_skipped_ratio",
                hit_ratio(skipped, d("credence_retrieval_blocks_decoded_total")),
            ),
            ("topk.search_ms", span_p50(&["topk.search"])),
            (
                "evaluator.evals_per_search",
                div(
                    d("credence_candidate_evals_total"),
                    d("credence_searches_total"),
                ),
            ),
            ("evaluator.search_ms", span_p50(&EVALUATOR_SPANS)),
            (
                "evaluator.replay_memo_hit_ratio",
                Some(ratio(
                    t.memo_hits as f64,
                    (t.memo_hits + t.memo_misses) as f64,
                )),
            ),
            ("evaluator.found_ratio", Some(ratio(found, asked))),
            (
                "lime.samples_per_fit",
                div(
                    d("credence_explain_lime_samples_total"),
                    d("credence_explain_lime_fits_total"),
                ),
            ),
            ("lime.fit_ms", span_p50(&["engine.feature_attribution"])),
            ("nn.search_ms", span_p50(&["nn.search"])),
            ("generation.merge_ms", span_p50(&["generation.merge"])),
            ("trace.handler_ms", Some(traced_handler)),
            ("trace.overhead_ms", handle_ms.map(|h| traced_handler - h)),
            ("host.calib_ms", Some((self.calib.0 + self.calib.1) / 2.0)),
            ("share.frequent_term", Some(wl.share_frequent())),
            ("share.repeated", Some(wl.share_repeated())),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
        let table = inproc::layer_table(&t.tracer);
        for layer in LAYERS {
            let (self_us, share) = table.get(layer).copied().unwrap_or((0.0, 0.0));
            out.push((format!("layer.{layer}.self_us"), Some(self_us)));
            out.push((format!("layer.{layer}.share"), Some(share)));
        }
        out
    }

    /// Checks beyond the answers themselves; each failure is one line.
    /// `absent` metrics were left out because a `/metrics` family they need
    /// is missing; they still count as declared.
    fn checks(&self, printed: &[String], absent: &[String]) -> Vec<String> {
        let m = self.measured;
        let mut failed: Vec<String> = self
            .dry
            .failures
            .iter()
            .map(|f| format!("dry run: {f}"))
            .collect();
        failed.extend(m.failures.iter().cloned());
        if m.max_conns > 2 {
            failed.push(format!("{} connections were open at once", m.max_conns));
        }
        if m.max_threads > 2 {
            failed.push(format!("the load generator ran {} threads", m.max_threads));
        }
        let publishes = delta(&m.before, &m.last, "credence_corpus_merges_total");
        if publishes.is_some_and(|p| p != m.writes_sent as f64) {
            failed.push(format!(
                "{publishes:?} publishes for {} writes",
                m.writes_sent
            ));
        }
        match std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e}"))
            .and_then(|text| declared_names(&text))
        {
            Ok((e2e, layers)) => {
                let mut declared = if self.args.trace { layers } else { e2e };
                declared.sort();
                let mut printed = [printed, absent].concat();
                printed.sort();
                if declared != printed {
                    failed.push(format!(
                        "printed metrics {printed:?} differ from BENCHMARK.json {declared:?}"
                    ));
                }
            }
            Err(e) => failed.push(e),
        }
        failed
    }

    /// The summary lines followed by the JSON line.
    pub fn render(&self) -> String {
        let m = self.measured;
        let wl = self.wl;
        let mut absent = Vec::new();
        let metrics: Vec<(String, f64, &str)> = if self.args.trace {
            let units: BTreeMap<String, &str> = per_layer_names().into_iter().collect();
            self.per_layer()
                .into_iter()
                .filter_map(|(n, v)| match v {
                    Some(v) => {
                        let unit = units.get(&n).copied().unwrap_or("count");
                        Some((n, v, unit))
                    }
                    None => {
                        absent.push(n);
                        None
                    }
                })
                .collect()
        } else {
            self.end_to_end()
                .into_iter()
                .zip(END_TO_END)
                .map(|((n, v), (_, unit))| (n.to_string(), v, unit))
                .collect()
        };
        let names: Vec<String> = metrics.iter().map(|(n, _, _)| n.clone()).collect();
        let failures = self.checks(&names, &absent);
        let failed_ops = m.failures.len();
        let lat = self.latencies();

        let mut s = String::new();
        let _ = writeln!(
            s,
            "workload {} seed {} ({} s window)",
            wl.kind.name(),
            self.args.seed,
            self.args.seconds
        );
        let (all, used) = (self.slices(), self.quiet_slices());
        let used_reads: usize = used.iter().map(|x| x.latencies.len()).sum();
        let _ = writeln!(
            s,
            "samples: {} reads in the window, {used_reads} of them in the {} of {} one-second slices used ({} blocks of {P99_BLOCK} for p99); {} writes, {} used; wall {:.3} s",
            m.reads.len(),
            used.len(),
            all.len(),
            used_reads / P99_BLOCK,
            m.write_ms.len(),
            self.quiet_writes().len(),
            m.wall.as_secs_f64()
        );
        let (throughput, read_p50, read_p99) = self.reads();
        let _ = writeln!(
            s,
            "reads over the slices used: throughput {throughput:.1} req/s, p50 {read_p50:.4} ms, p99 {read_p99:.4} ms"
        );
        let all_p50: Vec<f64> = all.iter().map(|x| p50(&x.latencies)).collect();
        let all_rates: Vec<f64> = all.iter().map(|x| ratio(x.done, x.secs)).collect();
        let _ = writeln!(
            s,
            "over every slice and write: throughput {:.1} req/s, p50 {:.4} ms, pooled p99 {:.4} ms, write p50 {:.3} ms",
            p50(&all_rates),
            p50(&all_p50),
            percentile(&lat, 0.99),
            p50(&m.write_ms.iter().map(|w| w.0).collect::<Vec<_>>())
        );
        let _ = writeln!(
            s,
            "operations: attempted {} failed {}",
            m.attempted, failed_ops
        );
        let _ = writeln!(
            s,
            "dry run: {} requests answered in process; digest {:016x}",
            self.dry.answered,
            answers::digest(&self.dry.hashes)
        );
        let _ = writeln!(
            s,
            "checks: exhaustive /rank comparisons {}, max connections {}, max load threads {}",
            m.exhaustive_checked, m.max_conns, m.max_threads
        );
        let _ = writeln!(
            s,
            "traffic: share.frequent_term {:.4} share.repeated {:.4}; host.calib_ms start {:.3} end {:.3}",
            wl.share_frequent(),
            wl.share_repeated(),
            self.calib.0,
            self.calib.1
        );
        let _ = writeln!(
            s,
            "host during the window: {:.2}% of CPU stolen, {:.2}% used by other processes",
            m.host.0 * 100.0,
            m.host.1 * 100.0
        );
        let _ = writeln!(
            s,
            "peak resident set: {:?} MiB at the boots, {:.3} MiB after the window",
            self.boot_rss, m.rss_mib
        );
        let _ = writeln!(
            s,
            "setup_s boots (s, % stolen): {}; {} used",
            self.setups
                .iter()
                .map(|(secs, steal)| format!("{secs:.4}/{:.1}", steal * 100.0))
                .collect::<Vec<_>>()
                .join(" "),
            self.quiet_boots().len()
        );
        let _ = writeln!(s, "phases (s since start): {:?}", self.phases);
        let _ = writeln!(
            s,
            "slices (req/s, server CPU ms/req, p50 ms, % stolen): {}",
            all.iter()
                .map(|x| format!(
                    "{:.0}/{:.3}/{:.3}/{:.1}",
                    ratio(x.done, x.secs),
                    ratio(x.cpu_ms, x.done),
                    p50(&x.latencies),
                    x.steal * 100.0
                ))
                .collect::<Vec<_>>()
                .join(" ")
        );
        if wl.kind == Kind::Ingest {
            let _ = writeln!(
                s,
                "ingest: writes ran at most {:.3} ms late",
                m.writes_late_ms
            );
        }
        if let Some(t) = self.traced {
            let _ = writeln!(
                s,
                "layer self time over the traced requests (p50 us, share of request):"
            );
            for (layer, (us, share)) in inproc::layer_table(&t.tracer) {
                let _ = writeln!(s, "  {layer:<14} {us:>12.3} {share:>8.4}");
            }
        }
        for (name, value, unit) in &metrics {
            let _ = writeln!(s, "  {name} = {value} {unit}");
        }
        if let Some(codes) = self.non2xx_by_series().filter(|c| !c.is_empty()) {
            let _ = writeln!(
                s,
                "non-2xx answers in the window, by endpoint and code: {codes:?}"
            );
        }
        if !absent.is_empty() {
            let _ = writeln!(
                s,
                "absent (a /metrics family they need is missing): {absent:?}"
            );
        }
        for f in failures.iter().take(20) {
            let _ = writeln!(s, "CHECK FAILED: {f}");
        }
        let json = obj([
            ("correct", Value::from(failures.is_empty())),
            ("attempted", Value::from(m.attempted)),
            ("failed", Value::from(failed_ops)),
            (
                "metrics",
                obj(metrics.iter().map(|(n, v, unit)| {
                    (
                        n.clone(),
                        obj([
                            ("value", Value::from(if v.is_finite() { *v } else { 0.0 })),
                            ("unit", Value::from(*unit)),
                        ]),
                    )
                })),
            ),
        ]);
        s.push_str(&to_string(&json));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_keeps_unstolen_items_or_the_least_stolen_third() {
        let calm = vec![
            (0.0, 1),
            (0.2, 2),
            (0.01, 3),
            (0.049, 4),
            (0.3, 5),
            (0.0, 6),
        ];
        assert_eq!(quiet(calm), vec![1, 3, 4, 6]);
        let stormy = vec![(0.3, 1), (0.1, 2), (0.2, 3), (0.4, 4), (0.1, 5), (0.5, 6)];
        assert_eq!(quiet(stormy), vec![2, 5]);
        assert!(quiet(Vec::<(f64, u8)>::new()).is_empty());
    }

    #[test]
    fn block_p99_is_the_median_of_whole_blocks() {
        // Three blocks whose 99th percentiles are 990, 1990 and 2990 ms;
        // the partial fourth block is left out.
        let v: Vec<f64> = (1..=3_500).map(f64::from).collect();
        assert_eq!(block_p99(&v), 1_990.0);
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(block_p99(&few), 99.0);
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let (e2e, layers) = declared_names(&text).unwrap();
        let ours: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(e2e, ours);
        let ours: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(layers, ours);
        let v = credence_json::parse(&text).unwrap();
        for key in ["end_to_end", "per_layer"] {
            for m in v.get(key).and_then(Value::as_array).unwrap() {
                let name = m.get("name").and_then(Value::as_str).unwrap();
                let unit = m.get("unit").and_then(Value::as_str).unwrap();
                let want = END_TO_END
                    .iter()
                    .map(|&(n, u)| (n.to_string(), u))
                    .chain(per_layer_names())
                    .find(|(n, _)| n == name)
                    .map(|(_, u)| u);
                assert_eq!(Some(unit), want, "unit of {name}");
            }
        }
    }
}
