//! The shared candidate-evaluation driver for the counterfactual searches.
//!
//! Every generative explainer is the same loop: pull candidates from a
//! [`ComboSearch`], evaluate each (a pure scoring computation), and commit
//! the verdicts *in enumeration order* so the size-major minimality
//! guarantee — and the exact output, including `candidates_evaluated`
//! counters — is preserved. `drive_search` factors that loop out and adds
//! level-parallel evaluation: candidates are pulled in deterministic
//! batches, evaluated concurrently with the ordered scoped-thread map
//! ([`credence_rank::par_map`]), and committed strictly sequentially.
//!
//! # Determinism
//!
//! Evaluation is required to be pure (no shared mutable state), so a
//! candidate's verdict never depends on which thread computed it or on what
//! was computed alongside it. The commit callback runs on the caller's
//! thread in exactly the order `ComboSearch` emitted the candidates, and
//! the search stops at the first commit that requests it. Batching may
//! *evaluate* a few candidates beyond the stopping point speculatively;
//! their results are discarded uncommitted, so the observable output —
//! accepted explanations, their order, and the committed-candidate counts —
//! is byte-identical to the serial loop for every thread count.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use credence_index::DocId;
use credence_rank::{par_map, par_map_until, DeltaProfile, PoolScorer, TermRemovalProfile};

use crate::budget::{Budget, SearchStatus};
use crate::combos::{Combo, ComboSearch};

/// Knobs for the candidate-evaluation engine, carried by every explainer
/// config (and surfaced through `EngineConfig` / the server).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Worker threads for candidate evaluation. `0` means one per available
    /// CPU; `1` disables parallelism (the serial reference path).
    pub threads: usize,
    /// Minimum batch size worth fanning out to threads; smaller batches are
    /// evaluated inline. Keeps small searches free of thread overhead.
    pub parallel_threshold: usize,
    /// Disable the incremental (delta / posting-list) scorers and evaluate
    /// every candidate with the exact full scorer. The output is identical
    /// either way (the incremental paths are bit-exact); this knob exists so
    /// tests and benches can run the reference path on demand.
    pub force_exact: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            parallel_threshold: 64,
            force_exact: false,
        }
    }
}

impl EvalOptions {
    /// The serial reference configuration: one thread, exact scoring.
    pub fn exact_serial() -> Self {
        Self {
            threads: 1,
            parallel_threshold: usize::MAX,
            force_exact: true,
        }
    }

    /// The number of worker threads after resolving `0` = auto.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Largest speculative batch: bounds wasted evaluations past an early
/// acceptance while amortising thread setup on long searches.
const MAX_BATCH: usize = 512;

/// Run the candidate loop: evaluate combos from `search` (possibly in
/// parallel) and commit verdicts sequentially in enumeration order, bounded
/// by `budget`.
///
/// `evaluate` must be pure; `commit` receives the combo, its verdict, and
/// the 1-based count of candidates committed so far (the serial loop's
/// `search.emitted()` at that point), and returns [`ControlFlow::Break`] to
/// stop the search.
///
/// The budget is consulted before every candidate on the serial path and at
/// every batch boundary (plus between items inside a parallel batch, via
/// [`par_map_until`]) otherwise. The return value says how the loop ended:
/// [`SearchStatus::Complete`] when the enumeration drained or a commit broke
/// out, and the tripped limit otherwise. With [`Budget::unlimited`] the
/// commits — order, verdicts, and counts — are byte-identical to the
/// pre-budget driver for every thread count.
pub(crate) fn drive_search<R: Send>(
    search: &mut ComboSearch,
    options: &EvalOptions,
    budget: &Budget,
    evaluate: impl Fn(&Combo) -> R + Sync,
    mut commit: impl FnMut(Combo, R, usize) -> ControlFlow<()>,
) -> SearchStatus {
    let threads = options.resolved_threads();
    let mut committed = 0usize;

    if threads <= 1 {
        // The serial reference loop: no batching, no speculation.
        loop {
            if let Some(stop) = budget.stop_reason(committed) {
                return stop;
            }
            let Some(combo) = search.next() else { break };
            let verdict = evaluate(&combo);
            committed += 1;
            if commit(combo, verdict, committed).is_break() {
                return SearchStatus::Complete;
            }
        }
        return SearchStatus::Complete;
    }

    // Ramp the batch size up from a couple of rounds per thread so an early
    // acceptance wastes little speculative work, while long searches settle
    // into large, well-amortised batches.
    let mut batch_size = (threads * 2).min(MAX_BATCH);
    let mut batch: Vec<Combo> = Vec::with_capacity(batch_size);
    loop {
        if let Some(stop) = budget.stop_reason(committed) {
            return stop;
        }
        batch.clear();
        // Never pull speculative candidates past the eval cap, so an
        // `Exhausted` stop commits exactly `max_evals` on every thread count.
        let this_batch = batch_size.min(budget.remaining_evals(committed));
        while batch.len() < this_batch {
            let Some(combo) = search.next() else { break };
            batch.push(combo);
        }
        if batch.is_empty() {
            // Enumeration drained: the top-of-loop check already returned
            // if a budget limit had tripped, so this end is the natural one.
            return SearchStatus::Complete;
        }
        if budget.deadline.is_some() || budget.cancel.is_some() {
            // Interruptible evaluation: workers poll the deadline/cancel
            // state between candidates and drop the suffix of their chunk.
            let eval_threads = if batch.len() >= options.parallel_threshold {
                threads
            } else {
                1
            };
            let verdicts = par_map_until(&batch, eval_threads, &evaluate, || budget.interrupted());
            for (combo, verdict) in batch.drain(..).zip(verdicts) {
                let Some(verdict) = verdict else {
                    // The budget tripped mid-batch; everything before this
                    // point was committed, which keeps the prefix clean.
                    return budget
                        .stop_reason(committed)
                        .unwrap_or(SearchStatus::Deadline);
                };
                committed += 1;
                if commit(combo, verdict, committed).is_break() {
                    return SearchStatus::Complete;
                }
            }
        } else {
            let verdicts = if batch.len() >= options.parallel_threshold {
                par_map(&batch, threads, &evaluate)
            } else {
                batch.iter().map(&evaluate).collect()
            };
            for (combo, verdict) in batch.drain(..).zip(verdicts) {
                committed += 1;
                if commit(combo, verdict, committed).is_break() {
                    return SearchStatus::Complete;
                }
            }
        }
        batch_size = (batch_size * 2).min(MAX_BATCH);
    }
}

/// Cross-request replay memoisation for the candidate-evaluation loops.
///
/// The four explainers re-derive the same per-(query, doc) state on every
/// request: the top-(k+1) pool scores ([`PoolScorer`]), the per-sentence tf
/// profiles behind the sentence-removal delta replay
/// ([`credence_rank::DeltaProfile`]), and the per-surface
/// removal profiles behind the term-removal replay
/// ([`credence_rank::TermRemovalProfile`]). One
/// `ReplayMemo` lives on each [`CredenceEngine`](crate::CredenceEngine)
/// and shares that state across the explainers and across requests — the
/// engine is per-generation, so a corpus publish swaps the engine and the
/// memo with it (invalidation by construction, never by sweeping).
///
/// Sharing is bit-safe: every memoised value is a pure function of
/// `(query, k, doc)` over the generation's immutable segment and ranker,
/// and the rehydrated scorers perform exactly the same folds as freshly
/// built ones, so responses are byte-identical with or without the memo.
///
/// Each map is bounded; at capacity it is cleared wholesale (the maps are
/// small and rebuilt in one request each, so wholesale reset beats
/// per-entry bookkeeping on these hot paths).
pub struct ReplayMemo {
    capacity: usize,
    pool: std::sync::Mutex<HashMap<(String, usize, DocId), Arc<PoolScorer>>>,
    delta: std::sync::Mutex<HashMap<(String, DocId), Arc<DeltaProfile>>>,
    removal: std::sync::Mutex<HashMap<(String, DocId), Arc<TermRemovalProfile>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ReplayMemo {
    /// A memo holding up to `capacity` entries per map (0 disables it).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            pool: std::sync::Mutex::new(HashMap::new()),
            delta: std::sync::Mutex::new(HashMap::new()),
            removal: std::sync::Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Lookups served from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Lookups that had to build their value.
    pub fn misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn get_or_build<K: std::hash::Hash + Eq + Clone, V>(
        &self,
        map: &std::sync::Mutex<HashMap<K, Arc<V>>>,
        key: K,
        build: impl FnOnce() -> Option<V>,
    ) -> Option<Arc<V>> {
        use std::sync::atomic::Ordering::Relaxed;
        if self.capacity == 0 {
            return build().map(Arc::new);
        }
        if let Some(found) = map.lock().expect("memo lock poisoned").get(&key) {
            self.hits.fetch_add(1, Relaxed);
            return Some(Arc::clone(found));
        }
        self.misses.fetch_add(1, Relaxed);
        let value = Arc::new(build()?);
        let mut map = map.lock().expect("memo lock poisoned");
        if map.len() >= self.capacity {
            map.clear();
        }
        map.entry(key).or_insert_with(|| Arc::clone(&value));
        Some(value)
    }

    /// The memoised top-(k+1) pool scorer for `(query, k, doc)`; `build`
    /// runs on a miss. `build` must be the deterministic
    /// `PoolScorer::new(ranker, query, top_k(k+1), doc)` of the engine's
    /// cached ranking, so a hit is bit-identical to a rebuild.
    pub fn pool_scorer(
        &self,
        query: &str,
        k: usize,
        doc: DocId,
        build: impl FnOnce() -> PoolScorer,
    ) -> Arc<PoolScorer> {
        self.get_or_build(&self.pool, (query.to_string(), k, doc), || Some(build()))
            .expect("pool build is infallible")
    }

    /// The memoised sentence-delta profile for `(query, doc)`. `None`
    /// results (non-decomposable model) are not cached — the decision is a
    /// single capability check.
    pub fn delta_profile(
        &self,
        query: &str,
        doc: DocId,
        build: impl FnOnce() -> Option<DeltaProfile>,
    ) -> Option<Arc<DeltaProfile>> {
        self.get_or_build(&self.delta, (query.to_string(), doc), build)
    }

    /// The memoised term-removal profile for `(query, doc)`.
    pub fn removal_profile(
        &self,
        query: &str,
        doc: DocId,
        build: impl FnOnce() -> Option<TermRemovalProfile>,
    ) -> Option<Arc<TermRemovalProfile>> {
        self.get_or_build(&self.removal, (query.to_string(), doc), build)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combos::{CandidateOrdering, SearchBudget};

    fn collect_budgeted(
        options: &EvalOptions,
        budget: &Budget,
        stop_at: Option<usize>,
    ) -> (Vec<Vec<usize>>, Vec<usize>, SearchStatus) {
        let scores = [5.0, 4.0, 3.0, 2.0, 1.0];
        let mut search = ComboSearch::new(
            &scores,
            SearchBudget::default(),
            CandidateOrdering::ImportanceGuided,
        );
        let mut combos = Vec::new();
        let mut counts = Vec::new();
        let status = drive_search(
            &mut search,
            options,
            budget,
            |combo| combo.items.iter().sum::<usize>(),
            |combo, verdict, committed| {
                assert_eq!(verdict, combo.items.iter().sum::<usize>());
                combos.push(combo.items);
                counts.push(committed);
                if stop_at == Some(committed) {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        (combos, counts, status)
    }

    fn collect_with(
        options: &EvalOptions,
        stop_at: Option<usize>,
    ) -> (Vec<Vec<usize>>, Vec<usize>) {
        let (combos, counts, status) = collect_budgeted(options, &Budget::unlimited(), stop_at);
        assert_eq!(status, SearchStatus::Complete);
        (combos, counts)
    }

    #[test]
    fn parallel_commits_match_serial_order() {
        let serial = collect_with(&EvalOptions::exact_serial(), None);
        for threads in [0, 2, 3, 8] {
            let parallel = collect_with(
                &EvalOptions {
                    threads,
                    parallel_threshold: 1,
                    force_exact: false,
                },
                None,
            );
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn early_stop_commits_identically() {
        for stop in [1, 3, 7] {
            let serial = collect_with(&EvalOptions::exact_serial(), Some(stop));
            let parallel = collect_with(
                &EvalOptions {
                    threads: 4,
                    parallel_threshold: 1,
                    force_exact: false,
                },
                Some(stop),
            );
            assert_eq!(parallel, serial, "stop={stop}");
            assert_eq!(serial.1.last(), Some(&stop));
        }
    }

    #[test]
    fn max_evals_commits_exact_prefix_on_every_thread_count() {
        let (all, _) = collect_with(&EvalOptions::exact_serial(), None);
        for cap in [0, 1, 3, all.len(), all.len() + 10] {
            let budget = Budget::unlimited().with_max_evals(cap);
            for threads in [1, 2, 4] {
                let options = EvalOptions {
                    threads,
                    parallel_threshold: 1,
                    force_exact: false,
                };
                let (combos, counts, status) = collect_budgeted(&options, &budget, None);
                let expect = cap.min(all.len());
                assert_eq!(combos, all[..expect], "cap={cap} threads={threads}");
                assert_eq!(counts.len(), expect);
                let expect_status = if cap <= all.len() {
                    SearchStatus::Exhausted
                } else {
                    SearchStatus::Complete
                };
                assert_eq!(status, expect_status, "cap={cap} threads={threads}");
            }
        }
    }

    #[test]
    fn expired_deadline_stops_before_any_commit() {
        let budget = Budget {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..Budget::default()
        };
        for threads in [1, 4] {
            let options = EvalOptions {
                threads,
                parallel_threshold: 1,
                force_exact: false,
            };
            let (combos, _, status) = collect_budgeted(&options, &budget, None);
            assert!(combos.is_empty(), "threads={threads}");
            assert_eq!(status, SearchStatus::Deadline, "threads={threads}");
        }
    }

    #[test]
    fn raised_cancel_flag_reports_cancelled() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(true));
        let budget = Budget::unlimited().with_cancel(flag);
        for threads in [1, 4] {
            let options = EvalOptions {
                threads,
                parallel_threshold: 1,
                force_exact: false,
            };
            let (combos, _, status) = collect_budgeted(&options, &budget, None);
            assert!(combos.is_empty(), "threads={threads}");
            assert_eq!(status, SearchStatus::Cancelled, "threads={threads}");
        }
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let unlimited = collect_with(&EvalOptions::exact_serial(), None);
        let budget = Budget::unlimited()
            .with_deadline_ms(600_000)
            .with_max_evals(1_000_000);
        for threads in [1, 4] {
            let options = EvalOptions {
                threads,
                parallel_threshold: 1,
                force_exact: false,
            };
            let (combos, counts, status) = collect_budgeted(&options, &budget, None);
            assert_eq!((combos, counts), unlimited, "threads={threads}");
            assert_eq!(status, SearchStatus::Complete, "threads={threads}");
        }
    }

    #[test]
    fn break_during_budgeted_run_is_complete() {
        let budget = Budget::unlimited().with_max_evals(1_000);
        let (combos, _, status) = collect_budgeted(&EvalOptions::exact_serial(), &budget, Some(2));
        assert_eq!(combos.len(), 2);
        assert_eq!(status, SearchStatus::Complete);
    }

    #[test]
    fn committed_counts_are_sequential() {
        let (_, counts) = collect_with(
            &EvalOptions {
                threads: 2,
                parallel_threshold: 1,
                force_exact: false,
            },
            None,
        );
        assert_eq!(counts, (1..=counts.len()).collect::<Vec<_>>());
    }
}
