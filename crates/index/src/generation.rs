//! Generation-snapshot indexing over immutable segments.
//!
//! The paper's counterfactuals are claims about a *specific* ranking: the
//! validity of "removing sentence s drops doc d below rank r" depends on the
//! exact index state that produced r. A mutable corpus therefore cannot
//! mutate the index readers see — it must publish *generations*:
//!
//! - Every generation is a complete immutable [`InvertedIndex`] (the
//!   existing block-compressed segment format), shared behind an `Arc`.
//!   Readers clone the `Arc` under a briefly-held lock and then score,
//!   explain, and replay postings entirely lock-free against that snapshot.
//!   BM25 collection statistics (idf, avgdl) live inside the segment, so
//!   scores are deterministic per generation by construction.
//! - Mutations (`Upsert`, `Delete`) never touch the live segment. They are
//!   staged into an in-memory *delta segment* — an ordered op log with
//!   monotonically increasing sequence numbers — and become visible only
//!   when a merge folds the delta into a freshly built segment published as
//!   generation G+1.
//! - The fold is a full rebuild over (current documents ⊕ delta). That is
//!   deliberate: segments stay single and immutable (top-k retrieval and
//!   every replay scorer work unchanged), and
//!   per-generation stats come for free. Corpora here are explanation
//!   workloads (thousands of documents), not web-scale shards; rebuild cost
//!   is milliseconds and happens off the request path.
//!
//! Staging returns a *sequence ticket*. "Read your own write" is
//! [`GenerationIndex::wait_for_seq`]: block until a published generation
//! includes that ticket. Waiting on "generation+1" instead would race with
//! a concurrent merge that snapshotted the delta before the write landed.
//!
//! [`spawn_merger`] runs the fold on a background thread, condvar-woken by
//! [`GenerationIndex::stage`], so callers that do not need a custom publish
//! hook get merge-behind-writes for free.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use credence_text::Analyzer;

use crate::doc::Document;
use crate::index::InvertedIndex;

/// One staged mutation in the delta segment.
#[derive(Debug, Clone)]
pub enum DeltaOp {
    /// Insert a new document, or replace the existing document with the
    /// same external name. Documents with empty names always append.
    Upsert(Document),
    /// Tombstone the document with this external name. Applying the
    /// tombstone removes every document whose name matches.
    Delete(String),
}

/// What a merge published.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The new generation number.
    pub generation: u64,
    /// The freshly built immutable segment for that generation.
    pub index: Arc<InvertedIndex>,
    /// The highest op sequence folded into this generation.
    pub folded_seq: u64,
}

/// The delta segment: staged ops plus fold bookkeeping.
#[derive(Debug)]
struct Delta {
    /// Staged `(seq, op)` pairs, ascending by seq. Ops stay in the log
    /// until the generation containing them has been *published*, so
    /// existence checks ([`GenerationIndex::stage_insert`]) never miss an
    /// op that a concurrent merge has read but not yet made visible.
    ops: Vec<(u64, DeltaOp)>,
    /// Sequence assigned to the next staged op (tickets start at 1).
    next_seq: u64,
    /// Highest sequence included in a published generation.
    last_folded_seq: u64,
    /// Number of merges published.
    merges: u64,
}

/// A mutable corpus as a sequence of immutable generation snapshots.
#[derive(Debug)]
pub struct GenerationIndex {
    /// The live `(generation, segment)` pair. Writers hold the write lock
    /// only for the pointer swap; readers only for the `Arc` clone.
    current: RwLock<(u64, Arc<InvertedIndex>)>,
    delta: Mutex<Delta>,
    /// Signaled when `last_folded_seq` advances (a generation published).
    folded: Condvar,
    /// Signaled when an op is staged (wakes the background merger).
    work: Condvar,
    /// Serializes merges so generations publish in order.
    merge_gate: Mutex<()>,
}

impl GenerationIndex {
    /// Build generation 0 from `docs`.
    pub fn new(docs: Vec<Document>, analyzer: Analyzer) -> Self {
        Self::from_index(InvertedIndex::build(docs, analyzer))
    }

    /// Wrap an already-built segment as generation 0.
    pub fn from_index(index: InvertedIndex) -> Self {
        Self {
            current: RwLock::new((0, Arc::new(index))),
            delta: Mutex::new(Delta {
                ops: Vec::new(),
                next_seq: 1,
                last_folded_seq: 0,
                merges: 0,
            }),
            folded: Condvar::new(),
            work: Condvar::new(),
            merge_gate: Mutex::new(()),
        }
    }

    /// The live `(generation, segment)` snapshot. O(1): a lock-guarded
    /// `Arc` clone; the returned segment is immutable and lock-free.
    pub fn snapshot(&self) -> (u64, Arc<InvertedIndex>) {
        let guard = self.current.read().unwrap();
        (guard.0, Arc::clone(&guard.1))
    }

    /// The live generation number.
    pub fn generation(&self) -> u64 {
        self.current.read().unwrap().0
    }

    /// Stage one mutation; returns its sequence ticket. The op becomes
    /// visible to readers once a merge folds it ([`Self::wait_for_seq`]).
    pub fn stage(&self, op: DeltaOp) -> u64 {
        let mut delta = self.delta.lock().unwrap();
        let seq = delta.next_seq;
        delta.next_seq += 1;
        delta.ops.push((seq, op));
        self.work.notify_all();
        seq
    }

    /// Stage an insert that must not clobber an existing document: errors
    /// if `name` exists in the live snapshot or the unfolded delta. The
    /// check and the stage happen under the delta lock, so two concurrent
    /// inserts of the same name cannot both succeed.
    pub fn stage_insert(&self, doc: Document) -> Result<u64, DocExists> {
        let mut delta = self.delta.lock().unwrap();
        // Later ops win: scan the log backwards for the name's fate.
        let mut exists = None;
        for (_, op) in delta.ops.iter().rev() {
            match op {
                DeltaOp::Upsert(d) if d.name == doc.name => {
                    exists = Some(true);
                    break;
                }
                DeltaOp::Delete(n) if *n == doc.name => {
                    exists = Some(false);
                    break;
                }
                _ => {}
            }
        }
        let exists = exists.unwrap_or_else(|| {
            // Ops are retained in the log until published, so the snapshot
            // read here cannot miss an in-flight fold.
            let (_, index) = self.snapshot();
            index.documents().iter().any(|d| d.name == doc.name)
        });
        if exists {
            return Err(DocExists);
        }
        let seq = delta.next_seq;
        delta.next_seq += 1;
        delta.ops.push((seq, DeltaOp::Upsert(doc)));
        self.work.notify_all();
        Ok(seq)
    }

    /// Whether a document named `name` exists in the effective corpus
    /// (live snapshot overridden by unfolded delta ops).
    pub fn doc_exists(&self, name: &str) -> bool {
        let delta = self.delta.lock().unwrap();
        for (_, op) in delta.ops.iter().rev() {
            match op {
                DeltaOp::Upsert(d) if d.name == name => return true,
                DeltaOp::Delete(n) if n == name => return false,
                _ => {}
            }
        }
        drop(delta);
        let (_, index) = self.snapshot();
        index.documents().iter().any(|d| d.name == name)
    }

    /// Number of staged ops not yet included in a published generation.
    pub fn pending_ops(&self) -> usize {
        self.delta.lock().unwrap().ops.len()
    }

    /// Number of merges published.
    pub fn merges(&self) -> u64 {
        self.delta.lock().unwrap().merges
    }

    /// Highest sequence ticket included in a published generation.
    pub fn last_folded_seq(&self) -> u64 {
        self.delta.lock().unwrap().last_folded_seq
    }

    /// Fold every currently staged op into a new segment and publish it as
    /// the next generation. Returns `None` when the delta is empty.
    ///
    /// Ops staged *during* the fold stay pending for the next merge. The
    /// rebuild runs outside the delta lock, so staging never blocks on an
    /// in-progress merge.
    pub fn merge_once(&self) -> Option<MergeOutcome> {
        let _gate = self.merge_gate.lock().unwrap();
        let (ops, max_seq) = {
            let delta = self.delta.lock().unwrap();
            match delta.ops.last() {
                None => return None,
                Some(&(max_seq, _)) => (delta.ops.clone(), max_seq),
            }
        };
        // Only merges write `current` and merges are serialized by the
        // gate, so this read is the parent generation for certain.
        let (generation, current) = self.snapshot();
        let mut docs = current.documents().to_vec();
        for (_, op) in &ops {
            apply_op(&mut docs, op);
        }
        let index = Arc::new(InvertedIndex::build(docs, current.analyzer()));
        {
            let mut guard = self.current.write().unwrap();
            *guard = (generation + 1, Arc::clone(&index));
        }
        {
            let mut delta = self.delta.lock().unwrap();
            delta.ops.retain(|&(seq, _)| seq > max_seq);
            delta.last_folded_seq = max_seq;
            delta.merges += 1;
            self.folded.notify_all();
        }
        Some(MergeOutcome {
            generation: generation + 1,
            index,
            folded_seq: max_seq,
        })
    }

    /// Block until the generation containing sequence ticket `seq` has been
    /// published, or `timeout` elapses. Returns whether the fold happened.
    pub fn wait_for_seq(&self, seq: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut delta = self.delta.lock().unwrap();
        while delta.last_folded_seq < seq {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let (guard, wait) = self.folded.wait_timeout(delta, left).unwrap();
            delta = guard;
            if wait.timed_out() && delta.last_folded_seq < seq {
                return false;
            }
        }
        true
    }
}

/// Insert-conflict marker from [`GenerationIndex::stage_insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocExists;

/// Apply one delta op to a document list (in-place, seq order).
fn apply_op(docs: &mut Vec<Document>, op: &DeltaOp) {
    match op {
        DeltaOp::Upsert(doc) => {
            let slot = (!doc.name.is_empty())
                .then(|| docs.iter_mut().find(|d| d.name == doc.name))
                .flatten();
            match slot {
                Some(existing) => *existing = doc.clone(),
                None => docs.push(doc.clone()),
            }
        }
        DeltaOp::Delete(name) => docs.retain(|d| d.name != *name),
    }
}

/// Handle to a background merge thread; stops and joins on [`MergerHandle::stop`]
/// or drop.
#[derive(Debug)]
pub struct MergerHandle {
    index: Arc<GenerationIndex>,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MergerHandle {
    /// Stop the merger after it folds any remaining staged ops.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        {
            // Lock/unlock pairs the notify with the merger's wait.
            let _delta = self.index.delta.lock().unwrap();
            self.index.work.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MergerHandle {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Spawn a thread that folds the delta whenever ops are staged. The loop
/// drains remaining ops before exiting, so `stop()` is a flush.
pub fn spawn_merger(index: Arc<GenerationIndex>) -> MergerHandle {
    let shutdown = Arc::new(AtomicBool::new(false));
    let thread_index = Arc::clone(&index);
    let thread_shutdown = Arc::clone(&shutdown);
    let handle = std::thread::Builder::new()
        .name("credence-merge".into())
        .spawn(move || loop {
            {
                let mut delta = thread_index.delta.lock().unwrap();
                while delta.ops.is_empty() && !thread_shutdown.load(Ordering::SeqCst) {
                    let (guard, _) = thread_index
                        .work
                        .wait_timeout(delta, Duration::from_millis(200))
                        .unwrap();
                    delta = guard;
                }
                if delta.ops.is_empty() && thread_shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            thread_index.merge_once();
        })
        .expect("spawn merge thread");
    MergerHandle {
        index,
        shutdown,
        handle: Some(handle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(name: &str, body: &str) -> Document {
        Document::new(name, name.to_uppercase(), body)
    }

    fn seed() -> Vec<Document> {
        vec![
            doc("a", "vaccines protect communities"),
            doc("b", "masks reduce viral transmission"),
            doc("c", "conspiracy theories spread online"),
        ]
    }

    fn gen_index() -> GenerationIndex {
        GenerationIndex::new(seed(), Analyzer::english())
    }

    #[test]
    fn starts_at_generation_zero() {
        let g = gen_index();
        let (generation, index) = g.snapshot();
        assert_eq!(generation, 0);
        assert_eq!(index.num_docs(), 3);
        assert_eq!(g.pending_ops(), 0);
        assert_eq!(g.merges(), 0);
    }

    #[test]
    fn merge_with_empty_delta_is_a_no_op() {
        let g = gen_index();
        assert!(g.merge_once().is_none());
        assert_eq!(g.generation(), 0);
    }

    #[test]
    fn staged_ops_fold_into_the_next_generation() {
        let g = gen_index();
        let t1 = g.stage(DeltaOp::Upsert(doc("d", "vaccines and masks together")));
        let t2 = g.stage(DeltaOp::Delete("c".into()));
        assert_eq!((t1, t2), (1, 2));
        assert_eq!(g.pending_ops(), 2);

        let outcome = g.merge_once().expect("merge publishes");
        assert_eq!(outcome.generation, 1);
        assert_eq!(outcome.folded_seq, 2);
        assert_eq!(g.pending_ops(), 0);
        assert_eq!(g.merges(), 1);

        let (generation, index) = g.snapshot();
        assert_eq!(generation, 1);
        let names: Vec<&str> = index.documents().iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "d"]);
    }

    #[test]
    fn upsert_replaces_by_name_in_place() {
        let g = gen_index();
        g.stage(DeltaOp::Upsert(doc("b", "replacement body about vaccines")));
        g.merge_once().unwrap();
        let (_, index) = g.snapshot();
        let names: Vec<&str> = index.documents().iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"], "replacement keeps position");
        assert!(index.documents()[1].body.contains("replacement"));
    }

    #[test]
    fn pinned_snapshot_is_immutable_across_merges() {
        let g = gen_index();
        let (pinned_gen, pinned) = g.snapshot();
        g.stage(DeltaOp::Delete("a".into()));
        g.stage(DeltaOp::Delete("b".into()));
        g.merge_once().unwrap();
        assert_eq!(pinned_gen, 0);
        assert_eq!(pinned.num_docs(), 3, "pinned segment still serves gen 0");
        assert_eq!(g.snapshot().1.num_docs(), 1);
    }

    #[test]
    fn collection_stats_are_per_generation() {
        let g = gen_index();
        let before = g.snapshot().1.stats().avg_doc_len();
        g.stage(DeltaOp::Upsert(doc(
            "long",
            "a very long document body with many many additional informative terms \
             padding the average document length upward for the statistics check",
        )));
        g.merge_once().unwrap();
        let after = g.snapshot().1.stats().avg_doc_len();
        assert!(
            after > before,
            "avgdl must be rebuilt per generation ({before} -> {after})"
        );
    }

    #[test]
    fn stage_insert_conflicts_on_live_and_staged_names() {
        let g = gen_index();
        assert_eq!(g.stage_insert(doc("a", "dup")), Err(DocExists));
        let ticket = g.stage_insert(doc("fresh", "new doc")).unwrap();
        assert!(ticket > 0);
        assert_eq!(g.stage_insert(doc("fresh", "dup again")), Err(DocExists));
        // Delete in the delta frees the name before any merge happens.
        g.stage(DeltaOp::Delete("a".into()));
        assert!(g.stage_insert(doc("a", "recreated")).is_ok());
    }

    #[test]
    fn doc_exists_sees_through_the_delta() {
        let g = gen_index();
        assert!(g.doc_exists("a"));
        g.stage(DeltaOp::Delete("a".into()));
        assert!(!g.doc_exists("a"));
        g.stage(DeltaOp::Upsert(doc("z", "brand new")));
        assert!(g.doc_exists("z"));
    }

    #[test]
    fn wait_for_seq_times_out_without_a_merge() {
        let g = gen_index();
        let ticket = g.stage(DeltaOp::Delete("a".into()));
        assert!(!g.wait_for_seq(ticket, Duration::from_millis(30)));
        g.merge_once().unwrap();
        assert!(g.wait_for_seq(ticket, Duration::from_millis(30)));
    }

    #[test]
    fn background_merger_folds_staged_ops() {
        let g = Arc::new(gen_index());
        let merger = spawn_merger(Arc::clone(&g));
        let ticket = g.stage(DeltaOp::Upsert(doc("bg", "merged in the background")));
        assert!(
            g.wait_for_seq(ticket, Duration::from_secs(5)),
            "background merger folds the staged op"
        );
        assert!(g.doc_exists("bg"));
        assert!(g.generation() >= 1);
        merger.stop();
    }

    #[test]
    fn merger_stop_flushes_remaining_ops() {
        let g = Arc::new(gen_index());
        let merger = spawn_merger(Arc::clone(&g));
        let ticket = g.stage(DeltaOp::Delete("b".into()));
        merger.stop();
        assert!(g.last_folded_seq() >= ticket, "stop drains the delta");
        assert!(!g.snapshot().1.documents().iter().any(|d| d.name == "b"));
    }

    #[test]
    fn ops_staged_during_merge_stay_pending() {
        let g = gen_index();
        g.stage(DeltaOp::Delete("a".into()));
        g.merge_once().unwrap();
        g.stage(DeltaOp::Delete("b".into()));
        assert_eq!(g.pending_ops(), 1);
        assert_eq!(g.generation(), 1);
        g.merge_once().unwrap();
        assert_eq!(g.generation(), 2);
        assert_eq!(g.snapshot().1.num_docs(), 1);
    }
}
