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
//! [`GenerationIndex`] is the delta log and the fold, and nothing else:
//! [`GenerationIndex::stage`] returns a *sequence ticket* and
//! [`GenerationIndex::merge_once`] reports the highest ticket it folded.
//! Who runs the fold, and who waits for a ticket to publish, is the
//! caller's business; in the server that is one merge thread per corpus in
//! `credence_core::registry`.

use std::sync::{Arc, Mutex, RwLock};

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
    /// Serializes merges so generations publish in order.
    merge_gate: Mutex<()>,
}

impl GenerationIndex {
    /// Build generation 0 from `docs`.
    pub fn new(docs: Vec<Document>, analyzer: Analyzer) -> Self {
        Self {
            current: RwLock::new((0, Arc::new(InvertedIndex::build(docs, analyzer)))),
            delta: Mutex::new(Delta {
                ops: Vec::new(),
                next_seq: 1,
                merges: 0,
            }),
            merge_gate: Mutex::new(()),
        }
    }

    /// The live `(generation, segment)` snapshot. O(1): a lock-guarded
    /// `Arc` clone; the returned segment is immutable and lock-free.
    pub fn snapshot(&self) -> (u64, Arc<InvertedIndex>) {
        let guard = self.current.read().unwrap();
        (guard.0, Arc::clone(&guard.1))
    }

    /// Stage one mutation; returns its sequence ticket. The op becomes
    /// visible to readers once a merge folds it: the first
    /// [`MergeOutcome::folded_seq`] at or above the ticket.
    pub fn stage(&self, op: DeltaOp) -> u64 {
        let mut delta = self.delta.lock().unwrap();
        let seq = delta.next_seq;
        delta.next_seq += 1;
        delta.ops.push((seq, op));
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
            delta.merges += 1;
        }
        Some(MergeOutcome {
            generation: generation + 1,
            index,
            folded_seq: max_seq,
        })
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
        assert_eq!(g.snapshot().0, 0);
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
    fn ops_staged_during_merge_stay_pending() {
        let g = gen_index();
        g.stage(DeltaOp::Delete("a".into()));
        g.merge_once().unwrap();
        g.stage(DeltaOp::Delete("b".into()));
        assert_eq!(g.pending_ops(), 1);
        assert_eq!(g.snapshot().0, 1);
        g.merge_once().unwrap();
        assert_eq!(g.snapshot().0, 2);
        assert_eq!(g.snapshot().1.num_docs(), 1);
    }
}
