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
//! - The fold builds every structure anew over (current documents ⊕
//!   delta): vocabulary, postings, statistics, bounds. That is deliberate:
//!   segments stay single and immutable (top-k retrieval and every replay
//!   scorer work unchanged), per-generation stats come for free, and the
//!   new segment equals [`InvertedIndex::build`] of its documents, field
//!   by field.
//! - Only the documents the delta touched are analysed. Every other
//!   document reuses its `(term, tf)` pairs and length from the parent
//!   generation, remapped through a parent→new term-id table. Term ids are
//!   handed out in first-occurrence order, so the remap must intern a
//!   document's new terms in the order its body first uses them. One rule
//!   gets that order with no stored token stream: an untouched document
//!   `j` is reused only if each of its terms is already in the new
//!   vocabulary or was first seen in `j` in the parent (its postings start
//!   at `j`). The parent interned those terms while analysing `j`, so
//!   ascending parent id is their first-occurrence order in `j`. Any other
//!   untouched document is analysed again; that only happens to the new
//!   first home of a term whose old first home was deleted or rewritten.
//!   The rule reads only the parent's postings, so the index stores
//!   nothing extra for it.
//!
//! [`GenerationIndex`] is the delta log and the fold, and nothing else:
//! [`GenerationIndex::stage`] returns a *sequence ticket* and
//! [`GenerationIndex::merge_once`] reports the highest ticket it folded.
//! Who runs the fold, and who waits for a ticket to publish, is the
//! caller's business; in the server that is one merge thread per corpus in
//! `credence_core::registry`.

use std::sync::{Arc, Mutex, RwLock};

use credence_text::Analyzer;

use crate::blocks::DEFAULT_BLOCK_SIZE;
use crate::doc::{DocId, Document};
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
    /// How many documents the fold analysed: each one its ops wrote, plus
    /// any untouched document the first-home rule re-analysed (module
    /// docs). The rest reused the parent generation's analysis.
    pub analysed: usize,
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
    /// build runs outside the delta lock, so staging never blocks on an
    /// in-progress merge. Documents the ops left alone reuse the parent
    /// generation's analysis (module docs).
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
        let mut docs: Vec<(Document, Option<DocId>)> = current
            .documents()
            .iter()
            .cloned()
            .zip(current.doc_ids().map(Some))
            .collect();
        for (_, op) in &ops {
            apply_op(&mut docs, op);
        }
        let (docs, origin): (Vec<Document>, Vec<Option<DocId>>) = docs.into_iter().unzip();
        let (index, analysed) = InvertedIndex::assemble(
            docs,
            current.analyzer(),
            DEFAULT_BLOCK_SIZE,
            Some((&current, &origin)),
        );
        let index = Arc::new(index);
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
            analysed,
        })
    }
}

/// Insert-conflict marker from [`GenerationIndex::stage_insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocExists;

/// Apply one delta op to a document list (in-place, seq order). Each
/// document carries its id in the parent generation, which an op that
/// writes the document clears.
fn apply_op(docs: &mut Vec<(Document, Option<DocId>)>, op: &DeltaOp) {
    match op {
        DeltaOp::Upsert(doc) => {
            let slot = (!doc.name.is_empty())
                .then(|| docs.iter_mut().find(|(d, _)| d.name == doc.name))
                .flatten();
            match slot {
                Some(existing) => *existing = (doc.clone(), None),
                None => docs.push((doc.clone(), None)),
            }
        }
        DeltaOp::Delete(name) => docs.retain(|(d, _)| d.name != *name),
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

    /// Fold `ops` into a corpus of `bodies` (named `d0`, `d1`, …) and check
    /// the merged segment against a scratch build of its documents.
    fn fold(bodies: &[&str], ops: Vec<DeltaOp>) -> MergeOutcome {
        let docs = bodies
            .iter()
            .enumerate()
            .map(|(i, body)| doc(&format!("d{i}"), body))
            .collect();
        let g = GenerationIndex::new(docs, Analyzer::english());
        for op in ops {
            g.stage(op);
        }
        let outcome = g.merge_once().expect("merge publishes");
        let scratch = InvertedIndex::build(outcome.index.documents().to_vec(), Analyzer::english());
        assert!(
            *outcome.index == scratch,
            "merged segment differs from a scratch build"
        );
        outcome
    }

    fn terms(index: &InvertedIndex) -> Vec<&str> {
        index.vocabulary().iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn a_merge_analyses_only_the_documents_its_ops_wrote() {
        let bodies = [
            "vaccines protect communities",
            "masks reduce transmission",
            "vaccines and masks",
        ];
        let rewrite = fold(
            &bodies,
            vec![DeltaOp::Upsert(doc("d1", "masks protect communities"))],
        );
        assert_eq!(rewrite.analysed, 1);
        let append = fold(&bodies, vec![DeltaOp::Upsert(doc("", "harbor economy"))]);
        assert_eq!(append.analysed, 1);
        let delete = fold(&bodies, vec![DeltaOp::Delete("d2".into())]);
        assert_eq!(delete.analysed, 0);
        let undone = fold(
            &bodies,
            vec![
                DeltaOp::Upsert(doc("d9", "garden")),
                DeltaOp::Delete("d9".into()),
            ],
        );
        assert_eq!(undone.analysed, 0);
    }

    #[test]
    fn a_deleted_first_home_sends_the_next_holder_back_to_analysis() {
        // "harbor" is first seen in d0, so the parent numbers it before
        // "economy", which d1 mentions first. With d0 gone, d1 is the new
        // first home of both and a scratch build numbers "economy" first:
        // ascending parent ids would get that order wrong.
        let outcome = fold(
            &["harbor", "economy harbor", "harbor economy garden"],
            vec![DeltaOp::Delete("d0".into())],
        );
        assert_eq!(terms(&outcome.index), ["economi", "harbor", "garden"]);
        // d1 is analysed again; d2 reuses its analysis ("garden" is first
        // seen there).
        assert_eq!(outcome.analysed, 1);
    }

    #[test]
    fn a_rewrite_that_reorders_first_seen_terms_renumbers_the_vocabulary() {
        let outcome = fold(
            &["garden flowers", "flowers garden harbor"],
            vec![DeltaOp::Upsert(doc("d0", "flowers garden"))],
        );
        assert_eq!(terms(&outcome.index), ["flower", "garden", "harbor"]);
        assert_eq!(outcome.analysed, 1, "d1 reuses its analysis");
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
