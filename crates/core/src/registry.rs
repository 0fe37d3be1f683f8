//! Named-corpus registry with generation-snapshot engines.
//!
//! Multi-tenant serving: one process, many corpora. Each [`Corpus`] wraps a
//! [`GenerationIndex`] (immutable segments + delta log, `credence_index`)
//! and publishes a [`CorpusSnapshot`] per generation — the segment, a ranker
//! over it, and a [`CredenceEngine`] (ranking cache, and a Doc2Vec space
//! trained on the first request that reads it, so a publish trains
//! nothing). Requests resolve a snapshot once and then run against state
//! that never changes once set, so every ranking and explanation is
//! bit-reproducible against the generation it names, even while writes
//! advance the corpus.
//!
//! The [`CorpusRegistry`] owns what every corpus is built from: one ranker
//! factory, one engine config and the English analyzer. It also owns one
//! block of retrieval counters that every engine it builds increments in
//! place, so its totals count the work of every generation, including
//! generations still pinned after their corpus was removed or replaced.
//!
//! Each corpus runs one merge thread, the only caller of
//! [`GenerationIndex::merge_once`] on its index, and answers read-your-write
//! with [`Corpus::wait_for_seq`]. One mutex and one condvar carry both
//! directions: staging a ticket wakes the merge thread, and publishing one
//! wakes its waiters. A merge that panics fails its corpus: the thread
//! catches the panic and wakes every waiter, reads keep the last published
//! generation, and writes are refused ([`StageError::MergeFailed`]) until a
//! replacing [`CorpusRegistry::register`] starts the name afresh.
//!
//! Locking discipline, from the outside in:
//!
//! - [`CorpusRegistry`] holds one governor lock over the name → corpus map.
//!   Register, hot-swap, and remove are serialized there; lookups clone an
//!   `Arc` and leave.
//! - Each corpus holds its live snapshot behind a `RwLock<Arc<_>>`; readers
//!   take the read lock just long enough to clone the `Arc`.
//! - Retired generations live in a `Weak` history map: a generation stays
//!   resolvable exactly as long as someone (an in-flight budget, a queued
//!   job) still pins its `Arc`. When the last pin drops, the segment, the
//!   engine, and its Doc2Vec space are reclaimed and the generation answers
//!   `GenerationGone`.
//! - A write takes the corpus's ticket mutex, then the delta's lock, and
//!   holds the first across the second, so a shutdown either refuses it or
//!   finds its ticket to publish. Nothing takes them the other way round:
//!   the merge thread folds the delta before it takes the ticket mutex.
//!
//! The snapshot cell is self-referential (engine borrows ranker borrows
//! segment) and uses two documented `unsafe` lifetime extensions; see
//! `CorpusSnapshot::build` for the invariants.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use credence_index::{DeltaOp, DocExists, Document, GenerationIndex, InvertedIndex};
use credence_rank::Ranker;
use credence_text::Analyzer;

use crate::engine::{CredenceEngine, EngineConfig, RetrievalCounters, RetrievalStats};

/// Builds a ranker over a (generation's) segment.
///
/// The `'static` on the argument is the snapshot cell's internal lifetime
/// claim: the reference is only valid as long as the snapshot that invoked
/// the factory, and the returned ranker must not stash it anywhere that
/// outlives the returned box.
pub type RankerFactory = Arc<dyn Fn(&'static InvertedIndex) -> Box<dyn Ranker> + Send + Sync>;

/// A BM25 factory with default parameters — the registry's default model.
pub fn bm25_factory() -> RankerFactory {
    Arc::new(|index| {
        Box::new(credence_rank::Bm25Ranker::new(
            index,
            credence_index::Bm25Params::default(),
        ))
    })
}

/// Why a snapshot could not be resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// No corpus registered under that name.
    CorpusNotFound,
    /// The requested generation is not live and no reader pins it (or it
    /// never existed).
    GenerationGone,
}

/// Why a corpus refused to stage a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageError {
    /// The corpus was shut down (removed or replaced): its merge thread
    /// has stopped, so nothing would publish the write.
    Stopped,
    /// An insert named a document that already exists.
    DocExists,
    /// A delete named no document.
    DocNotFound,
    /// A merge of this corpus panicked: nothing staged will publish.
    MergeFailed,
}

/// What every snapshot of one registry is built from and counts into.
struct Shared {
    factory: RankerFactory,
    config: EngineConfig,
    counters: Arc<RetrievalCounters>,
    /// The id of the next snapshot built.
    next_id: AtomicU64,
}

/// One immutable generation of one corpus: segment + ranker + engine.
///
/// Everything a request needs, resolved once; holding the `Arc` pins the
/// generation alive (and resolvable) until the holder drops it.
pub struct CorpusSnapshot {
    // Field order is drop order: the engine borrows the ranker, the ranker
    // borrows the segment. Do not reorder.
    engine: CredenceEngine<'static>,
    #[allow(dead_code)] // owned for the engine's borrow, never read directly
    ranker: Box<dyn Ranker>,
    index: Arc<InvertedIndex>,
    generation: u64,
    corpus: String,
    id: u64,
}

impl CorpusSnapshot {
    /// Assemble the self-referential cell.
    ///
    /// SAFETY invariants making the two lifetime extensions sound:
    /// - `index` is an `Arc`: the `InvertedIndex` is heap-allocated and its
    ///   address is stable for the life of this struct (the struct owns one
    ///   strong count, dropped last by field order).
    /// - `ranker` is a `Box`: the ranker is heap-allocated with a stable
    ///   address; moving the `CorpusSnapshot` moves only the pointers.
    /// - Field order guarantees the engine drops before the ranker, and the
    ///   ranker before the segment, so no borrow dangles during drop.
    /// - Accessors only hand out the engine at the struct's own lifetime;
    ///   the fabricated `'static` never escapes except through
    ///   [`Self::engine`], whose contract is documented there.
    fn build(
        corpus: String,
        generation: u64,
        index: Arc<InvertedIndex>,
        shared: &Shared,
    ) -> Arc<Self> {
        let index_ref: &'static InvertedIndex = unsafe { &*Arc::as_ptr(&index) };
        let ranker: Box<dyn Ranker> = (shared.factory)(index_ref);
        let ranker_ref: &'static dyn Ranker = unsafe { &*(ranker.as_ref() as *const dyn Ranker) };
        let engine = CredenceEngine::with_counters(
            ranker_ref,
            shared.config.clone(),
            Arc::clone(&shared.counters),
        );
        Arc::new(Self {
            engine,
            ranker,
            index,
            generation,
            corpus,
            id: shared.next_id.fetch_add(1, Relaxed),
        })
    }

    /// The engine for this generation.
    ///
    /// The `'static` parameter is internal; treat the result as borrowed
    /// from `self` and do not copy references out of it beyond the life of
    /// the snapshot `Arc`.
    pub fn engine(&self) -> &CredenceEngine<'static> {
        &self.engine
    }

    /// The generation's immutable segment.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The owning corpus name.
    pub fn corpus(&self) -> &str {
        &self.corpus
    }

    /// An id no other snapshot of the same registry has. A replaced or
    /// re-added corpus restarts at generation 0, so `(corpus, generation)`
    /// can name two different snapshots over a registry's life; this
    /// cannot.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of documents in this generation.
    pub fn num_docs(&self) -> usize {
        self.index.num_docs()
    }
}

impl std::fmt::Debug for CorpusSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorpusSnapshot")
            .field("corpus", &self.corpus)
            .field("generation", &self.generation)
            .field("num_docs", &self.num_docs())
            .finish()
    }
}

/// Summary row for listings and metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusInfo {
    /// Registered name.
    pub name: String,
    /// Live generation number.
    pub generation: u64,
    /// Documents in the live generation.
    pub num_docs: usize,
    /// Staged ops not yet folded.
    pub pending_ops: usize,
    /// Generations published by merges under this name (excludes
    /// generation 0). A hot-swap carries the outgoing corpus's count on.
    pub merges: u64,
    /// Whether a merge panicked ([`Corpus::failed`]): reads keep the last
    /// published generation, and writes are refused until a replacing
    /// registration.
    pub failed: bool,
}

/// The merge thread's work and its waiters' answer, in
/// [`GenerationIndex`] sequence tickets.
#[derive(Debug, Default)]
struct Tickets {
    /// The highest ticket staged.
    staged: u64,
    /// The highest ticket in a published snapshot.
    published: u64,
    /// Set by [`Corpus::shutdown`]: the merge thread exits once nothing
    /// staged is left to publish.
    shutdown: bool,
    /// Set when a merge panicked; the merge thread has exited.
    failed: bool,
}

/// A live, mutable corpus: generation index + snapshot publication.
pub struct Corpus {
    name: String,
    gen_index: GenerationIndex,
    shared: Arc<Shared>,
    current: RwLock<Arc<CorpusSnapshot>>,
    /// Retired generations, resolvable while externally pinned.
    history: Mutex<HashMap<u64, Weak<CorpusSnapshot>>>,
    /// Merges published under this name, shared with the corpus this one
    /// replaced.
    merges: Arc<AtomicU64>,
    tickets: Mutex<Tickets>,
    /// Signalled when a ticket is staged or published, on shutdown, and
    /// when a merge fails.
    tickets_changed: Condvar,
    merger: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Corpus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Corpus")
            .field("name", &self.name)
            .field("generation", &self.generation())
            .finish()
    }
}

impl Corpus {
    /// Build generation 0 and start the corpus's merge thread.
    fn spawn(
        name: String,
        docs: Vec<Document>,
        shared: Arc<Shared>,
        merges: Arc<AtomicU64>,
    ) -> Arc<Self> {
        let gen_index = GenerationIndex::new(docs, Analyzer::english());
        let (generation, index) = gen_index.snapshot();
        let snapshot = CorpusSnapshot::build(name.clone(), generation, index, &shared);
        let corpus = Arc::new(Self {
            name,
            gen_index,
            shared,
            current: RwLock::new(snapshot),
            history: Mutex::default(),
            merges,
            tickets: Mutex::default(),
            tickets_changed: Condvar::new(),
            merger: Mutex::default(),
        });
        let thread_corpus = Arc::clone(&corpus);
        let handle = std::thread::Builder::new()
            .name(format!("credence-merge-{}", corpus.name))
            .spawn(move || thread_corpus.merge_loop())
            .expect("spawn corpus merge thread");
        *corpus.merger.lock().unwrap() = Some(handle);
        corpus
    }

    /// The merge thread: publish while a staged ticket is unpublished, and
    /// exit once shutdown finds nothing left to publish, or once a merge
    /// panics.
    fn merge_loop(&self) {
        let mut tickets = self.tickets.lock().expect("tickets lock poisoned");
        loop {
            if tickets.published < tickets.staged {
                drop(tickets);
                // A panic can only come from the fold or the snapshot
                // build, before the swap, and holds no lock a read takes:
                // the published snapshot stays whole.
                let merged = catch_unwind(AssertUnwindSafe(|| self.merge_and_publish()));
                tickets = self.tickets.lock().expect("tickets lock poisoned");
                if merged.is_err() {
                    tickets.failed = true;
                    self.tickets_changed.notify_all();
                    eprintln!(
                        "credence: a merge of corpus '{}' panicked; its writes answer 503 merge_failed until it is replaced",
                        self.name
                    );
                    return;
                }
            } else if tickets.shutdown {
                return;
            } else {
                tickets = self
                    .tickets_changed
                    .wait(tickets)
                    .expect("tickets lock poisoned");
            }
        }
    }

    /// Fold the delta and publish the next snapshot. Only the merge thread
    /// merges, so a staged ticket it has not published is still in the
    /// delta and the fold is never empty.
    fn merge_and_publish(&self) {
        let Some(outcome) = self.gen_index.merge_once() else {
            return;
        };
        let snapshot = CorpusSnapshot::build(
            self.name.clone(),
            outcome.generation,
            outcome.index,
            &self.shared,
        );
        let retired = {
            let mut current = self.current.write().unwrap();
            std::mem::replace(&mut *current, snapshot)
        };
        {
            let mut history = self.history.lock().unwrap();
            history.retain(|_, weak| weak.strong_count() > 0);
            history.insert(retired.generation(), Arc::downgrade(&retired));
        }
        drop(retired); // release our pin before announcing the publish
        self.merges.fetch_add(1, Relaxed);
        self.tickets
            .lock()
            .expect("tickets lock poisoned")
            .published = outcome.folded_seq;
        self.tickets_changed.notify_all();
    }

    /// Registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Live generation number.
    pub fn generation(&self) -> u64 {
        self.current.read().unwrap().generation()
    }

    /// Pin the live snapshot.
    pub fn snapshot(&self) -> Arc<CorpusSnapshot> {
        Arc::clone(&self.current.read().unwrap())
    }

    /// Pin a snapshot: the live one, or a retired generation still pinned
    /// elsewhere.
    pub fn snapshot_at(
        &self,
        generation: Option<u64>,
    ) -> Result<Arc<CorpusSnapshot>, SnapshotError> {
        let current = self.snapshot();
        let Some(generation) = generation else {
            return Ok(current);
        };
        if generation == current.generation() {
            return Ok(current);
        }
        self.history
            .lock()
            .unwrap()
            .get(&generation)
            .and_then(Weak::upgrade)
            .ok_or(SnapshotError::GenerationGone)
    }

    /// Stage a mutation; returns its sequence ticket for
    /// [`Self::wait_for_seq`], or [`StageError::Stopped`] after shutdown.
    pub fn stage(&self, op: DeltaOp) -> Result<u64, StageError> {
        self.staged(|| Ok(self.gen_index.stage(op)))
    }

    /// Stage an insert that 409s (at the API layer) when the name exists.
    pub fn stage_insert(&self, doc: Document) -> Result<u64, StageError> {
        self.staged(|| {
            self.gen_index
                .stage_insert(doc)
                .map_err(|DocExists| StageError::DocExists)
        })
    }

    /// Stage a delete that 404s (at the API layer) when no document of
    /// the effective corpus (live snapshot overridden by staged ops) has
    /// that name.
    pub fn stage_delete(&self, name: &str) -> Result<u64, StageError> {
        self.staged(|| {
            if !self.gen_index.doc_exists(name) {
                return Err(StageError::DocNotFound);
            }
            Ok(self.gen_index.stage(DeltaOp::Delete(name.to_string())))
        })
    }

    /// Run `stage` unless the corpus is shut down or failed, record its
    /// ticket and wake the merge thread.
    fn staged(&self, stage: impl FnOnce() -> Result<u64, StageError>) -> Result<u64, StageError> {
        let mut tickets = self.tickets.lock().expect("tickets lock poisoned");
        if tickets.shutdown {
            return Err(StageError::Stopped);
        }
        if tickets.failed {
            return Err(StageError::MergeFailed);
        }
        let seq = stage()?;
        tickets.staged = tickets.staged.max(seq);
        self.tickets_changed.notify_all();
        Ok(seq)
    }

    /// Block until the snapshot containing ticket `seq` is published, a
    /// merge fails ([`Self::failed`]), or `timeout` elapses. Returns whether
    /// it was published.
    pub fn wait_for_seq(&self, seq: u64, timeout: Duration) -> bool {
        let tickets = self.tickets.lock().expect("tickets lock poisoned");
        let (tickets, _) = self
            .tickets_changed
            .wait_timeout_while(tickets, timeout, |t| t.published < seq && !t.failed)
            .expect("tickets lock poisoned");
        tickets.published >= seq
    }

    /// Whether a merge of this corpus panicked. Its last published
    /// generation still serves reads; writes answer
    /// [`StageError::MergeFailed`].
    pub fn failed(&self) -> bool {
        self.tickets.lock().expect("tickets lock poisoned").failed
    }

    /// Summary for listings and metrics.
    pub fn info(&self) -> CorpusInfo {
        let snapshot = self.snapshot();
        CorpusInfo {
            name: self.name.clone(),
            generation: snapshot.generation(),
            num_docs: snapshot.num_docs(),
            pending_ops: self.gen_index.pending_ops(),
            merges: self.merges.load(Relaxed),
            failed: self.failed(),
        }
    }

    /// Stop and join the merge thread, publishing every staged op first
    /// unless a merge failed. Idempotent.
    pub fn shutdown(&self) {
        self.tickets.lock().expect("tickets lock poisoned").shutdown = true;
        self.tickets_changed.notify_all();
        let handle = self.merger.lock().unwrap().take();
        if handle.is_some_and(|handle| handle.join().is_err()) {
            eprintln!(
                "credence: the merge thread of corpus '{}' panicked; its staged ops never published",
                self.name
            );
        }
    }
}

/// The governor-locked name → corpus map.
pub struct CorpusRegistry {
    corpora: Mutex<BTreeMap<String, Arc<Corpus>>>,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for CorpusRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorpusRegistry")
            .field("corpora", &self.names())
            .finish()
    }
}

impl CorpusRegistry {
    /// An empty registry whose corpora rank with `factory` and serve
    /// engines built with `config`.
    pub fn new(factory: RankerFactory, config: EngineConfig) -> Self {
        Self {
            corpora: Mutex::default(),
            shared: Arc::new(Shared {
                factory,
                config,
                counters: Arc::default(),
                next_id: AtomicU64::new(0),
            }),
        }
    }

    /// Register (or hot-swap) a corpus of `docs` under `name`. The
    /// replaced corpus, if any, is shut down, and its merge count carries
    /// on in the new one; generations pinned from it stay readable until
    /// their holders drop.
    pub fn register(&self, name: impl Into<String>, docs: Vec<Document>) -> Arc<Corpus> {
        let name = name.into();
        let merges = self
            .get(&name)
            .map_or_else(Arc::default, |old| Arc::clone(&old.merges));
        let corpus = Corpus::spawn(name.clone(), docs, Arc::clone(&self.shared), merges);
        self.replace(name, Some(Arc::clone(&corpus)));
        corpus
    }

    /// Put `corpus` under `name`, or take `name` out with `None`, and shut
    /// the outgoing corpus down.
    fn replace(&self, name: String, corpus: Option<Arc<Corpus>>) -> Option<Arc<Corpus>> {
        let old = {
            let mut corpora = self.corpora.lock().unwrap();
            match corpus {
                Some(corpus) => corpora.insert(name, corpus),
                None => corpora.remove(&name),
            }
        };
        if let Some(old) = &old {
            old.shutdown();
        }
        old
    }

    /// Look up a corpus by name.
    pub fn get(&self, name: &str) -> Option<Arc<Corpus>> {
        self.corpora.lock().unwrap().get(name).cloned()
    }

    /// Resolve a pinned snapshot in one step.
    pub fn snapshot(
        &self,
        name: &str,
        generation: Option<u64>,
    ) -> Result<Arc<CorpusSnapshot>, SnapshotError> {
        self.get(name)
            .ok_or(SnapshotError::CorpusNotFound)?
            .snapshot_at(generation)
    }

    /// Remove a corpus; returns whether it existed. The merge thread is
    /// joined; pinned snapshots stay readable until dropped.
    pub fn remove(&self, name: &str) -> bool {
        self.replace(name.to_string(), None).is_some()
    }

    /// Registered names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.corpora.lock().unwrap().keys().cloned().collect()
    }

    /// Summaries for every corpus, sorted by name.
    pub fn list(&self) -> Vec<CorpusInfo> {
        let corpora: Vec<Arc<Corpus>> = self.corpora.lock().unwrap().values().cloned().collect();
        corpora.iter().map(|c| c.info()).collect()
    }

    /// Number of registered corpora.
    pub fn len(&self) -> usize {
        self.corpora.lock().unwrap().len()
    }

    /// Whether no corpora are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Process-total retrieval counters: the work of every engine this
    /// registry built, removed, replaced and pinned generations included.
    /// Only the `cache_size` gauge ever falls.
    pub fn total_retrieval_stats(&self) -> RetrievalStats {
        self.shared.counters.stats()
    }

    /// Shut down every corpus's merge thread (used by tests and orderly
    /// process exit; the server normally leaks its state).
    pub fn shutdown_all(&self) {
        let corpora: Vec<Arc<Corpus>> = self.corpora.lock().unwrap().values().cloned().collect();
        for corpus in &corpora {
            corpus.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(name: &str, body: &str) -> Document {
        Document::new(name, name.to_uppercase(), body)
    }

    fn docs() -> Vec<Document> {
        vec![
            doc("n1", "vaccines are safe and effective against covid"),
            doc("n2", "masks reduce transmission of the virus"),
            doc("n3", "vitamins do not cure covid infections"),
        ]
    }

    fn registry() -> CorpusRegistry {
        let registry = CorpusRegistry::new(bm25_factory(), EngineConfig::fast());
        registry.register("default", docs());
        registry
    }

    #[test]
    fn register_get_list_remove() {
        let registry = registry();
        assert_eq!(registry.len(), 1);
        registry.register("tenant-b", vec![doc("x", "a second tenant corpus")]);
        assert_eq!(registry.names(), ["default", "tenant-b"]);
        let infos = registry.list();
        assert_eq!(infos[1].name, "tenant-b");
        assert_eq!(infos[1].generation, 0);
        assert_eq!(infos[1].num_docs, 1);
        assert!(registry.remove("tenant-b"));
        assert!(!registry.remove("tenant-b"));
        assert!(registry.get("tenant-b").is_none());
        registry.shutdown_all();
    }

    #[test]
    fn snapshot_resolution_errors() {
        let registry = registry();
        assert_eq!(
            registry.snapshot("missing", None).unwrap_err(),
            SnapshotError::CorpusNotFound
        );
        assert_eq!(
            registry.snapshot("default", Some(7)).unwrap_err(),
            SnapshotError::GenerationGone
        );
        assert!(registry.snapshot("default", Some(0)).is_ok());
        registry.shutdown_all();
    }

    #[test]
    fn mutation_advances_generation_and_pins_hold() {
        let registry = registry();
        let corpus = registry.get("default").unwrap();
        let pinned = corpus.snapshot();
        assert_eq!(pinned.generation(), 0);
        let pinned_ranking = pinned.engine().rank("covid vaccines", 3);

        let ticket = corpus
            .stage(DeltaOp::Upsert(doc(
                "n4",
                "covid vaccines covid vaccines strongly relevant new doc",
            )))
            .unwrap();
        assert!(corpus.wait_for_seq(ticket, Duration::from_secs(10)));
        assert_eq!(corpus.generation(), 1);
        assert_eq!(corpus.snapshot().num_docs(), 4);

        // The pinned snapshot still resolves by number and still ranks the
        // old corpus bit-identically.
        let again = corpus.snapshot_at(Some(0)).unwrap();
        assert_eq!(again.generation(), 0);
        let replay = again.engine().rank("covid vaccines", 3);
        assert_eq!(replay.len(), pinned_ranking.len());
        for (a, b) in replay.iter().zip(pinned_ranking.iter()) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        registry.shutdown_all();
    }

    #[test]
    fn unpinned_generation_is_gone_after_swap() {
        let registry = registry();
        let corpus = registry.get("default").unwrap();
        let ticket = corpus.stage(DeltaOp::Delete("n3".into())).unwrap();
        assert!(corpus.wait_for_seq(ticket, Duration::from_secs(10)));
        // Nothing pinned generation 0, so it has been reclaimed.
        assert_eq!(
            corpus.snapshot_at(Some(0)).unwrap_err(),
            SnapshotError::GenerationGone
        );
        registry.shutdown_all();
    }

    #[test]
    fn stage_insert_conflicts() {
        let registry = registry();
        let corpus = registry.get("default").unwrap();
        assert!(corpus.stage_insert(doc("n1", "dup")).is_err());
        assert!(corpus.stage_insert(doc("n9", "fresh")).is_ok());
        assert_eq!(corpus.stage_delete("zzz"), Err(StageError::DocNotFound));
        assert!(corpus.stage_delete("n9").is_ok(), "a staged insert exists");
        registry.shutdown_all();
    }

    #[test]
    fn retrieval_stats_survive_generation_swaps() {
        let registry = registry();
        let corpus = registry.get("default").unwrap();
        let snapshot = corpus.snapshot();
        snapshot.engine().rank("covid", 3);
        let before = registry.total_retrieval_stats();
        assert!(before.cache_misses >= 1);
        drop(snapshot);

        let ticket = corpus.stage(DeltaOp::Delete("n2".into())).unwrap();
        assert!(corpus.wait_for_seq(ticket, Duration::from_secs(10)));
        let after = registry.total_retrieval_stats();
        assert!(
            after.cache_misses >= before.cache_misses,
            "counters must not reset on swap ({before:?} -> {after:?})"
        );
        registry.shutdown_all();
    }

    #[test]
    fn total_retrieval_stats_survive_removal_and_hot_swap() {
        let registry = registry();
        let add = |name: &str| {
            let corpus = registry.register(name, docs());
            corpus.snapshot().engine().rank("covid", 3);
        };
        add("x");
        let before = registry.total_retrieval_stats();
        assert!(before.cache_misses >= 1 && before.docs_scored >= 1);
        add("x"); // hot-swap, then rank on the new corpus
        let swapped = registry.total_retrieval_stats();
        assert!(swapped.cache_misses > before.cache_misses, "{swapped:?}");
        assert!(swapped.docs_scored > before.docs_scored, "{swapped:?}");
        assert!(registry.remove("x"));
        let removed = registry.total_retrieval_stats();
        assert_eq!(removed.cache_misses, swapped.cache_misses);
        assert_eq!(removed.docs_scored, swapped.docs_scored);
        assert_eq!(removed.cache_size, 0, "a removed corpus caches nothing");
        registry.shutdown_all();
    }

    #[test]
    fn hot_swap_replaces_the_corpus() {
        let registry = registry();
        registry.register("default", vec![doc("only", "a replacement corpus")]);
        let snapshot = registry.snapshot("default", None).unwrap();
        assert_eq!(snapshot.generation(), 0);
        assert_eq!(snapshot.num_docs(), 1);
        registry.shutdown_all();
    }

    #[test]
    fn a_wait_no_merge_answers_times_out() {
        let registry = registry();
        let corpus = registry.get("default").unwrap();
        let folded = corpus.stage(DeltaOp::Delete("n3".into())).unwrap();
        corpus.shutdown();
        assert!(
            corpus.wait_for_seq(folded, Duration::ZERO),
            "already published"
        );
        // Nothing merges after shutdown, so a ticket never staged never
        // publishes.
        let started = std::time::Instant::now();
        assert!(!corpus.wait_for_seq(folded + 1, Duration::from_millis(50)));
        let waited = started.elapsed();
        assert!(
            waited >= Duration::from_millis(50) && waited < Duration::from_secs(5),
            "{waited:?}"
        );
        assert_eq!(corpus.info().pending_ops, 0);
    }

    #[test]
    fn a_shut_down_corpus_refuses_writes() {
        let registry = registry();
        let corpus = registry.register("x", docs());
        assert!(registry.remove("x"));
        assert_eq!(
            corpus.stage(DeltaOp::Delete("n2".into())),
            Err(StageError::Stopped)
        );
        assert_eq!(
            corpus.stage_insert(doc("n9", "fresh")),
            Err(StageError::Stopped)
        );
        assert_eq!(corpus.info().pending_ops, 0);
        assert_eq!(corpus.generation(), 0);
        registry.shutdown_all();
    }

    #[test]
    fn shutdown_publishes_every_staged_op_first() {
        let registry = registry();
        let corpus = registry.get("default").unwrap();
        let mut last = 0;
        for i in 0..5 {
            last = corpus
                .stage(DeltaOp::Upsert(doc(&format!("s{i}"), "staged at shutdown")))
                .unwrap();
        }
        last = last.max(corpus.stage(DeltaOp::Delete("n1".into())).unwrap());
        corpus.shutdown();
        assert!(corpus.wait_for_seq(last, Duration::ZERO));
        let info = corpus.info();
        assert_eq!(info.pending_ops, 0);
        assert!(
            info.generation >= 1 && info.merges == info.generation,
            "{info:?}"
        );
        let snapshot = corpus.snapshot();
        let names: Vec<&str> = snapshot
            .index()
            .documents()
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(names, ["n2", "n3", "s0", "s1", "s2", "s3", "s4"]);
        corpus.shutdown(); // idempotent
    }

    #[test]
    fn total_retrieval_stats_count_a_pinned_generation_after_removal() {
        let registry = registry();
        let pinned = registry.register("x", docs()).snapshot();
        assert!(registry.remove("x"));
        let before = registry.total_retrieval_stats();
        pinned.engine().full_ranking("covid");
        let after = registry.total_retrieval_stats();
        assert_eq!(after.cache_misses, before.cache_misses + 1, "{after:?}");
        assert!(after.docs_scored > before.docs_scored, "{after:?}");
        assert_eq!(after.cache_size, 1, "the pinned engine's cache is live");
        drop(pinned);
        let dropped = registry.total_retrieval_stats();
        assert_eq!(dropped.cache_size, 0);
        assert_eq!(dropped.cache_misses, after.cache_misses);
    }

    #[test]
    fn hot_swap_carries_the_merge_count_and_removal_ends_it() {
        let registry = registry();
        let merges = |registry: &CorpusRegistry| registry.get("x").unwrap().info().merges;
        let corpus = registry.register("x", docs());
        let ticket = corpus.stage(DeltaOp::Delete("n1".into())).unwrap();
        assert!(corpus.wait_for_seq(ticket, Duration::from_secs(10)));
        assert_eq!(merges(&registry), 1);
        registry.register("x", docs());
        assert_eq!(merges(&registry), 1, "a hot-swap keeps the count");
        assert!(registry.remove("x"));
        registry.register("x", docs());
        assert_eq!(merges(&registry), 0, "removal ends the series");
        registry.shutdown_all();
    }

    /// A BM25 factory that panics on its `n`-th call.
    fn panics_on_call(n: usize) -> RankerFactory {
        let calls = AtomicU64::new(0);
        let bm25 = bm25_factory();
        Arc::new(move |index| {
            let call = calls.fetch_add(1, Relaxed) + 1;
            assert_ne!(call as usize, n, "injected ranker factory panic");
            bm25(index)
        })
    }

    #[test]
    fn a_merge_panic_fails_the_corpus_until_it_is_replaced() {
        let registry = CorpusRegistry::new(panics_on_call(2), EngineConfig::fast());
        let corpus = registry.register("x", docs());
        // The first merge builds the second ranker, which panics.
        let ticket = corpus.stage(DeltaOp::Delete("n1".into())).unwrap();
        let started = std::time::Instant::now();
        assert!(!corpus.wait_for_seq(ticket, Duration::from_secs(30)));
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the waiter woke at once"
        );
        assert!(corpus.failed());
        assert_eq!(
            corpus.stage(DeltaOp::Delete("n2".into())),
            Err(StageError::MergeFailed)
        );
        assert_eq!(
            corpus.stage_insert(doc("n9", "fresh")),
            Err(StageError::MergeFailed)
        );
        // The failed fold dropped n1; the refusal still comes first.
        assert_eq!(corpus.stage_delete("n1"), Err(StageError::MergeFailed));
        // Reads keep the last published generation.
        let live = registry.snapshot("x", None).unwrap();
        assert_eq!((live.generation(), live.num_docs()), (0, 3));
        assert_eq!(live.engine().rank("covid", 3).len(), 2);
        // A replacement starts the name afresh, and its merges publish.
        let corpus = registry.register("x", docs());
        assert!(!corpus.failed());
        let ticket = corpus.stage(DeltaOp::Delete("n1".into())).unwrap();
        assert!(corpus.wait_for_seq(ticket, Duration::from_secs(10)));
        assert_eq!(registry.snapshot("x", None).unwrap().num_docs(), 2);
        registry.shutdown_all();
    }

    #[test]
    fn snapshot_ids_are_unique_per_registry() {
        let registry = registry();
        let mut pins = vec![registry.register("x", docs()).snapshot()];
        let corpus = registry.get("x").unwrap();
        let ticket = corpus.stage(DeltaOp::Delete("n1".into())).unwrap();
        assert!(corpus.wait_for_seq(ticket, Duration::from_secs(10)));
        pins.push(corpus.snapshot());
        pins.push(registry.register("x", docs()).snapshot()); // hot-swap
        assert!(registry.remove("x"));
        pins.push(registry.register("x", docs()).snapshot()); // re-add
        pins.push(registry.snapshot("default", None).unwrap());
        let mut ids: Vec<u64> = pins.iter().map(|s| s.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), pins.len(), "{pins:?}");
        registry.shutdown_all();
    }
}
