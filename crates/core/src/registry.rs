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
//!
//! The snapshot cell is self-referential (engine borrows ranker borrows
//! segment) and uses two documented `unsafe` lifetime extensions; see
//! `CorpusSnapshot::build` for the invariants.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::time::Duration;

use credence_index::{DeltaOp, DocExists, Document, GenerationIndex, InvertedIndex};
use credence_rank::Ranker;
use credence_text::Analyzer;

use crate::engine::{CredenceEngine, EngineConfig, RetrievalStats};

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
    /// Retired-counter sink shared with the owning corpus: on drop, this
    /// snapshot's retrieval counters fold in here so corpus-level totals
    /// stay monotone across generation swaps.
    stats_sink: Arc<Mutex<RetrievalStats>>,
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
        factory: &RankerFactory,
        config: EngineConfig,
        stats_sink: Arc<Mutex<RetrievalStats>>,
    ) -> Arc<Self> {
        let index_ref: &'static InvertedIndex = unsafe { &*Arc::as_ptr(&index) };
        let ranker: Box<dyn Ranker> = factory(index_ref);
        let ranker_ref: &'static dyn Ranker = unsafe { &*(ranker.as_ref() as *const dyn Ranker) };
        let engine = CredenceEngine::new(ranker_ref, config);
        Arc::new(Self {
            engine,
            ranker,
            index,
            generation,
            corpus,
            stats_sink,
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

    /// Number of documents in this generation.
    pub fn num_docs(&self) -> usize {
        self.index.num_docs()
    }
}

impl Drop for CorpusSnapshot {
    fn drop(&mut self) {
        let mut stats = self.engine.retrieval_stats();
        // `cache_size` is a gauge over *live* caches; a dead snapshot holds
        // no cache, so its resident-entry count must not linger in the sink.
        stats.cache_size = 0;
        add_stats(&mut self.stats_sink.lock().unwrap(), stats);
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

fn add_stats(total: &mut RetrievalStats, part: RetrievalStats) {
    total.docs_scored += part.docs_scored;
    total.docs_pruned += part.docs_pruned;
    total.shards_used += part.shards_used;
    total.blocks_decoded += part.blocks_decoded;
    total.blocks_skipped += part.blocks_skipped;
    total.cache_hits += part.cache_hits;
    total.cache_misses += part.cache_misses;
    total.cache_size += part.cache_size;
    total.cache_evictions += part.cache_evictions;
    total.doc2vec_trainings += part.doc2vec_trainings;
    total.doc2vec_train_us += part.doc2vec_train_us;
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
    /// Generations published by merges (excludes generation 0).
    pub merges: u64,
}

/// Seq tickets published at the snapshot level.
#[derive(Debug)]
struct PublishState {
    last_published_seq: u64,
}

/// A live, mutable corpus: generation index + snapshot publication.
pub struct Corpus {
    name: String,
    gen_index: GenerationIndex,
    factory: RankerFactory,
    config: EngineConfig,
    current: RwLock<Arc<CorpusSnapshot>>,
    /// Retired generations, resolvable while externally pinned.
    history: Mutex<HashMap<u64, Weak<CorpusSnapshot>>>,
    stats_sink: Arc<Mutex<RetrievalStats>>,
    publish: Mutex<PublishState>,
    published: Condvar,
    /// Wakes the merge thread when ops are staged or shutdown is requested.
    work: Mutex<()>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    merger: Mutex<Option<std::thread::JoinHandle<()>>>,
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
    pub fn spawn(
        name: impl Into<String>,
        docs: Vec<Document>,
        analyzer: Analyzer,
        factory: RankerFactory,
        config: EngineConfig,
    ) -> Arc<Self> {
        let name = name.into();
        let gen_index = GenerationIndex::new(docs, analyzer);
        let (generation, index) = gen_index.snapshot();
        let stats_sink = Arc::new(Mutex::new(RetrievalStats::default()));
        let snapshot = CorpusSnapshot::build(
            name.clone(),
            generation,
            index,
            &factory,
            config.clone(),
            Arc::clone(&stats_sink),
        );
        let corpus = Arc::new(Self {
            name,
            gen_index,
            factory,
            config,
            current: RwLock::new(snapshot),
            history: Mutex::new(HashMap::new()),
            stats_sink,
            publish: Mutex::new(PublishState {
                last_published_seq: 0,
            }),
            published: Condvar::new(),
            work: Mutex::new(()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            merger: Mutex::new(None),
        });
        let thread_corpus = Arc::clone(&corpus);
        let handle = std::thread::Builder::new()
            .name(format!("credence-merge-{}", corpus.name))
            .spawn(move || thread_corpus.merge_loop())
            .expect("spawn corpus merge thread");
        *corpus.merger.lock().unwrap() = Some(handle);
        corpus
    }

    fn merge_loop(&self) {
        loop {
            {
                let mut guard = self.work.lock().unwrap();
                while self.gen_index.pending_ops() == 0 && !self.shutdown.load(Ordering::SeqCst) {
                    let (g, _) = self
                        .work_cv
                        .wait_timeout(guard, Duration::from_millis(200))
                        .unwrap();
                    guard = g;
                }
            }
            if self.gen_index.pending_ops() == 0 && self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            self.merge_and_publish();
        }
    }

    /// Fold the delta and publish a new snapshot (no-op on an empty delta).
    /// The merge thread calls this; tests may call it directly for
    /// deterministic sequencing.
    pub fn merge_and_publish(&self) {
        let Some(outcome) = self.gen_index.merge_once() else {
            return;
        };
        let snapshot = CorpusSnapshot::build(
            self.name.clone(),
            outcome.generation,
            outcome.index,
            &self.factory,
            self.config.clone(),
            Arc::clone(&self.stats_sink),
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
        {
            let mut publish = self.publish.lock().unwrap();
            publish.last_published_seq = outcome.folded_seq;
            self.published.notify_all();
        }
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
    /// [`Self::wait_for_seq`].
    pub fn stage(&self, op: DeltaOp) -> u64 {
        let seq = self.gen_index.stage(op);
        self.kick_merger();
        seq
    }

    /// Stage an insert that 409s (at the API layer) when the name exists.
    pub fn stage_insert(&self, doc: Document) -> Result<u64, DocExists> {
        let seq = self.gen_index.stage_insert(doc)?;
        self.kick_merger();
        Ok(seq)
    }

    /// Whether a document name exists in the effective corpus (live
    /// snapshot overridden by staged ops).
    pub fn doc_exists(&self, name: &str) -> bool {
        self.gen_index.doc_exists(name)
    }

    fn kick_merger(&self) {
        let _guard = self.work.lock().unwrap();
        self.work_cv.notify_all();
    }

    /// Block until the snapshot containing ticket `seq` is published.
    pub fn wait_for_seq(&self, seq: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut publish = self.publish.lock().unwrap();
        while publish.last_published_seq < seq {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return false;
            }
            let (guard, wait) = self.published.wait_timeout(publish, left).unwrap();
            publish = guard;
            if wait.timed_out() && publish.last_published_seq < seq {
                return false;
            }
        }
        true
    }

    /// Summary for listings and metrics.
    pub fn info(&self) -> CorpusInfo {
        let snapshot = self.snapshot();
        CorpusInfo {
            name: self.name.clone(),
            generation: snapshot.generation(),
            num_docs: snapshot.num_docs(),
            pending_ops: self.gen_index.pending_ops(),
            merges: self.gen_index.merges(),
        }
    }

    /// Corpus-total retrieval counters: retired generations (the sink) plus
    /// every still-live snapshot. Monotone across generation swaps.
    pub fn retrieval_stats(&self) -> RetrievalStats {
        let mut total = *self.stats_sink.lock().unwrap();
        let current = self.snapshot();
        add_stats(&mut total, current.engine().retrieval_stats());
        let history = self.history.lock().unwrap();
        for weak in history.values() {
            if let Some(snapshot) = weak.upgrade() {
                add_stats(&mut total, snapshot.engine().retrieval_stats());
            }
        }
        total
    }

    /// Stop and join the merge thread, folding any remaining staged ops
    /// first. Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.kick_merger();
        let handle = self.merger.lock().unwrap().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

/// The governor-locked name → corpus map.
pub struct CorpusRegistry {
    corpora: Mutex<BTreeMap<String, Arc<Corpus>>>,
    /// What removed and replaced corpora counted, so that
    /// [`Self::total_retrieval_stats`] never falls.
    retired: Mutex<RetrievalStats>,
}

impl Default for CorpusRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CorpusRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self.corpora.lock().unwrap().keys().cloned().collect();
        f.debug_struct("CorpusRegistry")
            .field("corpora", &names)
            .finish()
    }
}

impl CorpusRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            corpora: Mutex::new(BTreeMap::new()),
            retired: Mutex::new(RetrievalStats::default()),
        }
    }

    /// Register (or hot-swap) a corpus under `name`. The replaced corpus,
    /// if any, is shut down; generations pinned from it stay readable
    /// until their holders drop.
    pub fn register(
        &self,
        name: impl Into<String>,
        docs: Vec<Document>,
        analyzer: Analyzer,
        factory: RankerFactory,
        config: EngineConfig,
    ) -> Arc<Corpus> {
        let name = name.into();
        let corpus = Corpus::spawn(name.clone(), docs, analyzer, factory, config);
        self.replace(name, Some(Arc::clone(&corpus)));
        corpus
    }

    /// Put `corpus` under `name`, or take `name` out with `None`, and shut
    /// the outgoing corpus down. Its counters move to the retired total
    /// under the same lock a total reads, so no total falls.
    fn replace(&self, name: String, corpus: Option<Arc<Corpus>>) -> Option<Arc<Corpus>> {
        let old = {
            let mut corpora = self.corpora.lock().unwrap();
            let old = match corpus {
                Some(corpus) => corpora.insert(name, corpus),
                None => corpora.remove(&name),
            };
            if let Some(old) = &old {
                let mut stats = old.retrieval_stats();
                // A gauge over live caches, as in `CorpusSnapshot::drop`.
                stats.cache_size = 0;
                add_stats(&mut self.retired.lock().unwrap(), stats);
            }
            old
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

    /// Process-total retrieval counters: every registered corpus, plus
    /// what corpora removed or replaced since counted. Monotone across
    /// removals and hot-swaps.
    pub fn total_retrieval_stats(&self) -> RetrievalStats {
        let corpora = self.corpora.lock().unwrap();
        let mut total = *self.retired.lock().unwrap();
        for corpus in corpora.values() {
            add_stats(&mut total, corpus.retrieval_stats());
        }
        total
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
        let registry = CorpusRegistry::new();
        registry.register(
            "default",
            docs(),
            Analyzer::english(),
            bm25_factory(),
            EngineConfig::fast(),
        );
        registry
    }

    #[test]
    fn register_get_list_remove() {
        let registry = registry();
        assert_eq!(registry.len(), 1);
        registry.register(
            "tenant-b",
            vec![doc("x", "a second tenant corpus")],
            Analyzer::english(),
            bm25_factory(),
            EngineConfig::fast(),
        );
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

        let ticket = corpus.stage(DeltaOp::Upsert(doc(
            "n4",
            "covid vaccines covid vaccines strongly relevant new doc",
        )));
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
        let ticket = corpus.stage(DeltaOp::Delete("n3".into()));
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
        registry.shutdown_all();
    }

    #[test]
    fn retrieval_stats_survive_generation_swaps() {
        let registry = registry();
        let corpus = registry.get("default").unwrap();
        let snapshot = corpus.snapshot();
        snapshot.engine().rank("covid", 3);
        let before = corpus.retrieval_stats();
        assert!(before.cache_misses >= 1);
        drop(snapshot);

        let ticket = corpus.stage(DeltaOp::Delete("n2".into()));
        assert!(corpus.wait_for_seq(ticket, Duration::from_secs(10)));
        let after = corpus.retrieval_stats();
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
            let corpus = registry.register(
                name,
                docs(),
                Analyzer::english(),
                bm25_factory(),
                EngineConfig::fast(),
            );
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
        registry.register(
            "default",
            vec![doc("only", "a replacement corpus")],
            Analyzer::english(),
            bm25_factory(),
            EngineConfig::fast(),
        );
        let snapshot = registry.snapshot("default", None).unwrap();
        assert_eq!(snapshot.generation(), 0);
        assert_eq!(snapshot.num_docs(), 1);
        registry.shutdown_all();
    }
}
