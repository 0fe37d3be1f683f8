//! The CREDENCE engine — the Figure-1 backend behind one façade.
//!
//! The original system wires a Lucene index, the monoT5 ranker, the
//! counterfactual algorithms, a Doc2Vec model, and an LDA topic module
//! behind a FastAPI service. [`CredenceEngine`] is that service layer as a
//! library: construct it over any black-box [`Ranker`] and call the methods
//! that mirror the REST endpoints (`credence-server` exposes them over
//! HTTP).
//!
//! The engine trains the Doc2Vec space once at construction (it is
//! query-independent) and fits LDA per request over the currently ranked
//! top-k documents, exactly as the Browse-Topics modal does.

use credence_embed::{Doc2Vec, Doc2VecConfig};
use credence_index::{DocId, PartitionSpec, TopKOptions};
use credence_rank::{rank_corpus_with, RankedList, Ranker};
use credence_text::Vocabulary;
use credence_topics::{summarize_topics, LdaConfig, LdaModel, TopicSummary};

use crate::budget::Budget;
use crate::builder::{
    test_edits_ranked, test_perturbation_budgeted_ranked, test_perturbation_ranked, BuilderOutcome,
    Edit,
};
use crate::error::ExplainError;
use crate::evaluator::EvalOptions;
use crate::explanation::InstanceExplanation;
use crate::instance_based::{cosine_sampled, doc2vec_nearest, CosineSampledConfig};
use crate::query_augmentation::{
    explain_query_augmentation_ranked, QueryAugmentationConfig, QueryAugmentationResult,
};
use crate::query_reduction::{
    explain_query_reduction_ranked, QueryReductionConfig, QueryReductionResult,
};
use crate::sentence_removal::{SentenceRemovalConfig, SentenceRemovalResult};
use crate::term_removal::{TermRemovalConfig, TermRemovalResult};

/// Engine-level configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Doc2Vec training configuration (for the Doc2Vec-nearest explainer).
    pub doc2vec: Doc2VecConfig,
    /// Cosine-sampled explainer configuration.
    pub cosine: CosineSampledConfig,
    /// LDA configuration for topic browsing.
    pub lda: LdaConfig,
    /// Number of top terms reported per topic.
    pub topic_terms: usize,
    /// Capacity of the per-engine query→ranking cache (0 disables it).
    pub ranking_cache: usize,
    /// Rank the corpus with scoped threads once it has at least this many
    /// documents (0 disables parallel ranking). Only consulted for rankers
    /// without index retrieval (the exhaustive fallback).
    pub parallel_threshold: usize,
    /// Default candidate-evaluation knobs for the counterfactual search
    /// loops. A request config carrying non-default [`EvalOptions`] wins
    /// over this engine default.
    pub eval: EvalOptions,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            doc2vec: Doc2VecConfig::default(),
            cosine: CosineSampledConfig::default(),
            lda: LdaConfig::default(),
            topic_terms: 8,
            ranking_cache: 64,
            parallel_threshold: 10_000,
            eval: EvalOptions::default(),
        }
    }
}

impl EngineConfig {
    /// A configuration with cheap training parameters, for tests and
    /// latency-sensitive demos.
    pub fn fast() -> Self {
        Self {
            doc2vec: Doc2VecConfig {
                dim: 32,
                epochs: 30,
                infer_epochs: 15,
                ..Doc2VecConfig::default()
            },
            lda: LdaConfig {
                iterations: 40,
                ..LdaConfig::default()
            },
            ..Self::default()
        }
    }
}

/// One row of a ranking response.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedDoc {
    /// The document.
    pub doc: DocId,
    /// 1-based rank.
    pub rank: usize,
    /// Model score.
    pub score: f64,
    /// Document name (external id).
    pub name: String,
    /// Document title.
    pub title: String,
}

/// Counters accumulated by the engine's retrieval path, snapshotted for
/// the server's `/metrics` endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrievalStats {
    /// Documents actually scored by the top-k engine.
    pub docs_scored: u64,
    /// Posting entries skipped by MaxScore pruning (an upper bound on the
    /// unique documents never scored).
    pub docs_pruned: u64,
    /// Threads of the parallel fallback scan, which serves rankers without
    /// index retrieval.
    pub shards_used: u64,
    /// Posting blocks decoded by retrieval.
    pub blocks_decoded: u64,
    /// Posting blocks MaxScore never decoded.
    pub blocks_skipped: u64,
    /// Ranking-cache lookups served without recomputation.
    pub cache_hits: u64,
    /// Ranking-cache lookups that had to rank the corpus.
    pub cache_misses: u64,
    /// Rankings currently resident in the cache (a gauge, not a counter).
    pub cache_size: u64,
    /// Rankings evicted from the cache to make room for newer entries.
    pub cache_evictions: u64,
}

/// Sentinel for "no node" in the LRU's intrusive links.
const NIL: usize = usize::MAX;

/// Per-(query, doc) entries retained by the engine's posting-replay memo
/// before a wholesale clear (see [`crate::evaluator::ReplayMemo`]).
const REPLAY_MEMO_CAPACITY: usize = 256;

/// What a cached ranking ranks: a query over the whole corpus or over one
/// partition. Separate fields, so no query string can name another key.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct RankingKey {
    query: String,
    partition: Option<PartitionSpec>,
}

struct LruNode {
    key: RankingKey,
    ranking: std::sync::Arc<RankedList>,
    prev: usize,
    next: usize,
}

/// The mutable interior of [`RankingCache`]: a hash map from key to node
/// slot plus a doubly-linked recency list threaded through a slab of
/// nodes. `get` and `insert` are both O(1) — no linear scans, unlike the
/// FIFO deque this replaces.
#[derive(Default)]
struct LruState {
    map: std::collections::HashMap<RankingKey, usize>,
    nodes: Vec<LruNode>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl LruState {
    fn new() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            ..Self::default()
        }
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        } else {
            self.tail = i;
        }
        self.head = i;
    }

    fn get(&mut self, key: &RankingKey) -> Option<std::sync::Arc<RankedList>> {
        let &i = self.map.get(key)?;
        if self.head != i {
            self.detach(i);
            self.push_front(i);
        }
        Some(std::sync::Arc::clone(&self.nodes[i].ranking))
    }

    /// Inserts `key`; returns `true` when an older entry was evicted to
    /// make room.
    fn insert(
        &mut self,
        key: &RankingKey,
        ranking: std::sync::Arc<RankedList>,
        capacity: usize,
    ) -> bool {
        if self.map.contains_key(key) {
            return false; // a racing thread inserted first; keep its entry
        }
        let mut evicted_one = false;
        if self.map.len() >= capacity {
            let lru = self.tail;
            self.detach(lru);
            let evicted = std::mem::take(&mut self.nodes[lru].key);
            self.map.remove(&evicted);
            self.free.push(lru);
            evicted_one = true;
        }
        let node = LruNode {
            key: key.clone(),
            ranking,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.push_front(i);
        self.map.insert(key.clone(), i);
        evicted_one
    }
}

/// An O(1) LRU cache of corpus rankings keyed by query and partition.
///
/// Every explainer starts by ranking the corpus for its query; a busy
/// server re-ranks the same query many times per user interaction
/// (rank → explain → explain → builder …). The corpus and the model are
/// immutable after engine construction, so cached rankings can never go
/// stale. Hits and misses are counted for the `/metrics` endpoint.
struct RankingCache {
    capacity: usize,
    state: std::sync::Mutex<LruState>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    evictions: std::sync::atomic::AtomicU64,
}

impl RankingCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            state: std::sync::Mutex::new(LruState::new()),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
            evictions: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn get_or_insert(
        &self,
        key: &RankingKey,
        compute: impl FnOnce() -> RankedList,
    ) -> std::sync::Arc<RankedList> {
        use std::sync::atomic::Ordering::Relaxed;
        if self.capacity == 0 {
            self.misses.fetch_add(1, Relaxed);
            return std::sync::Arc::new(compute());
        }
        {
            let mut state = self.state.lock().expect("cache lock poisoned");
            if let Some(ranking) = state.get(key) {
                self.hits.fetch_add(1, Relaxed);
                return ranking;
            }
        }
        self.misses.fetch_add(1, Relaxed);
        let ranking = std::sync::Arc::new(compute());
        let mut state = self.state.lock().expect("cache lock poisoned");
        if state.insert(key, std::sync::Arc::clone(&ranking), self.capacity) {
            self.evictions.fetch_add(1, Relaxed);
        }
        ranking
    }

    fn len(&self) -> usize {
        self.state.lock().expect("cache lock poisoned").map.len()
    }
}

/// Engine-level retrieval counters (all monotonically increasing).
#[derive(Default)]
struct RetrievalCounters {
    docs_scored: std::sync::atomic::AtomicU64,
    docs_pruned: std::sync::atomic::AtomicU64,
    shards_used: std::sync::atomic::AtomicU64,
    blocks_decoded: std::sync::atomic::AtomicU64,
    blocks_skipped: std::sync::atomic::AtomicU64,
}

/// The CREDENCE backend over a black-box ranker.
pub struct CredenceEngine<'a> {
    ranker: &'a dyn Ranker,
    doc2vec: Doc2Vec,
    config: EngineConfig,
    cache: RankingCache,
    counters: RetrievalCounters,
    replay: crate::evaluator::ReplayMemo,
}

impl<'a> CredenceEngine<'a> {
    /// Build the engine: trains the corpus-level Doc2Vec space.
    pub fn new(ranker: &'a dyn Ranker, config: EngineConfig) -> Self {
        let index = ranker.index();
        let analyzer = index.analyzer();
        let sequences: Vec<Vec<usize>> = index
            .documents()
            .iter()
            .map(|d| {
                analyzer
                    .analyze(&d.body)
                    .iter()
                    .filter_map(|t| index.vocabulary().id(t).map(|x| x as usize))
                    .collect()
            })
            .collect();
        let doc2vec = Doc2Vec::train(&sequences, index.vocabulary().len(), &config.doc2vec);
        let cache = RankingCache::new(config.ranking_cache);
        Self {
            ranker,
            doc2vec,
            config,
            cache,
            counters: RetrievalCounters::default(),
            replay: crate::evaluator::ReplayMemo::new(REPLAY_MEMO_CAPACITY),
        }
    }

    /// The engine's posting-replay memo (exposed for parity tests and
    /// diagnostics). The memo is scoped to this engine — and therefore to
    /// one corpus generation — so a corpus publish invalidates it by
    /// construction.
    pub fn replay_memo(&self) -> &crate::evaluator::ReplayMemo {
        &self.replay
    }

    /// Cached whole-corpus ranking for `query`.
    fn cached_ranking(&self, query: &str) -> std::sync::Arc<RankedList> {
        self.cached_ranking_with(query, None)
    }

    /// Cached ranking for `query` over one partition's documents, or over
    /// the whole corpus when `partition` is `None`. A partition changes
    /// *what* is ranked, so it is part of the cache key.
    fn cached_ranking_with(
        &self,
        query: &str,
        partition: Option<PartitionSpec>,
    ) -> std::sync::Arc<RankedList> {
        use std::sync::atomic::Ordering::Relaxed;
        let key = RankingKey {
            query: query.to_owned(),
            partition,
        };
        self.cache.get_or_insert(&key, || {
            let n = self.ranker.index().num_docs();
            let fallback_threads =
                if self.config.parallel_threshold > 0 && n >= self.config.parallel_threshold {
                    std::thread::available_parallelism()
                        .map(|p| p.get())
                        .unwrap_or(1)
                } else {
                    1
                };
            let opts = TopKOptions { partition };
            let (list, stats) = rank_corpus_with(self.ranker, query, &opts, fallback_threads);
            self.counters
                .docs_scored
                .fetch_add(stats.docs_scored, Relaxed);
            self.counters
                .docs_pruned
                .fetch_add(stats.docs_pruned, Relaxed);
            self.counters
                .shards_used
                .fetch_add(stats.shards_used, Relaxed);
            self.counters
                .blocks_decoded
                .fetch_add(stats.blocks_decoded, Relaxed);
            self.counters
                .blocks_skipped
                .fetch_add(stats.blocks_skipped, Relaxed);
            list
        })
    }

    /// Number of rankings currently cached (diagnostics).
    pub fn cached_queries(&self) -> usize {
        self.cache.len()
    }

    /// A snapshot of the engine's retrieval and cache counters.
    pub fn retrieval_stats(&self) -> RetrievalStats {
        use std::sync::atomic::Ordering::Relaxed;
        RetrievalStats {
            docs_scored: self.counters.docs_scored.load(Relaxed),
            docs_pruned: self.counters.docs_pruned.load(Relaxed),
            shards_used: self.counters.shards_used.load(Relaxed),
            blocks_decoded: self.counters.blocks_decoded.load(Relaxed),
            blocks_skipped: self.counters.blocks_skipped.load(Relaxed),
            cache_hits: self.cache.hits.load(Relaxed),
            cache_misses: self.cache.misses.load(Relaxed),
            cache_size: self.cache.len() as u64,
            cache_evictions: self.cache.evictions.load(Relaxed),
        }
    }

    /// The evaluation options to use for a request: an explicitly customised
    /// request config wins; a default-valued one inherits the engine's.
    fn effective_eval(&self, requested: EvalOptions) -> EvalOptions {
        if requested == EvalOptions::default() {
            self.config.eval
        } else {
            requested
        }
    }

    /// The underlying ranker.
    pub fn ranker(&self) -> &dyn Ranker {
        self.ranker
    }

    /// The trained Doc2Vec model (exposed for diagnostics and benches).
    pub fn doc2vec(&self) -> &Doc2Vec {
        &self.doc2vec
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// `POST /rank` — the top-k ranking for a query.
    pub fn rank(&self, query: &str, k: usize) -> Vec<RankedDoc> {
        self.rank_with_options(query, k, &TopKOptions::default())
    }

    /// [`Self::rank`] restricted to `opts.partition` (a router fanout leg).
    pub fn rank_with_options(&self, query: &str, k: usize, opts: &TopKOptions) -> Vec<RankedDoc> {
        let index = self.ranker.index();
        let ranking = self.cached_ranking_with(query, opts.partition);
        ranking
            .entries()
            .iter()
            .take(k)
            .enumerate()
            .map(|(i, &(doc, score))| {
                let d = index.document(doc).expect("ranked doc exists");
                RankedDoc {
                    doc,
                    rank: i + 1,
                    score,
                    name: d.name.clone(),
                    title: d.title.clone(),
                }
            })
            .collect()
    }

    /// The full corpus ranking (used by experiments). Served from the
    /// engine's ranking cache.
    pub fn full_ranking(&self, query: &str) -> RankedList {
        (*self.cached_ranking(query)).clone()
    }

    /// `POST /explain/sentence-removal` (§II-C).
    pub fn sentence_removal(
        &self,
        query: &str,
        k: usize,
        doc: DocId,
        config: &SentenceRemovalConfig,
    ) -> Result<SentenceRemovalResult, ExplainError> {
        let ranking = self.cached_ranking(query);
        let mut config = config.clone();
        config.eval = self.effective_eval(config.eval);
        crate::sentence_removal::explain_sentence_removal_memo(
            self.ranker,
            query,
            k,
            doc,
            &config,
            &ranking,
            Some(&self.replay),
        )
    }

    /// `POST /explain/query-augmentation` (§II-D).
    pub fn query_augmentation(
        &self,
        query: &str,
        k: usize,
        doc: DocId,
        config: &QueryAugmentationConfig,
    ) -> Result<QueryAugmentationResult, ExplainError> {
        let ranking = self.cached_ranking(query);
        let mut config = config.clone();
        config.eval = self.effective_eval(config.eval);
        explain_query_augmentation_ranked(self.ranker, query, k, doc, &config, &ranking)
    }

    /// `POST /explain/query-reduction` — the §II-D dual: minimal query-term
    /// removals that drop the document past `k`.
    pub fn query_reduction(
        &self,
        query: &str,
        k: usize,
        doc: DocId,
        config: &QueryReductionConfig,
    ) -> Result<QueryReductionResult, ExplainError> {
        let ranking = self.cached_ranking(query);
        let mut config = config.clone();
        config.eval = self.effective_eval(config.eval);
        explain_query_reduction_ranked(self.ranker, query, k, doc, &config, &ranking)
    }

    /// `POST /explain/term-removal` — the term-granularity ablation of
    /// §II-C's sentence removal.
    pub fn term_removal(
        &self,
        query: &str,
        k: usize,
        doc: DocId,
        config: &TermRemovalConfig,
    ) -> Result<TermRemovalResult, ExplainError> {
        let ranking = self.cached_ranking(query);
        let mut config = config.clone();
        config.eval = self.effective_eval(config.eval);
        crate::term_removal::explain_term_removal_memo(
            self.ranker,
            query,
            k,
            doc,
            &config,
            &ranking,
            Some(&self.replay),
        )
    }

    /// `POST /explain/feature_attribution` — the Rank-LIME local surrogate
    /// attribution family ([`crate::lime`]).
    pub fn feature_attribution(
        &self,
        query: &str,
        k: usize,
        doc: DocId,
        config: &crate::lime::FeatureAttributionConfig,
    ) -> Result<crate::lime::FeatureAttributionResult, ExplainError> {
        let ranking = self.cached_ranking(query);
        let mut config = config.clone();
        config.eval = self.effective_eval(config.eval);
        crate::lime::explain_feature_attribution_memo(
            self.ranker,
            query,
            k,
            doc,
            &config,
            &ranking,
            Some(&self.replay),
        )
    }

    /// `POST /explain/doc2vec-nearest` (§II-E, variant 1).
    pub fn doc2vec_nearest(
        &self,
        query: &str,
        k: usize,
        doc: DocId,
        n: usize,
    ) -> Result<Vec<InstanceExplanation>, ExplainError> {
        doc2vec_nearest(self.ranker, &self.doc2vec, query, k, doc, n)
    }

    /// `POST /explain/cosine-sampled` (§II-E, variant 2). `samples`
    /// overrides the configured default when `Some`.
    pub fn cosine_sampled(
        &self,
        query: &str,
        k: usize,
        doc: DocId,
        n: usize,
        samples: Option<usize>,
    ) -> Result<Vec<InstanceExplanation>, ExplainError> {
        let mut cfg = self.config.cosine;
        if let Some(s) = samples {
            cfg.samples = s;
        }
        cosine_sampled(self.ranker, query, k, doc, n, &cfg)
    }

    /// `POST /rerank` — the builder's free-form perturbation test (§III-C).
    pub fn builder_rerank(
        &self,
        query: &str,
        k: usize,
        doc: DocId,
        edited_body: &str,
    ) -> Result<BuilderOutcome, ExplainError> {
        let ranking = self.cached_ranking(query);
        test_perturbation_ranked(self.ranker, query, k, doc, edited_body, &ranking)
    }

    /// [`Self::builder_rerank`] under a request [`Budget`]: fails fast with
    /// `deadline_exceeded` / `cancelled` when the budget is already spent.
    pub fn builder_rerank_budgeted(
        &self,
        query: &str,
        k: usize,
        doc: DocId,
        edited_body: &str,
        budget: &Budget,
    ) -> Result<BuilderOutcome, ExplainError> {
        let ranking = self.cached_ranking(query);
        test_perturbation_budgeted_ranked(self.ranker, query, k, doc, edited_body, &ranking, budget)
    }

    /// Structured-edit variant of [`Self::builder_rerank`].
    pub fn builder_edits(
        &self,
        query: &str,
        k: usize,
        doc: DocId,
        edits: &[Edit],
    ) -> Result<BuilderOutcome, ExplainError> {
        let ranking = self.cached_ranking(query);
        test_edits_ranked(self.ranker, query, k, doc, edits, &ranking)
    }

    /// Documents most similar to *arbitrary text* (e.g. a builder edit in
    /// progress), via Doc2Vec inference — plausibility guidance the builder
    /// page can offer while the user types. Returns non-relevant documents
    /// only when `exclude_top_k_for` is set.
    pub fn nearest_to_text(
        &self,
        text: &str,
        n: usize,
        exclude_top_k_for: Option<(&str, usize)>,
    ) -> Vec<crate::explanation::InstanceExplanation> {
        let index = self.ranker.index();
        let analyzer = index.analyzer();
        let words: Vec<usize> = analyzer
            .analyze(text)
            .iter()
            .filter_map(|t| index.vocabulary().id(t).map(|x| x as usize))
            .collect();
        let inferred = self.doc2vec.infer(&words);
        let (excluded, ranking): (
            std::collections::HashSet<DocId>,
            Option<std::sync::Arc<RankedList>>,
        ) = match exclude_top_k_for {
            None => (Default::default(), None),
            Some((query, k)) => {
                let ranking = self.cached_ranking(query);
                (ranking.top_k(k).into_iter().collect(), Some(ranking))
            }
        };
        let neighbors = credence_embed::nearest_neighbors_quantized(
            &inferred,
            self.doc2vec.quantized(),
            |d| self.doc2vec.doc_vector(d),
            (0..index.num_docs()).filter(|&d| !excluded.contains(&DocId(d as u32))),
            n,
        );
        neighbors
            .into_iter()
            .map(|nb| {
                let doc = DocId(nb.item as u32);
                crate::explanation::InstanceExplanation {
                    doc,
                    similarity: nb.similarity as f64,
                    rank: ranking.as_ref().and_then(|r| r.rank_of(doc)),
                }
            })
            .collect()
    }

    /// Highlight spans + best snippet for a ranked document — the view the
    /// ranking table renders.
    pub fn snippet(
        &self,
        query: &str,
        doc: DocId,
        window: usize,
    ) -> Result<
        (
            Vec<credence_index::Highlight>,
            Option<credence_index::Snippet>,
        ),
        ExplainError,
    > {
        let index = self.ranker.index();
        let document = index.document(doc).ok_or(ExplainError::DocNotFound(doc))?;
        let analyzer = index.analyzer();
        let highlights = credence_index::highlight_terms(analyzer, query, &document.body);
        let snippet = credence_index::best_snippet(analyzer, query, &document.body, window);
        Ok((highlights, snippet))
    }

    /// `POST /topics` — LDA over the currently ranked top-k documents (the
    /// Browse-Topics modal).
    pub fn topics(
        &self,
        query: &str,
        k: usize,
        num_topics: usize,
    ) -> Result<Vec<TopicSummary>, ExplainError> {
        if num_topics == 0 {
            return Err(ExplainError::InvalidParameter(
                "num_topics must be at least 1",
            ));
        }
        let index = self.ranker.index();
        if index.analyze_query(query).is_empty() {
            return Err(ExplainError::EmptyQuery);
        }
        let ranking = self.cached_ranking(query);
        let top = ranking.top_k(k);
        if top.is_empty() {
            return Ok(Vec::new());
        }
        // Build a local vocabulary over the ranked documents only, so topic
        // term ids match the summary resolution step.
        let analyzer = index.analyzer();
        let mut vocab = Vocabulary::new();
        let docs: Vec<Vec<usize>> = top
            .iter()
            .map(|&d| {
                analyzer
                    .analyze(&index.document(d).expect("ranked doc exists").body)
                    .iter()
                    .map(|t| vocab.intern(t) as usize)
                    .collect()
            })
            .collect();
        let lda = LdaModel::fit(
            &docs,
            vocab.len(),
            &LdaConfig {
                num_topics,
                ..self.config.lda.clone()
            },
        );
        Ok(summarize_topics(&lda, &vocab, self.config.topic_terms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use credence_index::{Bm25Params, Document, InvertedIndex};
    use credence_rank::Bm25Ranker;
    use credence_text::Analyzer;

    fn corpus() -> Vec<Document> {
        vec![
            Document::new(
                "n1",
                "Outbreak news",
                "covid outbreak covid outbreak dominates the news cycle this week entirely",
            ),
            Document::new(
                "n2",
                "More outbreak news",
                "The covid outbreak arrived quietly. Officials downplayed the covid outbreak \
                 for weeks before acting decisively.",
            ),
            Document::new(
                "n3",
                "Conspiracy corner",
                "The covid outbreak is a cover story. A secret microchip hides in every \
                 vaccine dose. The microchip tracks your movements constantly.",
            ),
            Document::new(
                "n4",
                "Copycat conspiracy",
                "A secret microchip hides in every vaccine dose. The microchip tracks your \
                 movements constantly and secretly.",
            ),
            Document::new(
                "n5",
                "Harbor drills",
                "Outbreak drills continue at the harbor facility through the weekend shift.",
            ),
            Document::new(
                "n7",
                "Gardens",
                "The garden show opens to record spring crowds.",
            ),
            Document::new(
                "n6",
                "Rowing",
                "The rowing club wins the spring regatta again.",
            ),
        ]
    }

    fn with_engine<T>(f: impl FnOnce(&CredenceEngine<'_>) -> T) -> T {
        let idx = InvertedIndex::build(corpus(), Analyzer::english());
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let engine = CredenceEngine::new(&ranker, EngineConfig::fast());
        f(&engine)
    }

    #[test]
    fn rank_endpoint_returns_metadata() {
        with_engine(|e| {
            let rows = e.rank("covid outbreak", 3);
            assert_eq!(rows.len(), 3);
            assert_eq!(rows[0].rank, 1);
            assert!(!rows[0].name.is_empty());
            assert!(rows.windows(2).all(|w| w[0].score >= w[1].score));
        });
    }

    #[test]
    fn rank_with_k_larger_than_matches() {
        with_engine(|e| {
            let rows = e.rank("covid outbreak", 50);
            assert_eq!(rows.len(), 4, "only matching docs are returned");
        });
    }

    #[test]
    fn all_four_explainers_run_through_the_engine() {
        with_engine(|e| {
            let k = 3;
            let doc = DocId(2); // the conspiracy doc, rank 3

            let sr = e
                .sentence_removal("covid outbreak", k, doc, &SentenceRemovalConfig::default())
                .unwrap();
            assert!(!sr.explanations.is_empty());

            let qa = e
                .query_augmentation(
                    "covid outbreak",
                    k,
                    doc,
                    &QueryAugmentationConfig {
                        n: 1,
                        threshold: 1,
                        ..Default::default()
                    },
                )
                .unwrap();
            assert!(!qa.explanations.is_empty());

            let d2v = e.doc2vec_nearest("covid outbreak", k, doc, 1).unwrap();
            assert_eq!(d2v.len(), 1);

            let cs = e
                .cosine_sampled("covid outbreak", k, doc, 1, Some(10))
                .unwrap();
            assert_eq!(cs.len(), 1);
            assert_eq!(cs[0].doc, DocId(3), "the copycat doc");

            let b = e
                .builder_edits(
                    "covid outbreak",
                    k,
                    doc,
                    &[Edit::replace("covid", "flu"), Edit::remove("outbreak")],
                )
                .unwrap();
            assert!(b.valid);
        });
    }

    #[test]
    fn replay_memo_keeps_repeat_explanations_bit_identical() {
        with_engine(|e| {
            let k = 3;
            let doc = DocId(2);
            let sr_cfg = SentenceRemovalConfig::default();
            let tr_cfg = TermRemovalConfig::default();

            let sr1 = e
                .sentence_removal("covid outbreak", k, doc, &sr_cfg)
                .unwrap();
            let tr1 = e.term_removal("covid outbreak", k, doc, &tr_cfg).unwrap();
            assert_eq!(
                e.replay_memo().hits(),
                1,
                "the second explainer reuses the first one's pool scorer"
            );

            let sr2 = e
                .sentence_removal("covid outbreak", k, doc, &sr_cfg)
                .unwrap();
            let tr2 = e.term_removal("covid outbreak", k, doc, &tr_cfg).unwrap();
            assert!(
                e.replay_memo().hits() > 1,
                "repeat requests hit the replay memo"
            );
            assert_eq!(sr1, sr2, "memoised sentence removal is bit-identical");
            assert_eq!(tr1, tr2, "memoised term removal is bit-identical");

            // And the memoised path agrees with the memo-free library entry
            // point against the same ranking.
            let ranking = e.cached_ranking("covid outbreak");
            let fresh = crate::sentence_removal::explain_sentence_removal_ranked(
                e.ranker(),
                "covid outbreak",
                k,
                doc,
                &{
                    let mut c = sr_cfg.clone();
                    c.eval = e.config().eval;
                    c
                },
                &ranking,
            )
            .unwrap();
            assert_eq!(sr1, fresh, "memoised path matches the uncached path");
        });
    }

    #[test]
    fn retrieval_stats_report_cache_size_and_evictions() {
        let idx = InvertedIndex::build(corpus(), Analyzer::english());
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let mut config = EngineConfig::fast();
        config.ranking_cache = 2;
        let engine = CredenceEngine::new(&ranker, config);
        engine.rank("covid outbreak", 3);
        engine.rank("microchip", 3);
        let stats = engine.retrieval_stats();
        assert_eq!(stats.cache_size, 2);
        assert_eq!(stats.cache_evictions, 0);
        engine.rank("garden show", 3);
        let stats = engine.retrieval_stats();
        assert_eq!(stats.cache_size, 2, "capacity caps resident entries");
        assert_eq!(stats.cache_evictions, 1, "the LRU entry was evicted");
    }

    #[test]
    fn topics_endpoint_summarises_ranked_docs() {
        with_engine(|e| {
            let topics = e.topics("covid outbreak", 3, 2).unwrap();
            assert_eq!(topics.len(), 2);
            for t in &topics {
                assert!(!t.terms.is_empty());
                assert!(t.terms.len() <= e.config().topic_terms);
            }
            // Query terms dominate the ranked set, so they appear somewhere.
            let all: Vec<&str> = topics
                .iter()
                .flat_map(|t| t.terms.iter().map(|(s, _)| s.as_str()))
                .collect();
            assert!(all.contains(&"covid") || all.contains(&"outbreak"));
        });
    }

    #[test]
    fn topics_validation() {
        with_engine(|e| {
            assert!(e.topics("covid", 3, 0).is_err());
            assert!(e.topics("", 3, 2).is_err());
            assert!(e.topics("covid", 0, 2).unwrap().is_empty());
        });
    }

    #[test]
    fn nearest_to_text_finds_similar_documents() {
        with_engine(|e| {
            // Text close to the copycat conspiracy doc.
            let out = e.nearest_to_text(
                "secret microchip hides in every vaccine dose tracking movements",
                2,
                None,
            );
            assert_eq!(out.len(), 2);
            let found: Vec<u32> = out.iter().map(|x| x.doc.0).collect();
            assert!(
                found.contains(&2) || found.contains(&3),
                "conspiracy docs expected, got {found:?}"
            );
        });
    }

    #[test]
    fn nearest_to_text_can_exclude_the_top_k() {
        with_engine(|e| {
            let out = e.nearest_to_text(
                "covid outbreak dominates the news",
                3,
                Some(("covid outbreak", 3)),
            );
            let ranking = e.full_ranking("covid outbreak");
            let top: Vec<_> = ranking.top_k(3);
            for inst in &out {
                assert!(!top.contains(&inst.doc));
            }
        });
    }

    #[test]
    fn snippet_endpoint_highlights_query_terms() {
        with_engine(|e| {
            let (highlights, snippet) = e.snippet("covid outbreak", DocId(0), 8).unwrap();
            assert!(!highlights.is_empty());
            let snippet = snippet.unwrap();
            assert!(snippet.hits > 0);
            assert!(e.snippet("covid", DocId(99), 8).is_err());
        });
    }

    #[test]
    fn parallel_threshold_changes_nothing_observable() {
        let idx = InvertedIndex::build(corpus(), Analyzer::english());
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let serial = CredenceEngine::new(&ranker, EngineConfig::fast());
        let parallel = CredenceEngine::new(
            &ranker,
            EngineConfig {
                parallel_threshold: 1,
                ..EngineConfig::fast()
            },
        );
        let a = serial.full_ranking("covid outbreak");
        let b = parallel.full_ranking("covid outbreak");
        assert_eq!(a.entries(), b.entries());
    }

    #[test]
    fn ranking_cache_fills_and_serves() {
        with_engine(|e| {
            assert_eq!(e.cached_queries(), 0);
            let a = e.full_ranking("covid outbreak");
            assert_eq!(e.cached_queries(), 1);
            let b = e.full_ranking("covid outbreak");
            assert_eq!(e.cached_queries(), 1, "second call hits the cache");
            assert_eq!(a.entries(), b.entries());
            e.rank("outbreak drills", 3);
            assert_eq!(e.cached_queries(), 2);
        });
    }

    #[test]
    fn ranking_cache_evicts_least_recently_used() {
        let idx = InvertedIndex::build(corpus(), Analyzer::english());
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let engine = CredenceEngine::new(
            &ranker,
            EngineConfig {
                ranking_cache: 2,
                ..EngineConfig::fast()
            },
        );
        engine.full_ranking("covid");
        engine.full_ranking("outbreak");
        engine.full_ranking("covid"); // touch: covid becomes most recent
        engine.full_ranking("spring"); // evicts "outbreak", not "covid"
        assert_eq!(engine.cached_queries(), 2);
        let before = engine.retrieval_stats();
        engine.full_ranking("covid");
        let after = engine.retrieval_stats();
        assert_eq!(after.cache_hits, before.cache_hits + 1, "covid survived");
        engine.full_ranking("outbreak");
        assert_eq!(
            engine.retrieval_stats().cache_misses,
            after.cache_misses + 1,
            "outbreak was evicted"
        );
    }

    #[test]
    fn retrieval_stats_accumulate() {
        with_engine(|e| {
            assert_eq!(e.retrieval_stats(), RetrievalStats::default());
            e.rank("covid outbreak", 3);
            let s = e.retrieval_stats();
            assert!(s.docs_scored > 0, "ranking scored documents");
            assert_eq!(s.cache_misses, 1);
            assert_eq!(s.cache_hits, 0);
            e.rank("covid outbreak", 3);
            let s = e.retrieval_stats();
            assert_eq!(s.cache_hits, 1, "second rank hits the cache");
            assert_eq!(s.cache_misses, 1, "no recomputation on a hit");
        });
    }

    #[test]
    fn rank_with_options_matches_default_rank() {
        with_engine(|e| {
            let base = e.rank("covid outbreak", 4);
            // Fresh engine so the cache cannot mask the path.
            let idx = InvertedIndex::build(corpus(), Analyzer::english());
            let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
            let engine = CredenceEngine::new(&ranker, EngineConfig::fast());
            let rows = engine.rank_with_options("covid outbreak", 4, &TopKOptions::default());
            assert_eq!(rows.len(), base.len());
            for (a, b) in rows.iter().zip(&base) {
                assert_eq!(a.doc, b.doc);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        });
    }

    #[test]
    fn engine_is_deterministic() {
        let a = with_engine(|e| e.doc2vec_nearest("covid outbreak", 3, DocId(2), 2).unwrap());
        let b = with_engine(|e| e.doc2vec_nearest("covid outbreak", 3, DocId(2), 2).unwrap());
        assert_eq!(a, b);
    }
}
