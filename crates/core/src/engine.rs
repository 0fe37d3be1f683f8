//! The CREDENCE engine — the Figure-1 backend behind one façade.
//!
//! The original system wires a Lucene index, the monoT5 ranker, the
//! counterfactual algorithms, a Doc2Vec model, and an LDA topic module
//! behind a FastAPI service. [`CredenceEngine`] is that service layer as a
//! library: construct it over any black-box [`Ranker`] and call the methods
//! that mirror the REST endpoints (`credence-server` exposes them over
//! HTTP).
//!
//! The engine trains the Doc2Vec space once, on first use: only the
//! Doc2Vec-nearest explainer and `nearest_to_text` read it, so ranking and
//! the other explainers never pay for it. It fits LDA per request over the
//! currently ranked top-k documents, exactly as the Browse-Topics modal
//! does.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use credence_embed::{Doc2Vec, Doc2VecConfig};
use credence_index::{DocId, PartitionSpec, TopKOptions, TopKStats};
use credence_rank::{rank_corpus_with, RankedList, Ranker};
use credence_text::Vocabulary;
use credence_topics::{summarize_topics, LdaConfig, LdaModel, TopicSummary};

use crate::budget::Budget;
use crate::builder::{test_edits, test_perturbation, BuilderOutcome, Edit};
use crate::error::ExplainError;
use crate::explanation::InstanceExplanation;
use crate::instance_based::{cosine_sampled, doc2vec_nearest, CosineSampledConfig};
use crate::lime::{
    explain_feature_attribution, FeatureAttributionConfig, FeatureAttributionResult,
};
use crate::lru::Lru;
use crate::query_augmentation::{
    explain_query_augmentation, QueryAugmentationConfig, QueryAugmentationResult,
};
use crate::query_reduction::{explain_query_reduction, QueryReductionConfig, QueryReductionResult};
use crate::sentence_removal::{
    explain_sentence_removal, SentenceRemovalConfig, SentenceRemovalResult,
};
use crate::term_removal::{explain_term_removal, TermRemovalConfig, TermRemovalResult};

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
    /// Ranking-cache lookups that found no cached ranking.
    pub cache_misses: u64,
    /// Rankings currently resident in the cache (a gauge, not a counter).
    pub cache_size: u64,
    /// Rankings evicted from the cache to make room for newer entries.
    pub cache_evictions: u64,
    /// Doc2Vec models trained (at most one per engine).
    pub doc2vec_trainings: u64,
    /// Wall-clock microseconds spent training them.
    pub doc2vec_train_us: u64,
}

/// Per-(query, doc) entries retained by the engine's posting-replay memo
/// before a wholesale clear (see [`crate::evaluator::ReplayMemo`]).
const REPLAY_MEMO_CAPACITY: usize = 256;

/// The most topics one `/topics` fit may ask for. LDA allocates a row of
/// counts per topic, so this bounds the memory a single request can ask for.
const MAX_TOPICS: usize = 256;

/// What a cached ranking ranks: a query over the whole corpus or over one
/// partition. Separate fields, so no query string can name another key.
#[derive(Clone, PartialEq, Eq, Hash)]
struct RankingKey {
    query: String,
    partition: Option<PartitionSpec>,
}

/// An O(1) LRU cache of corpus rankings keyed by query and partition.
///
/// Every explainer starts by ranking the corpus for its query; a busy
/// server re-ranks the same query many times per user interaction
/// (explain → explain → builder …). The corpus and the model are
/// immutable after engine construction, so cached rankings can never go
/// stale. `/rank` and `/topics` read a cached ranking's head but, on a
/// miss, retrieve only their top k and cache nothing. Hits, misses,
/// evictions and resident entries are counted for the `/metrics` endpoint.
struct RankingCache {
    capacity: usize,
    state: Mutex<Lru<RankingKey, Arc<RankedList>>>,
    counters: Arc<RetrievalCounters>,
}

impl RankingCache {
    /// The ranking cached under `key`, counting the lookup as a hit or a
    /// miss.
    fn lookup(&self, key: &RankingKey) -> Option<Arc<RankedList>> {
        let found = if self.capacity == 0 {
            None
        } else {
            self.state.lock().expect("cache lock poisoned").get(key)
        };
        let counter = match found {
            Some(_) => &self.counters.cache_hits,
            None => &self.counters.cache_misses,
        };
        counter.fetch_add(1, Relaxed);
        found
    }

    /// Cache `ranking` under `key`, evicting the least recently used entry
    /// when full.
    fn insert(&self, key: RankingKey, ranking: RankedList) -> Arc<RankedList> {
        let ranking = Arc::new(ranking);
        if self.capacity == 0 {
            return ranking;
        }
        let counters = &self.counters;
        let mut state = self.state.lock().expect("cache lock poisoned");
        let resident = state.len();
        if state.insert(key, Arc::clone(&ranking)) {
            counters.cache_evictions.fetch_add(1, Relaxed);
        }
        counters
            .cache_size
            .fetch_add((state.len() - resident) as u64, Relaxed);
        ranking
    }

    fn len(&self) -> usize {
        self.state.lock().expect("cache lock poisoned").len()
    }
}

impl Drop for RankingCache {
    fn drop(&mut self) {
        // `cache_size` is a gauge over live caches: a dropping cache takes
        // its resident entries out of it.
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        self.counters
            .cache_size
            .fetch_sub(state.len() as u64, Relaxed);
    }
}

/// One block of retrieval counters, incremented in place by every engine
/// that counts into it: a standalone engine's own block, or the block a
/// [`crate::CorpusRegistry`] shares among every engine it builds, so that
/// its totals never depend on which engines are still alive. All counters
/// but the `cache_size` gauge only grow.
#[derive(Default)]
pub(crate) struct RetrievalCounters {
    docs_scored: AtomicU64,
    docs_pruned: AtomicU64,
    shards_used: AtomicU64,
    blocks_decoded: AtomicU64,
    blocks_skipped: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_size: AtomicU64,
    cache_evictions: AtomicU64,
    doc2vec_trainings: AtomicU64,
    doc2vec_train_us: AtomicU64,
}

impl RetrievalCounters {
    /// The block's current values.
    pub(crate) fn stats(&self) -> RetrievalStats {
        RetrievalStats {
            docs_scored: self.docs_scored.load(Relaxed),
            docs_pruned: self.docs_pruned.load(Relaxed),
            shards_used: self.shards_used.load(Relaxed),
            blocks_decoded: self.blocks_decoded.load(Relaxed),
            blocks_skipped: self.blocks_skipped.load(Relaxed),
            cache_hits: self.cache_hits.load(Relaxed),
            cache_misses: self.cache_misses.load(Relaxed),
            cache_size: self.cache_size.load(Relaxed),
            cache_evictions: self.cache_evictions.load(Relaxed),
            doc2vec_trainings: self.doc2vec_trainings.load(Relaxed),
            doc2vec_train_us: self.doc2vec_train_us.load(Relaxed),
        }
    }
}

/// The CREDENCE backend over a black-box ranker.
pub struct CredenceEngine<'a> {
    ranker: &'a dyn Ranker,
    /// Trained by the first reader; see [`Self::doc2vec`].
    doc2vec: OnceLock<Doc2Vec>,
    config: EngineConfig,
    cache: RankingCache,
    counters: Arc<RetrievalCounters>,
    replay: crate::evaluator::ReplayMemo,
}

impl<'a> CredenceEngine<'a> {
    /// Build the engine, counting into a block of its own. Nothing is
    /// trained here; see [`Self::doc2vec`].
    pub fn new(ranker: &'a dyn Ranker, config: EngineConfig) -> Self {
        Self::with_counters(ranker, config, Arc::default())
    }

    /// [`Self::new`], counting into `counters`.
    pub(crate) fn with_counters(
        ranker: &'a dyn Ranker,
        config: EngineConfig,
        counters: Arc<RetrievalCounters>,
    ) -> Self {
        let cache = RankingCache {
            capacity: config.ranking_cache,
            state: Mutex::new(Lru::new(config.ranking_cache)),
            counters: Arc::clone(&counters),
        };
        Self {
            ranker,
            doc2vec: OnceLock::new(),
            config,
            cache,
            counters,
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
    fn cached_ranking(&self, query: &str) -> Arc<RankedList> {
        let key = RankingKey {
            query: query.to_owned(),
            partition: None,
        };
        match self.cache.lookup(&key) {
            Some(ranking) => ranking,
            None => self.cache.insert(key, self.rank_corpus(query, None)),
        }
    }

    /// The top `k` of `query`'s ranking over `partition` (the whole corpus
    /// when `None`), best first: the head of the cached ranking on a hit,
    /// else the ranker's own top-k retrieval, which caches nothing. A
    /// ranker without index retrieval ranks (and caches) every document of
    /// the partition, as the explainers would.
    fn top_k(&self, query: &str, k: usize, partition: Option<PartitionSpec>) -> Vec<(DocId, f64)> {
        let key = RankingKey {
            query: query.to_owned(),
            partition,
        };
        let ranking = match self.cache.lookup(&key) {
            Some(ranking) => ranking,
            None => match self
                .ranker
                .retrieve_top_k(query, k, &TopKOptions { partition })
            {
                Some((hits, stats)) => {
                    self.count(&stats);
                    return hits.into_iter().map(|h| (h.doc, h.score)).collect();
                }
                None => self.cache.insert(key, self.rank_corpus(query, partition)),
            },
        };
        ranking.entries().iter().take(k).copied().collect()
    }

    /// Rank the whole corpus (or one partition of it) for `query`, counting
    /// the retrieval's work.
    fn rank_corpus(&self, query: &str, partition: Option<PartitionSpec>) -> RankedList {
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
        self.count(&stats);
        list
    }

    /// Add one retrieval's work to the counters.
    fn count(&self, stats: &TopKStats) {
        let counters = &self.counters;
        counters.docs_scored.fetch_add(stats.docs_scored, Relaxed);
        counters.docs_pruned.fetch_add(stats.docs_pruned, Relaxed);
        counters.shards_used.fetch_add(stats.shards_used, Relaxed);
        counters
            .blocks_decoded
            .fetch_add(stats.blocks_decoded, Relaxed);
        counters
            .blocks_skipped
            .fetch_add(stats.blocks_skipped, Relaxed);
    }

    /// Number of rankings currently cached (diagnostics).
    pub fn cached_queries(&self) -> usize {
        self.cache.len()
    }

    /// The retrieval and cache counters this engine counts into: its own
    /// for an engine built by [`Self::new`], or those of every engine of
    /// its registry for one a [`crate::CorpusRegistry`] built.
    pub fn retrieval_stats(&self) -> RetrievalStats {
        self.counters.stats()
    }

    /// The underlying ranker.
    pub fn ranker(&self) -> &dyn Ranker {
        self.ranker
    }

    /// The corpus's Doc2Vec model, trained on the first call. Concurrent
    /// first callers wait for the one that trains, so an engine trains at
    /// most once, with the same seeded, single-threaded
    /// [`Doc2Vec::train`] over the same sequences: the model does not
    /// depend on who asked first, or when.
    pub fn doc2vec(&self) -> &Doc2Vec {
        self.doc2vec.get_or_init(|| {
            let started = Instant::now();
            let index = self.ranker.index();
            let sequences: Vec<Vec<usize>> = index
                .documents()
                .iter()
                .map(|d| as_word_ids(index.analyze_query(&d.body)))
                .collect();
            let model = Doc2Vec::train(&sequences, index.vocabulary().len(), &self.config.doc2vec);
            self.counters.doc2vec_trainings.fetch_add(1, Relaxed);
            self.counters
                .doc2vec_train_us
                .fetch_add(started.elapsed().as_micros() as u64, Relaxed);
            model
        })
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
        self.top_k(query, k, opts.partition)
            .into_iter()
            .enumerate()
            .map(|(i, (doc, score))| {
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
        explain_sentence_removal(
            self.ranker,
            query,
            k,
            doc,
            config,
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
        explain_query_augmentation(self.ranker, query, k, doc, config, &ranking)
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
        explain_query_reduction(self.ranker, query, k, doc, config, &ranking)
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
        explain_term_removal(
            self.ranker,
            query,
            k,
            doc,
            config,
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
        config: &FeatureAttributionConfig,
    ) -> Result<FeatureAttributionResult, ExplainError> {
        let ranking = self.cached_ranking(query);
        explain_feature_attribution(
            self.ranker,
            query,
            k,
            doc,
            config,
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
        let ranking = self.cached_ranking(query);
        doc2vec_nearest(self.ranker, self.doc2vec(), query, k, doc, n, &ranking)
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
        let ranking = self.cached_ranking(query);
        let mut cfg = self.config.cosine;
        if let Some(s) = samples {
            cfg.samples = s;
        }
        cosine_sampled(self.ranker, query, k, doc, n, &cfg, &ranking)
    }

    /// `POST /rerank` — the builder's free-form perturbation test (§III-C),
    /// under a request [`Budget`]: fails fast with `deadline_exceeded` /
    /// `cancelled` when the budget is already spent.
    pub fn builder_rerank_budgeted(
        &self,
        query: &str,
        k: usize,
        doc: DocId,
        edited_body: &str,
        budget: &Budget,
    ) -> Result<BuilderOutcome, ExplainError> {
        let ranking = self.cached_ranking(query);
        test_perturbation(self.ranker, query, k, doc, edited_body, &ranking, budget)
    }

    /// Structured-edit variant of [`Self::builder_rerank_budgeted`], without
    /// a budget.
    pub fn builder_edits(
        &self,
        query: &str,
        k: usize,
        doc: DocId,
        edits: &[Edit],
    ) -> Result<BuilderOutcome, ExplainError> {
        let ranking = self.cached_ranking(query);
        test_edits(self.ranker, query, k, doc, edits, &ranking)
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
        let model = self.doc2vec();
        let inferred = model.infer(&as_word_ids(index.analyze_query(text)));
        let (excluded, ranking): (std::collections::HashSet<DocId>, Option<Arc<RankedList>>) =
            match exclude_top_k_for {
                None => (Default::default(), None),
                Some((query, k)) => {
                    let ranking = self.cached_ranking(query);
                    (ranking.top_k(k).into_iter().collect(), Some(ranking))
                }
            };
        let neighbors = credence_embed::nearest_neighbors_quantized(
            &inferred,
            model.quantized(),
            |d| model.doc_vector(d),
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
        if num_topics > MAX_TOPICS {
            return Err(ExplainError::InvalidParameter(
                "num_topics must be at most 256",
            ));
        }
        let index = self.ranker.index();
        if index.analyze_query(query).is_empty() {
            return Err(ExplainError::EmptyQuery);
        }
        let top = self.top_k(query, k, None);
        if top.is_empty() {
            return Ok(Vec::new());
        }
        // Build a local vocabulary over the ranked documents only, so topic
        // term ids match the summary resolution step.
        let analyzer = index.analyzer();
        let mut vocab = Vocabulary::new();
        let docs: Vec<Vec<usize>> = top
            .iter()
            .map(|&(d, _)| {
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

/// Vocabulary term ids as the embedding trainers' word ids.
fn as_word_ids(terms: Vec<credence_text::TermId>) -> Vec<usize> {
    terms.into_iter().map(|t| t as usize).collect()
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
            let fresh = explain_sentence_removal(
                e.ranker(),
                "covid outbreak",
                k,
                doc,
                &sr_cfg,
                &ranking,
                None,
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
        engine.full_ranking("covid outbreak");
        engine.full_ranking("microchip");
        let stats = engine.retrieval_stats();
        assert_eq!(stats.cache_size, 2);
        assert_eq!(stats.cache_evictions, 0);
        engine.full_ranking("garden show");
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
            assert!(e.topics("covid", 3, 257).is_err(), "above the topic bound");
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
            e.full_ranking("outbreak drills");
            assert_eq!(e.cached_queries(), 2);
            // A `/rank` miss retrieves its top k and caches nothing.
            let size = e.retrieval_stats().cache_size;
            e.rank("harbor facility", 3);
            assert_eq!(e.cached_queries(), 2);
            assert_eq!(e.retrieval_stats().cache_size, size);
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
            e.full_ranking("covid outbreak");
            let s = e.retrieval_stats();
            assert!(s.docs_scored > 0, "ranking scored documents");
            assert_eq!(s.cache_misses, 1);
            assert_eq!(s.cache_hits, 0);
            e.rank("covid outbreak", 3);
            let again = e.retrieval_stats();
            assert_eq!(again.cache_hits, 1, "the rank hits the cache");
            assert_eq!(again.cache_misses, 1, "no recomputation on a hit");
            assert_eq!(again.docs_scored, s.docs_scored, "a hit scores nothing");
            e.rank("microchip", 3);
            let missed = e.retrieval_stats();
            assert_eq!(missed.cache_misses, 2, "a rank that finds nothing misses");
            assert!(
                missed.docs_scored > s.docs_scored,
                "and its retrieval counts"
            );
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
