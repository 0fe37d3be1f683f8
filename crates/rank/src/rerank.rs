//! Corpus ranking and pool re-ranking — the two operations every CREDENCE
//! explainer is built from.
//!
//! * [`rank_corpus`] produces the ranking `D^M` of §II-A: the whole corpus
//!   ordered by the black-box model, from which the UI shows the top-k. It
//!   runs the index's top-k retrieval where the model has it and the
//!   per-document scan ([`rank_corpus_scan`]) otherwise.
//! * [`rerank_pool`] implements the §III-C mechanic reused by the
//!   sentence-removal explainer: take the top-(k+1) pool, substitute one
//!   document's body with a perturbed version, re-rank the pool, and report
//!   each document's movement.

use std::cmp::Ordering;

use credence_index::{DocId, PartitionSpec, TopKOptions, TopKStats};

use crate::ranker::Ranker;

/// A full corpus ranking for one query under one model.
///
/// Rank and score lookups are O(1): construction builds a doc-id→position
/// map alongside the sorted entries, because the counterfactual search
/// loops call [`RankedList::rank_of`] once per evaluated candidate.
#[derive(Debug, Clone)]
pub struct RankedList {
    entries: Vec<(DocId, f64)>,
    positions: std::collections::HashMap<DocId, usize>,
}

impl RankedList {
    /// Construct from `(doc, score)` pairs (any order).
    pub fn from_scores(mut entries: Vec<(DocId, f64)>) -> Self {
        entries.sort_unstable_by(compare_hits);
        let positions = entries
            .iter()
            .enumerate()
            .map(|(i, &(d, _))| (d, i))
            .collect();
        Self { entries, positions }
    }

    /// The ranked entries, best first.
    pub fn entries(&self) -> &[(DocId, f64)] {
        &self.entries
    }

    /// 1-based rank of `doc`, or `None` when it is not in the ranking.
    pub fn rank_of(&self, doc: DocId) -> Option<usize> {
        self.positions.get(&doc).map(|&p| p + 1)
    }

    /// Score of `doc`, if ranked.
    pub fn score_of(&self, doc: DocId) -> Option<f64> {
        self.positions.get(&doc).map(|&p| self.entries[p].1)
    }

    /// The ids of the top `k` documents (fewer when the ranking is shorter).
    pub fn top_k(&self, k: usize) -> Vec<DocId> {
        self.entries.iter().take(k).map(|&(d, _)| d).collect()
    }

    /// Number of ranked documents.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was ranked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn compare_hits(a: &(DocId, f64), b: &(DocId, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.0.cmp(&b.0))
}

/// Rank the whole corpus for `query` under `ranker`: the ranking `D^M` of
/// §II-A, through the index's top-k retrieval when the model supports it
/// ([`rank_corpus_with`] on one thread, without its counters).
///
/// Lexical models (where [`Ranker::zero_means_unmatched`] is true) omit
/// zero-scored documents, matching retrieval semantics; dense/hybrid models
/// rank every document.
pub fn rank_corpus(ranker: &dyn Ranker, query: &str) -> RankedList {
    rank_corpus_with(ranker, query, &TopKOptions::default(), 1).0
}

/// Rank the whole corpus for `query`, routing through the index's top-k
/// retrieval when the model supports it ([`Ranker::retrieve_top_k`] with
/// `k = num_docs`, which runs the block scan) and reporting execution
/// counters. Models without the hook fall back to [`rank_corpus_scan`] over
/// `fallback_threads` threads. Entries are bit-identical to the scan either
/// way.
pub fn rank_corpus_with(
    ranker: &dyn Ranker,
    query: &str,
    opts: &TopKOptions,
    fallback_threads: usize,
) -> (RankedList, TopKStats) {
    let n = ranker.index().num_docs();
    if let Some((hits, stats)) = ranker.retrieve_top_k(query, n, opts) {
        let entries: Vec<(DocId, f64)> = hits.into_iter().map(|h| (h.doc, h.score)).collect();
        return (RankedList::from_scores(entries), stats);
    }
    let list = rank_corpus_scan(ranker, query, fallback_threads, opts.partition);
    let scored = match opts.partition {
        Some(p) => ranker.index().doc_ids().filter(|&d| p.owns(d)).count(),
        None => n,
    };
    let mut stats = TopKStats::new("fallback");
    stats.docs_scored = scored as u64;
    stats.shards_used = if fallback_threads > 1 {
        fallback_threads.min(n.max(1)) as u64
    } else {
        0
    };
    (list, stats)
}

/// The per-document scan: score every document owned by `part` (all of
/// them when `None`) with [`Ranker::score_doc`], sharded over `threads`
/// scoped threads when `> 1`. It serves rankers without
/// [`Ranker::retrieve_top_k`] and is the reference the retrieval path is
/// tested against. Scores are computed per document, so the thread count
/// never changes a bit, and the partition filter removes whole documents,
/// so per-partition rankings merge bit-identically into the unpartitioned
/// one. Threads pay off from roughly 10k documents upward.
pub fn rank_corpus_scan(
    ranker: &dyn Ranker,
    query: &str,
    threads: usize,
    part: Option<PartitionSpec>,
) -> RankedList {
    let index = ranker.index();
    let n = index.num_docs();
    let drop_zeros = ranker.zero_means_unmatched();
    let owns = |d: DocId| part.is_none_or(|p| p.owns(d));
    let score_range = |lo: usize, hi: usize| {
        (lo..hi)
            .map(|i| DocId(i as u32))
            .filter(|&d| owns(d))
            .map(|d| (d, ranker.score_doc(query, d)))
            .filter(|&(_, s)| !drop_zeros || s > 0.0)
            .collect::<Vec<_>>()
    };
    if threads <= 1 || n == 0 {
        return RankedList::from_scores(score_range(0, n));
    }
    let threads = threads.min(n);
    let chunk = n.div_ceil(threads);
    let mut entries: Vec<(DocId, f64)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let score_range = &score_range;
                scope.spawn(move || score_range(t * chunk, ((t + 1) * chunk).min(n)))
            })
            .collect();
        for handle in handles {
            entries.extend(handle.join().expect("scoring thread panicked"));
        }
    });
    RankedList::from_scores(entries)
}

/// One row of a pool re-ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolEntry {
    /// The document.
    pub doc: DocId,
    /// Its score in the re-ranked pool.
    pub score: f64,
    /// Its 1-based rank in the re-ranked pool.
    pub new_rank: usize,
    /// Its 1-based rank in the pool *before* substitution (position in the
    /// input slice + 1).
    pub old_rank: usize,
    /// Whether this is the substituted (perturbed) document.
    pub substituted: bool,
}

impl PoolEntry {
    /// Rank movement: negative = raised (toward rank 1), positive = lowered.
    pub fn movement(&self) -> i64 {
        self.new_rank as i64 - self.old_rank as i64
    }
}

/// Re-rank `pool` (given in its current rank order) after substituting
/// `substitute = (doc, new_body)` for that document's original body.
///
/// This is exactly the builder's RE-RANK operation (§III-C): "the edited
/// document is substituted for the original, then re-ranked alongside the
/// other top k+1 documents". With `substitute = None` it recomputes the
/// pool ranking unchanged (useful for verifying stability).
///
/// The returned entries are sorted by `new_rank`. A perturbed document whose
/// score drops to zero stays in the pool (it *is* one of the k+1 documents
/// being compared) and simply sinks to the bottom — this is how a rank of
/// k+1 = 11 arises in Figures 2 and 5.
pub fn rerank_pool(
    ranker: &dyn Ranker,
    query: &str,
    pool: &[DocId],
    substitute: Option<(DocId, &str)>,
) -> Vec<PoolEntry> {
    let mut rows: Vec<PoolEntry> = pool
        .iter()
        .enumerate()
        .map(|(i, &doc)| {
            let (score, substituted) = match substitute {
                Some((target, body)) if target == doc => (ranker.score_text(query, body), true),
                _ => (ranker.score_doc(query, doc), false),
            };
            PoolEntry {
                doc,
                score,
                new_rank: 0,
                old_rank: i + 1,
                substituted,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.doc.cmp(&b.doc))
    });
    for (i, row) in rows.iter_mut().enumerate() {
        row.new_rank = i + 1;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bm25::Bm25Ranker;
    use credence_index::{Bm25Params, Document, InvertedIndex};
    use credence_text::Analyzer;

    fn index() -> InvertedIndex {
        InvertedIndex::build(
            vec![
                Document::from_body("covid outbreak covid outbreak emergency"), // 0
                Document::from_body("covid outbreak in the city today"),        // 1
                Document::from_body("covid numbers fall in the region"),        // 2
                Document::from_body("garden flowers bloom brightly"),           // 3
                Document::from_body("outbreak of joy at the festival"),         // 4
            ],
            Analyzer::english(),
        )
    }

    #[test]
    fn rank_corpus_orders_and_filters() {
        let idx = index();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let list = rank_corpus(&r, "covid outbreak");
        assert_eq!(list.entries()[0].0, DocId(0));
        assert!(list.rank_of(DocId(3)).is_none(), "garden doc unmatched");
        assert_eq!(list.rank_of(DocId(0)), Some(1));
        assert!(list.len() == 4);
        let scores: Vec<f64> = list.entries().iter().map(|e| e.1).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn top_k_truncates() {
        let idx = index();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let list = rank_corpus(&r, "covid outbreak");
        assert_eq!(list.top_k(2).len(), 2);
        assert_eq!(list.top_k(100).len(), list.len());
    }

    #[test]
    fn empty_query_ranks_nothing() {
        let idx = index();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let list = rank_corpus(&r, "");
        assert!(list.is_empty());
        assert_eq!(list.rank_of(DocId(0)), None);
    }

    #[test]
    fn rerank_without_substitution_is_stable() {
        let idx = index();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let list = rank_corpus(&r, "covid outbreak");
        let pool = list.top_k(3);
        let rows = rerank_pool(&r, "covid outbreak", &pool, None);
        for row in &rows {
            assert_eq!(row.new_rank, row.old_rank, "{row:?}");
            assert_eq!(row.movement(), 0);
            assert!(!row.substituted);
        }
    }

    #[test]
    fn substituting_gutted_body_sinks_to_bottom() {
        let idx = index();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let list = rank_corpus(&r, "covid outbreak");
        let pool = list.top_k(3);
        let top = pool[0];
        let rows = rerank_pool(
            &r,
            "covid outbreak",
            &pool,
            Some((top, "nothing relevant here")),
        );
        let sub = rows.iter().find(|r| r.substituted).unwrap();
        assert_eq!(sub.doc, top);
        assert_eq!(sub.new_rank, pool.len());
        assert_eq!(sub.score, 0.0);
        assert!(sub.movement() > 0, "lowered");
        // Everyone else moved up or stayed.
        for row in rows.iter().filter(|r| !r.substituted) {
            assert!(row.movement() <= 0);
        }
    }

    #[test]
    fn rerank_is_a_permutation_of_the_pool() {
        let idx = index();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let list = rank_corpus(&r, "covid outbreak");
        let pool = list.top_k(4);
        let rows = rerank_pool(&r, "covid outbreak", &pool, Some((pool[1], "covid")));
        let mut docs: Vec<DocId> = rows.iter().map(|r| r.doc).collect();
        docs.sort_unstable();
        let mut expected = pool.clone();
        expected.sort_unstable();
        assert_eq!(docs, expected);
        let ranks: Vec<usize> = rows.iter().map(|r| r.new_rank).collect();
        assert_eq!(ranks, (1..=pool.len()).collect::<Vec<_>>());
    }

    #[test]
    fn boosting_substitution_raises_rank() {
        let idx = index();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let list = rank_corpus(&r, "covid outbreak");
        let pool = list.top_k(3);
        let last = *pool.last().unwrap();
        let rows = rerank_pool(
            &r,
            "covid outbreak",
            &pool,
            Some((last, "covid outbreak covid outbreak covid outbreak")),
        );
        let sub = rows.iter().find(|r| r.substituted).unwrap();
        assert!(sub.movement() < 0, "raised: {sub:?}");
        assert_eq!(sub.new_rank, 1);
    }

    #[test]
    fn threaded_scan_matches_serial_scan() {
        let idx = index();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let serial = rank_corpus_scan(&r, "covid outbreak", 1, None);
        for threads in [0usize, 2, 3, 8, 64] {
            let threaded = rank_corpus_scan(&r, "covid outbreak", threads, None);
            assert_eq!(serial.entries(), threaded.entries(), "threads={threads}");
        }
        // Empty corpus.
        let empty = InvertedIndex::build(vec![], Analyzer::english());
        let re = Bm25Ranker::new(&empty, Bm25Params::default());
        assert!(rank_corpus_scan(&re, "covid", 4, None).is_empty());
        assert!(rank_corpus(&re, "covid").is_empty());
    }

    #[test]
    fn rank_corpus_with_is_bit_identical_to_the_scan() {
        use crate::ql::{QlSmoothing, QueryLikelihoodRanker};
        use crate::rm3::{Rm3Config, Rm3Ranker};

        let idx = index();
        let bm25 = Bm25Ranker::new(&idx, Bm25Params::default());
        let rm3 = Rm3Ranker::new(&idx, Rm3Config::default());
        let ql = QueryLikelihoodRanker::new(&idx, QlSmoothing::default());
        let rankers: [&dyn Ranker; 3] = [&bm25, &rm3, &ql];
        for ranker in rankers {
            let reference = rank_corpus_scan(ranker, "covid outbreak", 1, None);
            let (list, stats) =
                rank_corpus_with(ranker, "covid outbreak", &TopKOptions::default(), 2);
            let plain = rank_corpus(ranker, "covid outbreak");
            for got in [&list, &plain] {
                assert_eq!(got.entries().len(), reference.entries().len());
                for (a, b) in got.entries().iter().zip(reference.entries()) {
                    assert_eq!(a.0, b.0, "{}", ranker.name());
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "{}", ranker.name());
                }
            }
            // QL has no index-driven retrieval hook and must fall back.
            if ranker.name().starts_with("ql") {
                assert_eq!(stats.strategy, "fallback");
                assert_eq!(stats.shards_used, 2);
            } else {
                assert_eq!(stats.shards_used, 0);
            }
        }
    }

    #[test]
    fn empty_pool_is_fine() {
        let idx = index();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        assert!(rerank_pool(&r, "covid", &[], None).is_empty());
    }
}
