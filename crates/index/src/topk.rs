//! Exact top-k retrieval over the block-compressed postings.
//!
//! Two paths, both **bit-identical** to scoring every candidate document:
//!
//! * **The scan** gathers the candidates (the union of the query's posting
//!   lists) straight from the blocks, scores each one and keeps the best `k`.
//!   It is also the reference, [`search_top_k_exhaustive`].
//! * **MaxScore** streams the lists block by block, strongest bound first,
//!   and stops once no unseen document can reach the k-th best score; the
//!   blocks it never reaches stay undecoded.
//!
//! [`search_top_k_with`] runs the scan when `k` is at least the most
//! candidates the query can have — the smaller of the corpus size and the
//! summed posting lengths — since nothing can be pruned then. That covers
//! every whole-corpus ranking (`k = num_docs`). Otherwise it runs MaxScore.
//!
//! Parity rests on three facts:
//!
//! * Every candidate that survives is scored with the *same* float fold on
//!   both paths ([`bm25_score_indexed`] for plain queries, the slice-order
//!   weighted fold for expanded queries), so scores agree to the last bit.
//! * Top-k selection is over a strict total order (descending score,
//!   ascending [`DocId`]; doc ids are unique), so the selected set and its
//!   sorted order are insertion-order independent.
//! * Pruning bounds therefore only need to be *sound*, never exact: a term's
//!   contribution is bounded via [`bm25_term_upper_bound`] over the
//!   [`TermBound`](crate::TermBound) statistics frozen at build time, suffix
//!   sums are inflated by `BOUND_SLACK` to absorb float-summation
//!   non-associativity, and a list is cut off only when its inflated bound is
//!   *strictly* below the current threshold — a candidate tying the k-th
//!   score could still win its tie-break on doc id, so ties are never pruned.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use credence_text::TermId;

use crate::blocks::CompressedPostings;
use crate::doc::DocId;
use crate::index::InvertedIndex;
use crate::partition::PartitionSpec;
use crate::score::{bm25_score_indexed, bm25_term_upper_bound, bm25_term_weight, Bm25Params};
use crate::search::{compare_hits, sort_hits, SearchHit};

/// Multiplicative slack applied to summed upper bounds.
///
/// Exact scores are left folds in query order; bounds are folds in
/// upper-bound order. Both are within `(n-1)·eps` relative error of the real
/// sum, so inflating the bound by `1e-9 >> 2·n·eps` (for any realistic query
/// length `n`) guarantees `inflated_bound >= exact_score` in floats.
const BOUND_SLACK: f64 = 1.0 + 1e-9;

/// Options for [`search_top_k_with`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TopKOptions {
    /// Restrict scoring to one doc-hash partition (cluster fanout). Scores
    /// of surviving documents are untouched — collection statistics stay
    /// global — so per-partition top-ks merge bit-identically into the
    /// unpartitioned ranking. `None` scores the whole corpus.
    pub partition: Option<PartitionSpec>,
}

/// Counters describing how a retrieval was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKStats {
    /// Documents actually scored with the exact fold.
    pub docs_scored: u64,
    /// Posting entries MaxScore cut off. An upper bound on pruned *unique*
    /// documents: a document is counted once per skipped list it appears in.
    pub docs_pruned: u64,
    /// Threads of the parallel fallback scan, which serves rankers without
    /// index retrieval (`0` for index retrieval).
    pub shards_used: u64,
    /// Posting blocks decoded.
    pub blocks_decoded: u64,
    /// Posting blocks MaxScore never decoded.
    pub blocks_skipped: u64,
    /// Which path ran (`"exhaustive"` for the scan, `"pruned"` for
    /// MaxScore, `"empty"`, or `"fallback"` for rankers without index
    /// retrieval).
    pub strategy: &'static str,
}

impl TopKStats {
    /// A zeroed counter set labelled with the path that ran.
    pub fn new(strategy: &'static str) -> Self {
        Self {
            docs_scored: 0,
            docs_pruned: 0,
            shards_used: 0,
            blocks_decoded: 0,
            blocks_skipped: 0,
            strategy,
        }
    }
}

/// Max-heap entry ordered so the *worst* hit under (score desc, doc asc)
/// pops first.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry(SearchHit);

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        compare_hits(&self.0, &other.0)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Bounded top-k collector over the strict (score desc, doc asc) order.
struct TopKHeap {
    heap: BinaryHeap<HeapEntry>,
    k: usize,
}

impl TopKHeap {
    fn new(k: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(k + 1),
            k,
        }
    }

    /// Offer a scored hit, keeping the best `k`.
    fn offer(&mut self, hit: SearchHit) {
        self.heap.push(HeapEntry(hit));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
    }

    /// The current k-th best score, if the heap is full.
    fn threshold(&self) -> Option<f64> {
        if self.heap.len() == self.k {
            self.heap.peek().map(|e| e.0.score)
        } else {
            None
        }
    }

    fn into_sorted(self) -> Vec<SearchHit> {
        let mut hits: Vec<SearchHit> = self.heap.into_iter().map(|e| e.0).collect();
        sort_hits(&mut hits);
        hits
    }
}

/// Rank the corpus for a bag of analysed query term ids and return the top
/// `k` hits, best first, with execution counters. Bit-identical to
/// [`search_top_k_exhaustive`] whichever path runs.
pub fn search_top_k_with(
    index: &InvertedIndex,
    params: Bm25Params,
    query: &[TermId],
    k: usize,
    opts: &TopKOptions,
) -> (Vec<SearchHit>, TopKStats) {
    if k == 0 || query.is_empty() {
        return (Vec::new(), TopKStats::new("empty"));
    }
    let uniq = unique_weighted(query.iter().map(|&t| (t, 1.0)), index);
    let exact = |doc: DocId| bm25_score_indexed(params, index, query, doc);
    select(index, params, &uniq, k, &exact, opts.partition)
}

/// Weighted-query variant for expanded (RM3-style) queries: exact scores are
/// the slice-order fold `sum(w * bm25_term_weight(t, tf, doc_len))`, matching
/// `Rm3Ranker`'s scoring bit for bit. MaxScore needs non-negative weights;
/// any negative weight forces the (still exact) scan.
pub fn search_weighted_top_k_with(
    index: &InvertedIndex,
    params: Bm25Params,
    terms: &[(TermId, f64)],
    k: usize,
    opts: &TopKOptions,
) -> (Vec<SearchHit>, TopKStats) {
    if k == 0 || terms.is_empty() {
        return (Vec::new(), TopKStats::new("empty"));
    }
    let uniq = unique_weighted(terms.iter().copied(), index);
    let stats = index.stats();
    let exact = |doc: DocId| {
        let doc_len = index.doc_len(doc);
        terms
            .iter()
            .map(|&(t, w)| w * bm25_term_weight(params, stats, t, index.term_freq(doc, t), doc_len))
            .sum()
    };
    if terms.iter().any(|&(_, w)| w < 0.0) {
        return scan(index, &uniq, k, &exact, opts.partition);
    }
    select(index, params, &uniq, k, &exact, opts.partition)
}

/// The scan on its own: the reference every path is tested against.
pub fn search_top_k_exhaustive(
    index: &InvertedIndex,
    params: Bm25Params,
    query: &[TermId],
    k: usize,
) -> (Vec<SearchHit>, TopKStats) {
    if k == 0 || query.is_empty() {
        return (Vec::new(), TopKStats::new("empty"));
    }
    let uniq = unique_weighted(query.iter().map(|&t| (t, 1.0)), index);
    let exact = |doc: DocId| bm25_score_indexed(params, index, query, doc);
    scan(index, &uniq, k, &exact, None)
}

/// Collapse a term sequence into unique `(term, summed weight)` pairs sorted
/// by term id, dropping terms with empty postings (they cannot match).
fn unique_weighted(
    terms: impl Iterator<Item = (TermId, f64)>,
    index: &InvertedIndex,
) -> Vec<(TermId, f64)> {
    let mut v: Vec<(TermId, f64)> = terms.filter(|&(t, _)| index.postings_len(t) > 0).collect();
    v.sort_unstable_by_key(|&(t, _)| t);
    v.dedup_by(|a, b| {
        if a.0 == b.0 {
            b.1 += a.1;
            true
        } else {
            false
        }
    });
    v
}

/// The postings of a term `unique_weighted` kept (so it is indexed).
fn list(index: &InvertedIndex, term: TermId) -> &CompressedPostings {
    index
        .compressed_postings(term)
        .expect("unique_weighted keeps indexed terms only")
}

/// Run the scan when `k` covers every possible candidate, MaxScore
/// otherwise (or when a bound is non-finite, under degenerate BM25
/// parameters).
fn select<F: Fn(DocId) -> f64>(
    index: &InvertedIndex,
    params: Bm25Params,
    uniq: &[(TermId, f64)],
    k: usize,
    exact: &F,
    part: Option<PartitionSpec>,
) -> (Vec<SearchHit>, TopKStats) {
    let postings: usize = uniq.iter().map(|&(t, _)| index.postings_len(t)).sum();
    if k >= postings.min(index.num_docs()) {
        return scan(index, uniq, k, exact, part);
    }
    match contributions(index, params, uniq) {
        Some(contribs) => max_score(index, &contribs, k, exact, part),
        None => scan(index, uniq, k, exact, part),
    }
}

/// Per-unique-term bound contributions `(term, weight * upper_bound)`,
/// sorted by contribution descending (term id ascending on ties, for
/// determinism). `None` when any contribution is non-finite.
fn contributions(
    index: &InvertedIndex,
    params: Bm25Params,
    uniq: &[(TermId, f64)],
) -> Option<Vec<(TermId, f64)>> {
    let mut out = Vec::with_capacity(uniq.len());
    for &(t, w) in uniq {
        let ub = w * bm25_term_upper_bound(params, index.stats(), t, index.term_bound(t));
        if !ub.is_finite() {
            return None;
        }
        out.push((t, ub));
    }
    out.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    Some(out)
}

/// Score `doc` the first time any list yields it, unless the partition
/// filter drops it; a hit when the score is positive. `seen` is a bitset
/// over doc ids, so candidates are deduplicated without sorting or hashing.
fn score_once<F: Fn(DocId) -> f64>(
    doc: DocId,
    seen: &mut [u64],
    part: Option<PartitionSpec>,
    exact: &F,
    stats: &mut TopKStats,
) -> Option<SearchHit> {
    let (word, bit) = (doc.index() / 64, 1u64 << (doc.index() % 64));
    if seen[word] & bit != 0 {
        return None;
    }
    seen[word] |= bit;
    if !part.is_none_or(|p| p.owns(doc)) {
        return None;
    }
    let score = exact(doc);
    stats.docs_scored += 1;
    (score > 0.0).then_some(SearchHit { doc, score })
}

/// Score every candidate (the union of the postings, read block by block)
/// and keep the best `k`: a linear selection, then one sort of the `k` kept.
fn scan<F: Fn(DocId) -> f64>(
    index: &InvertedIndex,
    uniq: &[(TermId, f64)],
    k: usize,
    exact: &F,
    part: Option<PartitionSpec>,
) -> (Vec<SearchHit>, TopKStats) {
    let mut stats = TopKStats::new("exhaustive");
    let mut seen = vec![0u64; index.num_docs().div_ceil(64)];
    let mut docs = Vec::new();
    let mut hits = Vec::new();
    for &(t, _) in uniq {
        let list = list(index, t);
        for b in 0..list.blocks().len() {
            list.decode_block_docs(b, &mut docs);
            for &d in &docs {
                hits.extend(score_once(DocId(d), &mut seen, part, exact, &mut stats));
            }
        }
        stats.blocks_decoded += list.blocks().len() as u64;
    }
    if hits.len() > k {
        hits.select_nth_unstable_by(k - 1, compare_hits);
        hits.truncate(k);
    }
    sort_hits(&mut hits);
    (hits, stats)
}

/// MaxScore-style term-at-a-time search, streaming each list block by
/// block. `contribs` must be sorted by bound contribution descending. Exact
/// parity with the scan follows from (a) identical exact scoring of every
/// surviving candidate, (b) the strict total order making top-k selection
/// insertion-order independent, and (c) cutting off only on
/// `inflated_bound < threshold` — strictly below — so no document that could
/// enter (or tie into) the top-k is ever skipped. A partition filter drops
/// whole documents before scoring, which only lowers achievable scores —
/// bound soundness is unaffected.
fn max_score<F: Fn(DocId) -> f64>(
    index: &InvertedIndex,
    contribs: &[(TermId, f64)],
    k: usize,
    exact: &F,
    part: Option<PartitionSpec>,
) -> (Vec<SearchHit>, TopKStats) {
    let mut stats = TopKStats::new("pruned");
    let n = contribs.len();
    // Inflated suffix bounds: suffix[i] >= exact score of any document whose
    // query terms all come from lists i.., in float arithmetic.
    let mut suffix = vec![0.0f64; n + 1];
    for i in (0..n).rev() {
        suffix[i] = (suffix[i + 1] + contribs[i].1) * BOUND_SLACK;
    }
    let mut seen = vec![0u64; index.num_docs().div_ceil(64)];
    let mut top = TopKHeap::new(k);
    let mut docs = Vec::new();
    // A document first seen in list i (or later) scores at most suffix[i];
    // once that is strictly below the threshold, no unseen document anywhere
    // in lists i.. can enter the top-k or tie into it. The threshold only
    // rises on an offer, so it is checked at each list start and after each
    // offer.
    let cut = |top: &TopKHeap, i: usize| top.threshold().is_some_and(|th| suffix[i] < th);
    for (i, &(t, _)) in contribs.iter().enumerate() {
        if cut(&top, i) {
            cut_off(&mut stats, index, &contribs[i..], 0, 0);
            break;
        }
        let list = list(index, t);
        for (b, meta) in list.blocks().iter().enumerate() {
            list.decode_block_docs(b, &mut docs);
            stats.blocks_decoded += 1;
            for (pi, &d) in docs.iter().enumerate() {
                let Some(hit) = score_once(DocId(d), &mut seen, part, exact, &mut stats) else {
                    continue;
                };
                top.offer(hit);
                if cut(&top, i) {
                    let pos = meta.start as usize + pi + 1;
                    cut_off(&mut stats, index, &contribs[i..], pos, b + 1);
                    return (top.into_sorted(), stats);
                }
            }
        }
    }
    (top.into_sorted(), stats)
}

/// Count what MaxScore never reads as pruned: the first list of `rest` from
/// posting `pos` and block `block` on, and every later list whole.
fn cut_off(
    stats: &mut TopKStats,
    index: &InvertedIndex,
    rest: &[(TermId, f64)],
    pos: usize,
    block: usize,
) {
    for (j, &(t, _)) in rest.iter().enumerate() {
        let (pos, block) = if j == 0 { (pos, block) } else { (0, 0) };
        let list = list(index, t);
        stats.docs_pruned += (list.len() - pos) as u64;
        stats.blocks_skipped += (list.blocks().len() - block) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::Document;
    use credence_text::Analyzer;

    fn corpus(n: usize) -> InvertedIndex {
        let bodies = [
            "covid outbreak covid emergency in the city",
            "covid numbers rising across the region",
            "garden flowers bloom in spring",
            "outbreak of joy in the city park",
            "the city council meets to discuss the outbreak",
            "vaccine shipments arrive covid covid",
        ];
        InvertedIndex::build(
            (0..n)
                .map(|i| Document::from_body(bodies[i % bodies.len()]))
                .collect(),
            Analyzer::english(),
        )
    }

    fn assert_bit_identical(a: &[SearchHit], b: &[SearchHit]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn both_paths_agree_bit_for_bit() {
        let idx = corpus(40);
        let params = Bm25Params::default();
        for query in [
            "covid outbreak",
            "covid covid city",
            "garden",
            "outbreak city covid vaccine",
        ] {
            let q = idx.analyze_query(query);
            for k in [1, 2, 5, 40, 100] {
                let (reference, _) = search_top_k_exhaustive(&idx, params, &q, k);
                let (hits, _) = search_top_k_with(&idx, params, &q, k, &TopKOptions::default());
                assert_bit_identical(&hits, &reference);
            }
        }
    }

    #[test]
    fn k_covering_every_candidate_runs_the_scan() {
        let idx = corpus(40);
        let params = Bm25Params::default();
        let q = idx.analyze_query("covid outbreak");
        let opts = TopKOptions::default();
        let blocks: u64 = q
            .iter()
            .map(|&t| idx.compressed_postings(t).unwrap().blocks().len() as u64)
            .sum();
        let (_, full) = search_top_k_with(&idx, params, &q, idx.num_docs(), &opts);
        assert_eq!(full.strategy, "exhaustive");
        assert_eq!(full.blocks_decoded, blocks);
        assert_eq!((full.docs_pruned, full.blocks_skipped), (0, 0));
        let (_, top) = search_top_k_with(&idx, params, &q, 3, &opts);
        assert_eq!(top.strategy, "pruned");
    }

    #[test]
    fn pruned_skips_postings_on_selective_queries() {
        // One rare high-idf term plus a ubiquitous one: once the heap fills
        // from the rare list, the common list's bound falls below threshold.
        let mut bodies: Vec<Document> = (0..200)
            .map(|_| Document::from_body("common filler words here"))
            .collect();
        bodies.push(Document::from_body("rare common filler"));
        bodies.push(Document::from_body("rare rare common"));
        let idx = InvertedIndex::build(bodies, Analyzer::english());
        let q = idx.analyze_query("rare common");
        let params = Bm25Params::default();
        let opts = TopKOptions::default();
        let (hits, stats) = search_top_k_with(&idx, params, &q, 2, &opts);
        let (reference, ex_stats) = search_top_k_exhaustive(&idx, params, &q, 2);
        assert_bit_identical(&hits, &reference);
        assert!(stats.docs_pruned > 0, "expected pruning, got {stats:?}");
        assert!(stats.docs_scored < ex_stats.docs_scored);
    }

    #[test]
    fn weighted_search_matches_weighted_brute_force() {
        let idx = corpus(25);
        let params = Bm25Params::default();
        let covid = idx.vocabulary().id("covid").unwrap();
        let citi = idx.vocabulary().id("citi").unwrap();
        let outbreak = idx.vocabulary().id("outbreak").unwrap();
        let terms = vec![(covid, 0.6), (outbreak, 0.3), (citi, 0.1)];
        let brute = |doc: DocId| -> f64 {
            let dl = idx.doc_len(doc);
            terms
                .iter()
                .map(|&(t, w)| {
                    w * bm25_term_weight(params, idx.stats(), t, idx.term_freq(doc, t), dl)
                })
                .sum()
        };
        let mut reference: Vec<SearchHit> = idx
            .doc_ids()
            .map(|d| SearchHit {
                doc: d,
                score: brute(d),
            })
            .filter(|h| h.score > 0.0)
            .collect();
        sort_hits(&mut reference);
        for k in [1, 5, 25] {
            let (hits, _) =
                search_weighted_top_k_with(&idx, params, &terms, k, &TopKOptions::default());
            assert_bit_identical(&hits, &reference[..k.min(reference.len())]);
        }
    }

    #[test]
    fn empty_inputs_and_k_zero() {
        let idx = corpus(6);
        let params = Bm25Params::default();
        let q = idx.analyze_query("covid");
        let opts = TopKOptions::default();
        assert!(search_top_k_with(&idx, params, &q, 0, &opts).0.is_empty());
        assert!(search_top_k_with(&idx, params, &[], 5, &opts).0.is_empty());
        assert!(search_weighted_top_k_with(&idx, params, &[], 5, &opts)
            .0
            .is_empty());
        let empty = InvertedIndex::build(vec![], Analyzer::english());
        assert!(search_top_k_with(&empty, params, &[7], 5, &opts)
            .0
            .is_empty());
    }

    #[test]
    fn pruned_skips_blocks_on_selective_queries() {
        // Same shape as the pruned skip test, but large enough that the
        // common term's postings span many blocks: once the heap fills from
        // the rare list, the common list falls below the threshold and none
        // of its blocks is decoded.
        let mut bodies: Vec<Document> = (0..2000)
            .map(|_| Document::from_body("common filler words here"))
            .collect();
        bodies.push(Document::from_body("rare common filler"));
        bodies.push(Document::from_body("rare rare common"));
        let idx = InvertedIndex::build(bodies, Analyzer::english());
        let q = idx.analyze_query("rare common");
        let params = Bm25Params::default();
        let (hits, stats) = search_top_k_with(&idx, params, &q, 2, &TopKOptions::default());
        let (reference, ex_stats) = search_top_k_exhaustive(&idx, params, &q, 2);
        assert_bit_identical(&hits, &reference);
        assert_eq!(stats.strategy, "pruned");
        assert!(
            stats.blocks_skipped > 0,
            "expected block skips, got {stats:?}"
        );
        assert!(stats.docs_pruned > 0, "expected pruning, got {stats:?}");
        assert!(stats.docs_scored < ex_stats.docs_scored);
    }

    #[test]
    fn partitioned_topk_merges_to_global_ranking() {
        // Each partition scores only its owned docs; concatenating the
        // per-partition top-ks, re-sorting by the total order, and
        // truncating must reproduce the unpartitioned top-k bit for bit —
        // the invariant the process-level router merge relies on.
        let idx = corpus(60);
        let params = Bm25Params::default();
        let q = idx.analyze_query("covid outbreak city");
        for count in 1..=8u32 {
            for k in [1usize, 3, 10, 60] {
                let (reference, _) =
                    search_top_k_with(&idx, params, &q, k, &TopKOptions::default());
                let mut merged: Vec<SearchHit> = Vec::new();
                for i in 0..count {
                    let opts = TopKOptions {
                        partition: PartitionSpec::new(i, count),
                    };
                    let (hits, _) = search_top_k_with(&idx, params, &q, k, &opts);
                    merged.extend(hits);
                }
                sort_hits(&mut merged);
                merged.truncate(k);
                assert_bit_identical(&merged, &reference);
            }
        }
    }

    #[test]
    fn partition_filter_restricts_scoring() {
        let idx = corpus(60);
        let params = Bm25Params::default();
        let q = idx.analyze_query("covid outbreak");
        let spec = PartitionSpec::new(1, 3).unwrap();
        let opts = TopKOptions {
            partition: Some(spec),
        };
        let (hits, stats) = search_top_k_with(&idx, params, &q, 60, &opts);
        assert!(hits.iter().all(|h| spec.owns(h.doc)));
        let (_, full) = search_top_k_exhaustive(&idx, params, &q, 60);
        assert!(stats.docs_scored < full.docs_scored);
    }

    #[test]
    fn negative_weights_fall_back_to_exhaustive() {
        let idx = corpus(12);
        let params = Bm25Params::default();
        let covid = idx.vocabulary().id("covid").unwrap();
        let citi = idx.vocabulary().id("citi").unwrap();
        let terms = vec![(covid, 1.0), (citi, -0.5)];
        let (_, stats) =
            search_weighted_top_k_with(&idx, params, &terms, 3, &TopKOptions::default());
        assert_eq!(stats.strategy, "exhaustive");
    }
}
