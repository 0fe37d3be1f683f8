//! Incremental candidate scoring for the counterfactual search loops.
//!
//! Every CREDENCE explainer evaluates thousands of candidate perturbations,
//! and the naive evaluation re-does full-document or full-corpus work per
//! candidate. This module provides the incremental equivalents:
//!
//! * [`PoolScorer`] — precomputes the top-(k+1) pool scores once, so each
//!   candidate's pool rank costs one perturbed-document score plus an O(k)
//!   comparison scan instead of k+1 model calls and a sort.
//! * [`RemovalProfile`] — analyses each removable part of a document once
//!   (a sentence, or every occurrence of one surface term) into per-query-
//!   term frequencies; a perturbed document's score is then replayed from
//!   `base_tf − Σ removed_part_tf` in O(removed × |query|) instead of
//!   rebuilding and re-tokenising the whole body.
//! * [`AugmentedScorer`] — scores an augmented query as `base_score + Σ
//!   appended_term_weight`, touching only the documents in the appended
//!   terms' posting lists instead of re-ranking the whole corpus.
//! * [`SubsetScorer`] — ranks a subset of the query's terms over the union
//!   of their posting lists (the query-reduction dual of the above).
//! * [`par_map_until`] — an ordered scoped-thread map with a cooperative
//!   stop, used to evaluate candidate batches in parallel.
//!
//! # Determinism
//!
//! All fast paths reproduce the exact scorer bit-for-bit, not approximately.
//! The argument: when [`Ranker::supports_term_weights`] holds, the full
//! scorers compute an `f64` left fold of [`Ranker::term_weight`] over the
//! analysed query, starting from `0.0`. The incremental paths perform *the
//! same fold in the same order over the same integer inputs* (term
//! frequencies and document lengths are integers, and per-segment analysis
//! sums to whole-body analysis exactly because tokenisation never merges
//! tokens across a `" "` join). Appending terms to a query extends the fold
//! on the right, so `base + Σ appended_weights` (added in query order) *is*
//! the full fold; a term absent from a document contributes a weight of
//! exactly `0.0` and `x + 0.0 == x` for every positive `x`. Rank positions
//! are derived from comparisons of these bit-identical scores with the same
//! doc-id tie-break [`rank_corpus`](crate::rerank::rank_corpus) uses, so
//! they match exactly. Whenever a
//! precondition fails (non-decomposable model, a candidate surface that
//! re-analyses to something other than its term), constructors return
//! `None` and callers score the perturbed text exactly.

use std::collections::HashMap;

use credence_index::{DocId, InvertedIndex};
use credence_text::{tokenize, TermId};

use crate::ranker::Ranker;
use crate::rerank::RankedList;

/// Map `f` over `items` across `threads` scoped threads, preserving order,
/// with a cooperative stop: workers poll `should_stop` between items and
/// yield `None` for everything after it first reads `true`.
///
/// Contiguous chunks keep results in input order; `threads <= 1` (or a tiny
/// input) runs inline. This is the budget hook for the replay loops — a
/// deadline or cancel flag raised mid-batch stops every worker within one
/// candidate instead of waiting for the whole speculative batch to drain.
/// Every `Some` verdict is identical to what the serial map would have
/// produced; only the *suffix* of a chunk can be dropped, so a caller
/// committing in order still sees a clean prefix.
pub fn par_map_until<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
    should_stop: impl Fn() -> bool + Sync,
) -> Vec<Option<R>> {
    let n = items.len();
    if threads <= 1 || n <= 1 {
        let mut out = Vec::with_capacity(n);
        let mut stopped = false;
        for item in items {
            stopped = stopped || should_stop();
            out.push(if stopped { None } else { Some(f(item)) });
        }
        return out;
    }
    let threads = threads.min(n);
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let f = &f;
        let should_stop = &should_stop;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut results = Vec::with_capacity(part.len());
                    let mut stopped = false;
                    for item in part {
                        stopped = stopped || should_stop();
                        results.push(if stopped { None } else { Some(f(item)) });
                    }
                    results
                })
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("evaluation thread panicked"));
        }
    });
    out
}

/// Precomputed scores of a top-(k+1) pool with one substitutable target.
///
/// [`rerank_pool`](crate::rerank::rerank_pool) re-scores every pool document
/// for every candidate even though only the target's score changes. This
/// scorer computes the k fixed scores once; [`PoolScorer::rank_for`] then
/// reproduces the substituted document's `new_rank` from a single perturbed
/// score using the same score-desc / doc-asc comparison.
pub struct PoolScorer {
    /// `(doc, score)` of every pool member except the target.
    others: Vec<(DocId, f64)>,
    target: DocId,
}

impl PoolScorer {
    /// Score the non-target pool members once.
    pub fn new(ranker: &dyn Ranker, query: &str, pool: &[DocId], target: DocId) -> Self {
        let others = pool
            .iter()
            .filter(|&&d| d != target)
            .map(|&d| (d, ranker.score_doc(query, d)))
            .collect();
        Self { others, target }
    }

    /// The 1-based rank the target takes within the pool when its score is
    /// `score` — identical to the `new_rank` of the substituted row in
    /// `rerank_pool`.
    pub fn rank_for(&self, score: f64) -> usize {
        1 + self
            .others
            .iter()
            .filter(|&&(d, s)| s > score || (s == score && d < self.target))
            .count()
    }
}

/// What one removable part takes with it: the tf it removes at each
/// query-term *position* (aligned with the analysed query), and the
/// analysed length it removes.
#[derive(Debug, Clone)]
struct Part {
    query_tf: Vec<u32>,
    len: u32,
}

/// A document's removal profile: the analysed query, the whole body's
/// per-query-term tf and analysed length, and what each removable part
/// takes with it. Scores of the document with parts removed are then
/// replayed from these counts alone ([`RemovalProfile::score_without`]).
///
/// Valid for exactly one (ranker, query, document, part list) tuple —
/// callers memoising profiles across requests must key them accordingly
/// (the engine keys by `(query, doc)` and the kind of part within one
/// immutable generation).
#[derive(Debug, Clone)]
pub struct RemovalProfile {
    query_ids: Vec<TermId>,
    parts: Vec<Part>,
    base_tf: Vec<u32>,
    base_len: u32,
}

/// The tf of each analysed query term in a sorted `(term, tf)` list.
fn query_tfs(query_ids: &[TermId], terms: &[(TermId, u32)]) -> Vec<u32> {
    query_ids
        .iter()
        .map(|&q| {
            terms
                .binary_search_by_key(&q, |&(t, _)| t)
                .map_or(0, |i| terms[i].1)
        })
        .collect()
}

impl RemovalProfile {
    /// Profile the removal of whole `segments` (e.g. the sentences of a
    /// document, which is their `" "` join). Returns `None` when the model
    /// is not term-decomposable.
    pub fn sentences(ranker: &dyn Ranker, query: &str, segments: &[&str]) -> Option<Self> {
        if !ranker.supports_term_weights() {
            return None;
        }
        let index = ranker.index();
        let query_ids = index.analyze_query(query);
        let parts: Vec<Part> = segments
            .iter()
            .map(|text| {
                let (terms, len) = index.analyze_adhoc(text);
                let query_tf = query_tfs(&query_ids, &terms);
                Part { query_tf, len }
            })
            .collect();
        let base_tf = (0..query_ids.len())
            .map(|qi| parts.iter().map(|p| p.query_tf[qi]).sum())
            .collect();
        let base_len = parts.iter().map(|p| p.len).sum();
        Some(Self {
            query_ids,
            parts,
            base_tf,
            base_len,
        })
    }

    /// Profile the removal of every occurrence of each candidate surface
    /// term (the body's distinct normalised tokens, as `tokenize` produces
    /// them). Analysis is per-token independent — tokens are maximal
    /// word-character runs, so deleting one never merges its neighbours,
    /// and the stopword filter and stemmer see one token at a time — so
    /// removing a surface subtracts `occurrences ×` its analysis. Returns
    /// `None` when the model is not term-decomposable or a candidate
    /// analyses to more than one term.
    pub fn terms(
        ranker: &dyn Ranker,
        query: &str,
        body: &str,
        candidates: &[&str],
    ) -> Option<Self> {
        if !ranker.supports_term_weights() {
            return None;
        }
        let index = ranker.index();
        let query_ids = index.analyze_query(query);
        let (base_terms, base_len) = index.analyze_adhoc(body);
        let base_tf = query_tfs(&query_ids, &base_terms);
        let mut counts: HashMap<String, u32> = HashMap::new();
        for tok in tokenize(body) {
            *counts.entry(tok.term).or_insert(0) += 1;
        }
        let parts = candidates
            .iter()
            .map(|surface| {
                let occ = counts.get(*surface).copied().unwrap_or(0);
                let analyzed = index.analyzer().analyze(surface);
                let id = match analyzed.as_slice() {
                    // Stopword: removal shortens nothing analysed.
                    [] => None,
                    [term] => index.vocabulary().id(term),
                    _ => return None,
                };
                let query_tf = query_ids
                    .iter()
                    .map(|&q| if id == Some(q) { occ } else { 0 })
                    .collect();
                Some(Part {
                    query_tf,
                    len: occ * analyzed.len() as u32,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Self {
            query_ids,
            parts,
            base_tf,
            base_len,
        })
    }

    /// Score of the document with the given parts (by part index) removed,
    /// under the `ranker` the profile was built against — bit-identical to
    /// `score_text` of the document rebuilt without them.
    pub fn score_without(&self, ranker: &dyn Ranker, removed: &[usize]) -> f64 {
        let mut len = self.base_len;
        for &part in removed {
            len -= self.parts[part].len;
        }
        let mut score = 0.0;
        for (qi, &term) in self.query_ids.iter().enumerate() {
            let mut tf = self.base_tf[qi];
            for &part in removed {
                tf -= self.parts[part].query_tf[qi];
            }
            score += ranker
                .term_weight(term, tf, len)
                .expect("supports_term_weights checked at construction");
        }
        score
    }
}

/// Union of the terms' posting lists as `(doc, per-position tf)` rows,
/// sorted by doc id, decoded block by block from the compressed lists with
/// no hashing on the hot path. Duplicate terms fill every one of their
/// positions.
fn posting_union(index: &InvertedIndex, terms: &[TermId]) -> Vec<(DocId, Vec<u32>)> {
    let total: usize = terms.iter().map(|&t| index.postings_len(t)).sum();
    let mut triples: Vec<(DocId, u32, u32)> = Vec::with_capacity(total);
    let (mut docs, mut tfs) = (Vec::new(), Vec::new());
    for (j, &term) in terms.iter().enumerate() {
        let Some(list) = index.compressed_postings(term) else {
            continue;
        };
        for b in 0..list.blocks().len() {
            list.decode_block(b, &mut docs, &mut tfs);
            let rows = docs.iter().zip(&tfs);
            triples.extend(rows.map(|(&d, &tf)| (DocId(d), j as u32, tf)));
        }
    }
    triples.sort_unstable_by_key(|&(d, j, _)| (d, j));
    let mut rows: Vec<(DocId, Vec<u32>)> = Vec::new();
    for (d, j, tf) in triples {
        match rows.last_mut() {
            Some(last) if last.0 == d => last.1[j as usize] = tf,
            _ => {
                let mut tfs = vec![0u32; terms.len()];
                tfs[j as usize] = tf;
                rows.push((d, tfs));
            }
        }
    }
    rows
}

/// The term id of each surface, or `None` unless every surface analyses to
/// exactly one in-vocabulary term — the precondition under which appending
/// or dropping surfaces appends or drops exactly those ids in the analysed
/// query.
fn single_term_ids(index: &InvertedIndex, surfaces: &[&str]) -> Option<Vec<TermId>> {
    surfaces
        .iter()
        .map(
            |surface| match index.analyzer().analyze(surface).as_slice() {
                [term] => index.vocabulary().id(term),
                _ => None,
            },
        )
        .collect()
}

/// Incremental ranker for queries augmented with document terms.
///
/// Precondition (checked at construction): every candidate surface analyses
/// to exactly its single in-vocabulary term, so appending surfaces to the
/// query appends exactly those term ids to the analysed query. Each
/// candidate combination is then ranked by touching only the documents in
/// the appended terms' posting lists; everything else keeps its base score
/// exactly (absent terms contribute `+0.0`).
pub struct AugmentedScorer<'a> {
    ranker: &'a dyn Ranker,
    base: &'a RankedList,
    /// Analysed term id of each candidate (indexed by candidate position).
    candidate_ids: Vec<TermId>,
    drop_zeros: bool,
}

impl<'a> AugmentedScorer<'a> {
    /// Validate the fast-path preconditions for `candidates` (surface
    /// forms, in candidate order) against the base ranking for the
    /// unaugmented query.
    pub fn new(ranker: &'a dyn Ranker, base: &'a RankedList, candidates: &[&str]) -> Option<Self> {
        if !ranker.supports_term_weights() {
            return None;
        }
        Some(Self {
            ranker,
            base,
            candidate_ids: single_term_ids(ranker.index(), candidates)?,
            drop_zeros: ranker.zero_means_unmatched(),
        })
    }

    /// Rank of `target` under the query augmented with the given candidates
    /// (by candidate index, in append order) — identical to
    /// `rank_corpus(ranker, augmented_query).rank_of(target)`.
    pub fn rank_with(&self, appended: &[usize], target: DocId) -> Option<usize> {
        let index = self.ranker.index();
        let terms: Vec<TermId> = appended.iter().map(|&i| self.candidate_ids[i]).collect();

        // Documents whose score changes: the union of the appended terms'
        // posting lists, with tf aligned per appended position so the score
        // fold visits terms in query order.
        let touched = posting_union(index, &terms);
        let touched_row = |doc: DocId| {
            touched
                .binary_search_by_key(&doc, |r| r.0)
                .ok()
                .map(|i| touched[i].1.as_slice())
        };
        let augmented_score = |doc: DocId, tfs: &[u32]| {
            let mut score = self.base.score_of(doc).unwrap_or(0.0);
            let doc_len = index.doc_len(doc);
            for (j, &term) in terms.iter().enumerate() {
                score += self
                    .ranker
                    .term_weight(term, tfs[j], doc_len)
                    .expect("supports_term_weights checked at construction");
            }
            score
        };

        let target_score = match touched_row(target) {
            Some(tfs) => augmented_score(target, tfs),
            // Untouched: every appended weight is exactly 0.0.
            None => match self.base.score_of(target) {
                Some(s) => s,
                None if self.drop_zeros => return None,
                None => 0.0,
            },
        };
        if self.drop_zeros && target_score <= 0.0 {
            return None;
        }

        let beats = |d: DocId, s: f64| s > target_score || (s == target_score && d < target);

        // Count base-ranked documents that beat the target, then correct for
        // the touched ones (their scores changed) and add touched documents
        // that newly qualify.
        let mut better = self
            .base
            .entries()
            .iter()
            .filter(|&&(d, s)| d != target && touched_row(d).is_none() && beats(d, s))
            .count();
        for &(d, ref tfs) in &touched {
            if d == target {
                continue;
            }
            let s = augmented_score(d, tfs);
            if (!self.drop_zeros || s > 0.0) && beats(d, s) {
                better += 1;
            }
        }
        Some(1 + better)
    }
}

/// Ranker for queries made of a subset of the original query's terms —
/// the query-reduction fast path.
///
/// Scores are computed over the union of the kept terms' posting lists
/// only, which is sound exactly when a zero score means "not retrieved"
/// ([`Ranker::zero_means_unmatched`]); other models fall back.
pub struct SubsetScorer<'a> {
    ranker: &'a dyn Ranker,
    /// Analysed term id of each query surface (indexed by surface position).
    surface_ids: Vec<TermId>,
}

impl<'a> SubsetScorer<'a> {
    /// Validate the preconditions for `surfaces` (the query's distinct
    /// surface terms, in query order): term decomposability, drop-zero
    /// semantics, and each surface re-analysing to exactly its term.
    pub fn new(ranker: &'a dyn Ranker, surfaces: &[&str]) -> Option<Self> {
        if !ranker.supports_term_weights() || !ranker.zero_means_unmatched() {
            return None;
        }
        Some(Self {
            ranker,
            surface_ids: single_term_ids(ranker.index(), surfaces)?,
        })
    }

    /// Rank of `target` under the query reduced to the given surface
    /// positions (in query order) — identical to
    /// `rank_corpus(ranker, kept_surfaces.join(" ")).rank_of(target)`.
    pub fn rank_with(&self, kept: &[usize], target: DocId) -> Option<usize> {
        let index = self.ranker.index();
        let terms: Vec<TermId> = kept.iter().map(|&i| self.surface_ids[i]).collect();

        let touched = posting_union(index, &terms);
        let score_of = |doc: DocId, tfs: &[u32]| {
            let doc_len = index.doc_len(doc);
            let mut score = 0.0;
            for (j, &term) in terms.iter().enumerate() {
                score += self
                    .ranker
                    .term_weight(term, tfs[j], doc_len)
                    .expect("supports_term_weights checked at construction");
            }
            score
        };

        let target_score = match touched.binary_search_by_key(&target, |r| r.0) {
            Ok(i) => score_of(target, &touched[i].1),
            Err(_) => return None,
        };
        if target_score <= 0.0 {
            return None;
        }
        let better = touched
            .iter()
            .filter(|&&(d, ref tfs)| {
                if d == target {
                    return false;
                }
                let s = score_of(d, tfs);
                s > 0.0 && (s > target_score || (s == target_score && d < target))
            })
            .count();
        Some(1 + better)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bm25::Bm25Ranker;
    use crate::ql::{QlSmoothing, QueryLikelihoodRanker};
    use crate::rerank::{rank_corpus, rank_corpus_scan, rerank_pool};
    use credence_index::{Bm25Params, Document, InvertedIndex};
    use credence_text::{split_sentences, Analyzer};

    fn index() -> InvertedIndex {
        InvertedIndex::build(
            vec![
                Document::from_body(
                    "The covid outbreak worries everyone. Gardens are quiet this week. \
                     Officials tracked the covid outbreak closely.",
                ),
                Document::from_body(
                    "covid outbreak updates arrive hourly. Readers follow the regional news.",
                ),
                Document::from_body(
                    "The covid outbreak is a hoax. A secret microchip hides in every dose. \
                     The microchip tracks your location.",
                ),
                Document::from_body("The annual garden show opened downtown."),
                Document::from_body("Microchip factories expand in the region."),
            ],
            Analyzer::english(),
        )
    }

    fn rankers(idx: &InvertedIndex) -> Vec<Box<dyn Ranker + '_>> {
        vec![
            Box::new(Bm25Ranker::new(idx, Bm25Params::default())),
            Box::new(QueryLikelihoodRanker::new(idx, QlSmoothing::default())),
            Box::new(QueryLikelihoodRanker::new(
                idx,
                QlSmoothing::JelinekMercer { lambda: 0.5 },
            )),
        ]
    }

    #[test]
    fn term_weights_reconstruct_doc_scores() {
        let idx = index();
        for ranker in rankers(&idx) {
            assert!(ranker.supports_term_weights());
            let q = idx.analyze_query("covid outbreak microchip");
            for d in idx.doc_ids() {
                let len = idx.doc_len(d);
                let folded: f64 = q
                    .iter()
                    .map(|&t| ranker.term_weight(t, idx.term_freq(d, t), len).unwrap())
                    .sum();
                let full = ranker.score_doc("covid outbreak microchip", d);
                assert_eq!(
                    folded.to_bits(),
                    full.to_bits(),
                    "{} doc {d}",
                    ranker.name()
                );
            }
        }
    }

    #[test]
    fn pool_scorer_matches_rerank_pool() {
        let idx = index();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let ranking = rank_corpus(&r, "covid outbreak");
        let pool = ranking.top_k(3);
        let target = pool[0];
        let scorer = PoolScorer::new(&r, "covid outbreak", &pool, target);
        for body in [
            "nothing relevant",
            "covid",
            "covid outbreak covid outbreak covid outbreak",
            "Gardens are quiet this week.",
        ] {
            let rows = rerank_pool(&r, "covid outbreak", &pool, Some((target, body)));
            let expected = rows.iter().find(|row| row.substituted).unwrap().new_rank;
            let got = scorer.rank_for(r.score_text("covid outbreak", body));
            assert_eq!(got, expected, "body: {body}");
        }
    }

    #[test]
    fn sentence_replay_is_bit_identical_to_score_text() {
        let idx = index();
        let body = &idx.document(DocId(0)).unwrap().body.clone();
        let sentences = split_sentences(body);
        let texts: Vec<&str> = sentences.iter().map(|s| s.text.as_str()).collect();
        for ranker in rankers(&idx) {
            let profile =
                RemovalProfile::sentences(ranker.as_ref(), "covid outbreak", &texts).unwrap();
            // Every subset of removals, including none and all.
            for mask in 0u32..(1 << texts.len()) {
                let removed: Vec<usize> =
                    (0..texts.len()).filter(|i| mask & (1 << i) != 0).collect();
                let kept: Vec<&str> = (0..texts.len())
                    .filter(|i| mask & (1 << i) == 0)
                    .map(|i| texts[i])
                    .collect();
                let exact = ranker.score_text("covid outbreak", &kept.join(" "));
                let fast = profile.score_without(ranker.as_ref(), &removed);
                assert_eq!(
                    fast.to_bits(),
                    exact.to_bits(),
                    "{} removed {removed:?}",
                    ranker.name()
                );
            }
        }
    }

    #[test]
    fn sentence_replay_matches_within_tolerance() {
        // The ISSUE-level statement of the same invariant: |delta − exact|
        // must stay within 1e-9 (it is in fact exactly 0).
        let idx = index();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let body = &idx.document(DocId(2)).unwrap().body.clone();
        let sentences = split_sentences(body);
        let texts: Vec<&str> = sentences.iter().map(|s| s.text.as_str()).collect();
        let profile = RemovalProfile::sentences(&r, "covid microchip", &texts).unwrap();
        for removed in [vec![], vec![0], vec![1], vec![0, 2]] {
            let kept: Vec<&str> = (0..texts.len())
                .filter(|i| !removed.contains(i))
                .map(|i| texts[i])
                .collect();
            let exact = r.score_text("covid microchip", &kept.join(" "));
            assert!((profile.score_without(&r, &removed) - exact).abs() < 1e-9);
        }
    }

    #[test]
    fn augmented_scorer_matches_rank_corpus() {
        let idx = index();
        for ranker in rankers(&idx) {
            let base = rank_corpus(ranker.as_ref(), "covid outbreak");
            let candidates = ["microchip", "hoax", "location", "garden"];
            let scorer = AugmentedScorer::new(ranker.as_ref(), &base, &candidates).unwrap();
            let combos: Vec<Vec<usize>> = vec![
                vec![0],
                vec![1],
                vec![3],
                vec![0, 1],
                vec![1, 2],
                vec![0, 1, 2],
            ];
            for combo in combos {
                let appended: Vec<&str> = combo.iter().map(|&i| candidates[i]).collect();
                let augmented = format!("covid outbreak {}", appended.join(" "));
                let full = rank_corpus_scan(ranker.as_ref(), &augmented, 1, None);
                for target in idx.doc_ids() {
                    assert_eq!(
                        scorer.rank_with(&combo, target),
                        full.rank_of(target),
                        "{} combo {combo:?} target {target}",
                        ranker.name()
                    );
                }
            }
        }
    }

    #[test]
    fn par_map_until_never_stopped_matches_serial() {
        let items: Vec<usize> = (0..100).collect();
        let serial: Vec<Option<usize>> = items.iter().map(|&x| Some(x * 3)).collect();
        for threads in [0, 1, 2, 3, 8] {
            let until = par_map_until(&items, threads, |&x| x * 3, || false);
            assert_eq!(until, serial, "threads={threads}");
        }
        assert!(par_map_until(&[] as &[u64], 4, |x| *x, || false).is_empty());
    }

    #[test]
    fn par_map_until_stop_drops_suffixes_only() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 3, 8] {
            let seen = AtomicUsize::new(0);
            let stop = AtomicBool::new(false);
            let out = par_map_until(
                &items,
                threads,
                |&x| {
                    if seen.fetch_add(1, Ordering::Relaxed) >= 5 {
                        stop.store(true, Ordering::Relaxed);
                    }
                    x + 1
                },
                || stop.load(Ordering::Relaxed),
            );
            assert_eq!(out.len(), items.len());
            // Within each worker's contiguous chunk, Nones form a suffix,
            // and every Some verdict matches the serial map.
            let chunk = items.len().div_ceil(threads.min(items.len()));
            for (c, part) in out.chunks(chunk).enumerate() {
                let first_none = part.iter().position(Option::is_none);
                if let Some(cut) = first_none {
                    assert!(
                        part[cut..].iter().all(Option::is_none),
                        "threads={threads} chunk={c}"
                    );
                }
            }
            for (i, verdict) in out.iter().enumerate() {
                if let Some(v) = verdict {
                    assert_eq!(*v, items[i] + 1);
                }
            }
            // The stop flag was raised, so at least one evaluation was skipped
            // on every thread count (5 < 64 and the flag latches).
            assert!(out.iter().any(Option::is_none), "threads={threads}");
        }
    }

    #[test]
    fn term_replay_is_bit_identical_to_score_text() {
        let idx = index();
        let body = idx.document(DocId(0)).unwrap().body.clone();
        let toks = tokenize(&body);
        let mut seen = std::collections::HashSet::new();
        let surfaces: Vec<String> = toks
            .iter()
            .filter(|t| seen.insert(t.term.clone()))
            .map(|t| t.term.clone())
            .collect();
        let refs: Vec<&str> = surfaces.iter().map(|s| s.as_str()).collect();
        for ranker in rankers(&idx) {
            let profile =
                RemovalProfile::terms(ranker.as_ref(), "covid outbreak", &body, &refs).unwrap();
            // Every subset of the first 8 candidates (stopwords included),
            // plus the remove-everything set.
            let m = refs.len().min(8);
            let mut masks: Vec<u32> = (0..(1u32 << m)).collect();
            masks.push((1u32 << refs.len()) - 1);
            for mask in masks {
                let removed: Vec<usize> =
                    (0..refs.len()).filter(|i| mask & (1 << i) != 0).collect();
                let removed_set: std::collections::HashSet<&str> =
                    removed.iter().map(|&i| refs[i]).collect();
                // Keeping the surviving raw tokens reproduces the analysed
                // sequence of the string-surgery removal exactly.
                let kept: Vec<&str> = toks
                    .iter()
                    .filter(|t| !removed_set.contains(t.term.as_str()))
                    .map(|t| t.raw.as_str())
                    .collect();
                let exact = ranker.score_text("covid outbreak", &kept.join(" "));
                let fast = profile.score_without(ranker.as_ref(), &removed);
                assert_eq!(
                    fast.to_bits(),
                    exact.to_bits(),
                    "{} mask {mask:#b}",
                    ranker.name()
                );
            }
        }
    }

    #[test]
    fn augmented_scorer_rejects_multi_token_surfaces() {
        let idx = index();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let base = rank_corpus(&r, "covid outbreak");
        assert!(AugmentedScorer::new(&r, &base, &["secret microchip"]).is_none());
        assert!(AugmentedScorer::new(&r, &base, &["zzzunknown"]).is_none());
    }

    #[test]
    fn subset_scorer_matches_rank_corpus() {
        let idx = index();
        for ranker in rankers(&idx) {
            let surfaces = ["covid", "outbreak", "microchip"];
            let scorer = SubsetScorer::new(ranker.as_ref(), &surfaces).unwrap();
            let subsets: Vec<Vec<usize>> = vec![
                vec![0],
                vec![1],
                vec![2],
                vec![0, 1],
                vec![0, 2],
                vec![0, 1, 2],
            ];
            for kept in subsets {
                let reduced: Vec<&str> = kept.iter().map(|&i| surfaces[i]).collect();
                let full = rank_corpus_scan(ranker.as_ref(), &reduced.join(" "), 1, None);
                for target in idx.doc_ids() {
                    assert_eq!(
                        scorer.rank_with(&kept, target),
                        full.rank_of(target),
                        "{} kept {kept:?} target {target}",
                        ranker.name()
                    );
                }
            }
        }
    }
}
