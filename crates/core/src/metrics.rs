//! Metrics for explanations and rankings.
//!
//! Backs the quantitative tables of EXPERIMENTS.md: counterfactual quality
//! (validity and a minimality certificate) and ranking-comparison measures
//! (Kendall's tau, Jaccard@k) used when comparing the black-box rankers to
//! each other.

use std::collections::HashSet;

use credence_index::DocId;
use credence_rank::{rank_corpus, rerank_pool, RankedList, Ranker};
use credence_text::split_sentences;

use crate::explanation::SentenceRemovalExplanation;

// ---------------------------------------------------------------------------
// Counterfactual quality.
// ---------------------------------------------------------------------------

/// Re-verify a sentence-removal explanation against the model: does removing
/// exactly those sentences still push the document past `k`?
pub fn verify_sentence_removal(
    ranker: &dyn Ranker,
    query: &str,
    k: usize,
    doc: DocId,
    explanation: &SentenceRemovalExplanation,
) -> bool {
    let ranking = rank_corpus(ranker, query);
    let pool = ranking.top_k(k.saturating_add(1));
    let rows = rerank_pool(
        ranker,
        query,
        &pool,
        Some((doc, &explanation.perturbed_body)),
    );
    rows.iter()
        .find(|r| r.substituted)
        .map(|r| r.new_rank > k)
        .unwrap_or(false)
}

/// Minimality certificate for a sentence-removal explanation: every proper
/// subset of the removed sentences must FAIL to push the document past `k`.
///
/// Exponential in the removal size; callers use it on the small sets the
/// explainer returns (the size-major search makes large sets rare).
pub fn certify_minimality(
    ranker: &dyn Ranker,
    query: &str,
    k: usize,
    doc: DocId,
    explanation: &SentenceRemovalExplanation,
) -> bool {
    let index = ranker.index();
    let Some(document) = index.document(doc) else {
        return false;
    };
    let sentences = split_sentences(&document.body);
    let ranking = rank_corpus(ranker, query);
    let pool = ranking.top_k(k.saturating_add(1));

    let removed = &explanation.removed;
    let m = removed.len();
    // Iterate proper subsets via bitmask (m is small by construction).
    for mask in 0..(1u32 << m) {
        if mask == (1 << m) - 1 {
            continue; // the full set
        }
        if mask == 0 {
            continue; // removing nothing trivially fails
        }
        let subset: HashSet<usize> = removed
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &s)| s)
            .collect();
        let body: String = sentences
            .iter()
            .filter(|s| !subset.contains(&s.index))
            .map(|s| s.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        let rows = rerank_pool(ranker, query, &pool, Some((doc, &body)));
        let rank = rows
            .iter()
            .find(|r| r.substituted)
            .map(|r| r.new_rank)
            .unwrap_or(0);
        if rank > k {
            return false; // a proper subset already suffices: not minimal
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Ranking comparison.
// ---------------------------------------------------------------------------

/// Kendall's tau-a between two rankings over their *common* documents, in
/// `[-1, 1]`. Returns `None` when fewer than two documents are shared.
pub fn kendall_tau(a: &RankedList, b: &RankedList) -> Option<f64> {
    let common: Vec<DocId> = a
        .entries()
        .iter()
        .map(|&(d, _)| d)
        .filter(|d| b.rank_of(*d).is_some())
        .collect();
    let n = common.len();
    if n < 2 {
        return None;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let (x, y) = (common[i], common[j]);
            let a_order = a.rank_of(x).cmp(&a.rank_of(y));
            let b_order = b.rank_of(x).cmp(&b.rank_of(y));
            if a_order == b_order {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    Some((concordant - discordant) as f64 / pairs)
}

/// Jaccard overlap between the top-k sets of two rankings.
pub fn jaccard_at_k(a: &RankedList, b: &RankedList, k: usize) -> f64 {
    let sa: HashSet<DocId> = a.top_k(k).into_iter().collect();
    let sb: HashSet<DocId> = b.top_k(k).into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sentence_removal::{explain_sentence_removal, SentenceRemovalConfig};
    use credence_index::{Bm25Params, Document, InvertedIndex};
    use credence_rank::Bm25Ranker;
    use credence_text::Analyzer;

    fn fixture() -> InvertedIndex {
        InvertedIndex::build(
            vec![
                Document::from_body(
                    "The covid outbreak worries everyone. Gardens are quiet this week. \
                     Officials tracked the covid outbreak closely.",
                ),
                Document::from_body(
                    "covid outbreak updates arrive hourly for readers following the regional \
                     evening news bulletin.",
                ),
                Document::from_body(
                    "covid outbreak statistics were published early this morning by the \
                     county health department office.",
                ),
                Document::from_body("The annual garden show opened downtown."),
            ],
            Analyzer::english(),
        )
    }

    #[test]
    fn returned_explanations_verify_and_certify() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let result = explain_sentence_removal(
            &ranker,
            "covid outbreak",
            2,
            DocId(0),
            &SentenceRemovalConfig::default(),
            &rank_corpus(&ranker, "covid outbreak"),
            None,
        )
        .unwrap();
        let e = &result.explanations[0];
        assert!(verify_sentence_removal(
            &ranker,
            "covid outbreak",
            2,
            DocId(0),
            e
        ));
        assert!(certify_minimality(
            &ranker,
            "covid outbreak",
            2,
            DocId(0),
            e
        ));
    }

    #[test]
    fn non_minimal_explanation_fails_certificate() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        // Fabricate a non-minimal explanation: remove all three sentences
        // when two suffice.
        let fake = SentenceRemovalExplanation {
            removed: vec![0, 1, 2],
            removed_text: vec![],
            perturbed_body: String::new(),
            importance: 4.0,
            old_rank: 1,
            new_rank: 3,
            candidates_evaluated: 0,
        };
        assert!(!certify_minimality(
            &ranker,
            "covid outbreak",
            2,
            DocId(0),
            &fake
        ));
    }

    #[test]
    fn kendall_tau_extremes() {
        let a = RankedList::from_scores(vec![(DocId(0), 3.0), (DocId(1), 2.0), (DocId(2), 1.0)]);
        let same =
            RankedList::from_scores(vec![(DocId(0), 30.0), (DocId(1), 20.0), (DocId(2), 10.0)]);
        let reversed =
            RankedList::from_scores(vec![(DocId(0), 1.0), (DocId(1), 2.0), (DocId(2), 3.0)]);
        assert_eq!(kendall_tau(&a, &same), Some(1.0));
        assert_eq!(kendall_tau(&a, &reversed), Some(-1.0));
        let empty = RankedList::from_scores(vec![]);
        assert_eq!(kendall_tau(&a, &empty), None);
    }

    #[test]
    fn jaccard_cases() {
        let a = RankedList::from_scores(vec![(DocId(0), 2.0), (DocId(1), 1.0)]);
        let b = RankedList::from_scores(vec![(DocId(0), 2.0), (DocId(2), 1.0)]);
        assert!((jaccard_at_k(&a, &b, 2) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard_at_k(&a, &a, 2), 1.0);
        let empty = RankedList::from_scores(vec![]);
        assert_eq!(jaccard_at_k(&empty, &empty, 3), 1.0);
        assert_eq!(jaccard_at_k(&a, &empty, 2), 0.0);
    }
}
