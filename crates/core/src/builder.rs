//! Build-your-own counterfactual documents (§III-C).
//!
//! The Builder page lets a user edit a ranked document arbitrarily, then
//! tests the edit's counterfactual validity: the edited document is
//! substituted for the original and re-ranked alongside the other top
//! `k + 1` documents. Rank movements are reported per document (the UI's
//! coloured arrows), the originally hidden rank-(k+1) document is flagged
//! (the orange plus icon), and the perturbation is a valid counterfactual —
//! the green check mark — exactly when the edited document's new rank
//! exceeds `k`.
//!
//! Edits can be supplied as structured term operations ([`Edit`]) — the
//! Figure-5 interaction replaces `covid`/`covid-19` with `flu` and
//! `outbreak` with `the flu` — or as a free-form replacement body.

use credence_index::DocId;
use credence_rank::{rerank_pool, PoolEntry, RankedList, Ranker};
use credence_text::tokenize;

use crate::budget::Budget;
use crate::error::{check_instance, ranked_within, ExplainError};

/// One structured edit to a document body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// Replace every whole-word occurrence of `from` (case-insensitive on
    /// the token) with `to`.
    Replace {
        /// The surface term to replace.
        from: String,
        /// Replacement text (may be multiple words or empty).
        to: String,
    },
    /// Remove every whole-word occurrence of the term.
    Remove {
        /// The surface term to delete.
        term: String,
    },
}

impl Edit {
    /// Convenience constructor for [`Edit::Replace`].
    pub fn replace(from: impl Into<String>, to: impl Into<String>) -> Self {
        Edit::Replace {
            from: from.into(),
            to: to.into(),
        }
    }

    /// Convenience constructor for [`Edit::Remove`].
    pub fn remove(term: impl Into<String>) -> Self {
        Edit::Remove { term: term.into() }
    }
}

/// Apply structured edits to a body, token-aligned: only whole tokens are
/// replaced (matching on the normalised term, so `Covid-19,` matches a
/// `covid-19` edit while `covidology` does not), punctuation and spacing
/// around tokens are preserved, and removals collapse leftover double
/// spaces.
pub fn apply_edits(body: &str, edits: &[Edit]) -> String {
    let mut out = String::with_capacity(body.len());
    let tokens = tokenize(body);
    let mut cursor = 0usize;
    for tok in &tokens {
        // Emit the gap before this token untouched.
        out.push_str(&body[cursor..tok.start]);
        cursor = tok.end;
        // Apply the first matching edit.
        let mut replacement: Option<&str> = None;
        for edit in edits {
            match edit {
                Edit::Replace { from, to } => {
                    if tok.term == from.to_lowercase() {
                        replacement = Some(to.as_str());
                        break;
                    }
                }
                Edit::Remove { term } => {
                    if tok.term == term.to_lowercase() {
                        replacement = Some("");
                        break;
                    }
                }
            }
        }
        match replacement {
            Some(text) => out.push_str(text),
            None => out.push_str(&tok.raw),
        }
    }
    out.push_str(&body[cursor..]);
    collapse_spaces(&out)
}

/// Collapse runs of spaces left behind by removals, and trim spaces hugging
/// punctuation (" ." → ".").
fn collapse_spaces(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut prev_space = false;
    for c in s.chars() {
        if c == ' ' {
            if prev_space {
                continue;
            }
            prev_space = true;
            out.push(c);
        } else {
            if prev_space && matches!(c, '.' | ',' | '!' | '?' | ';' | ':') {
                out.pop();
            }
            prev_space = false;
            out.push(c);
        }
    }
    out.trim().to_string()
}

/// The outcome of testing a user perturbation.
#[derive(Debug, Clone, PartialEq)]
pub struct BuilderOutcome {
    /// The edited body that was tested.
    pub edited_body: String,
    /// The re-ranked top-(k+1) pool, best first, with rank movements.
    pub rows: Vec<PoolEntry>,
    /// The edited document's rank before the edit.
    pub old_rank: usize,
    /// The edited document's rank in the re-ranked pool.
    pub new_rank: usize,
    /// The originally hidden rank-(k+1) document (the orange plus icon),
    /// when the ranking extends that far.
    pub revealed: Option<DocId>,
    /// The green check mark: `new_rank > k`.
    pub valid: bool,
}

/// Test a free-form perturbation of `doc`'s body (§III-C's RE-RANK button)
/// against the query's corpus `ranking` (the engine passes its cached
/// ranking; other callers pass `&rank_corpus(ranker, query)`).
///
/// The builder evaluates exactly one perturbation, so there is no partial
/// result to return: an already-expired deadline or a raised cancel flag in
/// `budget` fails fast with [`ExplainError::DeadlineExceeded`] /
/// [`ExplainError::Cancelled`] before the pool is re-scored. An eval cap is
/// ignored — the single evaluation is the request.
pub fn test_perturbation(
    ranker: &dyn Ranker,
    query: &str,
    k: usize,
    doc: DocId,
    edited_body: &str,
    ranking: &RankedList,
    budget: &Budget,
) -> Result<BuilderOutcome, ExplainError> {
    budget.fail_fast()?;
    check_instance(ranker.index(), query, k, doc, || Ok(()))?;
    let old_rank = ranked_within(ranking, doc, k)?;
    let pool = ranking.top_k(k.saturating_add(1));
    let revealed = (pool.len() > k).then(|| pool[k]);
    let rows = rerank_pool(ranker, query, &pool, Some((doc, edited_body)));
    let new_rank = rows
        .iter()
        .find(|r| r.substituted)
        .map(|r| r.new_rank)
        .expect("substituted doc is in the pool");
    Ok(BuilderOutcome {
        edited_body: edited_body.to_string(),
        rows,
        old_rank,
        new_rank,
        revealed,
        valid: new_rank > k,
    })
}

/// Apply structured [`Edit`]s to `doc` and test the result against the
/// query's corpus `ranking`, as [`test_perturbation`] does with no budget.
pub fn test_edits(
    ranker: &dyn Ranker,
    query: &str,
    k: usize,
    doc: DocId,
    edits: &[Edit],
    ranking: &RankedList,
) -> Result<BuilderOutcome, ExplainError> {
    let body = &check_instance(ranker.index(), query, k, doc, || Ok(()))?.body;
    let edited = apply_edits(body, edits);
    test_perturbation(
        ranker,
        query,
        k,
        doc,
        &edited,
        ranking,
        &Budget::unlimited(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use credence_index::{Bm25Params, Document, InvertedIndex};
    use credence_rank::{rank_corpus, Bm25Ranker};
    use credence_text::Analyzer;

    #[test]
    fn replace_is_whole_word_and_case_insensitive() {
        let body = "Covid-19 spreads. The covid outbreak grows, covidology aside.";
        let edited = apply_edits(
            body,
            &[
                Edit::replace("covid-19", "flu"),
                Edit::replace("covid", "flu"),
                Edit::replace("outbreak", "the flu"),
            ],
        );
        assert_eq!(
            edited,
            "flu spreads. The flu the flu grows, covidology aside."
        );
    }

    #[test]
    fn remove_collapses_spacing() {
        let body = "The covid outbreak grows covid daily.";
        let edited = apply_edits(body, &[Edit::remove("covid")]);
        assert_eq!(edited, "The outbreak grows daily.");
    }

    #[test]
    fn remove_before_punctuation_is_clean() {
        let body = "They fear covid. Everyone studies covid.";
        let edited = apply_edits(body, &[Edit::remove("covid")]);
        assert_eq!(edited, "They fear. Everyone studies.");
    }

    #[test]
    fn empty_edits_are_identity_modulo_spacing() {
        let body = "Nothing changes here.";
        assert_eq!(apply_edits(body, &[]), body);
    }

    #[test]
    fn first_matching_edit_wins() {
        let body = "alpha beta";
        let edited = apply_edits(
            body,
            &[Edit::replace("alpha", "one"), Edit::remove("alpha")],
        );
        assert_eq!(edited, "one beta");
    }

    fn fixture() -> InvertedIndex {
        InvertedIndex::build(
            vec![
                Document::from_body(
                    "covid outbreak covid outbreak dominates every headline this week",
                ),
                Document::from_body(
                    "The covid outbreak arrived quietly. Officials downplayed the covid \
                     outbreak for weeks before acting.",
                ),
                Document::from_body("covid outbreak notes circulate among reporters daily."),
                Document::from_body("outbreak drills continue at the harbor facility."),
                Document::from_body("The garden show opens to large crowds."),
            ],
            Analyzer::english(),
        )
    }

    #[test]
    fn figure5_style_replacement_is_valid_counterfactual() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let k = 2;
        let outcome = test_edits(
            &r,
            "covid outbreak",
            k,
            DocId(1),
            &[
                Edit::replace("covid", "flu"),
                Edit::replace("outbreak", "the flu"),
            ],
            &rank_corpus(&r, "covid outbreak"),
        )
        .unwrap();
        assert!(outcome.valid, "{outcome:?}");
        assert_eq!(outcome.new_rank, k + 1, "sinks to the bottom of the pool");
        assert!(outcome.old_rank <= k);
        assert!(!outcome.edited_body.contains("covid"));
        assert!(outcome.edited_body.contains("flu"));
    }

    #[test]
    fn revealed_document_is_old_rank_k_plus_1() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let ranking = rank_corpus(&r, "covid outbreak");
        let expected = ranking.top_k(3)[2];
        let outcome = test_perturbation(
            &r,
            "covid outbreak",
            2,
            DocId(1),
            "irrelevant now",
            &rank_corpus(&r, "covid outbreak"),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(outcome.revealed, Some(expected));
    }

    #[test]
    fn budgeted_builder_fails_fast_on_expired_budget() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let ranking = rank_corpus(&r, "covid outbreak");

        let expired = Budget {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..Budget::default()
        };
        let err = test_perturbation(
            &r,
            "covid outbreak",
            2,
            DocId(1),
            "gone",
            &ranking,
            &expired,
        )
        .unwrap_err();
        assert_eq!(err, ExplainError::DeadlineExceeded);

        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let cancelled = Budget::unlimited().with_cancel(flag);
        let err = test_perturbation(
            &r,
            "covid outbreak",
            2,
            DocId(1),
            "gone",
            &ranking,
            &cancelled,
        )
        .unwrap_err();
        assert_eq!(err, ExplainError::Cancelled);

        // A live budget (even a zero eval cap — the single evaluation is the
        // request) behaves exactly like the unbudgeted path.
        let generous = Budget::unlimited()
            .with_deadline_ms(60_000)
            .with_max_evals(0);
        let budgeted = test_perturbation(
            &r,
            "covid outbreak",
            2,
            DocId(1),
            "gone",
            &ranking,
            &generous,
        )
        .unwrap();
        let plain = test_perturbation(
            &r,
            "covid outbreak",
            2,
            DocId(1),
            "gone",
            &rank_corpus(&r, "covid outbreak"),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(budgeted.rows, plain.rows);
        assert_eq!(budgeted.valid, plain.valid);
    }

    #[test]
    fn harmless_edit_is_not_valid() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let outcome = test_edits(
            &r,
            "covid outbreak",
            2,
            DocId(1),
            &[Edit::replace("officials", "bureaucrats")],
            &rank_corpus(&r, "covid outbreak"),
        )
        .unwrap();
        assert!(!outcome.valid);
        assert_eq!(outcome.new_rank, outcome.old_rank);
    }

    #[test]
    fn movement_arrows_are_consistent() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let outcome = test_perturbation(
            &r,
            "covid outbreak",
            2,
            DocId(0),
            "nothing at all",
            &rank_corpus(&r, "covid outbreak"),
            &Budget::unlimited(),
        )
        .unwrap();
        // Gutting the rank-1 doc raises everyone else (or leaves them put).
        for row in outcome.rows.iter().filter(|r| !r.substituted) {
            assert!(row.movement() <= 0, "{row:?}");
        }
        let sub = outcome.rows.iter().find(|r| r.substituted).unwrap();
        assert!(sub.movement() > 0);
    }

    #[test]
    fn pool_smaller_than_k_plus_1_has_no_reveal() {
        let idx = InvertedIndex::build(
            vec![
                Document::from_body("covid outbreak story number one"),
                Document::from_body("covid outbreak story number two"),
            ],
            Analyzer::english(),
        );
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let outcome = test_perturbation(
            &r,
            "covid outbreak",
            2,
            DocId(0),
            "gone",
            &rank_corpus(&r, "covid outbreak"),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(outcome.revealed, None);
        // Both docs were in the pool; the gutted one is last.
        assert_eq!(outcome.new_rank, 2);
        assert!(!outcome.valid, "cannot exceed k when pool has only k docs");
    }

    #[test]
    fn errors_propagate() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        assert!(matches!(
            test_perturbation(
                &r,
                "covid outbreak",
                2,
                DocId(99),
                "x",
                &rank_corpus(&r, "covid outbreak"),
                &Budget::unlimited()
            ),
            Err(ExplainError::DocNotFound(_))
        ));
        assert!(matches!(
            test_perturbation(
                &r,
                "",
                2,
                DocId(0),
                "x",
                &rank_corpus(&r, ""),
                &Budget::unlimited()
            ),
            Err(ExplainError::EmptyQuery)
        ));
        assert!(matches!(
            test_perturbation(
                &r,
                "covid outbreak",
                1,
                DocId(2),
                "x",
                &rank_corpus(&r, "covid outbreak"),
                &Budget::unlimited()
            ),
            Err(ExplainError::DocNotRelevant { .. })
        ));
        assert!(matches!(
            test_perturbation(
                &r,
                "covid outbreak",
                0,
                DocId(0),
                "x",
                &rank_corpus(&r, "covid outbreak"),
                &Budget::unlimited()
            ),
            Err(ExplainError::InvalidParameter(_))
        ));
    }
}
