//! Local surrogate attribution (Rank-LIME) — the fifth explanation family.
//!
//! The four CREDENCE families are *exact* counterfactuals: they search for
//! perturbations whose effect is verified by re-ranking. This module adds the
//! complementary *attribution* view in the style of Rank-LIME: perturb the
//! document by randomly masking terms, score every variant with the black-box
//! ranker, and fit a locality-weighted linear surrogate over binary
//! term-presence features. The surrogate's coefficients are signed per-term
//! attributions (positive = the term's presence raises the score), and a
//! weighted R² *fidelity* score reports how faithful the linear story is —
//! the confidence estimate the exact families never needed.
//!
//! # Pipeline
//!
//! 1. **Candidates** — the document's distinct surface terms, scored and
//!    ordered exactly like [`term_removal`](crate::term_removal) (query-term
//!    occurrence counts, ties alphabetical). The top
//!    [`max_features`](FeatureAttributionConfig::max_features) become the
//!    surrogate's features.
//! 2. **Sampler** — `samples` binary masks drawn up front from the seeded
//!    workspace generator ([`credence_rng::rngs::StdRng`]); each feature is
//!    removed independently with probability ½.
//! 3. **Scoring** — each mask's variant is replayed from the same term
//!    profile term removal uses ([`credence_rank::RemovalProfile`], shared
//!    via [`ReplayMemo`]) when the model is term-decomposable, and its text
//!    re-analysed exactly otherwise. Batches are scored in parallel under
//!    [`EvalOptions`].
//! 4. **Surrogate** — weighted least squares with ridge regularisation on an
//!    exponential locality kernel over the removed-mass fraction, solved by
//!    an in-repo Gaussian elimination (no external linear-algebra
//!    dependency), plus the weighted R² fidelity.
//!
//! # Determinism
//!
//! Attributions are sampled, so determinism is the parity story: for a fixed
//! `(seed, samples, corpus generation)` the result is byte-identical across
//! serial and parallel evaluation and across replay-memo hits and misses.
//! All masks are drawn sequentially on the caller's thread before any
//! scoring; [`credence_rank::par_map_until`] preserves order; the replay is
//! bit-exact against the full re-scoring path; and the WLS accumulation runs
//! on the caller's thread in fixed sample order. The [`Budget`] is consulted
//! only at sample-batch boundaries, so deadline partials always cover a
//! whole number of completed batches and `Exhausted` commits exactly
//! `max_evals` samples on every thread count.

use std::collections::HashSet;

use credence_index::DocId;
use credence_rank::{par_map_until, RankedList, Ranker};
use credence_rng::{rngs::StdRng, Rng, SeedableRng};

use crate::budget::{Budget, SearchStatus};
use crate::error::{check_instance, ranked_within, ExplainError};
use crate::evaluator::{EvalOptions, ReplayMemo};
use crate::term_removal::{document_term_candidates, remove_terms, term_profile};

/// Samples scored per budget check. Deadline/cancel partials always cover a
/// whole number of these batches, which keeps partial payloads reproducible
/// modulo wall-clock (the committed count, not the batch contents, varies).
const SAMPLE_BATCH: usize = 64;

/// The most perturbed samples one fit may draw. Every mask is drawn up
/// front, so this bounds the memory a single request can ask for.
const MAX_SAMPLES: usize = 65_536;

/// Width of the exponential locality kernel over the removed-mass fraction
/// `d ∈ [0, 1]`: `w = exp(-(d / WIDTH)²)`. Variants close to the original
/// document dominate the fit, per LIME's locality principle.
const KERNEL_WIDTH: f64 = 0.75;

/// Pivot magnitude below which the normal equations are declared singular
/// and the fit degenerates to all-zero attributions.
const SINGULAR_EPS: f64 = 1e-12;

/// Configuration for the feature-attribution (Rank-LIME) explainer.
#[derive(Debug, Clone)]
pub struct FeatureAttributionConfig {
    /// Number of perturbed document variants to draw and score.
    pub samples: usize,
    /// Seed for the mask sampler. Same seed ⇒ byte-identical payload.
    pub seed: u64,
    /// Maximum number of attributions returned (largest `|weight|` first).
    pub top_m: usize,
    /// Ridge regularisation strength added to the feature diagonal of the
    /// normal equations (the intercept is never penalised). `0` disables
    /// regularisation, which lets the surrogate recover an exactly linear
    /// model's weights perfectly.
    pub lambda: f64,
    /// Cap on the number of candidate terms used as surrogate features
    /// (the solver is O(features³)); candidates beyond the cap stay in the
    /// document in every sample.
    pub max_features: usize,
    /// Sample-scoring threading.
    pub eval: EvalOptions,
    /// Request-lifecycle bounds (deadline / sample cap / cancel flag).
    pub lifecycle: Budget,
}

impl Default for FeatureAttributionConfig {
    fn default() -> Self {
        Self {
            samples: 256,
            seed: 42,
            top_m: 10,
            lambda: 1e-3,
            max_features: 24,
            eval: EvalOptions::default(),
            lifecycle: Budget::unlimited(),
        }
    }
}

/// One signed per-term attribution from the linear surrogate.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureAttribution {
    /// The document surface term.
    pub term: String,
    /// The surrogate coefficient: the modelled score change from the term
    /// being present rather than removed. Positive = presence helps.
    pub weight: f64,
}

/// Result of a feature-attribution request.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureAttributionResult {
    /// Top-m attributions, largest `|weight|` first (ties alphabetical).
    pub attributions: Vec<FeatureAttribution>,
    /// The surrogate intercept: the modelled score with every feature term
    /// removed (plus the constant mass of non-feature terms).
    pub intercept: f64,
    /// Weighted R² of the surrogate over the scored samples, clamped to
    /// `[0, 1]`. `1` means the ranker is locally linear in the features;
    /// low values mean the attributions are a coarse story.
    pub fidelity: f64,
    /// Number of candidate terms used as surrogate features.
    pub features: usize,
    /// Perturbed variants actually scored (equals `samples` on a
    /// [`SearchStatus::Complete`] run; a whole number of batches otherwise).
    pub samples_evaluated: usize,
    /// Original rank of the document.
    pub old_rank: usize,
    /// How the sampling ended; anything but [`SearchStatus::Complete`]
    /// marks the fit as covering a budget-limited sample prefix.
    pub status: SearchStatus,
}

/// Generate Rank-LIME feature attributions for `doc` under `query`, against
/// the query's corpus `ranking` (the engine passes its cached ranking; other
/// callers pass `&rank_corpus(ranker, query)`).
///
/// With a `memo`, the per-(query, doc) term-removal profile is fetched from
/// (or deposited into) it. The profile is shared with the term-removal
/// explainer — both derive candidates identically via
/// `document_term_candidates`, so a profile deposited by either explainer
/// replays bit-identically for the other.
pub fn explain_feature_attribution(
    ranker: &dyn Ranker,
    query: &str,
    k: usize,
    doc: DocId,
    config: &FeatureAttributionConfig,
    ranking: &RankedList,
    memo: Option<&ReplayMemo>,
) -> Result<FeatureAttributionResult, ExplainError> {
    let index = ranker.index();
    let document = check_instance(index, query, k, doc, || {
        if config.samples == 0 {
            return Err(ExplainError::InvalidParameter("samples must be at least 1"));
        }
        if config.samples > MAX_SAMPLES {
            return Err(ExplainError::InvalidParameter(
                "samples must be at most 65536",
            ));
        }
        if !config.lambda.is_finite() || config.lambda < 0.0 {
            return Err(ExplainError::InvalidParameter(
                "lambda must be finite and non-negative",
            ));
        }
        Ok(())
    })?;
    let old_rank = ranked_within(ranking, doc, k)?;

    let candidates = document_term_candidates(index, query, &document.body);
    if candidates.is_empty() {
        return Err(ExplainError::NoCandidateTerms(doc));
    }
    let features = candidates.len().min(config.max_features.max(1));

    // The profile covers the *full* candidate surface list — the same
    // profile term removal builds — so the memo's (query, doc) entry is
    // interchangeable between the two explainers.
    let profile = term_profile(ranker, query, doc, &document.body, &candidates, memo);

    // Draw every mask up front, sequentially, on this thread: the sample
    // stream is a pure function of the seed, independent of thread count,
    // batch sizes, and budget outcomes. `masks[i]` holds the *removed*
    // feature indices of sample `i` (each removed independently with p=½).
    let mut rng = StdRng::seed_from_u64(config.seed);
    let masks: Vec<Vec<usize>> = (0..config.samples)
        .map(|_| (0..features).filter(|_| rng.gen_bool(0.5)).collect())
        .collect();

    let score_mask = |removed: &Vec<usize>| -> f64 {
        if let Some(profile) = &profile {
            return profile.score_without(ranker, removed);
        }
        let terms: HashSet<String> = removed.iter().map(|&j| candidates[j].0.clone()).collect();
        ranker.score_text(query, &remove_terms(&document.body, &terms))
    };

    // Score in fixed-size batches; the budget is consulted only between
    // batches so partials cover whole batches, and the batch is trimmed to
    // the remaining eval allowance so `Exhausted` commits exactly
    // `max_evals` samples on every thread count.
    let threads = config.eval.resolved_threads();
    let mut ys: Vec<f64> = Vec::with_capacity(masks.len());
    let mut committed = 0usize;
    let status = loop {
        if let Some(stop) = config.lifecycle.stop_reason(committed) {
            break stop;
        }
        if committed == masks.len() {
            break SearchStatus::Complete;
        }
        let quota = SAMPLE_BATCH.min(config.lifecycle.remaining_evals(committed));
        let end = masks.len().min(committed + quota);
        let batch = &masks[committed..end];
        let batch_threads = if batch.len() >= config.eval.parallel_threshold {
            threads
        } else {
            1
        };
        // The stop check never fires: the budget is consulted only between
        // batches, so partials cover whole batches.
        let scores = par_map_until(batch, batch_threads, score_mask, || false);
        ys.extend(scores.into_iter().flatten());
        committed = end;
    };

    let (intercept, beta, fidelity) =
        fit_surrogate(&masks[..committed], &ys, features, config.lambda);
    let mut attributions: Vec<FeatureAttribution> = beta
        .iter()
        .enumerate()
        .map(|(j, &weight)| FeatureAttribution {
            term: candidates[j].0.clone(),
            weight,
        })
        .collect();
    attributions.sort_by(|a, b| {
        b.weight
            .abs()
            .partial_cmp(&a.weight.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.term.cmp(&b.term))
    });
    attributions.truncate(config.top_m);

    Ok(FeatureAttributionResult {
        attributions,
        intercept,
        fidelity,
        features,
        samples_evaluated: committed,
        old_rank,
        status,
    })
}

/// The locality weight of a sample that removed `removed` of `features`
/// feature terms.
fn kernel_weight(removed: usize, features: usize) -> f64 {
    let d = removed as f64 / features as f64;
    (-(d / KERNEL_WIDTH).powi(2)).exp()
}

/// Fit the ridge-regularised weighted least squares surrogate over binary
/// kept-features design columns (plus an unpenalised intercept) and return
/// `(intercept, per-feature coefficients, weighted R²)`.
///
/// Accumulation and elimination run in fixed order on the caller's thread,
/// so the fit is a pure function of `(masks, ys, lambda)`. A singular system
/// (or an empty sample prefix) degenerates to all-zero coefficients with
/// fidelity `0`.
fn fit_surrogate(masks: &[Vec<usize>], ys: &[f64], p: usize, lambda: f64) -> (f64, Vec<f64>, f64) {
    let dim = p + 1;
    if masks.is_empty() {
        return (0.0, vec![0.0; p], 0.0);
    }
    // Normal equations G = XᵀWX (+ λ on the feature diagonal), b = XᵀWy.
    // Design entries are 0/1 (column 0 is the intercept, column 1+j is
    // "feature j kept"), so each sample adds its weight at every pair of
    // active columns.
    let mut g = vec![vec![0.0f64; dim]; dim];
    let mut b = vec![0.0f64; dim];
    let mut kept = vec![true; p];
    let mut active: Vec<usize> = Vec::with_capacity(dim);
    for (mask, &y) in masks.iter().zip(ys) {
        let w = kernel_weight(mask.len(), p);
        kept.iter_mut().for_each(|x| *x = true);
        for &j in mask {
            kept[j] = false;
        }
        active.clear();
        active.push(0);
        active.extend((0..p).filter(|&j| kept[j]).map(|j| j + 1));
        for &r in &active {
            b[r] += w * y;
            for &c in &active {
                g[r][c] += w;
            }
        }
    }
    for (j, row) in g.iter_mut().enumerate().skip(1) {
        row[j] += lambda;
    }
    let Some(beta) = solve_linear(&mut g, &mut b) else {
        return (0.0, vec![0.0; p], 0.0);
    };

    // Weighted R² of the fit. `kept_sum` turns the per-sample prediction
    // into intercept + Σ(all feature coefficients) − Σ(removed ones).
    let kept_sum: f64 = beta[1..].iter().sum();
    let (mut sw, mut swy) = (0.0f64, 0.0f64);
    for (mask, &y) in masks.iter().zip(ys) {
        let w = kernel_weight(mask.len(), p);
        sw += w;
        swy += w * y;
    }
    let ybar = swy / sw;
    let (mut ss_res, mut ss_tot) = (0.0f64, 0.0f64);
    for (mask, &y) in masks.iter().zip(ys) {
        let w = kernel_weight(mask.len(), p);
        let removed: f64 = mask.iter().map(|&j| beta[j + 1]).sum();
        let pred = beta[0] + kept_sum - removed;
        ss_res += w * (y - pred) * (y - pred);
        ss_tot += w * (y - ybar) * (y - ybar);
    }
    let fidelity = if ss_tot > SINGULAR_EPS {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    } else if ss_res <= SINGULAR_EPS {
        // A constant target perfectly fit by the intercept.
        1.0
    } else {
        0.0
    };
    (beta[0], beta[1..].to_vec(), fidelity)
}

/// Solve `G x = b` by Gaussian elimination with partial pivoting. Returns
/// `None` when a pivot falls below [`SINGULAR_EPS`].
fn solve_linear(g: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let mut pivot = col;
        for row in col + 1..n {
            if g[row][col].abs() > g[pivot][col].abs() {
                pivot = row;
            }
        }
        if g[pivot][col].abs() < SINGULAR_EPS {
            return None;
        }
        if pivot != col {
            g.swap(pivot, col);
            b.swap(pivot, col);
        }
        for row in col + 1..n {
            let f = g[row][col] / g[col][col];
            if f == 0.0 {
                continue;
            }
            let (pivot_rows, rest) = g.split_at_mut(row);
            for (cell, &p) in rest[0][col..].iter_mut().zip(&pivot_rows[col][col..]) {
                *cell -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for col in (0..n).rev() {
        let mut s = b[col];
        for c in col + 1..n {
            s -= g[col][c] * x[c];
        }
        x[col] = s / g[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use credence_index::{Bm25Params, Document, InvertedIndex};
    use credence_rank::{rank_corpus, Bm25Ranker, Opaque};
    use credence_text::Analyzer;

    fn fixture() -> InvertedIndex {
        InvertedIndex::build(
            vec![
                Document::from_body(
                    "The covid outbreak worries everyone. Gardens are quiet. \
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

    fn explain(config: &FeatureAttributionConfig) -> FeatureAttributionResult {
        explain_scored(false, config)
    }

    /// `config` over the fixture, with every sample scored exactly (BM25
    /// behind [`Opaque`]) or replayed from its term profile.
    fn explain_scored(exact: bool, config: &FeatureAttributionConfig) -> FeatureAttributionResult {
        let idx = fixture();
        let bm25 = Bm25Ranker::new(&idx, Bm25Params::default());
        let opaque = Opaque(&bm25);
        let ranker: &dyn Ranker = if exact { &opaque } else { &bm25 };
        explain_feature_attribution(
            ranker,
            "covid outbreak",
            2,
            DocId(0),
            config,
            &rank_corpus(ranker, "covid outbreak"),
            None,
        )
        .unwrap()
    }

    #[test]
    fn query_terms_dominate_the_attributions() {
        let result = explain(&FeatureAttributionConfig::default());
        assert_eq!(result.status, SearchStatus::Complete);
        assert_eq!(result.samples_evaluated, 256);
        assert_eq!(result.old_rank, 1);
        let top2: Vec<&str> = result.attributions[..2]
            .iter()
            .map(|a| a.term.as_str())
            .collect();
        assert!(top2.contains(&"covid"), "{top2:?}");
        assert!(top2.contains(&"outbreak"), "{top2:?}");
        for a in &result.attributions[..2] {
            assert!(a.weight > 0.0, "query-term presence should raise the score");
        }
        assert!(result.fidelity > 0.5, "fidelity {}", result.fidelity);
    }

    #[test]
    fn same_seed_is_bitwise_reproducible() {
        let a = explain(&FeatureAttributionConfig::default());
        let b = explain(&FeatureAttributionConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = explain(&FeatureAttributionConfig::default());
        let b = explain(&FeatureAttributionConfig {
            seed: 7,
            ..Default::default()
        });
        // Same qualitative story, different sampled coefficients.
        assert_ne!(a, b);
    }

    #[test]
    fn parallel_eval_matches_serial_bitwise() {
        let serial = explain_scored(
            true,
            &FeatureAttributionConfig {
                eval: EvalOptions::serial(),
                ..Default::default()
            },
        );
        for threads in [0, 2, 5] {
            let parallel = explain(&FeatureAttributionConfig {
                eval: EvalOptions {
                    threads,
                    parallel_threshold: 1,
                },
                ..Default::default()
            });
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn memo_replay_matches_fresh_build() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let ranking = rank_corpus(&ranker, "covid outbreak");
        let config = FeatureAttributionConfig::default();
        let fresh = explain_feature_attribution(
            &ranker,
            "covid outbreak",
            2,
            DocId(0),
            &config,
            &ranking,
            None,
        )
        .unwrap();
        let memo = crate::evaluator::ReplayMemo::new(16);
        for _ in 0..2 {
            let replayed = explain_feature_attribution(
                &ranker,
                "covid outbreak",
                2,
                DocId(0),
                &config,
                &ranking,
                Some(&memo),
            )
            .unwrap();
            assert_eq!(replayed, fresh);
        }
        assert!(memo.hits() > 0, "second run should replay the profile");
    }

    #[test]
    fn max_evals_stops_after_exactly_that_many_samples() {
        for threads in [1, 4] {
            let result = explain(&FeatureAttributionConfig {
                lifecycle: Budget::unlimited().with_max_evals(70),
                eval: EvalOptions {
                    threads,
                    parallel_threshold: 1,
                },
                ..Default::default()
            });
            assert_eq!(result.status, SearchStatus::Exhausted, "threads={threads}");
            assert_eq!(result.samples_evaluated, 70, "threads={threads}");
        }
    }

    #[test]
    fn expired_deadline_reports_a_whole_batch_partial() {
        let result = explain(&FeatureAttributionConfig {
            lifecycle: Budget {
                deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
                ..Budget::default()
            },
            ..Default::default()
        });
        assert_eq!(result.status, SearchStatus::Deadline);
        assert_eq!(result.samples_evaluated, 0);
        assert_eq!(result.fidelity, 0.0);
        assert!(result.attributions.iter().all(|a| a.weight == 0.0));
    }

    #[test]
    fn absent_query_terms_never_appear() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let result = explain_feature_attribution(
            &ranker,
            "covid zebra",
            2,
            DocId(0),
            &FeatureAttributionConfig::default(),
            &rank_corpus(&ranker, "covid zebra"),
            None,
        )
        .unwrap();
        assert!(result.attributions.iter().all(|a| a.term != "zebra"));
    }

    #[test]
    fn validation_errors() {
        let idx = fixture();
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let config = FeatureAttributionConfig::default();
        assert!(matches!(
            explain_feature_attribution(
                &ranker,
                "covid",
                0,
                DocId(0),
                &config,
                &rank_corpus(&ranker, "covid"),
                None
            ),
            Err(ExplainError::InvalidParameter(_))
        ));
        assert!(matches!(
            explain_feature_attribution(
                &ranker,
                "covid",
                2,
                DocId(0),
                &FeatureAttributionConfig {
                    samples: 0,
                    ..Default::default()
                },
                &rank_corpus(&ranker, "covid"),
                None
            ),
            Err(ExplainError::InvalidParameter(_))
        ));
        for samples in [MAX_SAMPLES + 1, usize::MAX] {
            assert!(matches!(
                explain_feature_attribution(
                    &ranker,
                    "covid",
                    2,
                    DocId(0),
                    &FeatureAttributionConfig {
                        samples,
                        ..Default::default()
                    },
                    &rank_corpus(&ranker, "covid"),
                    None
                ),
                Err(ExplainError::InvalidParameter(_))
            ));
        }
        assert!(matches!(
            explain_feature_attribution(
                &ranker,
                "covid",
                2,
                DocId(0),
                &FeatureAttributionConfig {
                    lambda: -1.0,
                    ..Default::default()
                },
                &rank_corpus(&ranker, "covid"),
                None
            ),
            Err(ExplainError::InvalidParameter(_))
        ));
        assert!(matches!(
            explain_feature_attribution(
                &ranker,
                "covid outbreak",
                2,
                DocId(9),
                &config,
                &rank_corpus(&ranker, "covid outbreak"),
                None
            ),
            Err(ExplainError::DocNotFound(_))
        ));
        assert!(matches!(
            explain_feature_attribution(
                &ranker,
                "covid outbreak",
                2,
                DocId(3),
                &config,
                &rank_corpus(&ranker, "covid outbreak"),
                None
            ),
            Err(ExplainError::DocNotRelevant { .. })
        ));
    }

    #[test]
    fn solver_recovers_a_known_system() {
        // 2x + y = 5, x + 3y = 10 → x = 1, y = 3.
        let mut g = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let mut b = vec![5.0, 10.0];
        let x = solve_linear(&mut g, &mut b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_system_degenerates_to_zero() {
        let mut g = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let mut b = vec![2.0, 2.0];
        assert!(solve_linear(&mut g, &mut b).is_none());
    }
}
