//! Request-lifecycle budgets for the counterfactual searches.
//!
//! A [`Budget`] carries the three ways a caller can bound a search:
//!
//! * a **wall-clock deadline** (`deadline_ms` over REST, `--deadline-ms` on
//!   the CLI) — an [`Instant`] past which no further candidates are pulled;
//! * a **max-evaluation cap** (`max_evals`) — a hard ceiling on the number
//!   of candidates *committed*, independent of the enumeration limits in
//!   [`SearchBudget`](crate::SearchBudget);
//! * a **cooperative cancel flag** — an `Arc<AtomicBool>` the owner of the
//!   request (a connection handler, a supervisor thread) can flip to abort
//!   an in-flight search.
//!
//! The evaluator checks the budget at every batch boundary (and before
//! every candidate on the serial path), and the parallel workers poll the
//! deadline/cancel state between individual evaluations, so even a single
//! huge batch cannot pin a worker much past expiry. A tripped budget does
//! not error: the search stops and reports *how* it stopped via
//! [`SearchStatus`], with everything committed so far intact. Because
//! commits are strictly in enumeration order, a budget-limited run is
//! always prefix-consistent: its output equals the unlimited run truncated
//! at its `candidates_evaluated`.
//!
//! The default budget is [`Budget::unlimited`], which every check treats as
//! a no-op — explainer outputs with no budget set are bit-identical to
//! builds that predate this module.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::ExplainError;

/// How a candidate search finished.
///
/// Serialised (lowercase) as the `status` field of every explainer result,
/// both over REST and in the CLI summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchStatus {
    /// The search ran to its natural end: the requested number of
    /// explanations was found or the candidate enumeration drained.
    Complete,
    /// The budget's `max_evals` cap was reached before the search ended.
    Exhausted,
    /// The wall-clock deadline expired; the result is the best-so-far
    /// prefix at the batch boundary where expiry was observed.
    Deadline,
    /// The cooperative cancel flag was raised by the request's owner.
    Cancelled,
}

impl SearchStatus {
    /// The stable machine-readable name (`"complete"`, `"exhausted"`,
    /// `"deadline"`, `"cancelled"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SearchStatus::Complete => "complete",
            SearchStatus::Exhausted => "exhausted",
            SearchStatus::Deadline => "deadline",
            SearchStatus::Cancelled => "cancelled",
        }
    }

    /// Whether the search stopped early (anything but [`Complete`]).
    ///
    /// [`Complete`]: SearchStatus::Complete
    pub fn is_partial(&self) -> bool {
        !matches!(self, SearchStatus::Complete)
    }
}

impl std::fmt::Display for SearchStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A request-scoped bound on search work. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Stop pulling candidates once this instant has passed.
    pub deadline: Option<Instant>,
    /// Stop after committing this many candidate evaluations.
    pub max_evals: Option<usize>,
    /// Cooperative cancellation: stop as soon as this flag reads `true`.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// The default budget: no deadline, no eval cap, no cancel flag. Every
    /// check is a no-op and searches behave exactly as if unbudgeted.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Bound the search by a wall-clock deadline `ms` milliseconds from now.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Instant::now() + Duration::from_millis(ms));
        self
    }

    /// Bound the search to at most `max_evals` committed evaluations.
    pub fn with_max_evals(mut self, max_evals: usize) -> Self {
        self.max_evals = Some(max_evals);
        self
    }

    /// Attach a cooperative cancel flag shared with the request's owner.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The budget's cancel flag, installing a fresh (unraised) one if none
    /// is attached yet. Owners that adopt a request after parsing — e.g. an
    /// async job queue that must be able to abort any submission — call
    /// this to obtain a handle that is guaranteed to be observed by the
    /// search, whether or not the original caller supplied a flag.
    pub fn ensure_cancel(&mut self) -> Arc<AtomicBool> {
        match &self.cancel {
            Some(flag) => Arc::clone(flag),
            None => {
                let flag = Arc::new(AtomicBool::new(false));
                self.cancel = Some(Arc::clone(&flag));
                flag
            }
        }
    }

    /// Whether every check is a no-op (no limit of any kind is set).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_evals.is_none() && self.cancel.is_none()
    }

    /// Whether the deadline has passed or the cancel flag is raised — the
    /// two *asynchronous* stop conditions, pollable from worker threads
    /// without knowing the committed count.
    pub fn interrupted(&self) -> bool {
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        false
    }

    /// The reason the search must stop now, given `committed` evaluations
    /// committed so far — or `None` to keep going. Cancellation wins over
    /// the deadline, which wins over the eval cap.
    pub fn stop_reason(&self, committed: usize) -> Option<SearchStatus> {
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Some(SearchStatus::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(SearchStatus::Deadline);
            }
        }
        if let Some(max) = self.max_evals {
            if committed >= max {
                return Some(SearchStatus::Exhausted);
            }
        }
        None
    }

    /// Fail fast with [`ExplainError::Cancelled`] or
    /// [`ExplainError::DeadlineExceeded`] when the budget is already spent.
    /// For explainers that evaluate at most once and so have no partial
    /// result to return; an eval cap never fails them.
    pub fn fail_fast(&self) -> Result<(), ExplainError> {
        match self.stop_reason(0) {
            Some(SearchStatus::Cancelled) => Err(ExplainError::Cancelled),
            Some(SearchStatus::Deadline) => Err(ExplainError::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    /// How many more evaluations the eval cap allows (`usize::MAX` when
    /// uncapped). Used to trim speculative batches so an `Exhausted` stop
    /// commits exactly `max_evals` candidates on every thread count.
    pub fn remaining_evals(&self, committed: usize) -> usize {
        match self.max_evals {
            Some(max) => max.saturating_sub(committed),
            None => usize::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_stops() {
        let budget = Budget::unlimited();
        assert!(budget.is_unlimited());
        assert!(!budget.interrupted());
        assert_eq!(budget.stop_reason(0), None);
        assert_eq!(budget.stop_reason(usize::MAX), None);
        assert_eq!(budget.remaining_evals(1_000_000), usize::MAX);
    }

    #[test]
    fn max_evals_stops_at_cap() {
        let budget = Budget::unlimited().with_max_evals(3);
        assert_eq!(budget.stop_reason(2), None);
        assert_eq!(budget.stop_reason(3), Some(SearchStatus::Exhausted));
        assert_eq!(budget.remaining_evals(1), 2);
        assert_eq!(budget.remaining_evals(5), 0);
    }

    #[test]
    fn expired_deadline_stops_immediately() {
        let budget = Budget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Budget::default()
        };
        assert!(budget.interrupted());
        assert_eq!(budget.stop_reason(0), Some(SearchStatus::Deadline));
    }

    #[test]
    fn future_deadline_does_not_stop() {
        let budget = Budget::unlimited().with_deadline_ms(60_000);
        assert!(!budget.interrupted());
        assert_eq!(budget.stop_reason(0), None);
    }

    #[test]
    fn cancel_flag_wins_over_everything() {
        let flag = Arc::new(AtomicBool::new(false));
        let budget = Budget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            max_evals: Some(0),
            cancel: Some(Arc::clone(&flag)),
        };
        assert_eq!(budget.stop_reason(0), Some(SearchStatus::Deadline));
        flag.store(true, Ordering::Relaxed);
        assert_eq!(budget.stop_reason(0), Some(SearchStatus::Cancelled));
    }

    #[test]
    fn ensure_cancel_installs_and_reuses_one_flag() {
        let mut budget = Budget::unlimited();
        assert!(budget.cancel.is_none());
        let flag = budget.ensure_cancel();
        assert!(!budget.is_unlimited(), "a flag is now attached");
        assert!(!budget.interrupted(), "installed unraised");
        let again = budget.ensure_cancel();
        assert!(Arc::ptr_eq(&flag, &again), "second call shares the flag");
        flag.store(true, Ordering::Relaxed);
        assert_eq!(budget.stop_reason(0), Some(SearchStatus::Cancelled));

        // A pre-attached flag is reused, never replaced.
        let caller = Arc::new(AtomicBool::new(false));
        let mut budget = Budget::unlimited().with_cancel(Arc::clone(&caller));
        assert!(Arc::ptr_eq(&budget.ensure_cancel(), &caller));
    }

    #[test]
    fn status_names_are_stable() {
        assert_eq!(SearchStatus::Complete.as_str(), "complete");
        assert_eq!(SearchStatus::Exhausted.as_str(), "exhausted");
        assert_eq!(SearchStatus::Deadline.as_str(), "deadline");
        assert_eq!(SearchStatus::Cancelled.as_str(), "cancelled");
        assert!(!SearchStatus::Complete.is_partial());
        assert!(SearchStatus::Deadline.is_partial());
        assert_eq!(SearchStatus::Exhausted.to_string(), "exhausted");
    }
}
