//! Errors surfaced by the explanation algorithms.

use std::fmt;

use credence_index::{DocId, Document, InvertedIndex};
use credence_rank::RankedList;

/// Why an explanation request could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplainError {
    /// The document id does not exist in the corpus.
    DocNotFound(DocId),
    /// The query analysed to zero terms.
    EmptyQuery,
    /// The instance document is not ranked in the top-k, so "lowering its
    /// rank beyond k" (or the builder's pool) is undefined. Carries its
    /// actual rank when it is ranked at all.
    DocNotRelevant {
        /// The document.
        doc: DocId,
        /// Its rank, if it appears in the ranking at all.
        rank: Option<usize>,
    },
    /// The document has no sentences to remove.
    NoSentences(DocId),
    /// No candidate terms exist (every document term already appears in the
    /// query, or the document analysed to nothing).
    NoCandidateTerms(DocId),
    /// `k` (or a threshold) was zero or otherwise unusable.
    InvalidParameter(&'static str),
    /// The request's wall-clock deadline expired before any work could be
    /// done (mid-search expiry returns a partial result instead).
    DeadlineExceeded,
    /// The request's cooperative cancel flag was raised before any work
    /// could be done (mid-search cancellation returns a partial result).
    Cancelled,
}

impl ExplainError {
    /// The stable machine-readable error code, shared by the REST error
    /// envelope and the CLI. These strings are API: clients match on them.
    pub fn code(&self) -> &'static str {
        match self {
            ExplainError::DocNotFound(_) => "doc_not_found",
            ExplainError::EmptyQuery => "empty_query",
            ExplainError::DocNotRelevant { .. } => "doc_not_relevant",
            ExplainError::NoSentences(_) => "no_sentences",
            ExplainError::NoCandidateTerms(_) => "no_candidate_terms",
            ExplainError::InvalidParameter(_) => "invalid_parameter",
            ExplainError::DeadlineExceeded => "deadline_exceeded",
            ExplainError::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::DocNotFound(d) => write!(f, "document {d} not found"),
            ExplainError::EmptyQuery => write!(f, "query has no indexable terms"),
            ExplainError::DocNotRelevant { doc, rank } => match rank {
                Some(r) => write!(f, "document {doc} is ranked {r}, outside the top-k"),
                None => write!(f, "document {doc} is not retrieved for this query"),
            },
            ExplainError::NoSentences(d) => write!(f, "document {d} has no sentences"),
            ExplainError::NoCandidateTerms(d) => {
                write!(f, "document {d} offers no candidate terms to append")
            }
            ExplainError::InvalidParameter(p) => write!(f, "invalid parameter: {p}"),
            ExplainError::DeadlineExceeded => {
                write!(f, "deadline expired before the request could start")
            }
            ExplainError::Cancelled => write!(f, "request was cancelled"),
        }
    }
}

impl std::error::Error for ExplainError {}

/// The instance check every family but saliency starts from (§II-C to
/// §II-E, §III-C), in this order: `k ≥ 1`; the family's own parameter
/// checks (`params`); the document exists; the query analyses to at least
/// one term. Returns the document. Families then run the checks that need
/// the query or the document, and end with [`ranked_within`].
pub(crate) fn check_instance<'a>(
    index: &'a InvertedIndex,
    query: &str,
    k: usize,
    doc: DocId,
    params: impl FnOnce() -> Result<(), ExplainError>,
) -> Result<&'a Document, ExplainError> {
    if k == 0 {
        return Err(ExplainError::InvalidParameter("k must be at least 1"));
    }
    params()?;
    let document = index.document(doc).ok_or(ExplainError::DocNotFound(doc))?;
    if index.analyze_query(query).is_empty() {
        return Err(ExplainError::EmptyQuery);
    }
    Ok(document)
}

/// The instance document's rank in the query's `ranking`, which must be at
/// most `k`.
pub(crate) fn ranked_within(
    ranking: &RankedList,
    doc: DocId,
    k: usize,
) -> Result<usize, ExplainError> {
    match ranking.rank_of(doc) {
        Some(rank) if rank <= k => Ok(rank),
        rank => Err(ExplainError::DocNotRelevant { doc, rank }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ExplainError::DocNotFound(DocId(3))
            .to_string()
            .contains('3'));
        assert!(ExplainError::EmptyQuery.to_string().contains("query"));
        let e = ExplainError::DocNotRelevant {
            doc: DocId(1),
            rank: Some(14),
        };
        assert!(e.to_string().contains("14"));
        let e = ExplainError::DocNotRelevant {
            doc: DocId(1),
            rank: None,
        };
        assert!(e.to_string().contains("not retrieved"));
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(ExplainError::DocNotFound(DocId(0)).code(), "doc_not_found");
        assert_eq!(ExplainError::EmptyQuery.code(), "empty_query");
        let e = ExplainError::DocNotRelevant {
            doc: DocId(0),
            rank: None,
        };
        assert_eq!(e.code(), "doc_not_relevant");
        assert_eq!(ExplainError::NoSentences(DocId(0)).code(), "no_sentences");
        assert_eq!(
            ExplainError::NoCandidateTerms(DocId(0)).code(),
            "no_candidate_terms"
        );
        assert_eq!(
            ExplainError::InvalidParameter("k").code(),
            "invalid_parameter"
        );
        assert_eq!(ExplainError::DeadlineExceeded.code(), "deadline_exceeded");
        assert_eq!(ExplainError::Cancelled.code(), "cancelled");
    }
}
