//! The black-box ranker contract.

use credence_index::{DocId, InvertedIndex, SearchHit, TopKOptions, TopKStats};
use credence_text::TermId;

/// A black-box ranking model `M` over a fixed corpus.
///
/// The contract the CREDENCE algorithms rely on:
///
/// 1. `score_doc(q, d)` and `score_text(q, body(d))` agree for indexed
///    documents — perturbing a document and scoring the perturbed text is
///    meaningful (property-tested per implementation).
/// 2. Scores are comparable across documents for one query; higher is more
///    relevant. Nothing about score *scale* is assumed.
/// 3. Collection statistics are frozen at index time, so scoring a perturbed
///    document never changes any other document's score.
///
/// Rankers are `Send + Sync` so the REST server can share one engine across
/// connection threads.
pub trait Ranker: Send + Sync {
    /// A short human-readable model name (shown in experiment tables).
    fn name(&self) -> &str;

    /// The corpus this model ranks.
    fn index(&self) -> &InvertedIndex;

    /// Relevance score of an indexed document for a raw query string.
    fn score_doc(&self, query: &str, doc: DocId) -> f64;

    /// Relevance score of arbitrary text (e.g. a perturbed document body)
    /// for a raw query string, under the frozen corpus statistics.
    fn score_text(&self, query: &str, body: &str) -> f64;

    /// Whether a zero score means "no relevance signal at all" (lexical
    /// models), in which case corpus ranking omits zero-scored documents.
    /// Dense/hybrid models return `false` and rank every document.
    fn zero_means_unmatched(&self) -> bool {
        true
    }

    /// Whether this model's score decomposes into a left-fold sum of
    /// per-query-term weights, exposed through [`Ranker::term_weight`].
    ///
    /// When `true`, the incremental candidate evaluators
    /// ([`crate::incremental`]) may reconstruct `score_text` / `score_doc`
    /// as `analyze_query(q).iter().map(|t| term_weight(t, tf, len)).sum()`
    /// — the same `f64` left fold from `0.0` the full scorer performs, over
    /// the same integer inputs, so the reconstruction is bit-identical.
    /// Models whose score is not term-decomposable (dense, feedback-expanded)
    /// keep the default `false` and the evaluators fall back to exact
    /// re-scoring.
    fn supports_term_weights(&self) -> bool {
        false
    }

    /// Weight one query-term occurrence count contributes to the score of a
    /// document with `tf` occurrences of `term` and analysed length
    /// `doc_len`, under the frozen collection statistics.
    ///
    /// Must satisfy, whenever [`Ranker::supports_term_weights`] is `true`:
    /// summing `term_weight` over `analyze_query(q)` in query order (with
    /// tf/len taken from the same analysis the full scorer uses) reproduces
    /// `score_doc` / `score_text` exactly. Returns `None` when the model is
    /// not term-decomposable.
    fn term_weight(&self, term: TermId, tf: u32, doc_len: u32) -> Option<f64> {
        let _ = (term, tf, doc_len);
        None
    }

    /// Retrieve the top `k` documents for `query` straight from the index
    /// via the index's top-k retrieval, when the model supports it.
    ///
    /// Contract: when `Some`, the hit list must be bit-identical — as
    /// `(doc, score)` pairs under the (descending score, ascending doc)
    /// total order — to scoring every document with [`Ranker::score_doc`]
    /// and keeping the `k` best with positive score. With `k >= num_docs`
    /// the hits therefore reproduce the model's full corpus ranking.
    /// Models without an index-driven scorer keep the default `None` and
    /// callers fall back to the exhaustive per-document scan.
    fn retrieve_top_k(
        &self,
        query: &str,
        k: usize,
        opts: &TopKOptions,
    ) -> Option<(Vec<SearchHit>, TopKStats)> {
        let _ = (query, k, opts);
        None
    }
}

/// A ranker that delegates to its inner model but keeps the trait's
/// default [`Ranker::supports_term_weights`] of `false`, so every explainer
/// scores perturbed text exactly — the path RM3 and neural-sim take — where
/// the inner model would be replayed. Retrieval and
/// [`Ranker::zero_means_unmatched`] delegate too, so rankings do not
/// change. A test double: the replay parity tests and benches compare
/// against it.
pub struct Opaque<'a>(pub &'a dyn Ranker);

impl Ranker for Opaque<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn index(&self) -> &InvertedIndex {
        self.0.index()
    }
    fn score_doc(&self, query: &str, doc: DocId) -> f64 {
        self.0.score_doc(query, doc)
    }
    fn score_text(&self, query: &str, body: &str) -> f64 {
        self.0.score_text(query, body)
    }
    fn zero_means_unmatched(&self) -> bool {
        self.0.zero_means_unmatched()
    }
    fn retrieve_top_k(
        &self,
        query: &str,
        k: usize,
        opts: &TopKOptions,
    ) -> Option<(Vec<SearchHit>, TopKStats)> {
        self.0.retrieve_top_k(query, k, opts)
    }
}

#[cfg(test)]
mod tests {
    // The trait itself is exercised through its implementations; shared
    // conformance checks live in `rerank::tests` and each impl's tests.
}
