//! Exact-phrase matching and retrieval.
//!
//! Lucene supports phrase queries; the demo's multi-word cues (*bill
//! gates*) make them relevant here. The corpus is memory-resident, so
//! instead of storing positional postings we intersect the per-term
//! postings to find candidate documents and verify adjacency against the
//! analysed token sequence on demand — exact, simple, and fast at the
//! corpus scales this reproduction targets.

use credence_text::TermId;

use crate::doc::DocId;
use crate::index::InvertedIndex;
use crate::score::{bm25_idf, Bm25Params};
use crate::search::{sort_hits, SearchHit};

/// Analyse a raw phrase into term ids; `None` when any word of the phrase
/// is unknown to the corpus (the phrase cannot match anywhere).
pub fn analyze_phrase(index: &InvertedIndex, phrase: &str) -> Option<Vec<TermId>> {
    let analyzer = index.analyzer();
    let terms = analyzer.analyze(phrase);
    if terms.is_empty() {
        return None;
    }
    terms
        .iter()
        .map(|t| index.vocabulary().id(t))
        .collect::<Option<Vec<_>>>()
}

/// Number of exact (adjacent, analysed) occurrences of `phrase_terms` in a
/// document.
pub fn phrase_freq(index: &InvertedIndex, doc: DocId, phrase_terms: &[TermId]) -> u32 {
    if phrase_terms.is_empty() {
        return 0;
    }
    let Some(document) = index.document(doc) else {
        return 0;
    };
    let analyzer = index.analyzer();
    let sequence: Vec<Option<TermId>> = analyzer
        .analyze(&document.body)
        .iter()
        .map(|t| index.vocabulary().id(t))
        .collect();
    if sequence.len() < phrase_terms.len() {
        return 0;
    }
    sequence
        .windows(phrase_terms.len())
        .filter(|w| {
            w.iter()
                .zip(phrase_terms)
                .all(|(seq, want)| *seq == Some(*want))
        })
        .count() as u32
}

/// Retrieve documents containing the exact phrase, scored by
/// `phrase_freq × Σ idf(term)` (a simple BM25-flavoured phrase weight),
/// best first, ties by `DocId`.
pub fn search_phrase(
    index: &InvertedIndex,
    params: Bm25Params,
    phrase: &str,
    k: usize,
) -> Vec<SearchHit> {
    let _ = params; // reserved: length normalisation variants
    let Some(terms) = analyze_phrase(index, phrase) else {
        return Vec::new();
    };
    if k == 0 {
        return Vec::new();
    }
    // Candidates: documents containing the rarest term.
    let rarest = terms
        .iter()
        .copied()
        .min_by_key(|&t| index.postings_len(t))
        .expect("non-empty phrase");
    let idf_sum: f64 = terms
        .iter()
        .map(|&t| bm25_idf(index.stats().num_docs, index.stats().df(t)))
        .sum();
    let mut hits: Vec<SearchHit> = index
        .postings(rarest)
        .filter_map(|p| {
            let tf = phrase_freq(index, p.doc, &terms);
            (tf > 0).then_some(SearchHit {
                doc: p.doc,
                score: tf as f64 * idf_sum,
            })
        })
        .collect();
    sort_hits(&mut hits);
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::Document;
    use credence_text::Analyzer;

    fn index() -> InvertedIndex {
        InvertedIndex::build(
            vec![
                Document::from_body("Bill Gates spoke about Bill Gates conspiracies."), // 0
                Document::from_body("Gates opened and Bill paid the bill."),            // 1
                Document::from_body("The garden gates need a new coat of paint."),      // 2
                Document::from_body("bill gates appears once here."),                   // 3
            ],
            Analyzer::english(),
        )
    }

    #[test]
    fn phrase_freq_counts_adjacent_occurrences() {
        let idx = index();
        let terms = analyze_phrase(&idx, "bill gates").unwrap();
        assert_eq!(phrase_freq(&idx, DocId(0), &terms), 2);
        assert_eq!(phrase_freq(&idx, DocId(1), &terms), 0, "non-adjacent");
        assert_eq!(phrase_freq(&idx, DocId(2), &terms), 0);
        assert_eq!(phrase_freq(&idx, DocId(3), &terms), 1);
    }

    #[test]
    fn search_phrase_ranks_by_frequency() {
        let idx = index();
        let hits = search_phrase(&idx, Bm25Params::default(), "bill gates", 10);
        let ids: Vec<u32> = hits.iter().map(|h| h.doc.0).collect();
        assert_eq!(ids, vec![0, 3]);
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn stopwords_inside_phrases_are_dropped_by_analysis() {
        // "coat of paint" analyses to [coat, paint]; adjacency is over the
        // analysed sequence, matching how the index saw the document.
        let idx = index();
        let terms = analyze_phrase(&idx, "coat of paint").unwrap();
        assert_eq!(phrase_freq(&idx, DocId(2), &terms), 1);
    }

    #[test]
    fn unknown_words_mean_no_match() {
        let idx = index();
        assert!(analyze_phrase(&idx, "zebra gates").is_none());
        assert!(search_phrase(&idx, Bm25Params::default(), "zebra gates", 5).is_empty());
        assert!(analyze_phrase(&idx, "").is_none());
    }

    #[test]
    fn single_word_phrase_degenerates_to_term_match() {
        let idx = index();
        let hits = search_phrase(&idx, Bm25Params::default(), "gates", 10);
        // gate stems: "Gates"->"gate", "gates"->"gate"; docs 0,1,2,3 all
        // contain it.
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn k_truncates_and_zero_is_empty() {
        let idx = index();
        assert_eq!(
            search_phrase(&idx, Bm25Params::default(), "bill gates", 1).len(),
            1
        );
        assert!(search_phrase(&idx, Bm25Params::default(), "bill gates", 0).is_empty());
    }

    #[test]
    fn phrase_longer_than_document() {
        let idx =
            InvertedIndex::build(vec![Document::from_body("short text")], Analyzer::english());
        let terms = analyze_phrase(&idx, "short text").unwrap();
        assert_eq!(phrase_freq(&idx, DocId(0), &terms), 1);
        let long = analyze_phrase(&idx, "short text short text");
        if let Some(long) = long {
            assert_eq!(phrase_freq(&idx, DocId(0), &long), 0);
        }
    }
}
