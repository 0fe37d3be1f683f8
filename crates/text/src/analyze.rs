//! The analysis pipeline: tokenise → normalise → stop-filter → stem.
//!
//! Equivalent to a Lucene `Analyzer`; every component is individually
//! switchable so tests and ablations can isolate effects. Two standard
//! configurations matter in this reproduction:
//!
//! * [`Analyzer::english`] — stopword removal + Porter stemming, used by the
//!   index and the TF-IDF statistics (matches Anserini's default).
//! * [`Analyzer::matching`] — no stopwords, no stemming, used by the
//!   sentence-importance heuristic of §II-C, which counts literal query-term
//!   occurrences in sentences.

use crate::stem::porter_stem;
use crate::stopwords::is_stopword;
use crate::token::{tokenize, Token};

/// Switches for the analysis pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Drop stopwords after normalisation.
    pub remove_stopwords: bool,
    /// Apply Porter stemming to surviving terms.
    pub stem: bool,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        Self {
            remove_stopwords: true,
            stem: true,
        }
    }
}

/// A configured analysis pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Analyzer {
    options: AnalyzeOptions,
}

impl Analyzer {
    /// Construct with explicit options.
    pub fn new(options: AnalyzeOptions) -> Self {
        Self { options }
    }

    /// Full English analysis: stopword removal and Porter stemming.
    pub fn english() -> Self {
        Self::new(AnalyzeOptions {
            remove_stopwords: true,
            stem: true,
        })
    }

    /// Literal-matching analysis: normalisation only. Used where the paper
    /// reasons about surface terms (sentence importance scores, the builder's
    /// term replacement).
    pub fn matching() -> Self {
        Self::new(AnalyzeOptions {
            remove_stopwords: false,
            stem: false,
        })
    }

    /// The options this analyzer was built with.
    pub fn options(&self) -> AnalyzeOptions {
        self.options
    }

    /// Analyse `text` into terms.
    pub fn analyze(&self, text: &str) -> Vec<String> {
        self.analyze_tokens(text)
            .into_iter()
            .map(|t| t.term)
            .collect()
    }

    /// Analyse `text` keeping token offsets. The `term` field of each token
    /// holds the fully processed (possibly stemmed) term; `raw` and the span
    /// still reference the original text.
    pub fn analyze_tokens(&self, text: &str) -> Vec<Token> {
        let mut out = Vec::new();
        for mut tok in tokenize(text) {
            if self.options.remove_stopwords && is_stopword(&tok.term) {
                continue;
            }
            if self.options.stem {
                tok.term = porter_stem(&tok.term);
            }
            tok.position = out.len();
            out.push(tok);
        }
        out
    }

    /// Analyse a single already-tokenised term (normalisation is assumed done).
    pub fn analyze_term(&self, term: &str) -> Option<String> {
        if self.options.remove_stopwords && is_stopword(term) {
            return None;
        }
        Some(if self.options.stem {
            porter_stem(term)
        } else {
            term.to_string()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn english_pipeline_stems_and_stops() {
        let a = Analyzer::english();
        let terms = a.analyze("The vaccines are tracking the outbreaks!");
        assert_eq!(terms, vec!["vaccin", "track", "outbreak"]);
    }

    #[test]
    fn matching_pipeline_preserves_surface_terms() {
        let a = Analyzer::matching();
        let terms = a.analyze("The vaccines are tracking the outbreaks!");
        assert_eq!(
            terms,
            vec!["the", "vaccines", "are", "tracking", "the", "outbreaks"]
        );
    }

    #[test]
    fn token_positions_recomputed_after_filtering() {
        let a = Analyzer::english();
        let toks = a.analyze_tokens("the quick the brown");
        let positions: Vec<usize> = toks.iter().map(|t| t.position).collect();
        assert_eq!(positions, vec![0, 1]);
        assert_eq!(toks[0].term, "quick");
    }

    #[test]
    fn offsets_still_reference_source() {
        let text = "Vaccines TRACKING everyone.";
        let a = Analyzer::english();
        for tok in a.analyze_tokens(text) {
            assert_eq!(&text[tok.start..tok.end], tok.raw);
        }
    }

    #[test]
    fn analyze_term_filters_stopwords() {
        let a = Analyzer::english();
        assert_eq!(a.analyze_term("the"), None);
        assert_eq!(a.analyze_term("tracking"), Some("track".to_string()));
        let m = Analyzer::matching();
        assert_eq!(m.analyze_term("the"), Some("the".to_string()));
    }

    #[test]
    fn empty_text() {
        assert!(Analyzer::english().analyze("").is_empty());
    }
}
