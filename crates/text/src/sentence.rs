//! Sentence segmentation.
//!
//! Sentences are the perturbation unit for counterfactual *document*
//! explanations (§II-C): CREDENCE removes whole sentences so that perturbed
//! documents remain grammatical. This splitter is rule-based, matching the
//! behaviour of the NLTK-style splitters used in IR pipelines closely enough
//! for the algorithm: it splits on `.`, `!`, `?` followed by whitespace and
//! an uppercase/digit start, while protecting common abbreviations, initials,
//! decimal numbers, and ellipses.

/// A sentence with its byte span in the source document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sentence {
    /// The sentence text, trimmed of surrounding whitespace.
    pub text: String,
    /// Byte offset of the first byte of the (trimmed) sentence.
    pub start: usize,
    /// Byte offset one past the last byte of the (trimmed) sentence.
    pub end: usize,
    /// Zero-based sentence index within the document.
    pub index: usize,
}

const ABBREVIATIONS: &[&str] = &[
    "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "vs", "etc", "e.g", "i.e", "fig", "no",
    "inc", "ltd", "co", "corp", "dept", "univ", "assn", "approx", "est", "min", "max", "vol",
    "u.s", "u.k", "u.n", "ph.d", "m.d", "b.a", "m.a", "a.m", "p.m", "jan", "feb", "mar", "apr",
    "jun", "jul", "aug", "sep", "sept", "oct", "nov", "dec",
];

fn word_before(text: &str, idx: usize) -> &str {
    let bytes = text.as_bytes();
    let mut start = idx;
    while start > 0 {
        let c = bytes[start - 1];
        if c.is_ascii_alphanumeric() || c == b'.' {
            start -= 1;
        } else {
            break;
        }
    }
    &text[start..idx]
}

fn is_abbreviation(text: &str, dot_idx: usize) -> bool {
    let word = word_before(text, dot_idx).to_ascii_lowercase();
    if word.is_empty() {
        return false;
    }
    // Single-letter initials like "J." in "J. Smith".
    if word.len() == 1 && word.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) {
        return true;
    }
    // Internal-dot abbreviations ("u.s", "e.g") or listed abbreviations.
    let trimmed = word.trim_end_matches('.');
    ABBREVIATIONS.contains(&trimmed)
}

/// Split `text` into sentences.
///
/// Empty/whitespace-only input yields an empty vector. Newline pairs
/// (paragraph breaks) always end a sentence even without terminal
/// punctuation, so list-like fake-news documents split sensibly.
///
/// ```
/// use credence_text::split_sentences;
/// let s = split_sentences("Dr. Smith warned us. The outbreak grew!");
/// assert_eq!(s.len(), 2);
/// assert_eq!(s[0].text, "Dr. Smith warned us.");
/// ```
pub fn split_sentences(text: &str) -> Vec<Sentence> {
    let mut boundaries: Vec<usize> = Vec::new();
    let chars: Vec<(usize, char)> = text.char_indices().collect();
    let n = chars.len();
    for i in 0..n {
        let (idx, c) = chars[i];
        match c {
            '.' | '!' | '?' => {
                // Swallow runs of terminal punctuation ("?!", "...").
                if i + 1 < n {
                    let next = chars[i + 1].1;
                    if next == '.' || next == '!' || next == '?' {
                        continue;
                    }
                }
                if c == '.' {
                    // Decimal number: 3.14
                    let prev_digit =
                        i > 0 && chars[i - 1].1.is_ascii_digit();
                    let next_digit =
                        i + 1 < n && chars[i + 1].1.is_ascii_digit();
                    if prev_digit && next_digit {
                        continue;
                    }
                    if is_abbreviation(text, idx) {
                        continue;
                    }
                }
                // Skip trailing closers (quotes/brackets) after the punctuation.
                let mut j = i + 1;
                while j < n && matches!(chars[j].1, '"' | '\'' | ')' | ']' | '”' | '’') {
                    j += 1;
                }
                if j >= n {
                    boundaries.push(text.len());
                    continue;
                }
                // Require whitespace, then (for '.') a plausible sentence start.
                if !chars[j].1.is_whitespace() {
                    continue;
                }
                let mut k = j;
                while k < n && chars[k].1.is_whitespace() {
                    k += 1;
                }
                if k >= n {
                    boundaries.push(text.len());
                    continue;
                }
                let start_char = chars[k].1;
                let plausible_start = start_char.is_uppercase()
                    || start_char.is_ascii_digit()
                    || matches!(start_char, '"' | '\'' | '(' | '[' | '“' | '‘');
                if c != '.' || plausible_start {
                    boundaries.push(chars[j].0);
                }
            }
            '\n'
                // Paragraph break: blank line ends a sentence.
                if i + 1 < n && chars[i + 1].1 == '\n' => {
                    boundaries.push(idx);
                }
            _ => {}
        }
    }
    boundaries.push(text.len());
    boundaries.dedup();

    let mut sentences = Vec::new();
    let mut prev = 0usize;
    for &b in &boundaries {
        if b < prev {
            continue;
        }
        let raw = &text[prev..b];
        let trimmed = raw.trim();
        if !trimmed.is_empty() {
            let lead = raw.len() - raw.trim_start().len();
            let start = prev + lead;
            let end = start + trimmed.len();
            sentences.push(Sentence {
                text: trimmed.to_string(),
                start,
                end,
                index: sentences.len(),
            });
        }
        prev = b;
    }
    sentences
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        assert!(split_sentences("").is_empty());
        assert!(split_sentences("   \n\n  ").is_empty());
    }

    #[test]
    fn single_sentence_without_terminal() {
        let s = split_sentences("no terminal punctuation here");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].text, "no terminal punctuation here");
    }

    #[test]
    fn basic_split() {
        let s = split_sentences("First sentence. Second sentence! Third?");
        let texts: Vec<&str> = s.iter().map(|s| s.text.as_str()).collect();
        assert_eq!(texts, vec!["First sentence.", "Second sentence!", "Third?"]);
    }

    #[test]
    fn abbreviations_do_not_split() {
        let s = split_sentences("Dr. Smith and Mr. Jones met at 3 p.m. yesterday. They left.");
        assert_eq!(s.len(), 2);
        assert!(s[0].text.starts_with("Dr. Smith"));
    }

    #[test]
    fn decimals_do_not_split() {
        let s = split_sentences("Growth was 3.14 percent. It fell later.");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].text, "Growth was 3.14 percent.");
    }

    #[test]
    fn initials_do_not_split() {
        let s = split_sentences("J. K. Rowling wrote it. We read it.");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn ellipsis_splits_once() {
        let s = split_sentences("He paused... Then he spoke.");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].text, "He paused...");
    }

    #[test]
    fn question_and_exclamation_runs() {
        let s = split_sentences("Really?! Yes. Amazing!!! Indeed.");
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn spans_match_source() {
        let text = "Alpha beta. Gamma delta! Epsilon?";
        for s in split_sentences(text) {
            assert_eq!(&text[s.start..s.end], s.text);
        }
    }

    #[test]
    fn paragraph_breaks_split() {
        let s = split_sentences("Heading without period\n\nBody sentence here.");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].text, "Heading without period");
    }

    #[test]
    fn indices_are_sequential() {
        let s = split_sentences("A. B. C. One two. Three four. Five six.");
        for (i, sent) in s.iter().enumerate() {
            assert_eq!(sent.index, i);
        }
    }

    #[test]
    fn quote_after_terminal() {
        let s = split_sentences("\"It is over.\" She left.");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].text, "\"It is over.\"");
    }

    #[test]
    fn lowercase_after_period_does_not_split() {
        // "e.g. something" style continuations with lowercase starts.
        let s = split_sentences("The term no. 5 appears often in vol. 3 of the series.");
        assert_eq!(s.len(), 1);
    }
}
