//! The in-memory inverted index.
//!
//! Functionally equivalent to the slice of Lucene that CREDENCE used: term
//! dictionary, per-term postings (document id + term frequency), per-document
//! lengths, and the frozen [`CollectionStats`] snapshot.

use std::collections::HashMap;

use credence_text::{Analyzer, TermId, Vocabulary};

use crate::blocks::{CompressedPostings, DEFAULT_BLOCK_SIZE};
use crate::doc::{DocId, Document};
use crate::stats::CollectionStats;

/// One posting: a document containing the term, with its term frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// The containing document.
    pub doc: DocId,
    /// Number of occurrences of the term in the document (post-analysis).
    pub tf: u32,
}

/// Per-term pruning statistics, frozen alongside the postings list.
///
/// BM25's term weight is weakly monotone increasing in `tf` and weakly
/// monotone decreasing in document length, so the weight any posting of the
/// term can contribute is bounded by evaluating the weight at
/// (`max_tf`, `min_doc_len`). The statistics are parameter-free: the actual
/// `f64` upper bound is formed at query time for whatever [`Bm25Params`] the
/// caller uses (see [`crate::score::bm25_term_upper_bound`]).
///
/// [`Bm25Params`]: crate::score::Bm25Params
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermBound {
    /// Largest term frequency across the postings list.
    pub max_tf: u32,
    /// Smallest analysed document length across the postings list.
    pub min_doc_len: u32,
    /// Smallest length norm (`doc_len / avgdl`) across the postings list.
    pub min_norm_len: f64,
}

impl TermBound {
    /// The bound of an empty postings list (upper bound is zero).
    pub const EMPTY: TermBound = TermBound {
        max_tf: 0,
        min_doc_len: 0,
        min_norm_len: 0.0,
    };
}

/// Derive per-term [`TermBound`]s and per-document length norms from the
/// postings and length tables.
fn derive_bounds(
    postings: &[Vec<Posting>],
    doc_len: &[u32],
    stats: &CollectionStats,
) -> (Vec<TermBound>, Vec<f64>) {
    let avgdl = stats.avg_doc_len();
    let norm_len: Vec<f64> = doc_len.iter().map(|&l| l as f64 / avgdl).collect();
    let bounds = postings
        .iter()
        .map(|list| {
            let mut bound = TermBound::EMPTY;
            for (i, p) in list.iter().enumerate() {
                let dl = doc_len.get(p.doc.index()).copied().unwrap_or(0);
                let nl = norm_len.get(p.doc.index()).copied().unwrap_or(0.0);
                if i == 0 {
                    bound = TermBound {
                        max_tf: p.tf,
                        min_doc_len: dl,
                        min_norm_len: nl,
                    };
                } else {
                    bound.max_tf = bound.max_tf.max(p.tf);
                    bound.min_doc_len = bound.min_doc_len.min(dl);
                    bound.min_norm_len = bound.min_norm_len.min(nl);
                }
            }
            bound
        })
        .collect();
    (bounds, norm_len)
}

/// An immutable inverted index over a corpus.
///
/// Build one with [`InvertedIndex::build`]; the index owns its documents.
///
/// ```
/// use credence_index::{Document, InvertedIndex};
/// use credence_text::Analyzer;
/// let docs = vec![
///     Document::from_body("covid outbreak in the city"),
///     Document::from_body("the city builds a new park"),
/// ];
/// let idx = InvertedIndex::build(docs, Analyzer::english());
/// assert_eq!(idx.num_docs(), 2);
/// assert_eq!(idx.doc_freq_str("citi"), 2); // "city" stems to "citi"
/// assert_eq!(idx.doc_freq_str("covid"), 1);
/// ```
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    docs: Vec<Document>,
    vocab: Vocabulary,
    postings: Vec<CompressedPostings>,
    doc_len: Vec<u32>,
    doc_terms: Vec<Vec<(TermId, u32)>>,
    stats: CollectionStats,
    bounds: Vec<TermBound>,
    norm_len: Vec<f64>,
    analyzer: Analyzer,
}

impl InvertedIndex {
    /// Analyse and index `docs` (bodies only, per §II-A of the paper), with
    /// the default posting-block size.
    pub fn build(docs: Vec<Document>, analyzer: Analyzer) -> Self {
        Self::build_with_block_size(docs, analyzer, DEFAULT_BLOCK_SIZE)
    }

    /// [`InvertedIndex::build`] with an explicit postings-per-block size
    /// (clamped to at least 1). The block size changes the storage layout
    /// and MaxScore's skip granularity, never a retrieval result.
    pub fn build_with_block_size(
        docs: Vec<Document>,
        analyzer: Analyzer,
        block_size: usize,
    ) -> Self {
        Self::assemble(docs, analyzer, block_size, None).0
    }

    /// The one assembly loop behind [`InvertedIndex::build`] and a merge.
    /// Document `i` takes its `(term, tf)` pairs and length either from a
    /// fresh analysis of its body, or — when `parent` is given, `origin[i]`
    /// names its id there and the first-home rule of [`crate::generation`]
    /// allows it — from the parent's analysis, remapped to the new term
    /// ids. Either way the result equals `build` of `docs`, field by field.
    /// Also returns how many documents were analysed.
    pub(crate) fn assemble(
        docs: Vec<Document>,
        analyzer: Analyzer,
        block_size: usize,
        parent: Option<(&InvertedIndex, &[Option<DocId>])>,
    ) -> (Self, usize) {
        let mut reuse = parent.map(|(parent, origin)| Reuse {
            parent,
            origin,
            new_id: vec![UNMAPPED; parent.vocab.len()],
        });
        let mut vocab = Vocabulary::new();
        let mut postings: Vec<Vec<Posting>> = Vec::new();
        let mut doc_len = Vec::with_capacity(docs.len());
        let mut doc_terms = Vec::with_capacity(docs.len());
        let mut total_terms = 0u64;
        let mut analysed = 0;

        for (i, doc) in docs.iter().enumerate() {
            let doc_id = DocId(i as u32);
            let remapped = reuse.as_mut().and_then(|r| r.remap(i, &mut vocab));
            let (term_vec, len) = remapped.unwrap_or_else(|| {
                analysed += 1;
                analyse(&analyzer, &doc.body, &mut vocab)
            });
            total_terms += len as u64;
            doc_len.push(len);
            for &(tid, tf) in &term_vec {
                if postings.len() <= tid as usize {
                    postings.resize_with(tid as usize + 1, Vec::new);
                }
                postings[tid as usize].push(Posting { doc: doc_id, tf });
            }
            doc_terms.push(term_vec);
        }
        postings.resize_with(vocab.len(), Vec::new);

        let doc_freq: Vec<u32> = postings.iter().map(|p| p.len() as u32).collect();
        let coll_freq: Vec<u64> = postings
            .iter()
            .map(|p| p.iter().map(|x| x.tf as u64).sum())
            .collect();
        let stats = CollectionStats {
            num_docs: docs.len(),
            total_terms,
            doc_freq,
            coll_freq,
        };
        let (bounds, norm_len) = derive_bounds(&postings, &doc_len, &stats);
        let postings = postings
            .iter()
            .map(|list| CompressedPostings::compress(list, block_size))
            .collect();

        let index = Self {
            docs,
            vocab,
            postings,
            doc_len,
            doc_terms,
            stats,
            bounds,
            norm_len,
            analyzer,
        };
        (index, analysed)
    }

    /// The analyzer documents (and queries) are processed with.
    pub fn analyzer(&self) -> Analyzer {
        self.analyzer
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// All documents, in `DocId` order.
    pub fn documents(&self) -> &[Document] {
        &self.docs
    }

    /// Fetch a document by id.
    pub fn document(&self, id: DocId) -> Option<&Document> {
        self.docs.get(id.index())
    }

    /// Iterate over all document ids.
    pub fn doc_ids(&self) -> impl Iterator<Item = DocId> {
        (0..self.docs.len() as u32).map(DocId)
    }

    /// The frozen collection statistics snapshot.
    pub fn stats(&self) -> &CollectionStats {
        &self.stats
    }

    /// The term dictionary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Postings of a term id in doc-id order (none when unknown), decoded
    /// from the blocks as the iterator advances.
    pub fn postings(&self, term: TermId) -> impl Iterator<Item = Posting> + '_ {
        self.postings
            .get(term as usize)
            .into_iter()
            .flat_map(CompressedPostings::iter)
    }

    /// Number of postings for a term id (0 when unknown), without decoding.
    pub fn postings_len(&self, term: TermId) -> usize {
        self.postings.get(term as usize).map_or(0, |l| l.len())
    }

    /// The first document holding a term: where a build first saw it.
    fn first_doc(&self, term: TermId) -> Option<DocId> {
        let first_block = self.postings.get(term as usize)?.blocks().first()?;
        Some(DocId(first_block.first_doc))
    }

    /// The block-compressed postings of a term id (`None` when unknown).
    pub fn compressed_postings(&self, term: TermId) -> Option<&CompressedPostings> {
        self.postings.get(term as usize)
    }

    /// Document frequency of an analysed term string.
    pub fn doc_freq_str(&self, term: &str) -> u32 {
        self.vocab.id(term).map_or(0, |t| self.stats.df(t))
    }

    /// Pruning statistics for a term's postings list ([`TermBound::EMPTY`]
    /// when the term is unknown or unindexed).
    pub fn term_bound(&self, term: TermId) -> TermBound {
        self.bounds
            .get(term as usize)
            .copied()
            .unwrap_or(TermBound::EMPTY)
    }

    /// Precomputed length norm (`doc_len / avg_doc_len`) of a document.
    pub fn norm_len(&self, id: DocId) -> f64 {
        self.norm_len.get(id.index()).copied().unwrap_or(0.0)
    }

    /// Post-analysis length (term count) of a document.
    pub fn doc_len(&self, id: DocId) -> u32 {
        self.doc_len.get(id.index()).copied().unwrap_or(0)
    }

    /// The `(term, tf)` pairs of a document, sorted by term id.
    pub fn doc_terms(&self, id: DocId) -> &[(TermId, u32)] {
        self.doc_terms
            .get(id.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Term frequency of `term` in document `id`.
    pub fn term_freq(&self, id: DocId, term: TermId) -> u32 {
        let terms = self.doc_terms(id);
        terms
            .binary_search_by_key(&term, |&(t, _)| t)
            .map(|i| terms[i].1)
            .unwrap_or(0)
    }

    /// Analyse a raw query string into term ids, dropping terms absent from
    /// the corpus vocabulary (they cannot contribute to any lexical score).
    pub fn analyze_query(&self, query: &str) -> Vec<TermId> {
        self.analyzer
            .analyze(query)
            .iter()
            .filter_map(|t| self.vocab.id(t))
            .collect()
    }

    /// Analyse arbitrary text into `(term_id, tf)` pairs against this index's
    /// vocabulary (unknown terms are dropped) plus the total analysed length
    /// *including* unknown terms — the length normalisation a real ranker
    /// would apply.
    pub fn analyze_adhoc(&self, text: &str) -> (Vec<(TermId, u32)>, u32) {
        let terms = self.analyzer.analyze(text);
        let len = terms.len() as u32;
        let mut counts: HashMap<TermId, u32> = HashMap::new();
        for term in &terms {
            if let Some(tid) = self.vocab.id(term) {
                *counts.entry(tid).or_insert(0) += 1;
            }
        }
        let mut vec: Vec<(TermId, u32)> = counts.into_iter().collect();
        vec.sort_unstable_by_key(|&(t, _)| t);
        (vec, len)
    }
}

/// Two indexes are equal when every structure they store is: the
/// documents, the vocabulary (ids and strings), the postings with their
/// block metadata, each document's `(term, tf)` pairs and length, the
/// collection statistics, and the term bounds and length norms bit for bit.
impl PartialEq for InvertedIndex {
    fn eq(&self, other: &Self) -> bool {
        let bound_bits = |b: &TermBound| (b.max_tf, b.min_doc_len, b.min_norm_len.to_bits());
        self.docs == other.docs
            && self.vocab.iter().eq(other.vocab.iter())
            && self.postings == other.postings
            && self.doc_len == other.doc_len
            && self.doc_terms == other.doc_terms
            && self.stats == other.stats
            && self
                .bounds
                .iter()
                .map(bound_bits)
                .eq(other.bounds.iter().map(bound_bits))
            && self
                .norm_len
                .iter()
                .map(|n| n.to_bits())
                .eq(other.norm_len.iter().map(|n| n.to_bits()))
    }
}

/// Analyse `body`, interning its terms in first-occurrence order: its
/// `(term, tf)` pairs sorted by term id, and its analysed length.
fn analyse(analyzer: &Analyzer, body: &str, vocab: &mut Vocabulary) -> (Vec<(TermId, u32)>, u32) {
    let terms = analyzer.analyze(body);
    let mut counts: HashMap<TermId, u32> = HashMap::new();
    for term in &terms {
        *counts.entry(vocab.intern(term)).or_insert(0) += 1;
    }
    let mut term_vec: Vec<(TermId, u32)> = counts.into_iter().collect();
    term_vec.sort_unstable_by_key(|&(t, _)| t);
    (term_vec, terms.len() as u32)
}

/// A parent term not yet looked up in the vocabulary being built.
const UNMAPPED: TermId = TermId::MAX;

/// A parent generation whose analysis an assembly reuses.
struct Reuse<'a> {
    parent: &'a InvertedIndex,
    /// Each new document's id in `parent`; `None` for a document an op
    /// wrote.
    origin: &'a [Option<DocId>],
    /// The parent→new term-id table: the new id of each parent term, once
    /// it has been looked up or interned ([`UNMAPPED`] before).
    new_id: Vec<TermId>,
}

impl Reuse<'_> {
    /// New document `i`'s `(term, tf)` pairs and length, remapped from its
    /// parent document `j`; `None` sends it to a fresh analysis.
    ///
    /// The remap interns `j`'s terms that are new to the vocabulary in
    /// ascending parent id. That is the order they first occur in `j` if
    /// the parent first saw each of them in `j` (their postings start
    /// there), and need not be otherwise. So `j` is reused only if each of
    /// its terms is already in the vocabulary or was first seen in `j`: the
    /// first-home rule of [`crate::generation`].
    fn remap(&mut self, i: usize, vocab: &mut Vocabulary) -> Option<(Vec<(TermId, u32)>, u32)> {
        let j = self.origin[i]?;
        let parent = self.parent;
        let terms = parent.doc_terms(j);
        for &(p, _) in terms {
            let slot = &mut self.new_id[p as usize];
            if *slot != UNMAPPED {
                continue;
            }
            match vocab.id(parent.vocab.term(p)?) {
                Some(id) => *slot = id,
                None if parent.first_doc(p) == Some(j) => {}
                None => return None,
            }
        }
        // Every term still unmapped is new and first seen in `j`, and
        // `terms` is sorted by parent id: intern in first-occurrence order.
        let mut remapped: Vec<(TermId, u32)> = terms
            .iter()
            .map(|&(p, tf)| {
                let slot = &mut self.new_id[p as usize];
                if *slot == UNMAPPED {
                    *slot = vocab.intern(parent.vocab.term(p).unwrap_or_default());
                }
                (*slot, tf)
            })
            .collect();
        remapped.sort_unstable_by_key(|&(t, _)| t);
        Some((remapped, parent.doc_len(j)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_index() -> InvertedIndex {
        InvertedIndex::build(
            vec![
                Document::from_body("covid outbreak spreads in the city"),
                Document::from_body("the city council meets today"),
                Document::from_body("covid vaccines arrive in the city"),
            ],
            Analyzer::english(),
        )
    }

    #[test]
    fn builds_and_counts() {
        let idx = small_index();
        assert_eq!(idx.num_docs(), 3);
        assert_eq!(idx.doc_freq_str("covid"), 2);
        assert_eq!(idx.doc_freq_str("citi"), 3);
        assert_eq!(idx.doc_freq_str("nonexistent"), 0);
    }

    #[test]
    fn postings_are_ordered_by_doc() {
        let idx = small_index();
        let covid = idx.vocabulary().id("covid").unwrap();
        let p: Vec<Posting> = idx.postings(covid).collect();
        assert_eq!(p.len(), 2);
        assert!(p[0].doc < p[1].doc);
        assert!(p.iter().all(|x| x.tf == 1));
    }

    #[test]
    fn doc_lengths_exclude_stopwords() {
        let idx = small_index();
        // "covid outbreak spreads in the city" -> covid outbreak spread citi
        assert_eq!(idx.doc_len(DocId(0)), 4);
    }

    #[test]
    fn term_freq_lookup() {
        let idx = InvertedIndex::build(
            vec![Document::from_body("covid covid covid outbreak")],
            Analyzer::english(),
        );
        let covid = idx.vocabulary().id("covid").unwrap();
        assert_eq!(idx.term_freq(DocId(0), covid), 3);
        let outbreak = idx.vocabulary().id("outbreak").unwrap();
        assert_eq!(idx.term_freq(DocId(0), outbreak), 1);
    }

    #[test]
    fn stats_snapshot_consistent() {
        let idx = small_index();
        let stats = idx.stats();
        assert_eq!(stats.num_docs, 3);
        let sum_lens: u64 = (0..3).map(|i| idx.doc_len(DocId(i)) as u64).sum();
        assert_eq!(stats.total_terms, sum_lens);
        // df of every term equals its postings length.
        for (tid, _) in idx.vocabulary().iter() {
            assert_eq!(stats.df(tid) as usize, idx.postings(tid).count());
        }
    }

    #[test]
    fn analyze_query_drops_unknown_terms() {
        let idx = small_index();
        let q = idx.analyze_query("covid zebra outbreak");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn analyze_adhoc_reports_full_length() {
        let idx = small_index();
        let (terms, len) = idx.analyze_adhoc("covid zebra zebra outbreak");
        assert_eq!(len, 4);
        let known: u32 = terms.iter().map(|&(_, tf)| tf).sum();
        assert_eq!(known, 2);
    }

    #[test]
    fn term_bounds_track_postings_extremes() {
        let idx = InvertedIndex::build(
            vec![
                Document::from_body("covid covid covid outbreak response teams"),
                Document::from_body("covid outbreak"),
            ],
            Analyzer::english(),
        );
        let covid = idx.vocabulary().id("covid").unwrap();
        let b = idx.term_bound(covid);
        assert_eq!(b.max_tf, 3);
        assert_eq!(b.min_doc_len, 2);
        assert!((b.min_norm_len - 2.0 / idx.stats().avg_doc_len()).abs() < 1e-15);
        assert_eq!(idx.term_bound(9999), TermBound::EMPTY);
    }

    #[test]
    fn norm_len_matches_stats() {
        let idx = small_index();
        for d in idx.doc_ids() {
            let expected = idx.doc_len(d) as f64 / idx.stats().avg_doc_len();
            assert_eq!(idx.norm_len(d), expected);
        }
        assert_eq!(idx.norm_len(DocId(99)), 0.0);
    }

    #[test]
    fn block_size_never_changes_the_postings_view() {
        let docs = || {
            (0..50)
                .map(|i| {
                    Document::from_body(match i % 3 {
                        0 => "covid outbreak covid city",
                        1 => "city council meets",
                        _ => "covid vaccines arrive",
                    })
                })
                .collect::<Vec<_>>()
        };
        let reference = InvertedIndex::build(docs(), Analyzer::english());
        for bs in [1usize, 2, 3, 7, 64, 4096] {
            let idx = InvertedIndex::build_with_block_size(docs(), Analyzer::english(), bs);
            for (tid, _) in reference.vocabulary().iter() {
                assert!(idx.postings(tid).eq(reference.postings(tid)), "bs={bs}");
                assert_eq!(idx.postings_len(tid), reference.postings(tid).count());
                assert_eq!(idx.term_bound(tid), reference.term_bound(tid));
            }
        }
    }

    #[test]
    fn compressed_postings_expose_block_metadata() {
        let idx = InvertedIndex::build_with_block_size(
            (0..10)
                .map(|_| Document::from_body("covid outbreak"))
                .collect(),
            Analyzer::english(),
            4,
        );
        let covid = idx.vocabulary().id("covid").unwrap();
        let c = idx.compressed_postings(covid).unwrap();
        assert_eq!(c.len(), 10);
        assert_eq!(c.blocks().len(), 3);
        assert_eq!(c.blocks()[2].first_doc, 8);
        assert_eq!(c.blocks()[2].last_doc, 9);
        assert!(idx.compressed_postings(9999).is_none());
    }

    #[test]
    fn empty_corpus() {
        let idx = InvertedIndex::build(vec![], Analyzer::english());
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.stats().avg_doc_len(), 1.0);
        assert!(idx.analyze_query("anything").is_empty());
    }

    #[test]
    fn document_lookup() {
        let idx = small_index();
        assert!(idx.document(DocId(0)).is_some());
        assert!(idx.document(DocId(99)).is_none());
    }
}
