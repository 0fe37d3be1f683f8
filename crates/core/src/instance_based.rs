//! Instance-based counterfactual explanations (§II-E).
//!
//! > "a valid explanation for a relevant document identifies a non-relevant
//! > document with a high degree of similarity"
//!
//! Two variants, as in the paper:
//!
//! * [`doc2vec_nearest`] — train a Doc2Vec (PV-DBOW) embedding over the
//!   corpus and return the `n` non-relevant documents most similar to the
//!   instance document (*Doc2Vec Nearest* in the UI).
//! * [`cosine_sampled`] — represent documents by their BM25 score vectors,
//!   sample `s` non-relevant documents (rank k+1 and below, including
//!   unranked; ideally `n ≪ s`), and return the `n` most cosine-similar
//!   (*Cosine Sampled* in the UI).
//!
//! Returning *actual corpus documents* sidesteps the plausibility problems
//! of synthetic perturbations: the counterfactual is grammatical and real by
//! construction.

use std::collections::HashSet;

use credence_embed::{nearest_neighbors_quantized, Doc2Vec};
use credence_index::vector::bm25_doc_vector;
use credence_index::{cosine_similarity, Bm25Params, DocId};
use credence_rank::{RankedList, Ranker};
use credence_rng::rngs::StdRng;
use credence_rng::seq::SliceRandom;
use credence_rng::SeedableRng;

use crate::error::{check_instance, ranked_within, ExplainError};
use crate::explanation::InstanceExplanation;

/// Configuration for the cosine-sampled variant.
#[derive(Debug, Clone, Copy)]
pub struct CosineSampledConfig {
    /// Number of non-relevant documents to sample (`s` in the paper).
    pub samples: usize,
    /// BM25 parameters for the score vectors.
    pub bm25: Bm25Params,
    /// Sampling seed (the original tool sampled nondeterministically; a
    /// seed keeps experiments reproducible).
    pub seed: u64,
}

impl Default for CosineSampledConfig {
    fn default() -> Self {
        Self {
            samples: 100,
            bm25: Bm25Params::default(),
            seed: 42,
        }
    }
}

/// Validate the request and return the non-relevant candidate ids.
///
/// Non-relevant = every corpus document outside the top-k of `ranking` (the
/// whole-corpus ranking for `query`: ranked k+1 and below, or not retrieved
/// at all), excluding the instance document itself.
fn non_relevant_candidates(
    ranker: &dyn Ranker,
    query: &str,
    k: usize,
    doc: DocId,
    ranking: &RankedList,
) -> Result<Vec<DocId>, ExplainError> {
    let index = ranker.index();
    check_instance(index, query, k, doc, || Ok(()))?;
    ranked_within(ranking, doc, k)?;
    let top: HashSet<DocId> = ranking.top_k(k).into_iter().collect();
    Ok(index
        .doc_ids()
        .filter(|d| !top.contains(d) && *d != doc)
        .collect())
}

/// *Doc2Vec Nearest*: the `n` non-relevant documents most similar to `doc`
/// in a trained PV-DBOW space.
///
/// The caller supplies the trained model (training is corpus-level and
/// reusable across queries; [`crate::engine::CredenceEngine`] caches it) and
/// the whole-corpus `ranking` for `query` (the engine passes its cached
/// ranking; callers without one pass `&rank_corpus(ranker, query)`). The
/// model must have been trained with one vector per corpus document, in
/// `DocId` order.
pub fn doc2vec_nearest(
    ranker: &dyn Ranker,
    model: &Doc2Vec,
    query: &str,
    k: usize,
    doc: DocId,
    n: usize,
    ranking: &RankedList,
) -> Result<Vec<InstanceExplanation>, ExplainError> {
    let index = ranker.index();
    if model.num_docs() != index.num_docs() {
        return Err(ExplainError::InvalidParameter(
            "doc2vec model does not cover the corpus",
        ));
    }
    let candidates = non_relevant_candidates(ranker, query, k, doc, ranking)?;
    let query_vec = model.doc_vector(doc.index());
    let neighbors = nearest_neighbors_quantized(
        query_vec,
        model.quantized(),
        |d| model.doc_vector(d),
        candidates.iter().map(|d| d.index()),
        n,
    );
    Ok(neighbors
        .into_iter()
        .map(|nb| {
            let d = DocId(nb.item as u32);
            InstanceExplanation {
                doc: d,
                similarity: nb.similarity as f64,
                rank: ranking.rank_of(d),
            }
        })
        .collect())
}

/// *Cosine Sampled*: sample `s` non-relevant documents, compute cosine
/// similarity between BM25 score vectors, and return the best `n`.
/// `ranking` is the whole-corpus ranking for `query`, as for
/// [`doc2vec_nearest`].
pub fn cosine_sampled(
    ranker: &dyn Ranker,
    query: &str,
    k: usize,
    doc: DocId,
    n: usize,
    config: &CosineSampledConfig,
    ranking: &RankedList,
) -> Result<Vec<InstanceExplanation>, ExplainError> {
    if config.samples == 0 {
        return Err(ExplainError::InvalidParameter("samples must be at least 1"));
    }
    let mut candidates = non_relevant_candidates(ranker, query, k, doc, ranking)?;
    let index = ranker.index();

    // Sample without replacement (the whole pool when s >= |pool|).
    let mut rng = StdRng::seed_from_u64(config.seed);
    candidates.shuffle(&mut rng);
    candidates.truncate(config.samples);

    let instance_vec = bm25_doc_vector(index, config.bm25, doc);
    let mut scored: Vec<InstanceExplanation> = candidates
        .into_iter()
        .map(|d| {
            let v = bm25_doc_vector(index, config.bm25, d);
            InstanceExplanation {
                doc: d,
                similarity: cosine_similarity(&instance_vec, &v),
                rank: ranking.rank_of(d),
            }
        })
        .collect();
    scored.sort_by(|a, b| {
        b.similarity
            .partial_cmp(&a.similarity)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.doc.cmp(&b.doc))
    });
    scored.truncate(n);
    Ok(scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use credence_embed::Doc2VecConfig;
    use credence_index::{Document, InvertedIndex};
    use credence_rank::{rank_corpus, Bm25Ranker};
    use credence_text::Analyzer;

    /// [`doc2vec_nearest`] over the per-document reference ranking.
    fn nearest(
        r: &dyn Ranker,
        model: &Doc2Vec,
        query: &str,
        k: usize,
        doc: DocId,
        n: usize,
    ) -> Result<Vec<InstanceExplanation>, ExplainError> {
        doc2vec_nearest(r, model, query, k, doc, n, &rank_corpus(r, query))
    }

    /// [`cosine_sampled`] over the per-document reference ranking.
    fn sampled(
        r: &dyn Ranker,
        query: &str,
        k: usize,
        doc: DocId,
        n: usize,
        config: &CosineSampledConfig,
    ) -> Result<Vec<InstanceExplanation>, ExplainError> {
        cosine_sampled(r, query, k, doc, n, config, &rank_corpus(r, query))
    }

    /// Corpus: two strong covid docs, one conspiratorial covid doc (the
    /// instance), its near-duplicate without the query terms, and noise.
    fn fixture() -> InvertedIndex {
        let mut docs = vec![
            Document::from_body(
                "covid outbreak covid outbreak hospitals respond quickly overnight",
            ),
            Document::from_body("covid outbreak covid updates flow through the newsroom"),
            Document::from_body(
                "the covid outbreak hides a secret microchip plot tracking everyone \
                 through vaccine doses and magnetic arms",
            ),
            Document::from_body(
                "a secret microchip plot tracking everyone through vaccine doses \
                 and magnetic arms revealed",
            ),
        ];
        for i in 0..8 {
            docs.push(Document::from_body(match i % 4 {
                0 => "garden flowers bloom in the quiet spring sunshine every day",
                1 => "the rowing club practices on the river before dawn",
                2 => "housing starts rebound as lumber prices ease this quarter",
                3 => "the city council debates the annual budget on tuesday",
                _ => unreachable!(),
            }));
        }
        InvertedIndex::build(docs, Analyzer::english())
    }

    fn train(idx: &InvertedIndex) -> Doc2Vec {
        let analyzer = idx.analyzer();
        let seqs: Vec<Vec<usize>> = idx
            .documents()
            .iter()
            .map(|d| {
                analyzer
                    .analyze(&d.body)
                    .iter()
                    .filter_map(|t| idx.vocabulary().id(t).map(|x| x as usize))
                    .collect()
            })
            .collect();
        Doc2Vec::train(
            &seqs,
            idx.vocabulary().len(),
            &Doc2VecConfig {
                dim: 24,
                epochs: 40,
                ..Default::default()
            },
        )
    }

    #[test]
    fn doc2vec_nearest_finds_the_near_duplicate() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let model = train(&idx);
        let out = nearest(&r, &model, "covid outbreak", 3, DocId(2), 1).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].doc, DocId(3), "near-duplicate is nearest");
        assert!(out[0].similarity > 0.3, "similarity {}", out[0].similarity);
        assert_eq!(out[0].rank, None, "the duplicate is not retrieved");
    }

    #[test]
    fn cosine_sampled_finds_the_near_duplicate() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let out = sampled(
            &r,
            "covid outbreak",
            3,
            DocId(2),
            1,
            &CosineSampledConfig::default(),
        )
        .unwrap();
        assert_eq!(out[0].doc, DocId(3));
        assert!(out[0].similarity > 0.5);
    }

    #[test]
    fn results_never_include_top_k_or_instance() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let model = train(&idx);
        let ranking = rank_corpus(&r, "covid outbreak");
        let top: Vec<DocId> = ranking.top_k(3);
        for n in [1usize, 3, 10] {
            let out = nearest(&r, &model, "covid outbreak", 3, DocId(2), n).unwrap();
            for e in &out {
                assert!(!top.contains(&e.doc));
                assert_ne!(e.doc, DocId(2));
            }
            let out = sampled(
                &r,
                "covid outbreak",
                3,
                DocId(2),
                n,
                &CosineSampledConfig::default(),
            )
            .unwrap();
            for e in &out {
                assert!(!top.contains(&e.doc));
                assert_ne!(e.doc, DocId(2));
            }
        }
    }

    #[test]
    fn similarities_descend() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let model = train(&idx);
        let out = nearest(&r, &model, "covid outbreak", 3, DocId(2), 5).unwrap();
        assert!(out.windows(2).all(|w| w[0].similarity >= w[1].similarity));
    }

    #[test]
    fn sampling_respects_s_and_seed() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let cfg = CosineSampledConfig {
            samples: 3,
            ..Default::default()
        };
        let a = sampled(&r, "covid outbreak", 3, DocId(2), 3, &cfg).unwrap();
        let b = sampled(&r, "covid outbreak", 3, DocId(2), 3, &cfg).unwrap();
        assert_eq!(a, b, "seeded sampling is deterministic");
        assert!(a.len() <= 3);
        let c = sampled(
            &r,
            "covid outbreak",
            3,
            DocId(2),
            3,
            &CosineSampledConfig {
                seed: 7,
                samples: 3,
                ..Default::default()
            },
        )
        .unwrap();
        // Different seed may sample a different subset (not asserted equal).
        assert!(c.len() <= 3);
    }

    #[test]
    fn non_relevant_instance_is_rejected() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let model = train(&idx);
        // Doc 3 is not retrieved for the query at all.
        let err = nearest(&r, &model, "covid outbreak", 3, DocId(3), 1).unwrap_err();
        assert!(matches!(err, ExplainError::DocNotRelevant { .. }));
    }

    #[test]
    fn parameter_validation() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let model = train(&idx);
        assert!(nearest(&r, &model, "covid outbreak", 0, DocId(2), 1).is_err());
        assert!(nearest(&r, &model, "", 3, DocId(2), 1).is_err());
        assert!(nearest(&r, &model, "covid", 3, DocId(99), 1).is_err());
        assert!(sampled(
            &r,
            "covid outbreak",
            3,
            DocId(2),
            1,
            &CosineSampledConfig {
                samples: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn mismatched_model_rejected() {
        let idx = fixture();
        let r = Bm25Ranker::new(&idx, Bm25Params::default());
        let tiny = Doc2Vec::train(&[vec![0]], 1, &Doc2VecConfig::default());
        let err = nearest(&r, &tiny, "covid outbreak", 3, DocId(2), 1).unwrap_err();
        assert!(matches!(err, ExplainError::InvalidParameter(_)));
    }
}
