//! Scale smoke tests: the full pipeline stays interactive on a corpus an
//! order of magnitude larger than the demo, and the parallel ranking path
//! agrees with the serial one end to end.

use std::time::Instant;

use credence_core::{
    explain_query_augmentation, explain_sentence_removal, CredenceEngine, EngineConfig,
    QueryAugmentationConfig, SentenceRemovalConfig,
};
use credence_corpus::{SynthConfig, SyntheticCorpus};
use credence_embed::Doc2VecConfig;
use credence_index::{Bm25Params, InvertedIndex};
use credence_rank::{rank_corpus, rank_corpus_scan, Bm25Ranker};
use credence_text::Analyzer;

fn corpus() -> (SyntheticCorpus, InvertedIndex) {
    let corpus = SyntheticCorpus::generate(SynthConfig {
        num_docs: 800,
        seed: 99,
        ..SynthConfig::default()
    });
    let index = InvertedIndex::build(corpus.docs.clone(), Analyzer::english());
    (corpus, index)
}

#[test]
fn explainers_stay_interactive_at_scale() {
    let (corpus, index) = corpus();
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    let query = corpus.topic_query(2, 3);
    let k = 10;

    let start = Instant::now();
    let ranking = rank_corpus(&ranker, &query);
    let doc = *ranking.top_k(k).last().expect("matches exist");

    let sr = explain_sentence_removal(
        &ranker,
        &query,
        k,
        doc,
        &SentenceRemovalConfig::default(),
        &ranking,
        None,
    )
    .expect("sr at scale");
    let old_rank = ranking.rank_of(doc).unwrap();
    if old_rank > 1 {
        let _ = explain_query_augmentation(
            &ranker,
            &query,
            k,
            doc,
            &QueryAugmentationConfig {
                n: 1,
                threshold: old_rank - 1,
                ..Default::default()
            },
            &ranking,
        )
        .expect("qa at scale");
    }
    // Generous bound: the whole flow (rank + two explainers) in debug mode
    // stays well under interactive latency budgets.
    assert!(
        start.elapsed().as_secs() < 30,
        "pipeline too slow: {:?}",
        start.elapsed()
    );
    // Any explanation found must be valid.
    for e in &sr.explanations {
        assert!(e.new_rank > k);
    }
}

#[test]
fn parallel_and_serial_rankings_agree_at_scale() {
    let (corpus, index) = corpus();
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    for topic in 0..3 {
        let query = corpus.topic_query(topic, 2);
        let serial = rank_corpus_scan(&ranker, &query, 1, None);
        let parallel = rank_corpus_scan(&ranker, &query, 8, None);
        assert_eq!(serial.entries(), parallel.entries(), "topic {topic}");
        let retrieved = rank_corpus(&ranker, &query);
        assert_eq!(serial.entries(), retrieved.entries(), "topic {topic}");
    }
}

#[test]
fn engine_with_parallel_threshold_explains_at_scale() {
    let (corpus, index) = corpus();
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    let engine = CredenceEngine::new(
        &ranker,
        EngineConfig {
            parallel_threshold: 100, // force the parallel path
            doc2vec: Doc2VecConfig {
                dim: 8,
                epochs: 1,
                infer_epochs: 2,
                ..Doc2VecConfig::default()
            },
            ..EngineConfig::fast()
        },
    );
    let query = corpus.topic_query(1, 3);
    let rows = engine.rank(&query, 10);
    assert_eq!(rows.len(), 10);
    assert_eq!(engine.cached_queries(), 0, "a rank miss caches nothing");
    // A rank served from the cached whole-corpus ranking returns identical
    // rows.
    engine.full_ranking(&query);
    let again = engine.rank(&query, 10);
    assert_eq!(rows, again);
    assert_eq!(engine.cached_queries(), 1);
}
