//! Which error each explanation family reports first when a request has
//! two faults at once.
//!
//! Every family but saliency shares one instance check — `k ≥ 1`, the
//! document exists, the query analyses to a term, the document is ranked
//! within `k` — and slots its own parameter checks in at fixed points of
//! it. Clients see only the first error, so that order is API: this table
//! pins it for every family the engine serves.

use credence_core::{
    Budget, CredenceEngine, Edit, EngineConfig, ExplainError, FeatureAttributionConfig,
    QueryAugmentationConfig, QueryReductionConfig, SentenceRemovalConfig, TermRemovalConfig,
};
use credence_index::{Bm25Params, DocId, Document, InvertedIndex};
use credence_rank::Bm25Ranker;
use credence_text::Analyzer;

/// Docs 0–2 rank for "covid outbreak"; doc 3 matches neither term.
fn fixture() -> InvertedIndex {
    InvertedIndex::build(
        vec![
            Document::from_body(
                "The covid outbreak worries everyone. Gardens are quiet this week. \
                 Officials tracked the covid outbreak closely.",
            ),
            Document::from_body("covid outbreak updates arrive hourly for evening readers."),
            Document::from_body("covid outbreak statistics were published this morning."),
            Document::from_body("The annual garden show opened downtown."),
        ],
        Analyzer::english(),
    )
}

/// Every family the engine serves (the structured-edit builder counted
/// apart from the free-form one).
const FAMILIES: [&str; 9] = [
    "sentence-removal",
    "query-augmentation",
    "query-reduction",
    "term-removal",
    "feature-attribution",
    "doc2vec-nearest",
    "cosine-sampled",
    "rerank",
    "builder-edits",
];

/// `family`'s engine entry point with default parameters, reduced to its
/// error.
fn call(
    engine: &CredenceEngine<'_>,
    family: &str,
    query: &str,
    k: usize,
    doc: DocId,
) -> Result<(), ExplainError> {
    match family {
        "sentence-removal" => engine
            .sentence_removal(query, k, doc, &SentenceRemovalConfig::default())
            .map(drop),
        "query-augmentation" => engine
            .query_augmentation(query, k, doc, &QueryAugmentationConfig::default())
            .map(drop),
        "query-reduction" => engine
            .query_reduction(query, k, doc, &QueryReductionConfig::default())
            .map(drop),
        "term-removal" => engine
            .term_removal(query, k, doc, &TermRemovalConfig::default())
            .map(drop),
        "feature-attribution" => engine
            .feature_attribution(query, k, doc, &FeatureAttributionConfig::default())
            .map(drop),
        "doc2vec-nearest" => engine.doc2vec_nearest(query, k, doc, 2).map(drop),
        "cosine-sampled" => engine.cosine_sampled(query, k, doc, 2, None).map(drop),
        "rerank" => engine
            .builder_rerank_budgeted(query, k, doc, "an edited body", &Budget::unlimited())
            .map(drop),
        "builder-edits" => engine
            .builder_edits(query, k, doc, &[Edit::remove("covid")])
            .map(drop),
        other => unreachable!("unknown family {other}"),
    }
}

#[test]
fn each_family_reports_its_first_error_on_two_faults() {
    let index = fixture();
    let ranker = Bm25Ranker::new(&index, Bm25Params::default());
    let engine = CredenceEngine::new(&ranker, EngineConfig::fast());
    let missing = DocId(99);
    let k_error = ExplainError::InvalidParameter("k must be at least 1");

    for family in FAMILIES {
        // `k = 0` with a missing doc: `k` is checked first.
        assert_eq!(
            call(&engine, family, "covid outbreak", 0, missing),
            Err(k_error.clone()),
            "{family}: k = 0 with a missing doc"
        );
        // A missing doc with an empty query: the doc is checked first.
        assert_eq!(
            call(&engine, family, "zzz qqq", 2, missing),
            Err(ExplainError::DocNotFound(missing)),
            "{family}: missing doc with an empty query"
        );
    }

    let cases: Vec<(&str, Result<(), ExplainError>, ExplainError)> = vec![
        (
            "query-augmentation threshold = 0 with k = 0",
            engine
                .query_augmentation(
                    "covid outbreak",
                    0,
                    DocId(0),
                    &QueryAugmentationConfig {
                        threshold: 0,
                        ..Default::default()
                    },
                )
                .map(drop),
            k_error.clone(),
        ),
        (
            "feature-attribution samples = 0 with a missing doc",
            engine
                .feature_attribution(
                    "covid outbreak",
                    2,
                    missing,
                    &FeatureAttributionConfig {
                        samples: 0,
                        ..Default::default()
                    },
                )
                .map(drop),
            ExplainError::InvalidParameter("samples must be at least 1"),
        ),
        (
            "query-reduction one-term query for an unranked doc",
            engine
                .query_reduction("covid", 2, DocId(3), &QueryReductionConfig::default())
                .map(drop),
            ExplainError::InvalidParameter(
                "query reduction needs at least two distinct query terms",
            ),
        ),
        (
            "builder-edits k = 0 with a missing doc",
            engine
                .builder_edits("covid outbreak", 0, missing, &[Edit::remove("covid")])
                .map(drop),
            k_error.clone(),
        ),
        (
            "cosine-sampled samples = 0 with k = 0",
            engine
                .cosine_sampled("covid outbreak", 0, DocId(0), 2, Some(0))
                .map(drop),
            ExplainError::InvalidParameter("samples must be at least 1"),
        ),
        (
            "rerank spent deadline with k = 0",
            engine
                .builder_rerank_budgeted(
                    "covid outbreak",
                    0,
                    DocId(0),
                    "an edited body",
                    &Budget::unlimited().with_deadline_ms(0),
                )
                .map(drop),
            ExplainError::DeadlineExceeded,
        ),
        (
            "query-augmentation threshold = 0 for an unranked doc",
            engine
                .query_augmentation(
                    "covid outbreak",
                    2,
                    DocId(3),
                    &QueryAugmentationConfig {
                        threshold: 0,
                        ..Default::default()
                    },
                )
                .map(drop),
            ExplainError::InvalidParameter("threshold must be at least 1"),
        ),
    ];
    for (case, got, expected) in cases {
        assert_eq!(got, Err(expected), "{case}");
    }
}
