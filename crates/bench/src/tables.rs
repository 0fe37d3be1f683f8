//! Quantitative tables (T-QUAL, T-SCALE, T-ABLATE, T-INST, T-GRAIN,
//! T-SALIENCY, T-AGREE).
//!
//! The demo paper prints no numeric tables; these are the standard
//! counterfactual-explanation metrics its claims gesture at (validity,
//! minimality, search effort, latency), measured over the demo corpus and
//! synthetic corpora. Each table prints its rows and returns the
//! [`Check`]s that state its claim, as the figures do; millisecond columns
//! are printed but never checked.

use std::time::Duration;

use credence_core::metrics::{certify_minimality, verify_sentence_removal};
use credence_core::{
    cosine_sampled, doc2vec_nearest, explain_query_augmentation, explain_sentence_removal,
    CandidateOrdering, CosineSampledConfig, QueryAugmentationConfig, SentenceRemovalConfig,
};
use credence_embed::{Doc2Vec, Doc2VecConfig};
use credence_index::{Bm25Params, DocId, InvertedIndex};
use credence_rank::{
    rank_corpus, Bm25Ranker, NeuralSimConfig, NeuralSimRanker, QlSmoothing, QueryLikelihoodRanker,
    Ranker,
};

use crate::{ms, print_table, synth_index, timed, Check, DemoSetup};

/// Train a doc2vec model matching `index`, with cheap parameters.
fn train_doc2vec(index: &InvertedIndex) -> Doc2Vec {
    let analyzer = index.analyzer();
    let seqs: Vec<Vec<usize>> = index
        .documents()
        .iter()
        .map(|d| {
            analyzer
                .analyze(&d.body)
                .iter()
                .filter_map(|t| index.vocabulary().id(t).map(|x| x as usize))
                .collect()
        })
        .collect();
    Doc2Vec::train(
        &seqs,
        index.vocabulary().len(),
        &Doc2VecConfig {
            dim: 32,
            epochs: 20,
            ..Default::default()
        },
    )
}

/// The neural-sim ranker the model-comparison tables use, cheaply trained.
fn neural_sim(index: &InvertedIndex) -> NeuralSimRanker<'_> {
    NeuralSimRanker::train(
        index,
        NeuralSimConfig {
            embedding: credence_embed::Word2VecConfig {
                dim: 32,
                epochs: 3,
                ..Default::default()
            },
            ..NeuralSimConfig::default()
        },
    )
}

/// T-QUAL: validity, perturbation size, search effort and latency of the
/// two generative explainers across three ranking models.
pub fn quality() -> Vec<Check> {
    println!("\n=== T-QUAL: counterfactual quality across black-box rankers ===");
    let setup = DemoSetup::build();
    let index = &setup.index;
    let k = setup.demo.k;

    let queries = [
        "covid outbreak",
        "covid vaccine",
        "outbreak school",
        "5g network",
    ];

    let bm25 = Bm25Ranker::new(index, Bm25Params::default());
    let ql = QueryLikelihoodRanker::new(index, QlSmoothing::default());
    let neural = neural_sim(index);
    let rankers: Vec<&dyn Ranker> = vec![&bm25, &ql, &neural];

    let mut rows = Vec::new();
    let mut checks = Vec::new();
    for ranker in rankers {
        // Cases are picked per ranker so every case is explainable.
        let cases: Vec<(&str, DocId)> = queries
            .iter()
            .filter_map(|&q| {
                let ranking = rank_corpus(ranker, q);
                let top = ranking.top_k(k);
                (top.len() >= 2).then(|| (q, *top.last().unwrap()))
            })
            .collect();

        // Sentence removal.
        let mut sr_valid = 0usize;
        let mut sr_verified = 0usize;
        let mut sr_explanations = 0usize;
        let mut sr_size = 0usize;
        let mut sr_evals = 0usize;
        let mut sr_time = Duration::ZERO;
        // Query augmentation.
        let mut qa_valid = 0usize;
        let mut qa_size = 0usize;
        let mut qa_evals = 0usize;
        let mut qa_time = Duration::ZERO;

        for &(q, doc) in &cases {
            let ranking = rank_corpus(ranker, q);
            let (sr, t) = timed(|| {
                explain_sentence_removal(
                    ranker,
                    q,
                    k,
                    doc,
                    &SentenceRemovalConfig::default(),
                    &ranking,
                    None,
                )
            });
            sr_time += t;
            if let Ok(sr) = sr {
                sr_evals += sr.candidates_evaluated;
                for e in &sr.explanations {
                    sr_explanations += 1;
                    sr_verified += usize::from(verify_sentence_removal(ranker, q, k, doc, e));
                }
                if let Some(e) = sr.explanations.first() {
                    sr_valid += 1;
                    sr_size += e.removed.len();
                }
            }

            let old_rank = ranking.rank_of(doc).unwrap_or(1);
            if old_rank > 1 {
                let (qa, t) = timed(|| {
                    explain_query_augmentation(
                        ranker,
                        q,
                        k,
                        doc,
                        &QueryAugmentationConfig {
                            n: 1,
                            threshold: old_rank - 1,
                            ..Default::default()
                        },
                        &ranking,
                    )
                });
                qa_time += t;
                if let Ok(qa) = qa {
                    qa_evals += qa.candidates_evaluated;
                    if let Some(e) = qa.explanations.first() {
                        qa_valid += 1;
                        qa_size += e.terms.len();
                    }
                }
            }
        }

        let n = cases.len().max(1);
        let name = ranker.name();
        rows.push(vec![
            name.to_string(),
            format!("{}/{}", sr_valid, n),
            format!("{:.1}", sr_size as f64 / sr_valid.max(1) as f64),
            format!("{:.0}", sr_evals as f64 / n as f64),
            ms(sr_time / n as u32),
            format!("{}/{}", qa_valid, n),
            format!("{:.1}", qa_size as f64 / qa_valid.max(1) as f64),
            format!("{:.0}", qa_evals as f64 / n as f64),
            ms(qa_time / n as u32),
        ]);
        checks.push(Check::new(
            format!("{name}: sentence removal and query augmentation each find a counterfactual"),
            format!("SR {sr_valid}/{n}, QA {qa_valid}/{n}"),
            sr_valid > 0 && qa_valid > 0,
        ));
        checks.push(Check::new(
            format!("{name}: every sentence-removal explanation re-verifies against the model"),
            format!("{sr_verified}/{sr_explanations} verified"),
            sr_verified == sr_explanations,
        ));
    }
    print_table(
        "explainer quality per ranker (demo corpus, k = 10; ms host-dependent)",
        &[
            "ranker",
            "SR valid",
            "SR |P|",
            "SR evals",
            "SR ms",
            "QA valid",
            "QA |terms|",
            "QA evals",
            "QA ms",
        ],
        &rows,
    );
    checks
}

/// T-SCALE: latency versus corpus size for indexing, ranking, and every
/// explainer, plus Doc2Vec training cost. Only that every explainer
/// answers is checked; the times depend on the host.
pub fn scaling() -> Vec<Check> {
    println!("\n=== T-SCALE: latency vs corpus size (synthetic corpora) ===");
    let mut rows = Vec::new();
    let mut checks = Vec::new();
    for &num_docs in &[100usize, 300, 1000] {
        let ((corpus, index), t_index) = timed(|| synth_index(num_docs, 7));
        let ranker = Bm25Ranker::new(&index, Bm25Params::default());
        let query = corpus.topic_query(0, 3);
        let k = 10;

        let (ranking, t_rank) = timed(|| rank_corpus(&ranker, &query));
        let doc = *ranking.top_k(k).last().expect("synthetic corpus matches");

        let (sr, t_sr) = timed(|| {
            explain_sentence_removal(
                &ranker,
                &query,
                k,
                doc,
                &SentenceRemovalConfig::default(),
                &rank_corpus(&ranker, &query),
                None,
            )
        });
        let old_rank = ranking.rank_of(doc).unwrap();
        let (qa, t_qa) = timed(|| {
            explain_query_augmentation(
                &ranker,
                &query,
                k,
                doc,
                &QueryAugmentationConfig {
                    n: 1,
                    threshold: (old_rank - 1).max(1),
                    ..Default::default()
                },
                &rank_corpus(&ranker, &query),
            )
        });
        let (cs, t_cs) = timed(|| {
            cosine_sampled(
                &ranker,
                &query,
                k,
                doc,
                3,
                &CosineSampledConfig {
                    samples: 100,
                    ..Default::default()
                },
                &rank_corpus(&ranker, &query),
            )
        });
        let (model, t_d2v) = timed(|| train_doc2vec(&index));
        let (nn, t_nn) = timed(|| {
            let ranking = rank_corpus(&ranker, &query);
            doc2vec_nearest(&ranker, &model, &query, k, doc, 3, &ranking)
        });

        rows.push(vec![
            format!("{num_docs}"),
            ms(t_index),
            ms(t_rank),
            ms(t_sr),
            ms(t_qa),
            ms(t_cs),
            format!("{:.0}", t_d2v.as_secs_f64() * 1e3),
            ms(t_nn),
        ]);
        let failed: Vec<&str> = [
            ("sent-rm", sr.is_ok()),
            ("query-aug", qa.is_ok()),
            ("cos-sampled", cs.is_ok()),
            ("d2v-nn", nn.is_ok()),
        ]
        .into_iter()
        .filter(|&(_, ok)| !ok)
        .map(|(name, _)| name)
        .collect();
        checks.push(Check::new(
            format!("every explainer answers at {num_docs} documents"),
            if failed.is_empty() {
                "all 4 answered".to_string()
            } else {
                format!("failed: {failed:?}")
            },
            failed.is_empty(),
        ));
    }
    print_table(
        "latency (ms, host-dependent) vs corpus size",
        &[
            "docs",
            "index",
            "rank",
            "sent-rm",
            "query-aug",
            "cos-sampled",
            "d2v-train",
            "d2v-nn",
        ],
        &rows,
    );
    checks
}

/// T-ABLATE: the importance-guided candidate ordering versus random and
/// adversarial orderings — candidates evaluated until the first valid
/// counterfactual.
pub fn ablation() -> Vec<Check> {
    println!("\n=== T-ABLATE: candidate-ordering ablation ===");
    let setup = DemoSetup::build();
    let ranker = setup.ranker();
    let fake = DocId(setup.demo.fake_news as u32);
    let (query, k) = (setup.demo.query, setup.demo.k);
    let ranking = rank_corpus(&ranker, query);

    // The paper's ordering first; every other row is compared with it.
    let orderings: Vec<(&str, CandidateOrdering)> = vec![
        (
            "importance-guided (paper)",
            CandidateOrdering::ImportanceGuided,
        ),
        ("reverse (adversarial)", CandidateOrdering::Reverse),
        ("shuffled seed=1", CandidateOrdering::Shuffled(1)),
        ("shuffled seed=2", CandidateOrdering::Shuffled(2)),
        ("shuffled seed=3", CandidateOrdering::Shuffled(3)),
    ];

    let cell = |v: Option<usize>| v.map_or_else(|| "not found".to_string(), |v| v.to_string());
    let mut rows = Vec::new();
    // Per ordering: (SR evals, SR size, QA evals), `None` when not found.
    let mut found: Vec<(Option<usize>, Option<usize>, Option<usize>)> = Vec::new();
    for (label, ordering) in &orderings {
        let sr = explain_sentence_removal(
            &ranker,
            query,
            k,
            fake,
            &SentenceRemovalConfig {
                n: 1,
                ordering: *ordering,
                ..Default::default()
            },
            &ranking,
            None,
        )
        .expect("ablation sr");
        let qa = explain_query_augmentation(
            &ranker,
            query,
            k,
            fake,
            &QueryAugmentationConfig {
                n: 1,
                threshold: 1,
                ordering: *ordering,
                ..Default::default()
            },
            &ranking,
        )
        .expect("ablation qa");
        let sr_first = sr.explanations.first();
        let row = (
            sr_first.map(|e| e.candidates_evaluated),
            sr_first.map(|e| e.removed.len()),
            qa.explanations.first().map(|e| e.candidates_evaluated),
        );
        rows.push(vec![
            label.to_string(),
            cell(row.0),
            cell(row.1),
            cell(row.2),
        ]);
        found.push(row);
    }
    print_table(
        "candidates evaluated until first valid counterfactual (demo fake-news article)",
        &["ordering", "SR evals", "SR |P|", "QA evals"],
        &rows,
    );

    // The guided ordering must find one, and evaluate no more candidates
    // than any other ordering (one that finds none evaluates them all).
    let fewest = |evals: Vec<Option<usize>>| {
        let passed = evals[0].is_some_and(|guided| {
            evals[1..]
                .iter()
                .all(|other| other.is_none_or(|other| guided <= other))
        });
        let others: Vec<String> = evals[1..].iter().map(|&v| cell(v)).collect();
        (
            format!("{} vs {}", cell(evals[0]), others.join(", ")),
            passed,
        )
    };
    let (sr_measured, sr_passed) = fewest(found.iter().map(|r| r.0).collect());
    let (qa_measured, qa_passed) = fewest(found.iter().map(|r| r.2).collect());
    let sizes: Vec<Option<usize>> = found.iter().map(|r| r.1).collect();
    let size_cells: Vec<String> = sizes.iter().map(|&v| cell(v)).collect();
    vec![
        Check::new(
            "sentence removal: importance-guided evaluates no more candidates than reverse or shuffled",
            sr_measured,
            sr_passed,
        ),
        Check::new(
            "query augmentation: importance-guided evaluates no more candidates than reverse or shuffled",
            qa_measured,
            qa_passed,
        ),
        Check::new(
            "every ordering's first sentence-removal set has the same size",
            size_cells.join(", "),
            sizes[0].is_some() && sizes.iter().all(|&s| s == sizes[0]),
        ),
    ]
}

/// T-INST: Doc2Vec-nearest vs cosine-sampled — the top instance, and the
/// effect of the sample size `s`. The `s = 10` row is printed, not claimed.
pub fn instances() -> Vec<Check> {
    println!("\n=== T-INST: instance-based explainer comparison ===");
    let setup = DemoSetup::build();
    let ranker = setup.ranker();
    let fake = DocId(setup.demo.fake_news as u32);
    let dup = DocId(setup.demo.near_duplicate as u32);
    let (query, k) = (setup.demo.query, setup.demo.k);
    let model = train_doc2vec(&setup.index);
    let ranking = rank_corpus(&ranker, query);

    let n = 5;
    let (d2v, t_d2v) = timed(|| {
        doc2vec_nearest(&ranker, &model, query, k, fake, n, &ranking).expect("d2v instances")
    });

    let mut rows = vec![vec![
        "doc2vec-nearest".into(),
        "-".into(),
        format!("{}", d2v[0].doc),
        format!("{:.2}", d2v[0].similarity),
        ms(t_d2v),
    ]];
    let mut checks = vec![Check::new(
        "doc2vec-nearest puts the near-duplicate first",
        format!("doc {} (near-duplicate: doc {dup})", d2v[0].doc),
        d2v[0].doc == dup,
    )];
    for &s in &[10usize, 30, 100, 1000] {
        let (cs, t) = timed(|| {
            cosine_sampled(
                &ranker,
                query,
                k,
                fake,
                n,
                &CosineSampledConfig {
                    samples: s,
                    ..Default::default()
                },
                &ranking,
            )
            .expect("cosine instances")
        });
        rows.push(vec![
            "cosine-sampled".into(),
            format!("{s}"),
            format!("{}", cs[0].doc),
            format!("{:.2}", cs[0].similarity),
            ms(t),
        ]);
        if s >= 30 {
            checks.push(Check::new(
                format!("cosine-sampled at s = {s} puts the near-duplicate first"),
                format!("doc {}", cs[0].doc),
                cs[0].doc == dup,
            ));
        }
    }
    print_table(
        "top instance per method (demo fake-news article; ms host-dependent)",
        &["method", "s", "top instance", "similarity", "ms"],
        &rows,
    );
    checks
}

/// T-GRAIN: sentence-level vs term-level counterfactual documents — the
/// granularity trade-off §II-C motivates.
pub fn granularity() -> Vec<Check> {
    use credence_core::{explain_term_removal, TermRemovalConfig};
    use credence_text::tokenize;
    println!("\n=== T-GRAIN: perturbation granularity (sentence vs term removal) ===");
    let setup = DemoSetup::build();
    let ranker = setup.ranker();
    let fake = DocId(setup.demo.fake_news as u32);
    let (query, k) = (setup.demo.query, setup.demo.k);
    let ranking = rank_corpus(&ranker, query);
    let total_tokens = tokenize(&setup.index.document(fake).unwrap().body).len();

    let (sr, t_sr) = timed(|| {
        explain_sentence_removal(
            &ranker,
            query,
            k,
            fake,
            &SentenceRemovalConfig::default(),
            &ranking,
            None,
        )
        .expect("sr")
    });
    let (tr, t_tr) = timed(|| {
        explain_term_removal(
            &ranker,
            query,
            k,
            fake,
            &TermRemovalConfig::default(),
            &ranking,
            None,
        )
        .expect("tr")
    });
    let (s, t) = (&sr.explanations[0], &tr.explanations[0]);
    let sr_tokens: usize = s.removed_text.iter().map(|t| tokenize(t).len()).sum();
    let tr_tokens = total_tokens - tokenize(&t.perturbed_body).len();

    let rows = vec![
        vec![
            "sentence removal".into(),
            format!("{} sentences", s.removed.len()),
            format!("{sr_tokens}/{total_tokens} tokens"),
            format!("{}", s.candidates_evaluated),
            format!("{}", s.new_rank),
            ms(t_sr),
        ],
        vec![
            "term removal".into(),
            format!("{} terms {:?}", t.removed_terms.len(), t.removed_terms),
            format!("{tr_tokens}/{total_tokens} tokens"),
            format!("{}", t.candidates_evaluated),
            format!("{}", t.new_rank),
            ms(t_tr),
        ],
    ];
    print_table(
        "granularity trade-off on the demo fake-news article (ms host-dependent)",
        &["granularity", "size", "removed", "evals", "new rank", "ms"],
        &rows,
    );
    vec![
        Check::new(
            format!("sentence removal pushes the article past k = {k}"),
            format!("rank {}", s.new_rank),
            s.new_rank > k,
        ),
        Check::new(
            format!("term removal pushes the article past k = {k}"),
            format!("rank {}", t.new_rank),
            t.new_rank > k,
        ),
        Check::new(
            "term removal deletes fewer tokens than sentence removal",
            format!("{tr_tokens} vs {sr_tokens}"),
            tr_tokens < sr_tokens,
        ),
    ]
}

/// T-SALIENCY: occlusion saliency vs counterfactuals — does the top-saliency
/// set suffice to change the ranking?
pub fn saliency_comparison() -> Vec<Check> {
    use credence_core::{explain_saliency, SaliencyUnit};
    use credence_rank::rerank_pool;
    println!("\n=== T-SALIENCY: saliency baseline vs counterfactual explanations ===");
    let setup = DemoSetup::build();
    let ranker = setup.ranker();
    let fake = DocId(setup.demo.fake_news as u32);
    let (query, k) = (setup.demo.query, setup.demo.k);
    let ranking = rank_corpus(&ranker, query);

    let saliency =
        explain_saliency(&ranker, query, fake, SaliencyUnit::Sentence).expect("saliency");
    let sr = explain_sentence_removal(
        &ranker,
        query,
        k,
        fake,
        &SentenceRemovalConfig::default(),
        &ranking,
        None,
    )
    .expect("sr");
    let cf = &sr.explanations[0];
    let minimal = certify_minimality(&ranker, query, k, fake, cf);

    let pool = ranking.top_k(k.saturating_add(1));
    let sentences = credence_text::split_sentences(&setup.index.document(fake).unwrap().body);

    // Remove the top-m saliency sentences; at what m does the ranking flip?
    let mut rows = Vec::new();
    let mut top1_rank = 0;
    for m in 1..=3usize {
        let mut removed: Vec<usize> = saliency.weights.iter().take(m).map(|w| w.index).collect();
        removed.sort_unstable();
        let body: String = sentences
            .iter()
            .filter(|s| !removed.contains(&s.index))
            .map(|s| s.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        let new_rank = rerank_pool(&ranker, query, &pool, Some((fake, &body)))
            .into_iter()
            .find(|r| r.substituted)
            .map(|r| r.new_rank)
            .unwrap_or(0);
        if m == 1 {
            top1_rank = new_rank;
        }
        rows.push(vec![
            format!("top-{m} saliency sentences"),
            format!("{removed:?}"),
            format!("{new_rank}"),
            (new_rank > k).to_string(),
        ]);
    }
    rows.push(vec![
        "counterfactual (minimal)".into(),
        format!("{:?}", cf.removed),
        format!("{}", cf.new_rank),
        "true".into(),
    ]);
    print_table(
        "removing top-saliency sentences vs the counterfactual set",
        &["strategy", "sentences removed", "new rank", "past k"],
        &rows,
    );
    vec![
        Check::new(
            format!(
                "the top-1 saliency sentence alone leaves the article within k = {k}, at rank 10"
            ),
            format!("rank {top1_rank}"),
            top1_rank == 10,
        ),
        Check::new(
            "the counterfactual search's set moves the article to rank 11",
            format!("{:?} -> rank {}", cf.removed, cf.new_rank),
            cf.new_rank == 11,
        ),
        Check::new(
            "the counterfactual search's set passes certify_minimality",
            format!("{minimal}"),
            minimal,
        ),
    ]
}

/// T-AGREE: how much the black-box models disagree (why explanations are
/// model-specific).
pub fn ranker_agreement() -> Vec<Check> {
    use credence_core::metrics::{jaccard_at_k, kendall_tau};
    println!("\n=== T-AGREE: ranking agreement between black-box models ===");
    let setup = DemoSetup::build();
    let index = &setup.index;
    let bm25 = Bm25Ranker::new(index, Bm25Params::default());
    let ql = QueryLikelihoodRanker::new(index, QlSmoothing::default());
    let neural = neural_sim(index);
    let models: Vec<(&str, &dyn Ranker)> = vec![
        ("bm25", &bm25),
        ("ql-dirichlet", &ql),
        ("neural-sim", &neural),
    ];
    let queries = ["covid outbreak", "covid vaccine", "5g network"];

    let mut rows = Vec::new();
    let mut checks = Vec::new();
    for i in 0..models.len() {
        for j in i + 1..models.len() {
            let mut taus = Vec::new();
            let mut jaccards = Vec::new();
            for q in &queries {
                let a = rank_corpus(models[i].1, q);
                let b = rank_corpus(models[j].1, q);
                if let Some(t) = kendall_tau(&a, &b) {
                    taus.push(t);
                }
                jaccards.push(jaccard_at_k(&a, &b, 10));
            }
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            let (tau, jaccard) = (mean(&taus), mean(&jaccards));
            let pair = format!("{} vs {}", models[i].0, models[j].0);
            rows.push(vec![
                pair.clone(),
                format!("{tau:.2}"),
                format!("{jaccard:.2}"),
            ]);
            checks.push(Check::new(
                format!("{pair}: 0 < mean Kendall tau < 1 and Jaccard@10 < 1"),
                format!(
                    "tau {tau:.2} over {} queries, Jaccard@10 {jaccard:.2}",
                    taus.len()
                ),
                !taus.is_empty() && tau > 0.0 && tau < 1.0 && jaccard < 1.0,
            ));
        }
    }
    print_table(
        "agreement over 3 demo queries",
        &["model pair", "kendall tau", "jaccard@10"],
        &rows,
    );
    checks
}
