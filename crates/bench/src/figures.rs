//! Figure regenerators: one function per figure of the paper.
//!
//! Each regenerator prints what the figure shows and returns its
//! [`Check`]s — the shape assertions that say whether the reproduction
//! matches the published result. The `experiments` binary prints a
//! PASS/FAIL summary from these.

use credence_core::{
    CredenceEngine, Edit, EngineConfig, QueryAugmentationConfig, SentenceRemovalConfig,
};
use credence_index::DocId;
use credence_server::{handle_request, AppState};

use crate::{Check, DemoSetup};

fn engine_over(setup: &DemoSetup) -> (credence_rank::Bm25Ranker<'_>, EngineConfig) {
    (setup.ranker(), EngineConfig::fast())
}

/// Figure 1 — the architecture: every REST endpoint answers in-process.
pub fn fig1() -> Vec<Check> {
    println!("\n=== FIG1: system architecture (REST surface) ===");
    let demo = credence_corpus::covid_demo_corpus();
    let state = AppState::leak(demo.docs.clone(), EngineConfig::fast());
    let fake = demo.fake_news;

    let calls: Vec<(&str, &str, String)> = vec![
        ("GET", "/api/v1/health", String::new()),
        ("GET", "/api/v1/corpus", String::new()),
        ("GET", "/api/v1/doc/0", String::new()),
        (
            "POST",
            "/api/v1/rank",
            r#"{"query": "covid outbreak", "k": 10}"#.to_string(),
        ),
        (
            "POST",
            "/api/v1/explain/sentence-removal",
            format!(r#"{{"query": "covid outbreak", "k": 10, "doc": {fake}}}"#),
        ),
        (
            "POST",
            "/api/v1/explain/query-augmentation",
            format!(r#"{{"query": "covid outbreak", "k": 10, "doc": {fake}, "threshold": 2}}"#),
        ),
        (
            "POST",
            "/api/v1/explain/doc2vec-nearest",
            format!(r#"{{"query": "covid outbreak", "k": 10, "doc": {fake}}}"#),
        ),
        (
            "POST",
            "/api/v1/explain/cosine-sampled",
            format!(r#"{{"query": "covid outbreak", "k": 10, "doc": {fake}, "samples": 50}}"#),
        ),
        (
            "POST",
            "/api/v1/topics",
            r#"{"query": "covid outbreak", "k": 10, "num_topics": 3}"#.to_string(),
        ),
        (
            "POST",
            "/api/v1/rerank",
            format!(
                r#"{{"query": "covid outbreak", "k": 10, "doc": {fake}, "body": "edited body"}}"#
            ),
        ),
    ];

    let mut checks = Vec::new();
    for (method, path, body) in calls {
        let req = credence_server::http::Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: Default::default(),
            body: body.into_bytes(),
        };
        let resp = handle_request(state, &req);
        println!("  {method:<4} {path:<37} -> {}", resp.status);
        checks.push(Check::new(
            format!("{method} {path} serves the Fig-1 API"),
            format!("HTTP {}", resp.status),
            resp.status == 200,
        ));
    }
    checks
}

/// Figure 2 — sentence-removal counterfactual: rank 3 → 11 by removing the
/// two sentences that mention the query terms (importance 2 each).
pub fn fig2() -> Vec<Check> {
    println!("\n=== FIG2: counterfactual document (sentence removal) ===");
    let setup = DemoSetup::build();
    let (ranker, config) = engine_over(&setup);
    let engine = CredenceEngine::new(&ranker, config);
    let fake = DocId(setup.demo.fake_news as u32);

    let result = engine
        .sentence_removal(
            setup.demo.query,
            setup.demo.k,
            fake,
            &SentenceRemovalConfig::default(),
        )
        .expect("fig2 explanation");
    let e = &result.explanations[0];
    println!(
        "  query {:?}, k = {}, document {} (old rank {})",
        setup.demo.query, setup.demo.k, fake, result.old_rank
    );
    println!(
        "  removed sentences {:?} (importances {:?}, sum {})",
        e.removed,
        e.removed
            .iter()
            .map(|&i| result.importance[i])
            .collect::<Vec<_>>(),
        e.importance
    );
    println!("  new rank: {}", e.new_rank);
    for t in &e.removed_text {
        println!("    struck: {t}");
    }

    let first_and_last = e.removed == vec![0, result.sentences.len() - 1];
    vec![
        Check::new(
            "old rank = 3",
            format!("{}", result.old_rank),
            result.old_rank == 3,
        ),
        Check::new(
            "new rank = 11 (> k = 10)",
            format!("{}", e.new_rank),
            e.new_rank == 11,
        ),
        Check::new(
            "minimal set = the 2 covid/outbreak sentences",
            format!("{:?}", e.removed),
            e.removed.len() == 2 && first_and_last,
        ),
        Check::new(
            "both sentences score 2 (combination 4)",
            format!("{}", e.importance),
            (e.importance - 4.0).abs() < 1e-12,
        ),
        Check::new(
            "all single removals evaluated first",
            format!("{} candidates", e.candidates_evaluated),
            e.candidates_evaluated == result.sentences.len() + 1,
        ),
    ]
}

/// Figure 3 — seven query augmentations with threshold 2; `+5g` reaches
/// rank 2 and `+5g +microchip` rank 1.
pub fn fig3() -> Vec<Check> {
    println!("\n=== FIG3: counterfactual queries (augmentation) ===");
    let setup = DemoSetup::build();
    let (ranker, config) = engine_over(&setup);
    let engine = CredenceEngine::new(&ranker, config);
    let fake = DocId(setup.demo.fake_news as u32);

    let result = engine
        .query_augmentation(
            setup.demo.query,
            setup.demo.k,
            fake,
            &QueryAugmentationConfig {
                n: 7,
                threshold: 2,
                ..Default::default()
            },
        )
        .expect("fig3 explanations");
    for e in &result.explanations {
        println!(
            "  {:<44} rank {} -> {}",
            e.augmented_query, e.old_rank, e.new_rank
        );
    }

    let r5g = engine.full_ranking("covid outbreak 5g").rank_of(fake);
    let r5gm = engine
        .full_ranking("covid outbreak 5g microchip")
        .rank_of(fake);
    println!("  direct checks: +5g -> {r5g:?}, +5g +microchip -> {r5gm:?}");

    let all_terms: Vec<&str> = result
        .explanations
        .iter()
        .flat_map(|e| e.terms.iter().map(String::as_str))
        .collect();
    vec![
        Check::new(
            "7 valid augmentations at threshold 2",
            format!("{}", result.explanations.len()),
            result.explanations.len() == 7,
        ),
        Check::new(
            "all reach rank <= 2",
            format!(
                "{:?}",
                result
                    .explanations
                    .iter()
                    .map(|e| e.new_rank)
                    .collect::<Vec<_>>()
            ),
            result.explanations.iter().all(|e| e.new_rank <= 2),
        ),
        Check::new(
            "'covid outbreak 5G' -> rank 2",
            format!("{r5g:?}"),
            r5g == Some(2),
        ),
        Check::new(
            "'covid outbreak 5G microchip' -> rank 1",
            format!("{r5gm:?}"),
            r5gm == Some(1),
        ),
        Check::new(
            "distinguishing terms (5g/microchip) among augmentations",
            format!("{all_terms:?}"),
            all_terms.contains(&"5g") && all_terms.iter().any(|t| t.contains("microchip")),
        ),
    ]
}

/// Figure 4 — instance-based counterfactuals surface the near-duplicate.
pub fn fig4() -> Vec<Check> {
    println!("\n=== FIG4: instance-based counterfactuals ===");
    let setup = DemoSetup::build();
    let (ranker, config) = engine_over(&setup);
    let engine = CredenceEngine::new(&ranker, config);
    let fake = DocId(setup.demo.fake_news as u32);
    let dup = DocId(setup.demo.near_duplicate as u32);

    let d2v = engine
        .doc2vec_nearest(setup.demo.query, setup.demo.k, fake, 1)
        .expect("fig4 doc2vec");
    println!(
        "  Doc2Vec nearest: doc {} similarity {:.2} (paper reports ~0.75)",
        d2v[0].doc, d2v[0].similarity
    );
    let cs = engine
        .cosine_sampled(setup.demo.query, setup.demo.k, fake, 1, Some(1000))
        .expect("fig4 cosine");
    println!(
        "  Cosine sampled:  doc {} similarity {:.2}",
        cs[0].doc, cs[0].similarity
    );
    let original_rank = engine.full_ranking(setup.demo.query).rank_of(dup);

    vec![
        Check::new(
            "doc2vec-nearest instance = the near-duplicate",
            format!("doc {}", d2v[0].doc),
            d2v[0].doc == dup,
        ),
        Check::new(
            "high but non-identical similarity",
            format!("{:.2}", d2v[0].similarity),
            d2v[0].similarity > 0.4 && d2v[0].similarity < 0.9999,
        ),
        Check::new(
            "cosine-sampled agrees",
            format!("doc {}", cs[0].doc),
            cs[0].doc == dup,
        ),
        Check::new(
            "instance absent from the original top-10",
            format!("rank {original_rank:?}"),
            original_rank.is_none() || original_rank.unwrap() > setup.demo.k,
        ),
    ]
}

/// Figure 5 — the builder: covid→flu / outbreak→the flu drops rank 3 → 11.
pub fn fig5() -> Vec<Check> {
    println!("\n=== FIG5: build-your-own counterfactual ===");
    let setup = DemoSetup::build();
    let (ranker, config) = engine_over(&setup);
    let engine = CredenceEngine::new(&ranker, config);
    let fake = DocId(setup.demo.fake_news as u32);

    let outcome = engine
        .builder_edits(
            setup.demo.query,
            setup.demo.k,
            fake,
            &[
                Edit::replace("covid", "flu"),
                Edit::replace("covid-19", "flu"),
                Edit::replace("outbreak", "the flu"),
            ],
        )
        .expect("fig5 outcome");
    println!(
        "  edits: covid->flu, covid-19->flu, outbreak->'the flu'; rank {} -> {} (valid: {})",
        outcome.old_rank, outcome.new_rank, outcome.valid
    );
    for row in &outcome.rows {
        let arrow = match row.movement() {
            m if m < 0 => "raised",
            m if m > 0 => "lowered",
            _ => "unchanged",
        };
        println!(
            "    rank {:>2}: doc {:>2} ({}{})",
            row.new_rank,
            row.doc,
            arrow,
            if row.substituted { ", edited" } else { "" }
        );
    }

    vec![
        Check::new(
            "old rank = 3",
            format!("{}", outcome.old_rank),
            outcome.old_rank == 3,
        ),
        Check::new(
            "new rank = 11 = k + 1",
            format!("{}", outcome.new_rank),
            outcome.new_rank == setup.demo.k + 1,
        ),
        Check::new(
            "green check (valid)",
            format!("{}", outcome.valid),
            outcome.valid,
        ),
        Check::new(
            "revealed doc = the rank-11 flu story",
            format!("{:?}", outcome.revealed),
            outcome.revealed == Some(DocId(setup.demo.rank11 as u32)),
        ),
    ]
}
