//! Cache-key completeness: for every registered explanation family (all
//! eight, each on its own route), a request that differs from a cached one
//! in a single accepted field is served from the cache exactly when that
//! field is payload-invariant.
//!
//! A field declared invariant must also really be: the variant, recomputed
//! with the cache bypassed, answers the cached request's bytes. The test
//! keeps its own table of alternate values by field name and fails on any
//! accepted field the table lacks, so a field added to a family (or to the
//! shared controls) cannot skip the cache-key decision.

use std::sync::Arc;
use std::time::Duration;

use credence_core::{CorpusSnapshot, EngineConfig};
use credence_index::{DeltaOp, Document};
use credence_json::{parse, to_string, Value};
use credence_repro::prop::gens;
use credence_repro::{prop, prop_assert_eq};
use credence_server::explainers::{Explainer, EXPLAINERS, INVARIANT_FIELDS};
use credence_server::http::Request;
use credence_server::requests::ExplainRequest;
use credence_server::{handle_request, AppState};

fn demo_docs() -> Vec<Document> {
    vec![
        Document::new(
            "n1",
            "Outbreak news",
            "covid outbreak covid outbreak dominates the news cycle this week entirely",
        ),
        Document::new(
            "n2",
            "Quiet arrival",
            "The covid outbreak arrived quietly. Officials downplayed the covid outbreak \
             for weeks before acting decisively.",
        ),
        Document::new(
            "n3",
            "Conspiracy corner",
            "The covid outbreak is a cover story. A secret microchip hides in every \
             vaccine dose. The microchip tracks your movements constantly.",
        ),
        Document::new(
            "n4",
            "Harbor drills",
            "Outbreak drills continue at the harbor facility through the weekend shift.",
        ),
        Document::new(
            "n5",
            "Gardens",
            "The garden show opens to record spring crowds.",
        ),
    ]
}

/// A state whose default corpus has published generation 1 while the
/// returned snapshot keeps generation 0 resolvable, plus a `twin` corpus
/// over the same documents.
fn state() -> (&'static AppState, Arc<CorpusSnapshot>) {
    let state = AppState::leak(demo_docs(), EngineConfig::fast());
    state.registry().register("twin", demo_docs());
    let pin = state.default_snapshot();
    let corpus = state.registry().get("default").unwrap();
    let seq = corpus.stage(DeltaOp::Delete("n5".to_string())).unwrap();
    assert!(corpus.wait_for_seq(seq, Duration::from_secs(10)));
    (state, pin)
}

/// Another valid value for every field a family accepts (the base request
/// sets `query`, `k`, `doc`, `deadline_ms` and any required own field, and
/// leaves the rest at their defaults). `None` for a field the table does
/// not know.
fn alternate(field: &str) -> Option<Value> {
    let text = match field {
        "query" => r#""outbreak covid""#,
        "k" => "9",
        "doc" => "0",
        "body" => r#""harbor drills through the weekend""#,
        "n" => "2",
        "threshold" => "2",
        "samples" => "32",
        "seed" => "7",
        "top_m" => "3",
        "lambda" => "0.5",
        "corpus" => r#""twin""#,
        "generation" => "0",
        "max_size" => "2",
        "max_candidates" => "5",
        "deadline_ms" => "900000",
        "max_evals" => "50",
        "explain_cache_bypass" => "true",
        _ => return None,
    };
    Some(parse(text).unwrap())
}

fn post(state: &'static AppState, family: &Explainer, body: &Value) -> (u16, Value) {
    let req = Request {
        method: "POST".into(),
        path: family.path().into_owned(),
        headers: Default::default(),
        body: to_string(body).into_bytes(),
    };
    let resp = handle_request(state, &req);
    let text = String::from_utf8(resp.body).unwrap();
    (resp.status, parse(&text).unwrap())
}

/// `base` with `field` set to `value`.
fn with(base: &Value, field: &str, value: Value) -> Value {
    let mut fields = base.as_object().unwrap().clone();
    fields.insert(field.to_string(), value);
    Value::Object(fields)
}

prop! {
    config(cases = 6);
    fn one_changed_field_misses_exactly_outside_the_invariant_set(
        k in gens::usize_range(3..6),
        doc in gens::usize_range(1..3),
    ) {
        let (state, _pin) = state();
        let cache = state.explain_cache();
        for family in EXPLAINERS {
            let mut base = parse(&format!(
                r#"{{"query": "covid outbreak", "k": {k}, "doc": {doc}, "deadline_ms": 600000}}"#
            ))
            .unwrap();
            if family.own_fields().contains(&"body") {
                base = with(&base, "body", Value::from("the covid outbreak is a drill"));
            }
            let (status, body) = post(state, family, &base);
            prop_assert_eq!(status, 200, "{}: {:?}", family.name, body);
            let hits = cache.hits();
            prop_assert_eq!(post(state, family, &base), (status, body.clone()), "{}", family.name);
            prop_assert_eq!(cache.hits(), hits + 1, "{}: the base request is cached", family.name);
            let live = body.get("generation").unwrap().clone();
            let accepted = ExplainRequest::parse(family, &base).unwrap();
            for &(field, _) in accepted.fields() {
                let Some(value) = alternate(field) else {
                    panic!("{} accepts '{field}', which the table lacks", family.name);
                };
                let (hits, len) = (cache.hits(), cache.len());
                let variant = with(&base, field, value);
                let answer = post(state, family, &variant);
                if field == "explain_cache_bypass" {
                    // Bypass neither reads nor fills the cache, and the
                    // search it runs answers the cached bytes.
                    prop_assert_eq!((cache.hits(), cache.len()), (hits, len), "{}", family.name);
                    prop_assert_eq!(answer, (status, body.clone()), "{}", family.name);
                    continue;
                }
                let invariant =
                    INVARIANT_FIELDS.contains(&field) || family.invariant.contains(&field);
                prop_assert_eq!(
                    cache.hits() == hits + 1,
                    invariant,
                    "{}: changing '{}' (invariant: {})",
                    family.name,
                    field,
                    invariant
                );
                if invariant {
                    // The declaration holds: recomputed without the cache,
                    // the variant answers the base's bytes.
                    let fresh = with(&variant, "explain_cache_bypass", Value::from(true));
                    prop_assert_eq!(
                        post(state, family, &fresh),
                        (status, body.clone()),
                        "{}: '{}' is declared payload-invariant",
                        family.name,
                        field
                    );
                }
            }
            // Spelling out the resolved corpus or the live generation
            // names the same snapshot, so both hit.
            for (field, value) in [("corpus", Value::from("default")), ("generation", live)] {
                let hits = cache.hits();
                post(state, family, &with(&base, field, value));
                prop_assert_eq!(cache.hits(), hits + 1, "{}: explicit {}", family.name, field);
            }
        }
    }
}
