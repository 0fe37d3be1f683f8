//! The explanation-family registry.
//!
//! CREDENCE treats the ranker as a black box, so every explanation family
//! answers the same request — a query, a ranking depth `k` and a document
//! — plus a few fields of its own. Each family registers here once, in
//! [`EXPLAINERS`], holding only what differs between families (a
//! `Family` implementation): its own body fields and their parser, a run
//! step over a [`CredenceEngine`], the payload fields it adds, and — for
//! `feature_attribution` only — a metrics hook. All eight families register
//! here: the five counterfactual searches, the two instance-based
//! explainers (§II-E) and the builder's `/rerank` (§III-C).
//!
//! Everything else is written once and driven by the registry: the shared
//! request and its parser ([`ExplainRequest`]), the HTTP handler, the
//! cache key and the cache-fronted respond step that synchronous requests
//! and job workers share, the job `endpoint` names, the route and
//! `/api/v1` index rows, the metrics labels, and the CLI's `explain` arm.
//! Adding a family means adding one block to this file.

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use credence_core::lime::FeatureAttributionResult;
use credence_core::query_augmentation::QueryAugmentationResult;
use credence_core::query_reduction::QueryReductionResult;
use credence_core::sentence_removal::SentenceRemovalResult;
use credence_core::term_removal::TermRemovalResult;
use credence_core::{
    BuilderOutcome, CredenceEngine, ExplainError, FeatureAttributionConfig, InstanceExplanation,
    QueryAugmentationConfig, QueryReductionConfig, SearchStatus, SentenceRemovalConfig,
    TermRemovalConfig,
};
use credence_json::{obj, to_string, Value};
use credence_rank::PoolEntry;

use crate::metrics::render_family;
use crate::requests::{ExplainRequest, FieldParser};
use crate::service::{AppState, API_PREFIX};

type Result<T> = std::result::Result<T, ExplainError>;

/// The fields no family's payload depends on, left out of every cache
/// key: the wall-clock `deadline_ms` (deadline partials are never cached)
/// and `explain_cache_bypass`. `max_evals` stays in the key because
/// evaluation-capped truncation is deterministic.
pub const INVARIANT_FIELDS: &[&str] = &["deadline_ms", "explain_cache_bypass"];

/// The shared search controls a family that runs no candidate search
/// never reads: it evaluates at most once, so only `deadline_ms` and a
/// cancel flag, checked before that evaluation, apply.
const NO_SEARCH: &[&str] = &["max_size", "max_candidates", "max_evals"];

/// What differs between explanation families, implemented by each
/// family's own-fields struct.
pub(crate) trait Family: fmt::Debug + Send + Sync + Sized + 'static {
    /// Route segment under `/explain/`; also the job `endpoint` name.
    const NAME: &'static str;
    /// Metrics endpoint label.
    const LABEL: &'static str;
    /// The full route when it is not `/api/v1/explain/{NAME}`.
    const ROUTE: Option<&'static str> = None;
    /// Payload-invariant fields the family adds to [`INVARIANT_FIELDS`].
    const INVARIANT: &'static [&'static str] = &[];
    /// What the run step returns.
    type Output;
    /// Read the family's own body fields.
    fn parse(p: &mut FieldParser<'_>) -> Self;
    /// Run the search for `req` on `engine`.
    fn run(&self, engine: &CredenceEngine<'_>, req: &ExplainRequest) -> Result<Self::Output>;
    /// Serialise a finished search.
    fn payload(&self, out: Self::Output) -> Payload;
    /// Count a search the server ran (the CLI has no metrics).
    fn record(&self, _out: &Self::Output, _state: &AppState) {}
}

/// A family's parsed own fields with the family's types erased, as an
/// [`ExplainRequest`] carries them.
pub(crate) trait Explain: fmt::Debug + Send + Sync {
    /// Run, record (when `state` is given) and serialise.
    fn explain(
        &self,
        engine: &CredenceEngine<'_>,
        req: &ExplainRequest,
        state: Option<&AppState>,
    ) -> Result<Payload>;
}

impl<F: Family> Explain for F {
    fn explain(
        &self,
        engine: &CredenceEngine<'_>,
        req: &ExplainRequest,
        state: Option<&AppState>,
    ) -> Result<Payload> {
        let out = self.run(engine, req)?;
        if let Some(state) = state {
            self.record(&out, state);
        }
        Ok(self.payload(out))
    }
}

/// One registered family.
#[derive(Debug)]
pub struct Explainer {
    /// The job `endpoint` name; also the route segment under `/explain/`
    /// unless the family declares its own route.
    pub name: &'static str,
    /// Metrics endpoint label.
    pub label: &'static str,
    /// Payload-invariant fields the family adds to [`INVARIANT_FIELDS`].
    pub invariant: &'static [&'static str],
    route: Option<&'static str>,
    /// Read the family's own body fields.
    pub(crate) parse: fn(&mut FieldParser<'_>) -> Arc<dyn Explain>,
}

impl Explainer {
    /// The registration of family `F`.
    const fn of<F: Family>() -> Self {
        Self {
            name: F::NAME,
            label: F::LABEL,
            invariant: F::INVARIANT,
            route: F::ROUTE,
            parse: parse_own::<F>,
        }
    }

    /// The family's `POST` route: `/api/v1/explain/{name}`, or the route
    /// the family declares (`/api/v1/rerank`).
    pub fn path(&self) -> Cow<'static, str> {
        match self.route {
            Some(route) => Cow::Borrowed(route),
            None => Cow::Owned(format!("{API_PREFIX}/explain/{}", self.name)),
        }
    }

    /// The family's own body fields, as its parser reads them off an empty
    /// body. The CLI maps its flags onto exactly these.
    pub fn own_fields(&self) -> Vec<&'static str> {
        let empty = Value::Object(Default::default());
        let mut p = FieldParser::new(&empty);
        (self.parse)(&mut p);
        p.read_fields().collect()
    }
}

fn parse_own<F: Family>(p: &mut FieldParser<'_>) -> Arc<dyn Explain> {
    Arc::new(F::parse(p))
}

/// The registered family named `name`.
pub fn find(name: &str) -> Option<&'static Explainer> {
    EXPLAINERS.iter().find(|e| e.name == name)
}

/// A finished explanation's REST payload, short of the corpus envelope.
#[derive(Debug)]
pub struct Payload {
    /// How a counterfactual search ended, and the candidates (for
    /// `feature_attribution`, perturbed samples) it scored; `None` for the
    /// families that run no search.
    pub(crate) search: Option<(SearchStatus, usize)>,
    fields: Vec<(&'static str, Value)>,
}

impl Payload {
    /// A counterfactual search's payload: the `status`, `old_rank` and
    /// `candidates_evaluated` fields every search carries, then its own.
    fn new(
        status: SearchStatus,
        old_rank: usize,
        evaluated: usize,
        own: impl IntoIterator<Item = (&'static str, Value)>,
    ) -> Self {
        let mut payload = Self::plain([
            ("status", Value::from(status.as_str())),
            ("old_rank", Value::from(old_rank)),
            ("candidates_evaluated", Value::from(evaluated)),
        ]);
        payload.fields.extend(own);
        payload.search = Some((status, evaluated));
        payload
    }

    /// The payload of a family that runs no search: its own fields only.
    fn plain(own: impl IntoIterator<Item = (&'static str, Value)>) -> Self {
        Self {
            search: None,
            fields: own.into_iter().collect(),
        }
    }

    /// The JSON body, with the `corpus` and `generation` of the snapshot
    /// that answered.
    pub fn into_json(mut self, corpus: &str, generation: u64) -> String {
        self.fields.push(("corpus", Value::from(corpus)));
        self.fields
            .push(("generation", Value::from(generation as usize)));
        to_string(&obj(self.fields))
    }
}

/// A JSON array of strings.
fn strings<'a>(items: impl IntoIterator<Item = &'a String>) -> Value {
    Value::Array(items.into_iter().map(|s| Value::from(s.as_str())).collect())
}

/// Instance explanations as a JSON array of `{doc, similarity, rank}`.
pub(crate) fn instances(explanations: &[InstanceExplanation]) -> Value {
    Value::Array(
        explanations
            .iter()
            .map(|e| {
                obj([
                    ("doc", Value::from(e.doc.0)),
                    ("similarity", Value::from(e.similarity)),
                    ("rank", e.rank.map_or(Value::Null, Value::from)),
                ])
            })
            .collect(),
    )
}

/// Every registered family, in the order the job endpoint's "must be one
/// of" message lists them.
pub static EXPLAINERS: &[Explainer] = &[
    Explainer::of::<SentenceRemoval>(),
    Explainer::of::<QueryAugmentation>(),
    Explainer::of::<QueryReduction>(),
    Explainer::of::<TermRemoval>(),
    Explainer::of::<FeatureAttribution>(),
    Explainer::of::<Doc2VecNearest>(),
    Explainer::of::<CosineSampled>(),
    Explainer::of::<Rerank>(),
];

/// Sentence removal: the fewest sentences whose removal drops the
/// document out of the top `k`.
#[derive(Debug)]
struct SentenceRemoval {
    n: usize,
}

impl Family for SentenceRemoval {
    const NAME: &'static str = "sentence-removal";
    const LABEL: &'static str = "sentence_removal";
    type Output = SentenceRemovalResult;

    fn parse(p: &mut FieldParser<'_>) -> Self {
        Self {
            n: p.optional_usize("n", 1),
        }
    }

    fn run(&self, engine: &CredenceEngine<'_>, req: &ExplainRequest) -> Result<Self::Output> {
        let config = SentenceRemovalConfig {
            n: self.n,
            budget: req.controls.search,
            lifecycle: req.controls.lifecycle.clone(),
            ..Default::default()
        };
        engine.sentence_removal(&req.query, req.k, req.doc_id(), &config)
    }

    fn payload(&self, out: Self::Output) -> Payload {
        let explanations = out.explanations.iter().map(|e| {
            obj([
                (
                    "removed_sentences",
                    Value::Array(e.removed.iter().map(|&i| Value::from(i)).collect()),
                ),
                ("removed_text", strings(&e.removed_text)),
                ("perturbed_body", Value::from(e.perturbed_body.as_str())),
                ("importance", Value::from(e.importance)),
                ("old_rank", Value::from(e.old_rank)),
                ("new_rank", Value::from(e.new_rank)),
            ])
        });
        Payload::new(
            out.status,
            out.old_rank,
            out.candidates_evaluated,
            [("explanations", Value::Array(explanations.collect()))],
        )
    }
}

/// Query augmentation: the terms whose addition to the query lifts the
/// document to rank `threshold` or better.
#[derive(Debug)]
struct QueryAugmentation {
    n: usize,
    threshold: usize,
}

impl Family for QueryAugmentation {
    const NAME: &'static str = "query-augmentation";
    const LABEL: &'static str = "query_augmentation";
    type Output = QueryAugmentationResult;

    fn parse(p: &mut FieldParser<'_>) -> Self {
        Self {
            n: p.optional_usize("n", 1),
            threshold: p.optional_usize("threshold", 1),
        }
    }

    fn run(&self, engine: &CredenceEngine<'_>, req: &ExplainRequest) -> Result<Self::Output> {
        let config = QueryAugmentationConfig {
            n: self.n,
            threshold: self.threshold,
            budget: req.controls.search,
            lifecycle: req.controls.lifecycle.clone(),
            ..Default::default()
        };
        engine.query_augmentation(&req.query, req.k, req.doc_id(), &config)
    }

    fn payload(&self, out: Self::Output) -> Payload {
        let explanations = out.explanations.iter().map(|e| {
            obj([
                ("terms", strings(&e.terms)),
                ("augmented_query", Value::from(e.augmented_query.as_str())),
                ("tfidf", Value::from(e.tfidf)),
                ("old_rank", Value::from(e.old_rank)),
                ("new_rank", Value::from(e.new_rank)),
            ])
        });
        Payload::new(
            out.status,
            out.old_rank,
            out.candidates_evaluated,
            [("explanations", Value::Array(explanations.collect()))],
        )
    }
}

/// Query reduction: the query terms whose removal drops the document out
/// of the top `k`.
#[derive(Debug)]
struct QueryReduction {
    n: usize,
}

impl Family for QueryReduction {
    const NAME: &'static str = "query-reduction";
    const LABEL: &'static str = "query_reduction";
    type Output = QueryReductionResult;

    fn parse(p: &mut FieldParser<'_>) -> Self {
        Self {
            n: p.optional_usize("n", 1),
        }
    }

    fn run(&self, engine: &CredenceEngine<'_>, req: &ExplainRequest) -> Result<Self::Output> {
        let config = QueryReductionConfig {
            n: self.n,
            budget: req.controls.search,
            lifecycle: req.controls.lifecycle.clone(),
            ..Default::default()
        };
        engine.query_reduction(&req.query, req.k, req.doc_id(), &config)
    }

    fn payload(&self, out: Self::Output) -> Payload {
        let explanations = out.explanations.iter().map(|e| {
            obj([
                ("removed_terms", strings(&e.removed_terms)),
                ("reduced_query", Value::from(e.reduced_query.as_str())),
                ("old_rank", Value::from(e.old_rank)),
                ("new_rank", e.new_rank.map_or(Value::Null, Value::from)),
            ])
        });
        Payload::new(
            out.status,
            out.old_rank,
            out.candidates_evaluated,
            [("explanations", Value::Array(explanations.collect()))],
        )
    }
}

/// Term removal: the document terms whose removal drops it out of the
/// top `k`.
#[derive(Debug)]
struct TermRemoval {
    n: usize,
}

impl Family for TermRemoval {
    const NAME: &'static str = "term-removal";
    const LABEL: &'static str = "term_removal";
    type Output = TermRemovalResult;

    fn parse(p: &mut FieldParser<'_>) -> Self {
        Self {
            n: p.optional_usize("n", 1),
        }
    }

    fn run(&self, engine: &CredenceEngine<'_>, req: &ExplainRequest) -> Result<Self::Output> {
        let config = TermRemovalConfig {
            n: self.n,
            budget: req.controls.search,
            lifecycle: req.controls.lifecycle.clone(),
            ..Default::default()
        };
        engine.term_removal(&req.query, req.k, req.doc_id(), &config)
    }

    fn payload(&self, out: Self::Output) -> Payload {
        let explanations = out.explanations.iter().map(|e| {
            obj([
                ("removed_terms", strings(&e.removed_terms)),
                ("perturbed_body", Value::from(e.perturbed_body.as_str())),
                ("importance", Value::from(e.importance)),
                ("old_rank", Value::from(e.old_rank)),
                ("new_rank", Value::from(e.new_rank)),
            ])
        });
        Payload::new(
            out.status,
            out.old_rank,
            out.candidates_evaluated,
            [("explanations", Value::Array(explanations.collect()))],
        )
    }
}

/// Rank-LIME feature attribution: a weighted ridge surrogate fitted to
/// the ranker's scores of seeded term-masked variants. The payload is a
/// pure function of the request — the seed pins the mask stream and the
/// generation the corpus — so it caches like the searches.
#[derive(Debug)]
struct FeatureAttribution {
    samples: usize,
    seed: u64,
    top_m: usize,
    lambda: f64,
}

impl Family for FeatureAttribution {
    const NAME: &'static str = "feature_attribution";
    const LABEL: &'static str = "feature_attribution";
    /// `max_candidates` caps the surrogate's features, but `max_size` is
    /// never read.
    const INVARIANT: &'static [&'static str] = &["max_size"];
    type Output = FeatureAttributionResult;

    /// Defaults mirror `FeatureAttributionConfig::default()`.
    fn parse(p: &mut FieldParser<'_>) -> Self {
        Self {
            samples: p.optional_usize("samples", 256),
            seed: p.optional_usize("seed", 42) as u64,
            top_m: p.optional_usize("top_m", 10),
            lambda: p.optional_f64("lambda", 1e-3),
        }
    }

    fn run(&self, engine: &CredenceEngine<'_>, req: &ExplainRequest) -> Result<Self::Output> {
        let config = FeatureAttributionConfig {
            samples: self.samples,
            seed: self.seed,
            top_m: self.top_m,
            lambda: self.lambda,
            max_features: req.controls.search.max_candidates,
            lifecycle: req.controls.lifecycle.clone(),
            ..Default::default()
        };
        engine.feature_attribution(&req.query, req.k, req.doc_id(), &config)
    }

    fn payload(&self, out: Self::Output) -> Payload {
        let attributions = out.attributions.iter().map(|a| {
            obj([
                ("term", Value::from(a.term.as_str())),
                ("weight", Value::from(a.weight)),
            ])
        });
        Payload::new(
            out.status,
            out.old_rank,
            out.samples_evaluated,
            [
                ("samples", Value::from(self.samples)),
                ("seed", Value::from(self.seed as usize)),
                ("top_m", Value::from(self.top_m)),
                ("lambda", Value::from(self.lambda)),
                ("features", Value::from(out.features)),
                ("intercept", Value::from(out.intercept)),
                ("fidelity", Value::from(out.fidelity)),
                ("attributions", Value::Array(attributions.collect())),
            ],
        )
    }

    fn record(&self, out: &Self::Output, state: &AppState) {
        state.lime.record(out);
    }
}

/// Doc2Vec nearest (§II-E): the `n` non-relevant documents closest to the
/// instance in the corpus's PV-DBOW space. The first request on a
/// generation waits while the space trains; one whose deadline passed
/// meanwhile answers `deadline_exceeded`, and the next request finds the
/// space ready.
#[derive(Debug)]
struct Doc2VecNearest {
    n: usize,
}

impl Family for Doc2VecNearest {
    const NAME: &'static str = "doc2vec-nearest";
    const LABEL: &'static str = "doc2vec_nearest";
    const INVARIANT: &'static [&'static str] = NO_SEARCH;
    type Output = Vec<InstanceExplanation>;

    fn parse(p: &mut FieldParser<'_>) -> Self {
        Self {
            n: p.optional_usize("n", 1),
        }
    }

    fn run(&self, engine: &CredenceEngine<'_>, req: &ExplainRequest) -> Result<Self::Output> {
        req.controls.lifecycle.fail_fast()?;
        engine.doc2vec();
        req.controls.lifecycle.fail_fast()?;
        engine.doc2vec_nearest(&req.query, req.k, req.doc_id(), self.n)
    }

    fn payload(&self, out: Self::Output) -> Payload {
        Payload::plain([("explanations", instances(&out))])
    }
}

/// Cosine sampled (§II-E): of `samples` sampled non-relevant documents
/// (the engine's default when absent), the `n` whose BM25 score vectors
/// are most cosine-similar to the instance's.
#[derive(Debug)]
struct CosineSampled {
    n: usize,
    samples: Option<usize>,
}

impl Family for CosineSampled {
    const NAME: &'static str = "cosine-sampled";
    const LABEL: &'static str = "cosine_sampled";
    const INVARIANT: &'static [&'static str] = NO_SEARCH;
    type Output = Vec<InstanceExplanation>;

    fn parse(p: &mut FieldParser<'_>) -> Self {
        Self {
            n: p.optional_usize("n", 1),
            samples: p.optional_u64("samples").map(|s| s as usize),
        }
    }

    fn run(&self, engine: &CredenceEngine<'_>, req: &ExplainRequest) -> Result<Self::Output> {
        req.controls.lifecycle.fail_fast()?;
        engine.cosine_sampled(&req.query, req.k, req.doc_id(), self.n, self.samples)
    }

    fn payload(&self, out: Self::Output) -> Payload {
        Payload::plain([("explanations", instances(&out))])
    }
}

/// The builder's re-rank (§III-C): re-score the top `k + 1` with the
/// instance's body replaced by `body`.
#[derive(Debug)]
struct Rerank {
    body: String,
}

impl Family for Rerank {
    const NAME: &'static str = "rerank";
    const LABEL: &'static str = "rerank";
    const ROUTE: Option<&'static str> = Some("/api/v1/rerank");
    const INVARIANT: &'static [&'static str] = NO_SEARCH;
    type Output = BuilderOutcome;

    fn parse(p: &mut FieldParser<'_>) -> Self {
        Self {
            body: p.require_str("body"),
        }
    }

    fn run(&self, engine: &CredenceEngine<'_>, req: &ExplainRequest) -> Result<Self::Output> {
        let budget = &req.controls.lifecycle;
        engine.builder_rerank_budgeted(&req.query, req.k, req.doc_id(), &self.body, budget)
    }

    fn payload(&self, out: Self::Output) -> Payload {
        let row = |row: &PoolEntry| {
            obj([
                ("doc", Value::from(row.doc.0)),
                ("score", Value::from(row.score)),
                ("new_rank", Value::from(row.new_rank)),
                ("old_rank", Value::from(row.old_rank)),
                ("movement", Value::from(row.movement() as f64)),
                ("substituted", Value::from(row.substituted)),
            ])
        };
        Payload::plain([
            ("valid", Value::from(out.valid)),
            ("old_rank", Value::from(out.old_rank)),
            ("new_rank", Value::from(out.new_rank)),
            (
                "revealed",
                out.revealed.map_or(Value::Null, |d| Value::from(d.0)),
            ),
            ("rows", Value::Array(out.rows.iter().map(row).collect())),
        ])
    }
}

/// Live counters behind the `credence_explain_lime_*` metric families:
/// surrogate fits actually run (cache hits are served without re-fitting
/// and therefore do not count), the perturbed variants they scored, the
/// attributions they returned, budget-limited partial fits, and the summed
/// fidelity (in millionths, for the average gauge).
#[derive(Default)]
pub(crate) struct LimeStats {
    fits: AtomicU64,
    samples: AtomicU64,
    attributions: AtomicU64,
    partials: AtomicU64,
    fidelity_micros: AtomicU64,
}

impl LimeStats {
    fn record(&self, result: &FeatureAttributionResult) {
        self.fits.fetch_add(1, Ordering::Relaxed);
        self.samples
            .fetch_add(result.samples_evaluated as u64, Ordering::Relaxed);
        self.attributions
            .fetch_add(result.attributions.len() as u64, Ordering::Relaxed);
        if result.status.is_partial() {
            self.partials.fetch_add(1, Ordering::Relaxed);
        }
        self.fidelity_micros
            .fetch_add((result.fidelity * 1e6).round() as u64, Ordering::Relaxed);
    }

    /// Append the `credence_explain_lime_*` families to a `/metrics` scrape.
    pub(crate) fn render(&self, out: &mut String) {
        let fits = self.fits.load(Ordering::Relaxed);
        for (name, help, value) in [
            (
                "credence_explain_lime_fits_total",
                "Feature-attribution surrogate fits run (cache hits excluded).",
                fits,
            ),
            (
                "credence_explain_lime_samples_total",
                "Perturbed document variants scored for surrogate fits.",
                self.samples.load(Ordering::Relaxed),
            ),
            (
                "credence_explain_lime_attributions_total",
                "Per-term attributions returned by surrogate fits.",
                self.attributions.load(Ordering::Relaxed),
            ),
            (
                "credence_explain_lime_partials_total",
                "Surrogate fits truncated by a deadline, eval cap, or cancel.",
                self.partials.load(Ordering::Relaxed),
            ),
        ] {
            render_family(out, name, "counter", help, [("", value)]);
        }
        let avg = if fits == 0 {
            0.0
        } else {
            self.fidelity_micros.load(Ordering::Relaxed) as f64 / 1e6 / fits as f64
        };
        render_family(
            out,
            "credence_explain_lime_fidelity_avg",
            "gauge",
            "Mean surrogate fidelity (weighted R²) across fits.",
            [("", avg)],
        );
    }
}
