//! Typed request parsing for the REST surface.
//!
//! Every `POST` endpoint has a request struct (`RankRequest`, …) with a
//! `parse` constructor that reads the JSON body in one place; the five
//! registered explanation families share one, [`ExplainRequest`]. Parsing
//! is *total*: every invalid field is recorded (not just the first),
//! fields that are never read are rejected by name as unknown, and the
//! caller receives either the fully-validated struct or the complete list
//! of [`FieldError`]s to fold into one `invalid_field` error envelope.
//!
//! The shared search controls (`eval_*`, `deadline_ms`, `max_evals`,
//! `max_size`, `max_candidates`, `explain_cache_bypass`) parse into
//! [`SearchControls`]; the deadline starts ticking at parse time, i.e.
//! from request arrival.

use std::fmt::Write as _;
use std::sync::Arc;

use credence_core::{
    Budget, CorpusSnapshot, CredenceEngine, EvalOptions, ExplainError, SearchBudget,
};
use credence_index::{DocId, Document, PartitionSpec};
use credence_json::Value;

use crate::explainers::{self, Explain, Explainer, Payload, EXPLAINERS, INVARIANT_FIELDS};
use crate::service::AppState;

/// The corpus served when a request does not name one — the corpus built
/// from the documents the process was started with, preserving the
/// single-tenant behavior of earlier API versions.
pub const DEFAULT_CORPUS: &str = "default";

/// One invalid request field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// The offending field name.
    pub field: String,
    /// What is wrong with it.
    pub message: String,
}

impl FieldError {
    fn new(field: &str, message: impl Into<String>) -> Self {
        Self {
            field: field.to_string(),
            message: message.into(),
        }
    }
}

/// Accumulating field reader over a JSON object body.
///
/// Getter methods record an error and return a placeholder on failure, so a
/// handler can read every field before deciding; [`FieldParser::finish`]
/// adds unknown-field errors and returns the verdict.
pub struct FieldParser<'v> {
    body: &'v Value,
    errors: Vec<FieldError>,
    /// Every field read so far, in read order, with the value it parsed to
    /// (defaults applied, `null` for an absent optional field).
    fields: Vec<(&'static str, Value)>,
}

impl<'v> FieldParser<'v> {
    /// A parser over `body`, which must be a JSON object (callers validate
    /// that before constructing one).
    pub fn new(body: &'v Value) -> Self {
        Self {
            body,
            errors: Vec::new(),
            fields: Vec::with_capacity(24),
        }
    }

    /// Record `key` as read, parsed to `value`.
    fn read(&mut self, key: &'static str, value: Value) {
        self.fields.push((key, value));
    }

    /// A required string field.
    pub fn require_str(&mut self, key: &'static str) -> String {
        let value = match self.body.get(key) {
            Some(v) => match v.as_str() {
                Some(s) => s.to_string(),
                None => {
                    self.errors.push(FieldError::new(key, "must be a string"));
                    String::new()
                }
            },
            None => {
                self.errors
                    .push(FieldError::new(key, "missing required string field"));
                String::new()
            }
        };
        self.read(key, Value::from(value.as_str()));
        value
    }

    /// A required non-negative integer field.
    pub fn require_usize(&mut self, key: &'static str) -> usize {
        let value = match self.body.get(key) {
            Some(v) => match v.as_u64() {
                Some(n) => n as usize,
                None => {
                    self.errors
                        .push(FieldError::new(key, "must be a non-negative integer"));
                    0
                }
            },
            None => {
                self.errors
                    .push(FieldError::new(key, "missing required integer field"));
                0
            }
        };
        self.read(key, Value::from(value));
        value
    }

    /// An optional non-negative integer field with a default.
    pub fn optional_usize(&mut self, key: &'static str, default: usize) -> usize {
        let value = self.non_negative(key).map_or(default, |n| n as usize);
        self.read(key, Value::from(value));
        value
    }

    /// An optional non-negative integer field with no default.
    pub fn optional_u64(&mut self, key: &'static str) -> Option<u64> {
        let value = self.non_negative(key);
        self.read(key, value.map_or(Value::Null, |n| Value::Number(n as f64)));
        value
    }

    /// The value of an optional non-negative integer field, recording an
    /// error when it is present but not one.
    fn non_negative(&mut self, key: &str) -> Option<u64> {
        let v = self.body.get(key)?;
        if v.as_u64().is_none() {
            self.errors
                .push(FieldError::new(key, "must be a non-negative integer"));
        }
        v.as_u64()
    }

    /// An optional finite non-negative number field with a default.
    pub fn optional_f64(&mut self, key: &'static str, default: f64) -> f64 {
        let value = match self.body.get(key) {
            None => default,
            Some(v) => match v.as_f64() {
                Some(n) if n.is_finite() && n >= 0.0 => n,
                _ => {
                    self.errors
                        .push(FieldError::new(key, "must be a finite non-negative number"));
                    default
                }
            },
        };
        self.read(key, Value::from(value));
        value
    }

    /// An optional boolean field with a default.
    pub fn optional_bool(&mut self, key: &'static str, default: bool) -> bool {
        let value = match self.body.get(key) {
            None => default,
            Some(v) => match v.as_bool() {
                Some(b) => b,
                None => {
                    self.errors.push(FieldError::new(key, "must be a boolean"));
                    default
                }
            },
        };
        self.read(key, Value::from(value));
        value
    }

    /// An optional string field.
    pub fn optional_str(&mut self, key: &'static str) -> Option<String> {
        let value = match self.body.get(key) {
            None => None,
            Some(v) => match v.as_str() {
                Some(s) => Some(s.to_string()),
                None => {
                    self.errors.push(FieldError::new(key, "must be a string"));
                    None
                }
            },
        };
        self.read(key, value.as_deref().map_or(Value::Null, Value::from));
        value
    }

    /// Whether the body carries `key` at all (for both-or-neither checks).
    pub fn has(&self, key: &str) -> bool {
        self.body.get(key).is_some()
    }

    /// Record an error against `field` from handler-level validation.
    pub fn reject(&mut self, field: &str, message: impl Into<String>) {
        self.errors.push(FieldError::new(field, message));
    }

    /// The names of the fields read so far, in read order.
    pub fn read_fields(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.fields.iter().map(|&(key, _)| key)
    }

    /// Reject every field that was neither read nor listed in `known`, and
    /// return the fields read with their parsed values, in read order — or
    /// every error found. Unknown fields report in key order (the body is a
    /// `BTreeMap`, so the order is deterministic), after the errors of the
    /// fields read.
    pub fn finish(mut self, known: &[&str]) -> Result<Vec<(&'static str, Value)>, Vec<FieldError>> {
        if let Some(object) = self.body.as_object() {
            for key in object.keys() {
                let read = self.fields.iter().any(|&(field, _)| field == key);
                if !read && !known.contains(&key.as_str()) {
                    self.errors
                        .push(FieldError::new(key, "unknown field (check for typos)"));
                }
            }
        }
        if self.errors.is_empty() {
            Ok(self.fields)
        } else {
            Err(self.errors)
        }
    }
}

/// Parsed search controls: evaluation-engine knobs, enumeration limits,
/// and the request-lifecycle [`Budget`].
#[derive(Debug, Clone, Default)]
pub struct SearchControls {
    /// Candidate-evaluation knobs (`eval_threads`,
    /// `eval_parallel_threshold`, `eval_exact`).
    pub eval: EvalOptions,
    /// Candidate-enumeration limits (`max_size`, `max_candidates`), applied
    /// over the explainer defaults.
    pub search: SearchBudget,
    /// The request budget (`deadline_ms`, `max_evals`); unlimited when
    /// neither field is present.
    pub lifecycle: Budget,
    /// Skip the server's explanation cache for this request
    /// (`explain_cache_bypass`): neither read from it nor populate it.
    pub cache_bypass: bool,
}

impl SearchControls {
    /// Read the shared control fields off `p` (absent fields keep their
    /// defaults).
    pub fn parse(p: &mut FieldParser<'_>) -> Self {
        let mut eval = EvalOptions::default();
        if let Some(threads) = p.optional_u64("eval_threads") {
            eval.threads = threads as usize;
        }
        if let Some(threshold) = p.optional_u64("eval_parallel_threshold") {
            eval.parallel_threshold = threshold as usize;
        }
        eval.force_exact = p.optional_bool("eval_exact", eval.force_exact);

        let defaults = SearchBudget::default();
        let search = SearchBudget {
            max_size: p.optional_usize("max_size", defaults.max_size),
            max_candidates: p.optional_usize("max_candidates", defaults.max_candidates),
            ..defaults
        };

        let mut lifecycle = Budget::unlimited();
        if let Some(ms) = p.optional_u64("deadline_ms") {
            lifecycle = lifecycle.with_deadline_ms(ms);
        }
        if let Some(evals) = p.optional_u64("max_evals") {
            lifecycle = lifecycle.with_max_evals(evals as usize);
        }

        let cache_bypass = p.optional_bool("explain_cache_bypass", false);

        Self {
            eval,
            search,
            lifecycle,
            cache_bypass,
        }
    }
}

/// Corpus selector carried by every request: which registered corpus to
/// serve from, and optionally which pinned generation. Absent fields mean
/// "the default corpus, at whatever generation is live".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusRef {
    /// Registered corpus name.
    pub corpus: String,
    /// Pinned generation; `None` reads the live snapshot.
    pub generation: Option<u64>,
}

impl Default for CorpusRef {
    fn default() -> Self {
        Self {
            corpus: DEFAULT_CORPUS.to_string(),
            generation: None,
        }
    }
}

impl CorpusRef {
    /// Read the `corpus` and `generation` fields off `p`.
    pub fn parse(p: &mut FieldParser<'_>) -> Self {
        let corpus = match p.optional_str("corpus") {
            Some(name) if name.is_empty() => {
                p.reject("corpus", "must be a non-empty string");
                DEFAULT_CORPUS.to_string()
            }
            Some(name) => name,
            None => DEFAULT_CORPUS.to_string(),
        };
        let generation = p.optional_u64("generation");
        Self { corpus, generation }
    }
}

/// `POST /api/v1/rank`.
#[derive(Debug, Clone)]
pub struct RankRequest {
    /// The query.
    pub query: String,
    /// Ranking depth.
    pub k: usize,
    /// Restrict scoring to one doc-hash partition (`partition_index` +
    /// `partition_count` in the body). The cluster router sets this on each
    /// fanout leg; plain clients normally omit both fields.
    pub partition: Option<PartitionSpec>,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
}

impl RankRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let partition = match (
            p.optional_u64("partition_index"),
            p.optional_u64("partition_count"),
        ) {
            (None, None) => None,
            (Some(index), Some(count)) => {
                if count == 0 || count > u32::MAX as u64 {
                    p.reject("partition_count", "must be between 1 and 2^32-1");
                    None
                } else if index >= count {
                    p.reject("partition_index", "must be less than partition_count");
                    None
                } else {
                    PartitionSpec::new(index as u32, count as u32)
                }
            }
            (Some(_), None) => {
                p.reject("partition_count", "required when partition_index is set");
                None
            }
            (None, Some(_)) => {
                p.reject("partition_index", "required when partition_count is set");
                None
            }
        };
        let out = Self {
            query: p.require_str("query"),
            k: p.require_usize("k"),
            partition,
            corpus: CorpusRef::parse(&mut p),
        };
        p.finish(&[]).map(|_| out)
    }
}

/// A request for one registered explanation family: the body of `POST
/// /api/v1/explain/{name}`, or the `request` of a job submission naming
/// it. The fields every family shares are parsed here, around the
/// family's own; the fields the parse reads are the fields the request
/// accepts.
#[derive(Debug, Clone)]
pub struct ExplainRequest {
    /// The family the request is for.
    pub family: &'static Explainer,
    /// The query.
    pub query: String,
    /// Ranking depth.
    pub k: usize,
    /// The instance document id.
    pub doc: usize,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
    /// Shared search controls.
    pub controls: SearchControls,
    /// The family's own fields.
    own: Arc<dyn Explain>,
    /// Every accepted field with its parsed value, defaults applied, in
    /// read order.
    fields: Vec<(&'static str, Value)>,
}

impl ExplainRequest {
    /// Parse and fully validate a body for `family`. Field errors come in
    /// the order the fields are read — `query`, `k`, `doc`, the family's
    /// own fields, the corpus selector, the search controls — and then the
    /// unknown fields.
    pub fn parse(family: &'static Explainer, body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let query = p.require_str("query");
        let k = p.require_usize("k");
        let doc = p.require_usize("doc");
        let own = (family.parse)(&mut p);
        let corpus = CorpusRef::parse(&mut p);
        let controls = SearchControls::parse(&mut p);
        let fields = p.finish(&[])?;
        Ok(Self {
            family,
            query,
            k,
            doc,
            corpus,
            controls,
            own,
            fields,
        })
    }

    /// The instance document.
    pub fn doc_id(&self) -> DocId {
        DocId(self.doc as u32)
    }

    /// Every field the request accepts, with the value it parsed to.
    pub fn fields(&self) -> &[(&'static str, Value)] {
        &self.fields
    }

    /// The explanation-cache key: the family name, the resolved corpus and
    /// generation of `snap`, and every other parsed field outside the
    /// payload-invariant ones ([`INVARIANT_FIELDS`] and the family's own).
    /// Fields come in read order with defaults applied, so field order and
    /// spelled-out defaults in the body do not change the key. Numbers
    /// print exactly and strings quoted and escaped, so distinct values
    /// give distinct keys.
    pub fn cache_key(&self, snap: &CorpusSnapshot) -> String {
        let mut key = String::with_capacity(128);
        let _ = write!(key, "{}\u{0}{:?}", self.family.name, snap.corpus());
        let _ = write!(key, "\u{0}{}", snap.generation());
        for (name, value) in &self.fields {
            let invariant = INVARIANT_FIELDS.contains(name) || self.family.invariant.contains(name);
            if invariant || matches!(*name, "corpus" | "generation") {
                continue;
            }
            let _ = match value {
                // Whole numbers print the digits `{n}` would, without the
                // float formatter.
                Value::Number(n) if n.fract() == 0.0 && n.abs() < 1e18 => {
                    write!(key, "\u{0}{name}={}", *n as i64)
                }
                Value::Number(n) => write!(key, "\u{0}{name}={n}"),
                Value::String(s) => write!(key, "\u{0}{name}={s:?}"),
                other => write!(key, "\u{0}{name}={other:?}"),
            };
        }
        key
    }

    /// Run the family's search on `engine` and build its payload; `state`
    /// (absent in the CLI) receives the family's metrics hook.
    pub fn explain(
        &self,
        engine: &CredenceEngine<'_>,
        state: Option<&AppState>,
    ) -> Result<Payload, ExplainError> {
        self.own.explain(engine, self, state)
    }
}

/// `POST /api/v1/explain/doc2vec-nearest`.
#[derive(Debug, Clone)]
pub struct Doc2VecNearestRequest {
    /// The query.
    pub query: String,
    /// Ranking depth.
    pub k: usize,
    /// The instance document id.
    pub doc: usize,
    /// Neighbours to return.
    pub n: usize,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
}

impl Doc2VecNearestRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let out = Self {
            query: p.require_str("query"),
            k: p.require_usize("k"),
            doc: p.require_usize("doc"),
            n: p.optional_usize("n", 1),
            corpus: CorpusRef::parse(&mut p),
        };
        p.finish(&[]).map(|_| out)
    }
}

/// `POST /api/v1/explain/cosine-sampled`.
#[derive(Debug, Clone)]
pub struct CosineSampledRequest {
    /// The query.
    pub query: String,
    /// Ranking depth.
    pub k: usize,
    /// The instance document id.
    pub doc: usize,
    /// Neighbours to return.
    pub n: usize,
    /// Score-vector sample override.
    pub samples: Option<usize>,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
}

impl CosineSampledRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let out = Self {
            query: p.require_str("query"),
            k: p.require_usize("k"),
            doc: p.require_usize("doc"),
            n: p.optional_usize("n", 1),
            samples: p.optional_u64("samples").map(|s| s as usize),
            corpus: CorpusRef::parse(&mut p),
        };
        p.finish(&[]).map(|_| out)
    }
}

/// `POST /api/v1/topics`.
#[derive(Debug, Clone)]
pub struct TopicsRequest {
    /// The query.
    pub query: String,
    /// Ranking depth (LDA fits over the top-k).
    pub k: usize,
    /// Topics to fit.
    pub num_topics: usize,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
}

impl TopicsRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let out = Self {
            query: p.require_str("query"),
            k: p.require_usize("k"),
            num_topics: p.optional_usize("num_topics", 3),
            corpus: CorpusRef::parse(&mut p),
        };
        p.finish(&[]).map(|_| out)
    }
}

/// `POST /api/v1/snippet`.
#[derive(Debug, Clone)]
pub struct SnippetRequest {
    /// The query whose terms are highlighted.
    pub query: String,
    /// The document id.
    pub doc: usize,
    /// Snippet window, in tokens.
    pub window: usize,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
}

impl SnippetRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let out = Self {
            query: p.require_str("query"),
            doc: p.require_usize("doc"),
            window: p.optional_usize("window", 24),
            corpus: CorpusRef::parse(&mut p),
        };
        p.finish(&[]).map(|_| out)
    }
}

/// `POST /api/v1/explain/nearest-to-text`.
#[derive(Debug, Clone)]
pub struct NearestToTextRequest {
    /// Free text to embed.
    pub text: String,
    /// Neighbours to return.
    pub n: usize,
    /// Exclude the top-k for this query (both-or-neither with `k`).
    pub exclude: Option<(String, usize)>,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
}

impl NearestToTextRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let text = p.require_str("text");
        let n = p.optional_usize("n", 3);
        let exclude = match (p.has("query"), p.has("k")) {
            (false, false) => None,
            (true, true) => {
                let query = p.require_str("query");
                let k = p.require_usize("k");
                Some((query, k))
            }
            (true, false) => {
                p.reject("k", "required whenever 'query' is present");
                None
            }
            (false, true) => {
                p.reject("query", "required whenever 'k' is present");
                None
            }
        };
        let out = Self {
            text,
            n,
            exclude,
            corpus: CorpusRef::parse(&mut p),
        };
        p.finish(&["query", "k"]).map(|_| out)
    }
}

/// `POST /api/v1/rerank` (the builder's free-form perturbation test).
#[derive(Debug, Clone)]
pub struct RerankRequest {
    /// The query.
    pub query: String,
    /// Ranking depth.
    pub k: usize,
    /// The instance document id.
    pub doc: usize,
    /// The edited body to re-rank.
    pub body: String,
    /// Request budget (`deadline_ms`; the builder runs exactly one
    /// evaluation, so `max_evals` does not apply here).
    pub lifecycle: Budget,
    /// Corpus selector (`corpus`, optional pinned `generation`).
    pub corpus: CorpusRef,
}

impl RerankRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let mut lifecycle = Budget::unlimited();
        if let Some(ms) = p.optional_u64("deadline_ms") {
            lifecycle = lifecycle.with_deadline_ms(ms);
        }
        let out = Self {
            query: p.require_str("query"),
            k: p.require_usize("k"),
            doc: p.require_usize("doc"),
            body: p.require_str("body"),
            lifecycle,
            corpus: CorpusRef::parse(&mut p),
        };
        p.finish(&[]).map(|_| out)
    }
}

/// `POST /api/v1/jobs`: an `{endpoint, request}` envelope whose `request`
/// object is parsed for the registered family named by `endpoint`.
#[derive(Debug, Clone)]
pub struct JobSubmitRequest {
    /// The parsed explanation request to enqueue.
    pub request: ExplainRequest,
}

impl JobSubmitRequest {
    /// Parse and fully validate the submission envelope. Inner request
    /// errors are reported with a `request.`-prefixed field path.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let endpoint = p.require_str("endpoint");
        let family = explainers::find(&endpoint);
        if body.get("endpoint").and_then(Value::as_str).is_some() && family.is_none() {
            let names: Vec<&str> = EXPLAINERS.iter().map(|e| e.name).collect();
            p.reject("endpoint", format!("must be one of: {}", names.join(", ")));
        }
        let inner = match body.get("request") {
            Some(v) if v.as_object().is_some() => Some(v),
            Some(_) => {
                p.reject("request", "must be a JSON object");
                None
            }
            None => {
                p.reject("request", "missing required object field");
                None
            }
        };
        let request = match (family, inner) {
            (Some(family), Some(inner)) => match ExplainRequest::parse(family, inner) {
                Ok(request) => Some(request),
                Err(errors) => {
                    for e in errors {
                        p.reject(&format!("request.{}", e.field), e.message);
                    }
                    None
                }
            },
            _ => None,
        };
        let errors = p.finish(&["request"]).err().unwrap_or_default();
        match request {
            Some(request) if errors.is_empty() => Ok(Self { request }),
            _ => Err(errors),
        }
    }
}

/// Parse one `{name?, title?, body}` document object; errors are reported
/// against `prefix.<field>`.
fn parse_doc_object(p: &mut FieldParser<'_>, prefix: &str, item: &Value) -> Option<Document> {
    if item.as_object().is_none() {
        p.reject(prefix, "must be a JSON object");
        return None;
    }
    let mut dp = FieldParser::new(item);
    let doc = Document::new(
        dp.optional_str("name").unwrap_or_default(),
        dp.optional_str("title").unwrap_or_default(),
        dp.require_str("body"),
    );
    match dp.finish(&[]) {
        Ok(_) => Some(doc),
        Err(errors) => {
            for e in errors {
                p.reject(&format!("{prefix}.{}", e.field), e.message);
            }
            None
        }
    }
}

/// `PUT /api/v1/corpora/{name}`: register or hot-swap a corpus.
#[derive(Debug, Clone)]
pub struct CorpusPutRequest {
    /// The documents to index as generation 0.
    pub docs: Vec<Document>,
}

impl CorpusPutRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let mut docs = Vec::new();
        match body.get("docs") {
            Some(value) => match value.as_array() {
                Some(items) => {
                    if items.is_empty() {
                        p.reject("docs", "must contain at least one document");
                    }
                    for (i, item) in items.iter().enumerate() {
                        if let Some(doc) = parse_doc_object(&mut p, &format!("docs[{i}]"), item) {
                            docs.push(doc);
                        }
                    }
                    let mut seen = std::collections::BTreeSet::new();
                    for (i, doc) in docs.iter().enumerate() {
                        if !doc.name.is_empty() && !seen.insert(doc.name.as_str()) {
                            p.reject(
                                &format!("docs[{i}].name"),
                                "duplicate document name in corpus",
                            );
                        }
                    }
                }
                None => p.reject("docs", "must be an array of documents"),
            },
            None => p.reject("docs", "missing required array field"),
        }
        p.finish(&["docs"]).map(|_| Self { docs })
    }
}

/// `POST /api/v1/corpora/{name}/docs`: add a new document (409 when the
/// name already exists).
#[derive(Debug, Clone)]
pub struct DocAddRequest {
    /// The document; `name` is required so the add/exists contract is
    /// well-defined.
    pub doc: Document,
    /// When true, the response waits for the staged op to fold into a
    /// published generation (read-your-write); otherwise it returns 202
    /// with the staging ticket.
    pub refresh: bool,
}

impl DocAddRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let name = p.require_str("name");
        if p.has("name") && name.is_empty() {
            p.reject("name", "must be a non-empty string");
        }
        let out = Self {
            doc: Document::new(
                name,
                p.optional_str("title").unwrap_or_default(),
                p.require_str("body"),
            ),
            refresh: p.optional_bool("refresh", false),
        };
        p.finish(&[]).map(|_| out)
    }
}

/// `PUT /api/v1/corpora/{name}/docs/{id}`: upsert the document named by
/// the path.
#[derive(Debug, Clone)]
pub struct DocPutRequest {
    /// Display title (not scored).
    pub title: String,
    /// The body text.
    pub body: String,
    /// Wait for the fold before answering (see [`DocAddRequest::refresh`]).
    pub refresh: bool,
}

impl DocPutRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let out = Self {
            title: p.optional_str("title").unwrap_or_default(),
            body: p.require_str("body"),
            refresh: p.optional_bool("refresh", false),
        };
        p.finish(&[]).map(|_| out)
    }
}

/// Optional `{refresh}` body for `DELETE .../docs/{id}` (an absent or
/// empty body means `refresh: false`).
#[derive(Debug, Clone, Default)]
pub struct RefreshRequest {
    /// Wait for the fold before answering.
    pub refresh: bool,
}

impl RefreshRequest {
    /// Parse and fully validate the request body.
    pub fn parse(body: &Value) -> Result<Self, Vec<FieldError>> {
        let mut p = FieldParser::new(body);
        let out = Self {
            refresh: p.optional_bool("refresh", false),
        };
        p.finish(&[]).map(|_| out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use credence_json::parse;

    fn value(text: &str) -> Value {
        parse(text).unwrap()
    }

    fn sentence_removal(text: &str) -> Result<ExplainRequest, Vec<FieldError>> {
        ExplainRequest::parse(explainers::find("sentence-removal").unwrap(), &value(text))
    }

    #[test]
    fn valid_rank_request_parses() {
        let req = RankRequest::parse(&value(r#"{"query": "covid", "k": 3}"#)).unwrap();
        assert_eq!(req.query, "covid");
        assert_eq!(req.k, 3);
    }

    #[test]
    fn all_invalid_fields_reported_at_once() {
        let errs = RankRequest::parse(&value(r#"{"query": 7, "k": "three"}"#)).unwrap_err();
        assert_eq!(errs.len(), 2);
        let fields: Vec<&str> = errs.iter().map(|e| e.field.as_str()).collect();
        assert!(fields.contains(&"query"));
        assert!(fields.contains(&"k"));
    }

    #[test]
    fn unknown_fields_are_rejected_by_name() {
        let errs =
            RankRequest::parse(&value(r#"{"query": "q", "k": 3, "kk": 1, "zz": 2}"#)).unwrap_err();
        assert_eq!(errs.len(), 2);
        assert_eq!(errs[0].field, "kk");
        assert_eq!(errs[1].field, "zz");
        assert!(errs[0].message.contains("unknown"));
    }

    #[test]
    fn missing_and_unknown_errors_combine() {
        let errs = sentence_removal(r#"{"query": "q", "bogus": 1}"#).unwrap_err();
        let fields: Vec<&str> = errs.iter().map(|e| e.field.as_str()).collect();
        assert!(fields.contains(&"k"));
        assert!(fields.contains(&"doc"));
        assert!(fields.contains(&"bogus"));
    }

    #[test]
    fn search_controls_parse_all_knobs() {
        let req = sentence_removal(
            r#"{"query": "q", "k": 3, "doc": 2, "n": 2,
                "eval_threads": 4, "eval_parallel_threshold": 8, "eval_exact": true,
                "deadline_ms": 60000, "max_evals": 50, "max_size": 3, "max_candidates": 12}"#,
        )
        .unwrap();
        assert_eq!(req.controls.eval.threads, 4);
        assert_eq!(req.controls.eval.parallel_threshold, 8);
        assert!(req.controls.eval.force_exact);
        assert_eq!(req.controls.search.max_size, 3);
        assert_eq!(req.controls.search.max_candidates, 12);
        assert_eq!(req.controls.lifecycle.max_evals, Some(50));
        assert!(req.controls.lifecycle.deadline.is_some());
    }

    #[test]
    fn absent_controls_mean_unlimited_budget_and_defaults() {
        let req = sentence_removal(r#"{"query": "q", "k": 3, "doc": 2}"#).unwrap();
        assert!(req.controls.lifecycle.is_unlimited());
        assert_eq!(req.controls.eval, EvalOptions::default());
        let n = req.fields().iter().find(|(field, _)| *field == "n");
        assert_eq!(n.and_then(|(_, v)| v.as_u64()), Some(1));
    }

    #[test]
    fn negative_integers_are_invalid() {
        let errs = RankRequest::parse(&value(r#"{"query": "q", "k": -1}"#)).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].field, "k");
    }

    #[test]
    fn nearest_to_text_requires_query_and_k_together() {
        let ok = NearestToTextRequest::parse(&value(r#"{"text": "t", "n": 2}"#)).unwrap();
        assert!(ok.exclude.is_none());
        let ok = NearestToTextRequest::parse(&value(r#"{"text": "t", "query": "covid", "k": 3}"#))
            .unwrap();
        assert_eq!(ok.exclude, Some(("covid".to_string(), 3)));
        let errs =
            NearestToTextRequest::parse(&value(r#"{"text": "t", "query": "covid"}"#)).unwrap_err();
        assert_eq!(errs[0].field, "k");
    }

    #[test]
    fn rerank_accepts_a_deadline() {
        let req = RerankRequest::parse(&value(
            r#"{"query": "q", "k": 3, "doc": 2, "body": "edited", "deadline_ms": 0}"#,
        ))
        .unwrap();
        assert!(req.lifecycle.deadline.is_some());
        let errs = RerankRequest::parse(&value(r#"{"query": "q", "k": 3, "doc": 2}"#)).unwrap_err();
        assert_eq!(errs[0].field, "body");
    }
}
