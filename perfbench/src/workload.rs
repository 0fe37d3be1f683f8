//! Seeded workloads. The corpus and every request are a pure function of
//! the workload name and the seed; nothing here reads a clock.

use std::collections::HashSet;

use credence_corpus::{SynthConfig, SyntheticCorpus};
use credence_index::{search_top_k_with, Bm25Params, Document, InvertedIndex, TopKOptions};
use credence_json::{obj, to_string, Value};
use credence_rng::rngs::StdRng;
use credence_rng::seq::SliceRandom;
use credence_rng::{Rng, SeedableRng};
use credence_text::Analyzer;

/// Ranking depth of every request.
pub const K: usize = 10;
/// Documents of the `rank` and `explain` corpus: enough that ranking a
/// query is most of a `/rank` request's cost.
const BIG_DOCS: usize = 3_000;
/// Documents of the `ingest` corpus.
const SMALL_DOCS: usize = 300;
/// Documents of the write probe's side corpus. Registering it sends them
/// all in one body, and the server's JSON parse time grows faster than
/// linearly with body size (1.6 s for 300 documents), so the side corpus is
/// kept small.
const PROBE_DOCS: usize = 100;
/// Background terms counted as "frequent" in queries.
const FREQUENT_TERMS: usize = 40;
/// Corpus name the write probe registers on `rank` and `explain`.
pub const PROBE_CORPUS: &str = "probe";
/// Rewrites the write probe sends on `rank` and `explain`.
const PROBE_WRITES: usize = 15;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Search traffic: `/rank` with queries that mostly miss the caches.
    Rank,
    /// Analyst sessions: one `/rank` then 4–8 explanation requests.
    Explain,
    /// One rewrite per second beside a closed loop of explain sessions.
    Ingest,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "rank" => Some(Self::Rank),
            "explain" => Some(Self::Explain),
            "ingest" => Some(Self::Ingest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Rank => "rank",
            Self::Explain => "explain",
            Self::Ingest => "ingest",
        }
    }
}

/// The explanation families a session draws from: the paper's five
/// (sentence removal, query augmentation, doc2vec-nearest, cosine-sampled,
/// rerank with an edit) and the repository's three extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    SentenceRemoval,
    QueryAugmentation,
    Doc2VecNearest,
    CosineSampled,
    Rerank,
    QueryReduction,
    TermRemoval,
    FeatureAttribution,
}

impl Family {
    pub const ALL: [Family; 8] = [
        Family::SentenceRemoval,
        Family::QueryAugmentation,
        Family::Doc2VecNearest,
        Family::CosineSampled,
        Family::Rerank,
        Family::QueryReduction,
        Family::TermRemoval,
        Family::FeatureAttribution,
    ];

    /// The route under `/api/v1`.
    pub fn path(self) -> &'static str {
        match self {
            Family::SentenceRemoval => "/api/v1/explain/sentence-removal",
            Family::QueryAugmentation => "/api/v1/explain/query-augmentation",
            Family::Doc2VecNearest => "/api/v1/explain/doc2vec-nearest",
            Family::CosineSampled => "/api/v1/explain/cosine-sampled",
            Family::Rerank => "/api/v1/rerank",
            Family::QueryReduction => "/api/v1/explain/query-reduction",
            Family::TermRemoval => "/api/v1/explain/term-removal",
            Family::FeatureAttribution => "/api/v1/explain/feature_attribution",
        }
    }

    /// Whether the request carries `n` and its answer an `explanations`
    /// list whose length counts toward `evaluator.found_ratio`.
    pub fn takes_n(self) -> bool {
        !matches!(self, Family::Rerank | Family::FeatureAttribution)
    }
}

/// One request of a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `POST /api/v1/rank`.
    Rank { query: String },
    /// An explanation request on the document ranked `rank` (1-based) for
    /// `query`; `doc` is that document's id and `edit` the rerank body.
    Explain {
        family: Family,
        query: String,
        doc: u32,
        rank: usize,
        n: usize,
        edit: Option<String>,
    },
    /// Register the side corpus the write probe rewrites.
    Register { corpus: String, docs: Vec<Document> },
    /// `PUT .../docs/{name}` with `refresh: true`: rewrite a document with
    /// its sentences reordered.
    Write {
        corpus: String,
        name: String,
        title: String,
        body: String,
    },
}

impl Op {
    pub fn method(&self) -> &'static str {
        match self {
            Op::Rank { .. } | Op::Explain { .. } => "POST",
            Op::Register { .. } | Op::Write { .. } => "PUT",
        }
    }

    pub fn path(&self) -> String {
        match self {
            Op::Rank { .. } => "/api/v1/rank".to_string(),
            Op::Explain { family, .. } => family.path().to_string(),
            Op::Register { corpus, .. } => format!("/api/v1/corpora/{corpus}"),
            Op::Write { corpus, name, .. } => format!("/api/v1/corpora/{corpus}/docs/{name}"),
        }
    }

    /// The JSON body. Requests never set `deadline_ms`, `max_evals` or
    /// `explain_cache_bypass`, so every answer is deterministic.
    pub fn body(&self) -> String {
        let v = match self {
            Op::Rank { query } => obj([
                ("query", Value::from(query.as_str())),
                ("k", Value::from(K)),
            ]),
            Op::Explain {
                family,
                query,
                doc,
                n,
                edit,
                ..
            } => {
                let mut fields = vec![
                    ("query", Value::from(query.as_str())),
                    ("k", Value::from(K)),
                    ("doc", Value::from(*doc as usize)),
                ];
                if family.takes_n() {
                    fields.push(("n", Value::from(*n)));
                }
                if let Some(edit) = edit {
                    fields.push(("body", Value::from(edit.as_str())));
                }
                obj(fields)
            }
            Op::Register { docs, .. } => obj([(
                "docs",
                Value::Array(
                    docs.iter()
                        .map(|d| {
                            obj([
                                ("name", Value::from(d.name.as_str())),
                                ("title", Value::from(d.title.as_str())),
                                ("body", Value::from(d.body.as_str())),
                            ])
                        })
                        .collect(),
                ),
            )]),
            Op::Write { title, body, .. } => obj([
                ("title", Value::from(title.as_str())),
                ("body", Value::from(body.as_str())),
                ("refresh", Value::from(true)),
            ]),
        };
        to_string(&v)
    }

    /// The raw HTTP/1.1 request: keep-alive by default (no `Connection`
    /// header), one buffer so it leaves in one write.
    pub fn wire(&self) -> Vec<u8> {
        let body = self.body();
        format!(
            "{} {} HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
            self.method(),
            self.path(),
            body.len(),
            body
        )
        .into_bytes()
    }

    pub fn query(&self) -> Option<&str> {
        match self {
            Op::Rank { query } | Op::Explain { query, .. } => Some(query),
            _ => None,
        }
    }
}

/// A generated workload.
pub struct Workload {
    pub kind: Kind,
    /// The corpus `credence-serve` boots on.
    pub docs: Vec<Document>,
    /// The read stream. Clients cycle through it; the first `warmup`
    /// requests run before the measured window.
    pub reads: Vec<Op>,
    pub warmup: usize,
    /// `ingest`: one rewrite due per second of the window. `rank` and
    /// `explain`: the write probe (a side-corpus registration followed by
    /// sequential rewrites) sent after the window.
    pub writes: Vec<Op>,
    /// Background terms counted as frequent.
    pub frequent: HashSet<String>,
    /// `rank` sends no explanations; its traced run adds one per family on
    /// a ranked query, so that every layer reports a time.
    pub layer_probe: Vec<Op>,
}

impl Workload {
    /// Generate the workload. `seconds` sets the number of `ingest` writes.
    pub fn generate(kind: Kind, seed: u64, seconds: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c0de_0000_0000);
        let num_docs = match kind {
            Kind::Rank | Kind::Explain => BIG_DOCS,
            Kind::Ingest => SMALL_DOCS,
        };
        let docs = corpus(num_docs, rng.gen_range(0..u64::MAX));
        let index = InvertedIndex::build(docs.clone(), Analyzer::english());
        let frequent = frequent_terms(&index);
        let mut gen = QueryGen::new(&index, &frequent);
        let (reads, warmup) = match kind {
            Kind::Rank => {
                let pool = gen.pool(&mut rng, 20_000, 1);
                let pick = Zipf::new(pool.len(), 0.7);
                let reads = (0..6_000)
                    .map(|_| Op::Rank {
                        query: pool[pick.sample(&mut rng)].clone(),
                    })
                    .collect();
                (reads, 600)
            }
            Kind::Explain => (sessions(&index, &mut gen, &mut rng, 2_000, 300), 300),
            Kind::Ingest => (sessions(&index, &mut gen, &mut rng, 300, 300), 100),
        };
        let writes = match kind {
            Kind::Ingest => rewrites(&docs, "default", seconds, &mut rng),
            Kind::Rank | Kind::Explain => {
                let side = corpus(PROBE_DOCS, rng.gen_range(0..u64::MAX));
                let mut ops = vec![Op::Register {
                    corpus: PROBE_CORPUS.to_string(),
                    docs: side.clone(),
                }];
                ops.extend(rewrites(&side, PROBE_CORPUS, PROBE_WRITES, &mut rng));
                ops
            }
        };
        let layer_probe = match kind {
            Kind::Rank => layer_probe(&index, &reads, &mut rng),
            Kind::Explain | Kind::Ingest => Vec::new(),
        };
        Self {
            kind,
            docs,
            reads,
            warmup,
            writes,
            frequent: frequent.into_iter().collect(),
            layer_probe,
        }
    }

    /// Every byte the program receives, for the determinism self-test.
    #[cfg(test)]
    pub fn fingerprint(&self) -> Vec<u8> {
        let mut out = credence_corpus::loader::to_jsonl(&self.docs).into_bytes();
        for op in self.reads.iter().chain(&self.writes) {
            out.extend_from_slice(&op.wire());
        }
        out
    }

    /// Share of read requests whose query holds a frequent background term.
    pub fn share_frequent(&self) -> f64 {
        let queries: Vec<&str> = self.reads.iter().filter_map(Op::query).collect();
        let hits = queries
            .iter()
            .filter(|q| q.split(' ').any(|t| self.frequent.contains(t)))
            .count();
        ratio(hits as f64, queries.len() as f64)
    }

    /// Share of read requests identical to an earlier one in the stream.
    pub fn share_repeated(&self) -> f64 {
        let mut seen = HashSet::new();
        let repeats = self
            .reads
            .iter()
            .filter(|op| !seen.insert(op.wire()))
            .count();
        ratio(repeats as f64, self.reads.len() as f64)
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The synthetic corpus: 16 topics of 400 terms over a 2,000-term
/// background vocabulary. Two halves generate on two threads (the
/// generator's per-word cost is linear in the vocabulary), and the second
/// half's documents are renumbered after the first's.
fn corpus(num_docs: usize, seed: u64) -> Vec<Document> {
    let half = |num_docs, seed| {
        SyntheticCorpus::generate(SynthConfig {
            num_docs,
            num_topics: 16,
            topic_vocab: 400,
            background_vocab: 2_000,
            seed,
            ..SynthConfig::default()
        })
        .docs
    };
    let first = num_docs / 2;
    let (mut docs, second) = std::thread::scope(|s| {
        let other = s.spawn(|| half(num_docs - first, seed.rotate_left(32)));
        (
            half(first, seed),
            other.join().expect("corpus thread panicked"),
        )
    });
    for (i, mut d) in second.into_iter().enumerate() {
        let id = first + i;
        d.name = format!("synth-{id:05}");
        d.title = d
            .title
            .replacen(&format!("document {i} "), &format!("document {id} "), 1);
        docs.push(d);
    }
    docs
}

/// The background terms with the highest document frequency, most
/// frequent first.
fn frequent_terms(index: &InvertedIndex) -> Vec<String> {
    let mut background: Vec<(u32, String)> = (0..2_000)
        .map(|i| format!("common{i}"))
        .map(|t| (index.doc_freq_str(&t), t))
        .collect();
    background.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    background
        .into_iter()
        .take(FREQUENT_TERMS)
        .map(|(_, t)| t)
        .collect()
}

/// Inverse-CDF Zipf sampler over `0..n` (index 0 most likely).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-exponent);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let x: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

/// Draws queries of 2–4 distinct indexed terms: topic terms with Zipf skew,
/// and in half of them one of the frequent background terms.
struct QueryGen<'a> {
    index: &'a InvertedIndex,
    frequent: &'a [String],
    topic_term: Zipf,
}

impl<'a> QueryGen<'a> {
    fn new(index: &'a InvertedIndex, frequent: &'a [String]) -> Self {
        Self {
            index,
            frequent,
            topic_term: Zipf::new(400, 1.0),
        }
    }

    /// The query at pool position `at`. Its shape — whether it carries a
    /// frequent term, which one, and how many terms — follows from the
    /// position alone, so the popular head of a pool looks alike under
    /// every seed and only the drawn terms differ.
    fn query(&self, rng: &mut StdRng, at: usize) -> String {
        let topic = rng.gen_range(0..16usize);
        let len = 2 + (at / 2) % 3;
        let mut terms: Vec<String> = Vec::with_capacity(len);
        if at.is_multiple_of(2) {
            terms.push(self.frequent[(at / 2) % self.frequent.len()].clone());
        }
        while terms.len() < len {
            let t = format!("topic{topic}word{}", self.topic_term.sample(rng));
            if !terms.contains(&t) && self.index.doc_freq_str(&t) > 0 {
                terms.push(t);
            }
        }
        terms.join(" ")
    }

    /// `size` distinct queries, each retrieving at least `min_hits`
    /// documents.
    fn pool(&mut self, rng: &mut StdRng, size: usize, min_hits: usize) -> Vec<String> {
        let mut seen = HashSet::new();
        let mut pool = Vec::with_capacity(size);
        while pool.len() < size {
            let q = self.query(rng, pool.len());
            if seen.contains(&q) {
                continue;
            }
            // One term in `min_hits` documents is enough for that many hits.
            if !q
                .split(' ')
                .any(|t| self.index.doc_freq_str(t) as usize >= min_hits)
            {
                continue;
            }
            seen.insert(q.clone());
            pool.push(q);
        }
        pool
    }
}

/// The top `k` document ids for `query`.
pub fn top_k(index: &InvertedIndex, query: &str, k: usize) -> Vec<u32> {
    let terms = index.analyze_query(query);
    search_top_k_with(
        index,
        Bm25Params::default(),
        &terms,
        k,
        &TopKOptions::default(),
    )
    .0
    .iter()
    .map(|h| h.doc.0)
    .collect()
}

/// Analyst sessions: one `/rank` for a query drawn with Zipf skew (so
/// popular queries recur), then 4–8 explanation requests on documents of
/// that query's top 10 (higher ranks more often).
fn sessions(
    index: &InvertedIndex,
    gen: &mut QueryGen<'_>,
    rng: &mut StdRng,
    pool_size: usize,
    count: usize,
) -> Vec<Op> {
    let pool = gen.pool(rng, pool_size, K);
    let pick = Zipf::new(pool.len(), 0.8);
    let rank_pick = Zipf::new(K, 1.0);
    let mut ops = Vec::new();
    // Families are dealt from shuffled decks of all eight, so every seed
    // sends each family equally often.
    let mut deck: Vec<Family> = Vec::new();
    for _ in 0..count {
        let query = pool[pick.sample(rng)].clone();
        let top = top_k(index, &query, K);
        ops.push(Op::Rank {
            query: query.clone(),
        });
        for _ in 0..rng.gen_range(4..=8usize) {
            if deck.is_empty() {
                deck = Family::ALL.to_vec();
                deck.shuffle(rng);
            }
            let family = deck.pop().expect("refilled above");
            let mut rank = rank_pick.sample(rng) + 1;
            if family == Family::QueryAugmentation && rank == 1 {
                rank = rng.gen_range(2..=K);
            }
            let doc = top[rank - 1];
            let n = [1, 1, 1, 2, 2, 3][rng.gen_range(0..6usize)];
            let edit = (family == Family::Rerank).then(|| {
                let body = &index
                    .document(credence_index::DocId(doc))
                    .expect("ranked")
                    .body;
                drop_sentence(body, rng)
            });
            ops.push(Op::Explain {
                family,
                query: query.clone(),
                doc,
                rank,
                n,
                edit,
            });
        }
    }
    ops
}

/// One explanation per family on the document ranked second for the first
/// query of `reads` that retrieves `K` documents.
fn layer_probe(index: &InvertedIndex, reads: &[Op], rng: &mut StdRng) -> Vec<Op> {
    let Some((query, top)) = reads.iter().filter_map(Op::query).find_map(|q| {
        let top = top_k(index, q, K);
        (top.len() == K).then(|| (q.to_string(), top))
    }) else {
        return Vec::new();
    };
    let doc = top[1];
    let body = &index
        .document(credence_index::DocId(doc))
        .expect("ranked")
        .body;
    Family::ALL
        .iter()
        .map(|&family| Op::Explain {
            family,
            query: query.clone(),
            doc,
            rank: 2,
            n: 1,
            edit: (family == Family::Rerank).then(|| drop_sentence(body, rng)),
        })
        .collect()
}

/// The sentences of a synthetic body (each ends with a period).
fn sentences(body: &str) -> Vec<&str> {
    body.split_inclusive(". ")
        .map(str::trim_end)
        .filter(|s| !s.is_empty())
        .collect()
}

/// A builder edit: the body with one sentence removed.
fn drop_sentence(body: &str, rng: &mut StdRng) -> String {
    let mut parts = sentences(body);
    if parts.len() > 1 {
        parts.remove(rng.gen_range(0..parts.len()));
    }
    parts.join(" ")
}

/// `count` rewrites of seeded documents with their sentences reordered,
/// which keeps term counts, lengths and doc ids, so every ranking and read
/// stays valid across the publishes.
fn rewrites(docs: &[Document], corpus: &str, count: usize, rng: &mut StdRng) -> Vec<Op> {
    (0..count)
        .map(|_| {
            let doc = &docs[rng.gen_range(0..docs.len())];
            let mut parts = sentences(&doc.body);
            let original = parts.clone();
            while parts.len() > 1 && parts == original {
                parts.shuffle(rng);
            }
            Op::Write {
                corpus: corpus.to_string(),
                name: doc.name.clone(),
                title: doc.title.clone(),
                body: parts.join(" "),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use credence_index::DocId;

    const KINDS: [Kind; 3] = [Kind::Rank, Kind::Explain, Kind::Ingest];

    #[test]
    fn one_seed_gives_the_same_bytes_and_another_seed_other_bytes() {
        for kind in KINDS {
            let a = Workload::generate(kind, 11, 10).fingerprint();
            assert_eq!(
                a,
                Workload::generate(kind, 11, 10).fingerprint(),
                "{kind:?}"
            );
            assert_ne!(
                a,
                Workload::generate(kind, 12, 10).fingerprint(),
                "{kind:?}"
            );
        }
    }

    fn term_counts(body: &str) -> Vec<String> {
        let mut terms: Vec<String> = Analyzer::english().analyze(body);
        terms.sort();
        terms
    }

    #[test]
    fn every_generated_request_is_valid() {
        for kind in KINDS {
            let wl = Workload::generate(kind, 5, 10);
            let index = InvertedIndex::build(wl.docs.clone(), Analyzer::english());
            for op in wl.reads.iter().chain(&wl.layer_probe) {
                let query = op.query().expect("reads carry a query");
                let terms: HashSet<_> = index.analyze_query(query).into_iter().collect();
                assert!((2..=4).contains(&terms.len()), "{query:?}");
                let top = top_k(&index, query, K);
                assert!(!top.is_empty(), "{query:?} retrieves nothing");
                if let Op::Explain {
                    family,
                    doc,
                    rank,
                    n,
                    edit,
                    ..
                } = op
                {
                    assert_eq!(top.get(rank - 1), Some(doc), "{op:?}");
                    assert!((1..=3).contains(n));
                    match family {
                        Family::QueryAugmentation => assert!(*rank >= 2, "{op:?}"),
                        Family::QueryReduction => assert!(terms.len() >= 2),
                        Family::Rerank => {
                            let body = &index.document(DocId(*doc)).unwrap().body;
                            let edit = edit.as_deref().expect("rerank carries an edit");
                            assert!(
                                edit.len() < body.len()
                                    && body.contains(edit.split(". ").next().unwrap())
                            );
                        }
                        _ => assert!(edit.is_none()),
                    }
                }
            }
            let writes: Vec<&Op> = wl
                .writes
                .iter()
                .filter(|op| matches!(op, Op::Write { .. }))
                .collect();
            match kind {
                Kind::Ingest => assert_eq!(writes.len(), 10),
                Kind::Rank | Kind::Explain => {
                    assert!(matches!(wl.writes[0], Op::Register { .. }));
                    assert_eq!(writes.len(), PROBE_WRITES);
                }
            }
            let docs: Vec<Document> = match &wl.writes[0] {
                Op::Register { docs, .. } => docs.clone(),
                _ => wl.docs.clone(),
            };
            for op in writes {
                let Op::Write { name, body, .. } = op else {
                    unreachable!()
                };
                let original = docs
                    .iter()
                    .find(|d| &d.name == name)
                    .expect("rewrites an existing document");
                assert_ne!(&original.body, body, "the sentences are reordered");
                assert_eq!(
                    term_counts(&original.body),
                    term_counts(body),
                    "same terms, same counts"
                );
            }
        }
    }

    #[test]
    fn rank_queries_mostly_differ_and_half_carry_a_frequent_term() {
        let wl = Workload::generate(Kind::Rank, 3, 10);
        assert!(wl.share_repeated() < 0.5, "{}", wl.share_repeated());
        assert!(
            (0.4..0.6).contains(&wl.share_frequent()),
            "{}",
            wl.share_frequent()
        );
        assert_eq!(wl.layer_probe.len(), Family::ALL.len());
    }
}
