//! Property-based tests on the system's core invariants, running on the
//! in-repo `credence_repro::prop` harness (no registry dependencies).
//!
//! These cover the guarantees the paper's algorithms rely on: minimality
//! ordering of the combination search, validity of every returned
//! counterfactual, permutation behaviour of pool re-ranking, BM25
//! monotonicity, analyzer/JSON round-trips, and LDA count invariants.
//!
//! Every property runs on a pinned seed (derived from its name; override
//! with `CREDENCE_PROP_SEED` to replay a failure), so the suite is fully
//! deterministic.

use credence_repro::prop;
use credence_repro::prop::{gens, Gen, GenSet};
use credence_repro::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume};

use credence_core::{CandidateOrdering, ComboSearch, SearchBudget};
use credence_index::score::{bm25_idf, bm25_term_weight};
use credence_index::vector::{cosine_similarity, SparseVector};
use credence_index::{
    Bm25Params, CollectionStats, DeltaOp, Document, GenerationIndex, InvertedIndex,
};
use credence_rank::{rank_corpus, rank_corpus_scan, rerank_pool, Bm25Ranker, Opaque, Ranker};
use credence_rng::rngs::StdRng;
use credence_rng::Rng;
use credence_text::{porter_stem, split_sentences, tokenize, Analyzer};

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const SENTENCE_ALPHABET: &str =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 .!?\n";
const BODY_ALPHABET: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ .,";

// ---------------------------------------------------------------------------
// The harness itself: the shrinking path must find minimal counterexamples.
// ---------------------------------------------------------------------------

/// Not a system property — a meta-test pinning the harness's shrinking
/// behaviour, so a regression in the shrinker fails loudly here rather than
/// silently degrading every counterexample below.
#[test]
fn harness_shrinks_to_minimal_counterexample() {
    let gens = (gens::vec_of(gens::u32_range(0..100), 0..16),);
    let fails = |v: &Vec<u32>| v.iter().sum::<u32>() >= 90;
    let failure = prop::check(
        "meta_sum_below_90",
        &prop::Config::default(),
        &gens,
        |(v,): &(Vec<u32>,)| {
            if fails(v) {
                prop::TestResult::fail("sum too large")
            } else {
                prop::TestResult::Pass
            }
        },
    )
    .expect("the property is falsifiable");

    let (minimal,) = &failure.minimal;
    let (original,) = &failure.original;
    assert!(fails(minimal), "shrunk case must still fail: {minimal:?}");
    assert!(
        minimal.len() <= original.len() && minimal.iter().sum::<u32>() <= original.iter().sum(),
        "shrinking must not grow the counterexample"
    );
    // Local minimality: every candidate the shrinker proposes passes, so
    // greedy descent genuinely ran to a fixed point (this forces the sum to
    // land exactly on the 90 boundary, since decrementing any element is
    // always among the candidates).
    for cand in gens.shrink(&failure.minimal) {
        assert!(
            !fails(&cand.0),
            "shrink stopped early: {cand:?} still fails"
        );
    }
    assert_eq!(minimal.iter().sum::<u32>(), 90);
}

// ---------------------------------------------------------------------------
// Combination search (the minimality engine).
// ---------------------------------------------------------------------------

prop! {
    /// Size-major order: every emitted combination is at least as large as
    /// its predecessor — the paper's minimality guarantee.
    fn combos_are_size_major(scores in gens::vec_of(gens::f64_range(0.0..100.0), 0..8)) {
        let combos: Vec<_> = ComboSearch::new(
            scores,
            SearchBudget { max_size: 4, max_candidates: 8, max_evaluations: 5_000 },
            CandidateOrdering::ImportanceGuided,
        ).collect();
        let sizes: Vec<usize> = combos.iter().map(|c| c.items.len()).collect();
        prop_assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");
    }
}

prop! {
    /// Within one size level, scores never increase.
    fn combos_scores_descend_within_level(scores in gens::vec_of(gens::f64_range(0.0..100.0), 0..8)) {
        let combos: Vec<_> = ComboSearch::new(
            scores,
            SearchBudget { max_size: 3, max_candidates: 8, max_evaluations: 5_000 },
            CandidateOrdering::ImportanceGuided,
        ).collect();
        for size in 1..=3usize {
            let level: Vec<f64> = combos
                .iter()
                .filter(|c| c.items.len() == size)
                .map(|c| c.score)
                .collect();
            prop_assert!(level.windows(2).all(|w| w[0] >= w[1] - 1e-9));
        }
    }
}

prop! {
    /// No duplicates, and every combination's members are distinct.
    fn combos_are_unique_sets(scores in gens::vec_of(gens::f64_range(0.0..10.0), 0..7)) {
        let combos: Vec<_> = ComboSearch::new(
            scores,
            SearchBudget { max_size: 7, max_candidates: 7, max_evaluations: 10_000 },
            CandidateOrdering::ImportanceGuided,
        ).collect();
        let mut seen = std::collections::HashSet::new();
        for c in &combos {
            let mut items = c.items.clone();
            items.dedup();
            prop_assert_eq!(items.len(), c.items.len(), "duplicate member");
            prop_assert!(seen.insert(c.items.clone()), "duplicate combination");
        }
        // Completeness: sum over j of C(n, j) combinations.
        let n = scores.len();
        let expected: usize = (1..=n).map(|j| binom(n, j)).sum();
        prop_assert_eq!(combos.len(), expected);
    }
}

fn binom(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let mut r = 1usize;
    for i in 0..k {
        r = r * (n - i) / (i + 1);
    }
    r
}

// ---------------------------------------------------------------------------
// BM25 and vectors.
// ---------------------------------------------------------------------------

prop! {
    /// idf is positive and monotone decreasing in df for any corpus size.
    fn idf_positive_monotone(
        n in gens::usize_range(1..100_000),
        df1 in gens::u32_range(0..1000),
        df2 in gens::u32_range(0..1000),
    ) {
        let (n, df1, df2) = (*n, *df1, *df2);
        let (lo, hi) = if df1 <= df2 { (df1, df2) } else { (df2, df1) };
        prop_assume!(hi as usize <= n);
        prop_assert!(bm25_idf(n, hi) > 0.0);
        prop_assert!(bm25_idf(n, lo) >= bm25_idf(n, hi));
    }
}

prop! {
    /// BM25 term weight is monotone in tf and bounded by (k1+1)·idf.
    fn bm25_monotone_and_bounded(
        tf1 in gens::u32_range(0..500),
        tf2 in gens::u32_range(0..500),
        dl in gens::u32_range(1..1000),
    ) {
        let (tf1, tf2, dl) = (*tf1, *tf2, *dl);
        let stats = CollectionStats {
            num_docs: 100,
            total_terms: 5000,
            doc_freq: vec![10],
            coll_freq: vec![50],
        };
        let p = Bm25Params::default();
        let (lo, hi) = if tf1 <= tf2 { (tf1, tf2) } else { (tf2, tf1) };
        let w_lo = bm25_term_weight(p, &stats, 0, lo, dl);
        let w_hi = bm25_term_weight(p, &stats, 0, hi, dl);
        prop_assert!(w_lo <= w_hi + 1e-12);
        let bound = (p.k1 + 1.0) * bm25_idf(100, 10);
        prop_assert!(w_hi <= bound + 1e-9);
    }
}

prop! {
    /// Cosine similarity is symmetric and bounded.
    fn cosine_symmetric_bounded(
        a in gens::vec_of(gens::pair(gens::u32_range(0..50), gens::f64_range(-10.0..10.0)), 0..20),
        b in gens::vec_of(gens::pair(gens::u32_range(0..50), gens::f64_range(-10.0..10.0)), 0..20),
    ) {
        let va = SparseVector::from_pairs(a.clone());
        let vb = SparseVector::from_pairs(b.clone());
        let ab = cosine_similarity(&va, &vb);
        let ba = cosine_similarity(&vb, &va);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((-1.0..=1.0).contains(&ab));
    }
}

// ---------------------------------------------------------------------------
// Text pipeline.
// ---------------------------------------------------------------------------

prop! {
    /// Token offsets always slice the source text to the raw token.
    fn token_offsets_slice_source(text in gens::any_string(0..301)) {
        for tok in tokenize(text) {
            prop_assert_eq!(&text[tok.start..tok.end], tok.raw.as_str());
        }
    }
}

prop! {
    /// Sentence spans are ordered, non-overlapping, and within bounds.
    fn sentence_spans_are_ordered(text in gens::string_of(SENTENCE_ALPHABET, 0..401)) {
        let sents = split_sentences(text);
        let mut prev_end = 0usize;
        for s in &sents {
            prop_assert!(s.start >= prev_end);
            prop_assert!(s.end <= text.len());
            prop_assert!(s.start <= s.end);
            prev_end = s.end;
        }
    }
}

prop! {
    /// Analysis is deterministic and stable under repetition.
    fn analysis_is_deterministic(text in gens::any_string(0..201)) {
        let a = Analyzer::english();
        prop_assert_eq!(a.analyze(text), a.analyze(text));
    }
}

prop! {
    /// Stemming lowercase ascii words never panics and never grows a word.
    fn stemming_never_grows(word in gens::string_of(LOWER, 1..21)) {
        let stem = porter_stem(word);
        prop_assert!(stem.len() <= word.len());
        prop_assert!(!stem.is_empty());
    }
}

// ---------------------------------------------------------------------------
// JSON round-trip.
// ---------------------------------------------------------------------------

/// Arbitrary JSON trees (depth ≤ 3, fanout ≤ 4), with a structural
/// shrinker: any node simplifies toward `Null`, containers also shed
/// children one at a time.
fn arb_json() -> Gen<credence_json::Value> {
    Gen::with_shrink(|rng| gen_json(rng, 3), shrink_json)
}

fn gen_json(rng: &mut StdRng, depth: usize) -> credence_json::Value {
    use credence_json::Value;
    // Match the original strategy: strings avoid backslash and quote so
    // escaping itself is exercised by the dedicated parser properties.
    const STR_ALPHABET: &str = "abcdefghijklmnopqrstuvwxyz0123456789 _-+./:{}[]";
    let max_variant = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..max_variant) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Number(rng.gen_range(-1e12..1e12)),
        3 => {
            let n = rng.gen_range(0..21);
            let chars: Vec<char> = STR_ALPHABET.chars().collect();
            Value::String(
                (0..n)
                    .map(|_| chars[rng.gen_range(0..chars.len())])
                    .collect(),
            )
        }
        4 => {
            let n = rng.gen_range(0..4);
            Value::Array((0..n).map(|_| gen_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0..4);
            Value::Object(
                (0..n)
                    .map(|_| {
                        let klen = rng.gen_range(1..7);
                        let key: String = (0..klen)
                            .map(|_| {
                                let lower: Vec<char> = LOWER.chars().collect();
                                lower[rng.gen_range(0..lower.len())]
                            })
                            .collect();
                        (key, gen_json(rng, depth - 1))
                    })
                    .collect(),
            )
        }
    }
}

fn shrink_json(v: &credence_json::Value) -> Vec<credence_json::Value> {
    use credence_json::Value;
    let mut out = Vec::new();
    match v {
        Value::Null => {}
        Value::Bool(true) => out.push(Value::Bool(false)),
        Value::Bool(false) => out.push(Value::Null),
        Value::Number(n) => {
            out.push(Value::Null);
            if *n != 0.0 {
                out.push(Value::Number(0.0));
                out.push(Value::Number((*n / 2.0).trunc()));
            }
        }
        Value::String(s) => {
            out.push(Value::Null);
            if !s.is_empty() {
                out.push(Value::String(String::new()));
                out.push(Value::String(s[..s.len() / 2].to_string()));
            }
        }
        Value::Array(items) => {
            out.push(Value::Null);
            for i in 0..items.len() {
                let mut smaller = items.clone();
                smaller.remove(i);
                out.push(Value::Array(smaller));
            }
            for (i, item) in items.iter().enumerate().take(4) {
                for shrunk in shrink_json(item) {
                    let mut next = items.clone();
                    next[i] = shrunk;
                    out.push(Value::Array(next));
                }
            }
        }
        Value::Object(map) => {
            out.push(Value::Null);
            for key in map.keys() {
                let mut smaller = map.clone();
                smaller.remove(key);
                out.push(Value::Object(smaller));
            }
            for (key, child) in map.iter().take(4) {
                for shrunk in shrink_json(child) {
                    let mut next = map.clone();
                    next.insert(key.clone(), shrunk);
                    out.push(Value::Object(next));
                }
            }
        }
    }
    out
}

prop! {
    /// parse(to_string(v)) == v for arbitrary JSON trees.
    fn json_round_trip(v in arb_json()) {
        let s = credence_json::to_string(v);
        let back = credence_json::parse(&s).unwrap();
        // Numbers lose nothing here (we stay in f64 integral/decimal
        // range), so exact equality is expected.
        prop_assert_eq!(&back, v);
    }
}

// ---------------------------------------------------------------------------
// Ranking invariants over generated corpora.
// ---------------------------------------------------------------------------

fn arb_body() -> Gen<String> {
    let word = gens::one_of(vec![
        gens::just("covid"),
        gens::just("outbreak"),
        gens::just("vaccine"),
        gens::just("garden"),
        gens::just("flowers"),
        gens::just("tracking"),
        gens::just("harbor"),
        gens::just("economy"),
    ]);
    let sentence = gens::vec_of(word, 3..10).map(|ws| format!("{}.", ws.join(" ")));
    gens::vec_of(sentence, 1..5).map(|ss| ss.join(" "))
}

fn arb_corpus() -> Gen<Vec<Document>> {
    gens::vec_of(arb_body().map(Document::from_body), 2..10)
}

/// One staged write: its kind, the name slot `d{slot}` it targets, and a
/// body. Kinds: 0 upserts the name (a rewrite when it exists, a named
/// append when not), 1 appends an unnamed document, 2 deletes the name,
/// 3 upserts the name and then deletes it.
fn arb_write() -> Gen<((u8, usize), String)> {
    gens::pair(
        gens::pair(gens::u8_range(0..4), gens::usize_range(0..12)),
        arb_body(),
    )
}

prop! {
    /// Corpus ranking is sorted by score with deterministic tie-breaks, and
    /// contains no unmatched documents for a lexical ranker.
    config(cases = 64);
    fn ranking_is_sorted_and_matched(docs in arb_corpus()) {
        let idx = InvertedIndex::build(docs.clone(), Analyzer::english());
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        for ranking in [
            rank_corpus(&ranker, "covid outbreak"),
            rank_corpus_scan(&ranker, "covid outbreak", 1, None),
        ] {
            let entries = ranking.entries();
            for w in entries.windows(2) {
                prop_assert!(w[0].1 >= w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
            }
            for &(_, score) in entries {
                prop_assert!(score > 0.0);
            }
        }
    }
}

prop! {
    /// Pool re-ranking is always a permutation of the pool with dense ranks,
    /// regardless of the substituted body.
    config(cases = 64);
    fn rerank_is_permutation(docs in arb_corpus(), body in gens::string_of("abcdefghijklmnopqrstuvwxyz ", 0..61)) {
        let idx = InvertedIndex::build(docs.clone(), Analyzer::english());
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let ranking = rank_corpus(&ranker, "covid outbreak");
        prop_assume!(!ranking.is_empty());
        let pool = ranking.top_k(4.min(ranking.len()));
        let target = pool[0];
        let rows = rerank_pool(&ranker, "covid outbreak", &pool, Some((target, body.as_str())));
        let mut docs_out: Vec<_> = rows.iter().map(|r| r.doc).collect();
        docs_out.sort_unstable();
        let mut expected = pool.clone();
        expected.sort_unstable();
        prop_assert_eq!(docs_out, expected);
        let mut ranks: Vec<_> = rows.iter().map(|r| r.new_rank).collect();
        ranks.sort_unstable();
        prop_assert_eq!(ranks, (1..=pool.len()).collect::<Vec<_>>());
    }
}

prop! {
    /// Scoring a document's own body ad hoc equals its indexed score —
    /// the contract that makes perturbation scoring meaningful.
    config(cases = 64);
    fn adhoc_matches_indexed(docs in arb_corpus()) {
        let idx = InvertedIndex::build(docs.clone(), Analyzer::english());
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        for d in idx.doc_ids() {
            let body = idx.document(d).unwrap().body.clone();
            let a = ranker.score_doc("covid outbreak vaccine", d);
            let b = ranker.score_text("covid outbreak vaccine", &body);
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}

prop! {
    /// A merge reuses its parent generation's analysis of every document
    /// its ops left alone, and still publishes exactly the segment a
    /// scratch build of the same documents makes, field by field:
    /// vocabulary ids and strings, postings and their block metadata, each
    /// document's terms and length, the statistics, and the term bounds and
    /// length norms bit for bit. Over folds of rewrites, named and unnamed
    /// appends, deletes, and an upsert and a delete of one name.
    config(cases = 64);
    fn merges_equal_a_scratch_build(
        docs in arb_corpus(),
        folds in gens::vec_of(gens::vec_of(arb_write(), 1..5), 1..5),
    ) {
        let named = docs
            .iter()
            .enumerate()
            .map(|(i, d)| Document::new(format!("d{i}"), "", d.body.as_str()))
            .collect();
        let g = GenerationIndex::new(named, Analyzer::english());
        for (n, fold) in folds.iter().enumerate() {
            for ((kind, slot), body) in fold {
                let name = format!("d{slot}");
                let upsert = DeltaOp::Upsert(Document::new(name.as_str(), "", body.as_str()));
                match kind {
                    0 => g.stage(upsert),
                    1 => g.stage(DeltaOp::Upsert(Document::from_body(body.as_str()))),
                    2 => g.stage(DeltaOp::Delete(name)),
                    _ => {
                        g.stage(upsert);
                        g.stage(DeltaOp::Delete(name))
                    }
                };
            }
            let merged = g.merge_once().expect("a staged fold publishes").index;
            let scratch = InvertedIndex::build(merged.documents().to_vec(), Analyzer::english());
            prop_assert!(*merged == scratch, "fold {n} differs from a scratch build");
        }
    }
}

// ---------------------------------------------------------------------------
// LDA count invariants under arbitrary corpora.
// ---------------------------------------------------------------------------

prop! {
    config(cases = 16);
    fn lda_invariants_hold(
        docs in gens::vec_of(gens::vec_of(gens::usize_range(0..12), 0..30), 0..10),
        topics in gens::usize_range(1..5),
    ) {
        let topics = *topics;
        let model = credence_topics::LdaModel::fit(
            docs,
            12,
            &credence_topics::LdaConfig {
                num_topics: topics,
                iterations: 5,
                ..Default::default()
            },
        );
        prop_assert!(model.check_invariants().is_ok());
        // Distributions are proper.
        for t in 0..topics {
            let s: f64 = (0..12).map(|w| model.phi(t, w)).sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
        }
    }
}

// ---------------------------------------------------------------------------
// Builder edits.
// ---------------------------------------------------------------------------

prop! {
    /// Replacing a term with itself (case preserved by token) never changes
    /// the token stream's terms.
    fn self_replacement_preserves_terms(
        body in gens::string_of(BODY_ALPHABET, 0..121),
        term in gens::string_of(LOWER, 1..9),
    ) {
        use credence_core::{apply_edits, Edit};
        let edited = apply_edits(body, &[Edit::replace(term.clone(), term.clone())]);
        let a: Vec<String> = credence_text::tokenize(body).into_iter().map(|t| t.term).collect();
        let b: Vec<String> = credence_text::tokenize(&edited).into_iter().map(|t| t.term).collect();
        prop_assert_eq!(a, b);
    }
}

prop! {
    /// After removing a term, it never appears in the edited body's tokens.
    fn removal_is_complete(
        body in gens::string_of(BODY_ALPHABET, 0..121),
        term in gens::string_of(LOWER, 1..9),
    ) {
        use credence_core::{apply_edits, Edit};
        let edited = apply_edits(body, &[Edit::remove(term.clone())]);
        for tok in credence_text::tokenize(&edited) {
            prop_assert_ne!(&tok.term, term);
        }
    }
}

prop! {
    /// apply_edits with no edits only normalises whitespace (token stream
    /// unchanged).
    fn empty_edits_preserve_tokens(body in gens::any_string(0..151)) {
        use credence_core::apply_edits;
        let edited = apply_edits(body, &[]);
        let a: Vec<String> = credence_text::tokenize(body).into_iter().map(|t| t.term).collect();
        let b: Vec<String> = credence_text::tokenize(&edited).into_iter().map(|t| t.term).collect();
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------------
// HTTP request parsing.
// ---------------------------------------------------------------------------

prop! {
    /// The HTTP parser never panics on arbitrary bytes.
    fn http_parser_never_panics(bytes in gens::vec_of(gens::u8_any(), 0..300)) {
        let _ = credence_server::http::read_request(bytes.as_slice());
    }
}

prop! {
    /// Round trip: a well-formed POST with arbitrary body parses back
    /// exactly.
    fn http_post_round_trips(body in gens::vec_of(gens::u8_any(), 0..200)) {
        let mut raw = format!(
            "POST /rank HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        ).into_bytes();
        raw.extend_from_slice(body);
        let req = credence_server::http::read_request(raw.as_slice()).unwrap();
        prop_assert_eq!(&req.method, "POST");
        prop_assert_eq!(&req.body, body);
    }
}

// ---------------------------------------------------------------------------
// Minimality against brute force.
// ---------------------------------------------------------------------------

/// Brute force: smallest subset size of sentence removals that pushes the
/// document past k, or None if none does (within all subsets).
fn brute_force_min_removal(
    ranker: &Bm25Ranker<'_>,
    query: &str,
    k: usize,
    doc: credence_index::DocId,
) -> Option<usize> {
    let body = ranker.index().document(doc)?.body.clone();
    let sentences = split_sentences(&body);
    let n = sentences.len();
    let ranking = rank_corpus_scan(ranker, query, 1, None);
    let pool = ranking.top_k(k + 1);
    let mut best: Option<usize> = None;
    for mask in 1u32..(1 << n) {
        let size = mask.count_ones() as usize;
        if best.is_some_and(|b| size >= b) {
            continue;
        }
        let kept: Vec<&str> = sentences
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) == 0)
            .map(|(_, s)| s.text.as_str())
            .collect();
        let perturbed = kept.join(" ");
        let rows = rerank_pool(ranker, query, &pool, Some((doc, &perturbed)));
        let rank = rows.iter().find(|r| r.substituted).map(|r| r.new_rank);
        if rank.is_some_and(|r| r > k) {
            best = Some(size);
        }
    }
    best
}

prop! {
    /// The explainer's first explanation has exactly the brute-force-minimal
    /// size (when both find one) — the paper's minimality claim, verified
    /// against exhaustive search on small documents.
    config(cases = 24);
    fn sentence_removal_matches_brute_force_minimum(docs in arb_corpus()) {
        use credence_core::{explain_sentence_removal, SentenceRemovalConfig, SearchBudget};
        let idx = InvertedIndex::build(docs.clone(), Analyzer::english());
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let query = "covid outbreak";
        let ranking = rank_corpus(&ranker, query);
        prop_assume!(!ranking.is_empty());
        let k = 2.min(ranking.len());
        let doc = ranking.top_k(k)[k - 1];
        // Keep documents small so brute force is cheap.
        let n_sentences = split_sentences(
            &idx.document(doc).unwrap().body,
        ).len();
        prop_assume!(n_sentences <= 6);

        let result = explain_sentence_removal(
            &ranker,
            query,
            k,
            doc,
            &SentenceRemovalConfig {
                n: 1,
                budget: SearchBudget {
                    max_size: 6,
                    max_candidates: 6,
                    max_evaluations: 100_000,
                },
                ..Default::default()
            },
            &ranking,
            None,
        );
        let found = result
            .ok()
            .and_then(|r| r.explanations.first().map(|e| e.removed.len()));
        let brute = brute_force_min_removal(&ranker, query, k, doc);
        prop_assert_eq!(found, brute, "explainer vs exhaustive search: {found:?} vs {brute:?}");
    }
}

// ---------------------------------------------------------------------------
// JSON parser robustness.
// ---------------------------------------------------------------------------

prop! {
    /// The JSON parser never panics on arbitrary input strings.
    fn json_parser_never_panics(input in gens::any_string(0..301)) {
        let _ = credence_json::parse(input);
    }
}

prop! {
    /// Valid-prefix mutation: flipping one char of serialised JSON either
    /// fails to parse or parses into *some* valid value — never panics.
    fn json_mutation_never_panics(
        v in arb_json(),
        pos_seed in gens::u64_any(),
        c in gens::char_any(),
    ) {
        let mut s = credence_json::to_string(v);
        if !s.is_empty() {
            let chars: Vec<char> = s.chars().collect();
            let pos = (*pos_seed as usize) % chars.len();
            let mutated: String = chars
                .iter()
                .enumerate()
                .map(|(i, &orig)| if i == pos { *c } else { orig })
                .collect();
            s = mutated;
        }
        let _ = credence_json::parse(&s);
    }
}

// ---------------------------------------------------------------------------
// Candidate-evaluation engine parity: the incremental scorers and the
// multi-threaded level evaluation must be bit-for-bit identical to the
// exact serial reference path on every explainer. The reference runs BM25
// behind `Opaque`, which hides its term weights, so it takes the exact
// path RM3 and neural-sim take. `parallel_threshold: 1` forces the
// threaded path even on the small generated corpora, and the results
// derive `PartialEq` over their `f64` scores, so equality here is exact
// float equality, not tolerance.
// ---------------------------------------------------------------------------

/// A forced-parallel configuration for the parity properties.
fn parity_eval(threads: usize) -> credence_core::EvalOptions {
    credence_core::EvalOptions {
        threads,
        parallel_threshold: 1,
    }
}

prop! {
    /// Sentence removal: parallel + delta scoring equals exact serial.
    config(cases = 24);
    fn sentence_removal_engine_parity(
        docs in arb_corpus(),
        n in gens::usize_range(1..4),
        threads in gens::usize_range(2..5),
    ) {
        use credence_core::{explain_sentence_removal, EvalOptions, SentenceRemovalConfig};
        let idx = InvertedIndex::build(docs.clone(), Analyzer::english());
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let ranking = rank_corpus_scan(&ranker, "covid outbreak", 1, None);
        prop_assume!(!ranking.is_empty());
        let doc = ranking.entries()[0].0;
        let k = 1.max(ranking.len() / 2);
        let mk = |eval| SentenceRemovalConfig { n: *n, eval, ..Default::default() };
        let serial = explain_sentence_removal(&Opaque(&ranker), "covid outbreak", k, doc, &mk(EvalOptions::serial()), &ranking, None);
        let retrieved = rank_corpus(&ranker, "covid outbreak");
        let engine = explain_sentence_removal(&ranker, "covid outbreak", k, doc, &mk(parity_eval(*threads)), &retrieved, None);
        prop_assert_eq!(serial, engine);
    }
}

prop! {
    /// Budget-limited search is prefix-consistent: capping the evaluation
    /// count returns exactly the uncapped run's best-so-far — the
    /// explanations discovered within the first `candidates_evaluated`
    /// evaluations, in the same order — never a different search path.
    config(cases = 24);
    fn budgeted_search_is_a_prefix_of_the_full_search(
        docs in arb_corpus(),
        cap_seed in gens::usize_range(1..64),
    ) {
        use credence_core::{explain_sentence_removal, Budget, SearchStatus, SentenceRemovalConfig};
        let idx = InvertedIndex::build(docs.clone(), Analyzer::english());
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let ranking = rank_corpus(&ranker, "covid outbreak");
        prop_assume!(!ranking.is_empty());
        let doc = ranking.entries()[0].0;
        let k = 1.max(ranking.len() / 2);
        let mk = |lifecycle| SentenceRemovalConfig { n: 8, lifecycle, ..Default::default() };

        let full = explain_sentence_removal(&ranker, "covid outbreak", k, doc, &mk(Budget::unlimited()), &ranking, None);
        prop_assume!(full.is_ok());
        let full = full.unwrap();
        prop_assert_eq!(full.status, SearchStatus::Complete);

        let cap = 1 + (*cap_seed % (full.candidates_evaluated + 1));
        let capped = explain_sentence_removal(
            &ranker, "covid outbreak", k, doc, &mk(Budget::unlimited().with_max_evals(cap)),
            &ranking, None,
        ).unwrap();

        // The cap is a hard ceiling, honoured at batch granularity.
        prop_assert!(capped.candidates_evaluated <= cap);
        prop_assert!(capped.candidates_evaluated <= full.candidates_evaluated);
        if capped.status == SearchStatus::Complete {
            prop_assert_eq!(&capped, &full);
        } else {
            prop_assert_eq!(capped.status, SearchStatus::Exhausted);
            // Same best-so-far as the full run truncated at the capped
            // run's evaluation count: exact equality, element by element.
            let prefix: Vec<_> = full
                .explanations
                .iter()
                .filter(|e| e.candidates_evaluated <= capped.candidates_evaluated)
                .cloned()
                .collect();
            prop_assert_eq!(capped.explanations, prefix);
        }
    }
}

prop! {
    /// Query augmentation: parallel + posting-list scoring equals exact serial.
    config(cases = 24);
    fn query_augmentation_engine_parity(
        docs in arb_corpus(),
        n in gens::usize_range(1..4),
        threads in gens::usize_range(2..5),
    ) {
        use credence_core::{explain_query_augmentation, EvalOptions, QueryAugmentationConfig};
        let idx = InvertedIndex::build(docs.clone(), Analyzer::english());
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let ranking = rank_corpus_scan(&ranker, "covid outbreak", 1, None);
        prop_assume!(ranking.len() >= 2);
        // The last-ranked document: ranked, and strictly below threshold 1.
        let doc = ranking.entries()[ranking.len() - 1].0;
        let mk = |eval| QueryAugmentationConfig { n: *n, threshold: 1, eval, ..Default::default() };
        let serial = explain_query_augmentation(&Opaque(&ranker), "covid outbreak", 1, doc, &mk(EvalOptions::serial()), &ranking);
        let retrieved = rank_corpus(&ranker, "covid outbreak");
        let engine = explain_query_augmentation(&ranker, "covid outbreak", 1, doc, &mk(parity_eval(*threads)), &retrieved);
        prop_assert_eq!(serial, engine);
    }
}

prop! {
    /// Query reduction: parallel + subset scoring equals exact serial.
    config(cases = 24);
    fn query_reduction_engine_parity(
        docs in arb_corpus(),
        n in gens::usize_range(1..4),
        threads in gens::usize_range(2..5),
    ) {
        use credence_core::{explain_query_reduction, EvalOptions, QueryReductionConfig};
        let idx = InvertedIndex::build(docs.clone(), Analyzer::english());
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let query = "covid outbreak vaccine";
        let ranking = rank_corpus_scan(&ranker, query, 1, None);
        prop_assume!(!ranking.is_empty());
        let doc = ranking.entries()[0].0;
        let mk = |eval| QueryReductionConfig { n: *n, eval, ..Default::default() };
        let serial = explain_query_reduction(&Opaque(&ranker), query, 1, doc, &mk(EvalOptions::serial()), &ranking);
        let engine = explain_query_reduction(&ranker, query, 1, doc, &mk(parity_eval(*threads)), &rank_corpus(&ranker, query));
        prop_assert_eq!(serial, engine);
    }
}

// ---------------------------------------------------------------------------
// Top-k retrieval parity: MaxScore pruning and the block scan must return
// *bit-identical* `(doc, score)` lists to scoring every document — scores compared via `to_bits`, not tolerance — across
// random corpora, queries with duplicate and absent terms, and every k
// regime (k = 0, partial, k ≥ corpus, ties from duplicate documents).
// ---------------------------------------------------------------------------

/// Queries over the corpus vocabulary plus a term that never occurs;
/// repeated draws produce duplicate terms.
fn arb_query() -> Gen<String> {
    let word = gens::one_of(vec![
        gens::just("covid"),
        gens::just("outbreak"),
        gens::just("vaccine"),
        gens::just("garden"),
        gens::just("tracking"),
        gens::just("economy"),
        gens::just("absentterm"),
    ]);
    gens::vec_of(word, 1..7).map(|ws| ws.join(" "))
}

prop! {
    /// `search_top_k_with` returns the scan's exact hits, and both equal a
    /// posting-free reference (every document scored, sorted, truncated)
    /// — for small k (MaxScore) and at the scan/MaxScore selection
    /// boundary, with and without a partition.
    config(cases = 64);
    fn pruned_topk_is_bit_identical_to_exhaustive(
        docs in arb_corpus(),
        query in arb_query(),
        k in gens::usize_range(0..13),
    ) {
        use credence_index::score::bm25_score_indexed;
        use credence_index::{
            search_top_k_exhaustive, search_top_k_with, PartitionSpec, TopKOptions,
        };
        let idx = InvertedIndex::build(docs.clone(), Analyzer::english());
        let q = idx.analyze_query(query);
        let params = Bm25Params::default();
        let bits = |hs: &[credence_index::SearchHit]| -> Vec<(u32, u64)> {
            hs.iter().map(|h| (h.doc.0, h.score.to_bits())).collect()
        };
        // Scoring every document needs no postings at all.
        let mut everything: Vec<credence_index::SearchHit> = idx
            .doc_ids()
            .map(|doc| credence_index::SearchHit {
                doc,
                score: bm25_score_indexed(params, &idx, &q, doc),
            })
            .filter(|h| h.score > 0.0)
            .collect();
        credence_index::sort_hits(&mut everything);
        let matched = everything.len();
        let mut uniq = q.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let summed: usize = uniq.iter().map(|&t| idx.postings_len(t)).sum();
        let most = summed.min(idx.num_docs());
        let mut ks = vec![*k, idx.num_docs()];
        for c in [matched, most] {
            ks.extend([c.saturating_sub(1), c, c + 1]);
        }
        for &k in &ks {
            let (reference, _) = search_top_k_exhaustive(&idx, params, &q, k);
            let (hits, _) = search_top_k_with(&idx, params, &q, k, &TopKOptions::default());
            prop_assert_eq!(bits(&hits), bits(&reference), "k {k}");
            let free: Vec<_> = everything.iter().copied().take(k).collect();
            prop_assert_eq!(bits(&reference), bits(&free), "posting-free, k {k}");
            for spec in [(0, 2), (1, 2), (2, 3)] {
                let part = PartitionSpec::new(spec.0, spec.1);
                let opts = TopKOptions { partition: part };
                let (hits, _) = search_top_k_with(&idx, params, &q, k, &opts);
                let owned: Vec<_> = everything
                    .iter()
                    .copied()
                    .filter(|h| part.unwrap().owns(h.doc))
                    .take(k)
                    .collect();
                prop_assert_eq!(bits(&hits), bits(&owned), "k {k}, partition {spec:?}");
            }
        }
    }
}

prop! {
    /// The engine-facing path: `rank_corpus_with`, and `rank_corpus` over
    /// it, equal the per-document scan `rank_corpus_scan` bit-for-bit for
    /// the hooked rankers (BM25, and RM3's weighted-query retrieval). And
    /// the engine's `rank_with_options` answers the scan's first `k`
    /// entries, on the ranking-cache miss (top-k retrieval, or the cached
    /// whole-corpus ranking for QL-Dirichlet, which has no retrieval) and
    /// on the hit after `full_ranking`, at every `k` around the
    /// scan/MaxScore boundary, with and without a partition. A miss caches
    /// nothing for the hooked rankers.
    config(cases = 32);
    fn rank_corpus_with_matches_reference(docs in arb_corpus(), query in arb_query()) {
        use credence_core::{CredenceEngine, EngineConfig};
        use credence_index::{PartitionSpec, TopKOptions};
        use credence_rank::{
            rank_corpus_with, QlSmoothing, QueryLikelihoodRanker, Rm3Config, Rm3Ranker,
        };
        let idx = InvertedIndex::build(docs.clone(), Analyzer::english());
        let bm25 = Bm25Ranker::new(&idx, Bm25Params::default());
        let rm3 = Rm3Ranker::new(
            &idx,
            Rm3Config { fb_docs: 3, fb_terms: 4, ..Default::default() },
        );
        let ql = QueryLikelihoodRanker::new(&idx, QlSmoothing::default());
        let rankers: [&dyn Ranker; 2] = [&bm25, &rm3];
        for ranker in rankers {
            let reference = rank_corpus_scan(ranker, query, 1, None);
            let (list, _) = rank_corpus_with(ranker, query, &TopKOptions::default(), 2);
            for got in [&list, &rank_corpus(ranker, query)] {
                prop_assert_eq!(
                    got.entries().len(),
                    reference.entries().len(),
                    "{}",
                    ranker.name()
                );
                for (a, b) in got.entries().iter().zip(reference.entries()) {
                    prop_assert_eq!(a.0, b.0, "{}", ranker.name());
                    prop_assert_eq!(a.1.to_bits(), b.1.to_bits(), "{}", ranker.name());
                }
            }
        }
        // The most candidates a query's retrieval can have, below which it
        // runs MaxScore: the smaller of the corpus size and the summed
        // posting lengths of its unique (for RM3, expanded) terms.
        let candidates = |terms: &mut Vec<credence_text::TermId>| {
            terms.sort_unstable();
            terms.dedup();
            let postings: usize = terms.iter().map(|&t| idx.postings_len(t)).sum();
            postings.min(idx.num_docs())
        };
        let bm25_candidates = candidates(&mut idx.analyze_query(query));
        let rm3_candidates =
            candidates(&mut rm3.expand(query).terms.iter().map(|&(t, _)| t).collect());
        let served: [(&dyn Ranker, usize, bool); 3] = [
            (&bm25, bm25_candidates, true),
            (&rm3, rm3_candidates, true),
            (&ql, bm25_candidates, false),
        ];
        for (ranker, c, retrieves) in served {
            let name = ranker.name();
            let mut ks = vec![1, c.saturating_sub(1), c, c + 1, idx.num_docs()];
            ks.dedup();
            let parts = [None, PartitionSpec::new(0, 3), PartitionSpec::new(1, 3), PartitionSpec::new(2, 3)];
            for part in parts {
                let scan = rank_corpus_scan(ranker, query, 1, part);
                let opts = TopKOptions { partition: part };
                let rows = |e: &CredenceEngine<'_>, k: usize| -> Vec<(u32, u64)> {
                    e.rank_with_options(query, k, &opts)
                        .into_iter()
                        .map(|r| (r.doc.0, r.score.to_bits()))
                        .collect()
                };
                let want = |k: usize| -> Vec<(u32, u64)> {
                    scan.entries().iter().take(k).map(|&(d, s)| (d.0, s.to_bits())).collect()
                };
                let engine = CredenceEngine::new(ranker, EngineConfig::fast());
                for &k in &ks {
                    prop_assert_eq!(rows(&engine, k), want(k), "{name} miss, k {k}, {part:?}");
                    if retrieves {
                        prop_assert_eq!(engine.cached_queries(), 0, "{name}: a miss cached");
                    }
                }
                // The whole-corpus ranking serves the unpartitioned read,
                // and never a partition's.
                engine.full_ranking(query);
                for &k in &ks {
                    let before = engine.retrieval_stats();
                    prop_assert_eq!(rows(&engine, k), want(k), "{name} hit, k {k}, {part:?}");
                    let after = engine.retrieval_stats();
                    if part.is_none() {
                        prop_assert_eq!(after.cache_hits, before.cache_hits + 1, "{name}");
                        prop_assert_eq!(after.docs_scored, before.docs_scored, "{name}");
                    }
                }
            }
        }
    }
}

prop! {
    /// Every explanation family the engine serves answers exactly what its
    /// one library function answers over `rank_corpus_scan`'s per-document
    /// scan with no replay memo — every field, float bits and errors alike
    /// (compared through `Debug`, which prints floats round-trip exact) —
    /// on the ranking-cache miss and on the hit after it, for
    /// retrieval-backed rankers (BM25, RM3) and one that takes the fallback
    /// scan (QL-Dirichlet).
    config(cases = 16);
    fn engine_explainers_match_the_per_document_scan(
        docs in arb_corpus(),
        query in arb_query(),
        k_doc in gens::pair(gens::usize_range(1..5), gens::usize_range(0..10)),
        n_samples in gens::pair(gens::usize_range(0..5), gens::usize_range(1..8)),
    ) {
        use credence_core::{
            cosine_sampled, doc2vec_nearest, explain_feature_attribution,
            explain_query_augmentation, explain_query_reduction, explain_sentence_removal,
            explain_term_removal, test_edits, test_perturbation, Budget, CredenceEngine, Edit,
            EngineConfig, FeatureAttributionConfig, QueryAugmentationConfig,
            QueryReductionConfig, SentenceRemovalConfig, TermRemovalConfig,
        };
        use credence_index::DocId;
        use credence_rank::{QlSmoothing, QueryLikelihoodRanker, Rm3Config, Rm3Ranker};
        let ((k, doc), (n, samples)) = (*k_doc, *n_samples);
        let doc = DocId(doc as u32);
        let sr = SentenceRemovalConfig { n, ..Default::default() };
        let qa = QueryAugmentationConfig { n, ..Default::default() };
        let qr = QueryReductionConfig { n, ..Default::default() };
        let tr = TermRemovalConfig { n, ..Default::default() };
        let fa = FeatureAttributionConfig { samples: 8 * samples, ..Default::default() };
        let edits = [Edit::remove("covid")];
        let body = "covid garden";
        let idx = InvertedIndex::build(docs.clone(), Analyzer::english());
        let bm25 = Bm25Ranker::new(&idx, Bm25Params::default());
        let rm3 = Rm3Ranker::new(
            &idx,
            Rm3Config { fb_docs: 3, fb_terms: 4, ..Default::default() },
        );
        let ql = QueryLikelihoodRanker::new(&idx, QlSmoothing::default());
        let rankers: [&dyn Ranker; 3] = [&bm25, &rm3, &ql];
        for ranker in rankers {
            let scan = rank_corpus_scan(ranker, query, 1, None);
            let unlimited = Budget::unlimited();
            // The engine call and the library's answer, as `Debug` text.
            type Served<'f> = &'f dyn Fn(&CredenceEngine<'_>) -> String;
            let families: [(&str, Served<'_>, String); 9] = [
                (
                    "sentence-removal",
                    &|e| format!("{:?}", e.sentence_removal(query, k, doc, &sr)),
                    format!("{:?}", explain_sentence_removal(ranker, query, k, doc, &sr, &scan, None)),
                ),
                (
                    "query-augmentation",
                    &|e| format!("{:?}", e.query_augmentation(query, k, doc, &qa)),
                    format!("{:?}", explain_query_augmentation(ranker, query, k, doc, &qa, &scan)),
                ),
                (
                    "query-reduction",
                    &|e| format!("{:?}", e.query_reduction(query, k, doc, &qr)),
                    format!("{:?}", explain_query_reduction(ranker, query, k, doc, &qr, &scan)),
                ),
                (
                    "term-removal",
                    &|e| format!("{:?}", e.term_removal(query, k, doc, &tr)),
                    format!("{:?}", explain_term_removal(ranker, query, k, doc, &tr, &scan, None)),
                ),
                (
                    "feature-attribution",
                    &|e| format!("{:?}", e.feature_attribution(query, k, doc, &fa)),
                    format!("{:?}", explain_feature_attribution(ranker, query, k, doc, &fa, &scan, None)),
                ),
                (
                    "doc2vec-nearest",
                    &|e| format!("{:?}", e.doc2vec_nearest(query, k, doc, n)),
                    {
                        let model = CredenceEngine::new(ranker, EngineConfig::fast());
                        format!("{:?}", doc2vec_nearest(ranker, model.doc2vec(), query, k, doc, n, &scan))
                    },
                ),
                (
                    "cosine-sampled",
                    &|e| format!("{:?}", e.cosine_sampled(query, k, doc, n, Some(samples))),
                    {
                        let mut cosine = EngineConfig::fast().cosine;
                        cosine.samples = samples;
                        format!("{:?}", cosine_sampled(ranker, query, k, doc, n, &cosine, &scan))
                    },
                ),
                (
                    "rerank",
                    &|e| format!("{:?}", e.builder_rerank_budgeted(query, k, doc, body, &unlimited)),
                    format!("{:?}", test_perturbation(ranker, query, k, doc, body, &scan, &unlimited)),
                ),
                (
                    "builder-edits",
                    &|e| format!("{:?}", e.builder_edits(query, k, doc, &edits)),
                    format!("{:?}", test_edits(ranker, query, k, doc, &edits, &scan)),
                ),
            ];
            for (family, served, library) in &families {
                let engine = CredenceEngine::new(ranker, EngineConfig::fast());
                for pass in ["miss", "hit"] {
                    prop_assert_eq!(
                        &served(&engine),
                        library,
                        "{} {}, ranking-cache {}",
                        ranker.name(),
                        family,
                        pass
                    );
                }
                let stats = engine.retrieval_stats();
                prop_assert_eq!(
                    (stats.cache_misses, stats.cache_hits),
                    (1, 1),
                    "{} {}",
                    ranker.name(),
                    family
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Block-compressed postings: the compressed representation must be a lossless
// re-encoding of the raw posting lists at *every* block size — including
// sizes of 1 (every posting its own block) and sizes that leave a final
// partial block — and the per-block metadata must describe its contents
// exactly, since the block readers rely on it.
// ---------------------------------------------------------------------------

prop! {
    /// compress → decode is the identity on every term's postings for any
    /// block size, and block metadata (first/last doc, count, start) is
    /// exact.
    config(cases = 48);
    fn block_compression_round_trips(
        docs in arb_corpus(),
        block_size in gens::usize_range(1..6),
    ) {
        let reference = InvertedIndex::build(docs.clone(), Analyzer::english());
        let idx = InvertedIndex::build_with_block_size(
            docs.clone(),
            Analyzer::english(),
            *block_size,
        );
        for (tid, _) in reference.vocabulary().iter() {
            // The raw list, rebuilt from the forward index.
            let raw: Vec<credence_index::Posting> = reference
                .doc_ids()
                .map(|doc| credence_index::Posting { doc, tf: reference.term_freq(doc, tid) })
                .filter(|p| p.tf > 0)
                .collect();
            let streamed: Vec<_> = idx.postings(tid).collect();
            prop_assert_eq!(&streamed, &raw, "streamed postings, term {tid}");
            let list = idx.compressed_postings(tid).unwrap();
            prop_assert_eq!(list.len(), raw.len());
            let mut docs_buf = Vec::new();
            let mut tfs_buf = Vec::new();
            let mut offset = 0usize;
            for (b, meta) in list.blocks().iter().enumerate() {
                let chunk = &raw[offset..offset + meta.count as usize];
                prop_assert_eq!(meta.start as usize, offset);
                prop_assert_eq!(meta.first_doc, chunk[0].doc.0);
                prop_assert_eq!(meta.last_doc, chunk[chunk.len() - 1].doc.0);
                list.decode_block(b, &mut docs_buf, &mut tfs_buf);
                let got: Vec<(u32, u32)> =
                    docs_buf.iter().copied().zip(tfs_buf.iter().copied()).collect();
                let want: Vec<(u32, u32)> =
                    chunk.iter().map(|p| (p.doc.0, p.tf)).collect();
                prop_assert_eq!(got, want, "block {b} of term {tid}");
                offset += meta.count as usize;
            }
            prop_assert_eq!(offset, raw.len(), "blocks must cover the whole list");
        }
    }
}

prop! {
    /// Retrieval parity is independent of block size: a non-default block
    /// size changes skip granularity, never the `(doc, score)` bits.
    config(cases = 32);
    fn block_size_never_changes_retrieval(
        docs in arb_corpus(),
        query in arb_query(),
        k in gens::usize_range(0..13),
        block_size in gens::usize_range(1..6),
    ) {
        use credence_index::{search_top_k_exhaustive, search_top_k_with, TopKOptions};
        let idx = InvertedIndex::build_with_block_size(
            docs.clone(),
            Analyzer::english(),
            *block_size,
        );
        let q = idx.analyze_query(query);
        let (reference, _) = search_top_k_exhaustive(&idx, Bm25Params::default(), &q, *k);
        let opts = TopKOptions::default();
        let (hits, _) = search_top_k_with(&idx, Bm25Params::default(), &q, *k, &opts);
        let bits = |hs: &[credence_index::SearchHit]| -> Vec<(u32, u64)> {
            hs.iter().map(|h| (h.doc.0, h.score.to_bits())).collect()
        };
        prop_assert_eq!(bits(&hits), bits(&reference), "block size {block_size}");
    }
}

/// Block-boundary regression: document frequencies exactly at, one below,
/// and one above the default block size, so the final block is full,
/// one-short, and a singleton respectively. Ties everywhere (duplicate
/// bodies), so the tie-break order crosses the block boundary too.
#[test]
fn default_block_boundary_dfs_are_bit_identical() {
    use credence_index::{
        search_top_k_exhaustive, search_top_k_with, TopKOptions, DEFAULT_BLOCK_SIZE,
    };
    for df in [
        DEFAULT_BLOCK_SIZE - 1,
        DEFAULT_BLOCK_SIZE,
        DEFAULT_BLOCK_SIZE + 1,
    ] {
        let mut docs: Vec<Document> = (0..df)
            .map(|i| {
                // Varying tf (1..=3) so bit widths differ between blocks.
                let covid = "covid ".repeat(i % 3 + 1);
                Document::from_body(format!("{covid}outbreak report"))
            })
            .collect();
        docs.push(Document::from_body("garden fair tonight".to_string()));
        let idx = InvertedIndex::build(docs, Analyzer::english());
        let q = idx.analyze_query("covid outbreak");
        for k in [1usize, 5, DEFAULT_BLOCK_SIZE, DEFAULT_BLOCK_SIZE + 2] {
            let (reference, _) = search_top_k_exhaustive(&idx, Bm25Params::default(), &q, k);
            let opts = TopKOptions::default();
            let (hits, _) = search_top_k_with(&idx, Bm25Params::default(), &q, k, &opts);
            assert_eq!(hits.len(), reference.len(), "df {df}, k {k}");
            for (h, r) in hits.iter().zip(&reference) {
                assert_eq!(h.doc, r.doc, "df {df}, k {k}");
                assert_eq!(h.score.to_bits(), r.score.to_bits(), "df {df}, k {k}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Quantised nearest-neighbour search: the i8 shortlist + exact-rescore path
// must return the plain exact scan's neighbours bit-for-bit (item order and
// f32 similarity bits), for any vectors — including zero vectors, duplicate
// vectors (ties), and extreme scales.
// ---------------------------------------------------------------------------

prop! {
    /// Shortlist-then-rescore equals the exact scan on arbitrary vector sets.
    config(cases = 48);
    fn quantized_nn_matches_exact_scan(
        rows in gens::vec_of(gens::vec_of(gens::f64_range(-3.0..3.0), 8..9), 1..25),
        query in gens::vec_of(gens::f64_range(-3.0..3.0), 8..9),
        n in gens::usize_range(1..30),
        scale_seed in gens::u64_any(),
    ) {
        use credence_embed::{nearest_neighbors, nearest_neighbors_quantized, QuantizedVectors};
        // Exercise wildly different per-vector scales (the per-vector i8
        // scale factor is the whole point) plus exact zero vectors.
        let rows: Vec<Vec<f32>> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let s = match (*scale_seed >> (i % 32)) & 3 {
                    0 => 0.0f32,
                    1 => 1e-4,
                    2 => 1.0,
                    _ => 250.0,
                };
                r.iter().map(|&x| x as f32 * s).collect()
            })
            .collect();
        let query: Vec<f32> = query.iter().map(|&x| x as f32).collect();
        let quant = QuantizedVectors::build(rows.len(), 8, |i| rows[i].as_slice());
        let exact = nearest_neighbors(
            &query,
            rows.iter().enumerate().map(|(i, r)| (i, r.as_slice())),
            *n,
        );
        let fast = nearest_neighbors_quantized(
            &query,
            &quant,
            |i| rows[i].as_slice(),
            0..rows.len(),
            *n,
        );
        prop_assert_eq!(fast.len(), exact.len());
        for (f, e) in fast.iter().zip(&exact) {
            prop_assert_eq!(f.item, e.item);
            prop_assert_eq!(f.similarity.to_bits(), e.similarity.to_bits());
        }
    }
}

prop! {
    /// Term removal: parallel + replay scoring equals exact serial.
    config(cases = 24);
    fn term_removal_engine_parity(
        docs in arb_corpus(),
        n in gens::usize_range(1..4),
        threads in gens::usize_range(2..5),
    ) {
        use credence_core::{explain_term_removal, EvalOptions, TermRemovalConfig};
        let idx = InvertedIndex::build(docs.clone(), Analyzer::english());
        let ranker = Bm25Ranker::new(&idx, Bm25Params::default());
        let ranking = rank_corpus_scan(&ranker, "covid outbreak", 1, None);
        prop_assume!(!ranking.is_empty());
        let doc = ranking.entries()[0].0;
        let mk = |eval| TermRemovalConfig { n: *n, eval, ..Default::default() };
        let serial = explain_term_removal(&Opaque(&ranker), "covid outbreak", 1, doc, &mk(EvalOptions::serial()), &ranking, None);
        let retrieved = rank_corpus(&ranker, "covid outbreak");
        let engine = explain_term_removal(&ranker, "covid outbreak", 1, doc, &mk(parity_eval(*threads)), &retrieved, None);
        prop_assert_eq!(serial, engine);
    }
}

// ---------------------------------------------------------------------------
// Async job subsystem: the job path is the synchronous path, verbatim.
// ---------------------------------------------------------------------------

/// One engine state shared by every job-parity case (index construction is
/// the expensive part; the property varies the request, not the corpus).
fn job_state() -> &'static credence_server::AppState {
    use std::sync::OnceLock;
    static STATE: OnceLock<&'static credence_server::AppState> = OnceLock::new();
    STATE.get_or_init(|| {
        let docs = vec![
            Document::new("a", "A", "covid outbreak covid outbreak tonight"),
            Document::new(
                "b",
                "B",
                "The covid outbreak arrived quietly. Officials downplayed the covid \
                 outbreak for weeks. Hospitals prepared extra capacity regardless.",
            ),
            Document::new("c", "C", "vaccine research accelerates during the outbreak"),
            Document::new("d", "D", "garden fair draws a record crowd"),
        ];
        credence_server::AppState::leak_full(
            docs,
            credence_core::EngineConfig::fast(),
            credence_server::RankerChoice::Bm25,
            credence_server::JobsConfig::default(),
            credence_server::ExplainCacheConfig::default(),
        )
    })
}

fn job_post(state: &'static credence_server::AppState, path: &str, body: &str) -> (u16, String) {
    let req = credence_server::http::Request {
        method: "POST".into(),
        path: path.into(),
        headers: Default::default(),
        body: body.as_bytes().to_vec(),
    };
    let resp = credence_server::handle_request(state, &req);
    (resp.status, String::from_utf8(resp.body).unwrap())
}

prop! {
    /// For any request and any `max_evals` budget, the payload a job stores
    /// is the exact JSON value the synchronous endpoint returns — complete,
    /// exhausted, and validation-error outcomes alike.
    config(cases = 32);
    fn job_payload_equals_synchronous_payload(
        endpoint in gens::one_of(
            credence_server::explainers::EXPLAINERS
                .iter()
                .map(|family| gens::just(family.name))
                .collect(),
        ),
        query in gens::one_of(vec![
            gens::just("covid outbreak"),
            gens::just("vaccine research"),
            gens::just("outbreak"),
        ]),
        k_doc in gens::pair(gens::usize_range(1..4), gens::usize_range(0..4)),
        n_evals in gens::pair(gens::usize_range(1..3), gens::usize_range(0..12)),
    ) {
        use credence_json::{parse as parse_json, Value};
        let state = job_state();
        let (k, doc) = *k_doc;
        let (n, max_evals) = *n_evals;
        let family = credence_server::explainers::find(endpoint).unwrap();
        let own: String = family
            .own_fields()
            .iter()
            .map(|field| match *field {
                "n" => format!(r#", "n": {n}"#),
                "body" => r#", "body": "a garden fair draws a record crowd""#.to_string(),
                _ => String::new(),
            })
            .collect();
        let request = format!(
            r#"{{"query": "{query}", "k": {k}, "doc": {doc}, "max_evals": {max_evals}{own}}}"#
        );

        let (sync_status, sync_body) =
            job_post(state, &family.path(), &request);
        let sync_value = parse_json(&sync_body).unwrap();

        let envelope = format!(r#"{{"endpoint": "{endpoint}", "request": {request}}}"#);
        let (accepted, submit_body) = job_post(state, "/api/v1/jobs", &envelope);
        prop_assert_eq!(accepted, 202, "{}", submit_body);
        let id: u64 = parse_json(&submit_body)
            .unwrap()
            .get("job_id")
            .and_then(Value::as_str)
            .and_then(|wire| wire.strip_prefix("job-"))
            .and_then(|n| n.parse().ok())
            .unwrap();
        let terminal = state
            .jobs()
            .wait_terminal(id, std::time::Duration::from_secs(60))
            .expect("job reaches a terminal state");
        prop_assert!(terminal.is_terminal());

        let view = state.jobs().get(id, state.metrics()).unwrap();
        let (stored_status, stored) = view.result.expect("terminal job stores its result");
        prop_assert_eq!(stored_status, sync_status);
        prop_assert_eq!(stored, sync_value);
    }
}

// ---------------------------------------------------------------------------
// Scatter-gather router: merged cluster responses are the single-node bytes.
// ---------------------------------------------------------------------------

/// Drive a router state in-process (its fanout legs still cross real
/// sockets to the worker).
fn router_post(
    state: &'static credence_server::RouterState,
    path: &str,
    body: &str,
) -> (u16, String) {
    use credence_server::App;
    let req = credence_server::http::Request {
        method: "POST".into(),
        path: path.into(),
        headers: Default::default(),
        body: body.as_bytes().to_vec(),
    };
    let resp = state.handle(&req);
    (resp.status, String::from_utf8(resp.body).unwrap())
}

prop! {
    /// The router's scatter-gather merge is byte-identical to the
    /// single-node response for every partition count 1..=8, on corpora
    /// built from duplicated template bodies — identical BM25 scores
    /// everywhere, so the (score desc, doc asc) tie-break carries the
    /// whole ordering and any merge discrepancy surfaces immediately.
    config(cases = 8);
    fn router_merge_matches_single_node_bytes(
        bodies in gens::vec_of(gens::one_of(vec![
            gens::just("covid outbreak closes the local school"),
            gens::just("covid outbreak covid outbreak tonight"),
            gens::just("vaccine research accelerates during the outbreak"),
            gens::just("garden fair draws a record crowd"),
        ]), 2..24),
        k in gens::usize_range(1..30),
    ) {
        let docs: Vec<Document> = bodies
            .iter()
            .map(|b| Document::from_body(b.to_string()))
            .collect();
        let state = credence_server::AppState::leak(docs, credence_core::EngineConfig::fast());
        let worker = credence_server::Server::bind("127.0.0.1:0", state)
            .unwrap()
            .spawn()
            .unwrap();
        let body = format!(r#"{{"query": "covid outbreak", "k": {k}}}"#);
        let (single_status, single) = job_post(state, "/api/v1/rank", &body);
        prop_assert_eq!(single_status, 200, "{}", single);
        for count in 1..=8u32 {
            let router = credence_server::RouterState::leak(
                vec![worker.addr()],
                credence_server::RouterConfig {
                    partitions: count,
                    fanout_deadline_ms: 10_000,
                },
            );
            let (status, routed) = router_post(router, "/api/v1/rank", &body);
            prop_assert_eq!(status, 200, "{}", routed);
            prop_assert_eq!(
                &routed,
                &single,
                "partition count {} must reproduce the single-node bytes",
                count
            );
        }
        worker.stop();
    }
}
