//! Skip-gram with negative sampling (SGNS), Mikolov et al. 2013.
//!
//! Word vectors feed the semantic component of the neural-ranker stand-in
//! (`credence-rank::NeuralSimRanker`): the original CREDENCE used monoT5,
//! whose essential observable property for the explanation algorithms is that
//! it rewards *semantic* query–document affinity beyond exact term matches.
//! SGNS vectors trained on the corpus give us exactly that signal.

use credence_rng::rngs::StdRng;
use credence_rng::{Rng, SeedableRng};

use crate::sampling::UnigramTable;
use crate::vecmath::{axpy, cosine, dot, sigmoid};

/// Hyper-parameters for SGNS training.
#[derive(Debug, Clone)]
pub struct Word2VecConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Symmetric context window size.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Training epochs over the corpus.
    pub epochs: usize,
    /// Initial learning rate (linearly decayed to 1e-4 of itself).
    pub lr: f32,
    /// RNG seed; training is deterministic given the seed and corpus.
    pub seed: u64,
}

impl Default for Word2VecConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            window: 5,
            negatives: 5,
            epochs: 5,
            lr: 0.025,
            seed: 42,
        }
    }
}

/// A trained SGNS model: input (word) and output (context) matrices.
#[derive(Debug, Clone)]
pub struct Word2Vec {
    dim: usize,
    vocab_size: usize,
    /// Row-major `vocab_size × dim` input embeddings.
    input: Vec<f32>,
    /// Row-major `vocab_size × dim` output embeddings.
    output: Vec<f32>,
}

impl Word2Vec {
    /// Train on `sentences`, sequences of word ids in `0..vocab_size`.
    ///
    /// Ids outside `0..vocab_size` are a contract violation and panic in
    /// debug builds.
    pub fn train(sentences: &[Vec<usize>], vocab_size: usize, config: &Word2VecConfig) -> Self {
        Self::train_with(
            sentences,
            vocab_size,
            config,
            |sgns, center, output, word, lr, rng| sgns.update(center, output, word, lr, rng),
        )
    }

    /// [`Self::train`] with the SGNS step passed in, so that tests can run
    /// the same loop with the sequential reference step.
    fn train_with(
        sentences: &[Vec<usize>],
        vocab_size: usize,
        config: &Word2VecConfig,
        mut update: impl FnMut(&mut Sgns<'_>, &mut [f32], &mut [f32], usize, f32, &mut StdRng),
    ) -> Self {
        assert!(config.dim > 0, "embedding dimension must be positive");
        let mut counts = vec![0u64; vocab_size];
        let mut total_tokens = 0u64;
        for s in sentences {
            for &w in s {
                debug_assert!(w < vocab_size, "word id {w} out of range");
                counts[w] += 1;
                total_tokens += 1;
            }
        }

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut model = Self::init(vocab_size, config.dim, &mut rng);
        let Some(table) = UnigramTable::standard(&counts) else {
            return model; // empty corpus: random vectors
        };

        let dim = config.dim;
        let total_steps = (total_tokens as usize).max(1) * config.epochs.max(1);
        let mut step = 0usize;
        let mut sgns = Sgns::new(&table, config.negatives, dim);

        for _ in 0..config.epochs {
            for sentence in sentences {
                for (pos, &center) in sentence.iter().enumerate() {
                    let lr = decayed_lr(config.lr, step, total_steps);
                    step += 1;
                    // Dynamic window, as in the reference implementation.
                    let b = rng.gen_range(0..config.window.max(1));
                    let lo = pos.saturating_sub(config.window - b);
                    let hi = (pos + config.window - b + 1).min(sentence.len());
                    for (ctx_pos, &context) in sentence.iter().enumerate().take(hi).skip(lo) {
                        if ctx_pos == pos {
                            continue;
                        }
                        update(
                            &mut sgns,
                            &mut model.input[center * dim..(center + 1) * dim],
                            &mut model.output,
                            context,
                            lr,
                            &mut rng,
                        );
                    }
                }
            }
        }
        model
    }

    fn init(vocab_size: usize, dim: usize, rng: &mut StdRng) -> Self {
        let scale = 0.5 / dim as f32;
        let input: Vec<f32> = (0..vocab_size * dim)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        let output = vec![0.0f32; vocab_size * dim];
        Self {
            dim,
            vocab_size,
            input,
            output,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of word rows.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// The input-side vector of a word.
    pub fn vector(&self, word: usize) -> &[f32] {
        &self.input[word * self.dim..(word + 1) * self.dim]
    }

    /// Cosine similarity between two words' input vectors.
    pub fn similarity(&self, a: usize, b: usize) -> f32 {
        cosine(self.vector(a), self.vector(b))
    }

    /// Mean of the input vectors of `words` (zero vector when empty) —
    /// a simple compositional text embedding.
    pub fn mean_vector(&self, words: &[usize]) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        if words.is_empty() {
            return v;
        }
        for &w in words {
            axpy(1.0, self.vector(w), &mut v);
        }
        let inv = 1.0 / words.len() as f32;
        for x in v.iter_mut() {
            *x *= inv;
        }
        v
    }
}

/// The learning rate at `step` of `total`: `lr0` decayed linearly, floored
/// at `lr0 · 1e-4`.
pub(crate) fn decayed_lr(lr0: f32, step: usize, total: usize) -> f32 {
    let frac = 1.0 - step as f32 / total as f32;
    (lr0 * frac).max(lr0 * 1e-4)
}

/// Elements per chunk of the single-pass update: whole chunks go to SIMD.
const LANES: usize = 8;

/// Calls `$step::<N>(args…)` for `N = $rows` in `1..=8`, the widest
/// single-pass step (the positive row and up to seven negatives); `false`
/// for more rows.
macro_rules! by_rows {
    ($rows:expr, $step:ident($($arg:expr),*)) => {
        match $rows {
            1 => $step::<1>($($arg),*),
            2 => $step::<2>($($arg),*),
            3 => $step::<3>($($arg),*),
            4 => $step::<4>($($arg),*),
            5 => $step::<5>($($arg),*),
            6 => $step::<6>($($arg),*),
            7 => $step::<7>($($arg),*),
            8 => $step::<8>($($arg),*),
            _ => false,
        }
    };
}

/// The negative-sampling state one training run shares across its SGNS
/// steps: the table, the negatives per step and reused buffers.
pub(crate) struct Sgns<'a> {
    table: &'a UnigramTable,
    negatives: usize,
    /// The step's output rows: the positive first, then each drawn
    /// negative that differs from it, in draw order.
    rows: Vec<usize>,
    /// The sequential fallback's gradient buffer.
    grad: Vec<f32>,
}

impl<'a> Sgns<'a> {
    pub(crate) fn new(table: &'a UnigramTable, negatives: usize, dim: usize) -> Self {
        Self {
            table,
            negatives,
            rows: Vec::with_capacity(negatives + 1),
            grad: vec![0.0; dim],
        }
    }

    /// Draw the step's negatives, all before any arithmetic and in the
    /// order the interleaved loop drew them.
    fn draw<R: Rng>(&mut self, positive: usize, rng: &mut R) {
        self.rows.clear();
        self.rows.push(positive);
        for _ in 0..self.negatives {
            let neg = self.table.sample(rng);
            if neg != positive {
                self.rows.push(neg);
            }
        }
    }

    /// One SGNS gradient step of `center` toward output row `positive`
    /// (label 1) and away from the drawn negatives (label 0), updating the
    /// output rows as it goes.
    ///
    /// `center` is the input-side row: a word vector for
    /// [`Word2Vec::train`], a document vector for the PV-DBOW trainer in
    /// [`crate::doc2vec`]. Distinct rows take one pass
    /// ([`step_distinct`]); repeated rows, where a later row must see an
    /// earlier row's update, take the sequential loop.
    pub(crate) fn update<R: Rng>(
        &mut self,
        center: &mut [f32],
        output: &mut [f32],
        positive: usize,
        lr: f32,
        rng: &mut R,
    ) {
        self.draw(positive, rng);
        if by_rows!(
            self.rows.len(),
            step_distinct(center, output, &self.rows, lr)
        ) {
            return;
        }
        let dim = center.len();
        self.grad.fill(0.0);
        for (j, &row) in self.rows.iter().enumerate() {
            let out = &mut output[row * dim..(row + 1) * dim];
            let g = lr * (label(j) - sigmoid(dot(center, out)));
            axpy(g, out, &mut self.grad);
            axpy(g, center, out);
        }
        axpy(1.0, &self.grad, center);
    }

    /// [`Self::update`] against a frozen output matrix: only `center`
    /// learns (gensim's `infer_vector`, `learn_hidden=False`). Nothing but
    /// `center` is written, and that only at the end, so repeated rows
    /// need no sequential fallback.
    pub(crate) fn update_frozen<R: Rng>(
        &mut self,
        center: &mut [f32],
        output: &[f32],
        positive: usize,
        lr: f32,
        rng: &mut R,
    ) {
        self.draw(positive, rng);
        if by_rows!(self.rows.len(), step_frozen(center, output, &self.rows, lr)) {
            return;
        }
        let dim = center.len();
        self.grad.fill(0.0);
        for (j, &row) in self.rows.iter().enumerate() {
            let out = &output[row * dim..(row + 1) * dim];
            axpy(
                lr * (label(j) - sigmoid(dot(center, out))),
                out,
                &mut self.grad,
            );
        }
        axpy(1.0, &self.grad, center);
    }
}

/// The SGNS label of a step's `j`-th row: 1 for the positive, 0 for a
/// negative.
fn label(j: usize) -> f32 {
    if j == 0 {
        1.0
    } else {
        0.0
    }
}

/// Each row's gradient scale `lr · (label − σ(center · row))`, with the
/// `N` dot products run as independent accumulator chains in one pass
/// over `center`, so that they overlap instead of waiting on each other.
/// Each chain adds its products left to right from `-0.0`, the order and
/// start value of `f32`'s `Sum`, so it equals [`dot`] bit for bit.
fn gradients<const N: usize>(center: &[f32], outs: [&[f32]; N], lr: f32) -> [f32; N] {
    let mut acc = [-0.0f32; N];
    let (center_chunks, center_tail) = center.as_chunks::<LANES>();
    let outs = outs.map(|out| out.as_chunks::<LANES>());
    for (k, c) in center_chunks.iter().enumerate() {
        let chunks: [&[f32; LANES]; N] = std::array::from_fn(|j| &outs[j].0[k]);
        for l in 0..LANES {
            for (a, chunk) in acc.iter_mut().zip(chunks) {
                *a += c[l] * chunk[l];
            }
        }
    }
    for (i, &c) in center_tail.iter().enumerate() {
        for (a, (_, tail)) in acc.iter_mut().zip(&outs) {
            *a += c * tail[i];
        }
    }
    std::array::from_fn(|j| lr * (label(j) - sigmoid(acc[j])))
}

/// [`Sgns::update`] over `N` distinct rows in one pass; `false`, having
/// touched nothing, when a row repeats.
///
/// With distinct rows, no row sees another row's update and `center`
/// changes last, so every dot product can be taken first. Per element the
/// arithmetic is the sequential loop's: the gradient sums `g · row` over
/// the rows in order from `0.0`, each row is read before it moves by
/// `g · center`, and `center` then adds the gradient.
fn step_distinct<const N: usize>(
    center: &mut [f32],
    output: &mut [f32],
    rows: &[usize],
    lr: f32,
) -> bool {
    let dim = center.len();
    let ranges: [_; N] = std::array::from_fn(|j| rows[j] * dim..(rows[j] + 1) * dim);
    let Ok(outs) = output.get_disjoint_mut(ranges) else {
        return false;
    };
    let g = gradients(center, outs.each_ref().map(|o| &**o), lr);
    let (center_chunks, center_tail) = center.as_chunks_mut::<LANES>();
    let mut outs = outs.map(|o| o.as_chunks_mut::<LANES>());
    for (k, c) in center_chunks.iter_mut().enumerate() {
        let mut grad = [0.0f32; LANES];
        for ((chunks, _), g) in outs.iter_mut().zip(g) {
            let old = chunks[k];
            for l in 0..LANES {
                grad[l] += g * old[l];
            }
            chunks[k] = std::array::from_fn(|l| old[l] + g * c[l]);
        }
        for l in 0..LANES {
            c[l] += grad[l];
        }
    }
    for (i, c) in center_tail.iter_mut().enumerate() {
        let mut grad = 0.0f32;
        for ((_, tail), g) in outs.iter_mut().zip(g) {
            grad += g * tail[i];
            tail[i] += g * *c;
        }
        *c += grad;
    }
    true
}

/// [`Sgns::update_frozen`] over `N` rows in one pass; always `true`.
fn step_frozen<const N: usize>(
    center: &mut [f32],
    output: &[f32],
    rows: &[usize],
    lr: f32,
) -> bool {
    let dim = center.len();
    let outs: [&[f32]; N] = std::array::from_fn(|j| &output[rows[j] * dim..(rows[j] + 1) * dim]);
    let g = gradients(center, outs, lr);
    for (i, c) in center.iter_mut().enumerate() {
        let mut grad = 0.0f32;
        for (out, g) in outs.iter().zip(g) {
            grad += g * out[i];
        }
        *c += grad;
    }
    true
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl Sgns<'_> {
        /// The sequential step the single-pass kernel replaced: each
        /// negative drawn just before its own update. The reference for
        /// the parity properties.
        pub(crate) fn update_reference<R: Rng>(
            &mut self,
            center: &mut [f32],
            output: &mut [f32],
            positive: usize,
            lr: f32,
            rng: &mut R,
        ) {
            let dim = center.len();
            self.grad.fill(0.0);
            let out = &mut output[positive * dim..(positive + 1) * dim];
            let g = lr * (1.0 - sigmoid(dot(center, out)));
            axpy(g, out, &mut self.grad);
            axpy(g, center, out);
            for _ in 0..self.negatives {
                let neg = self.table.sample(rng);
                if neg == positive {
                    continue;
                }
                let out = &mut output[neg * dim..(neg + 1) * dim];
                let g = lr * (0.0 - sigmoid(dot(center, out)));
                axpy(g, out, &mut self.grad);
                axpy(g, center, out);
            }
            axpy(1.0, &self.grad, center);
        }

        /// [`Self::update_reference`] with the output rows read only.
        pub(crate) fn update_frozen_reference<R: Rng>(
            &mut self,
            center: &mut [f32],
            output: &[f32],
            positive: usize,
            lr: f32,
            rng: &mut R,
        ) {
            let dim = center.len();
            self.grad.fill(0.0);
            let out = &output[positive * dim..(positive + 1) * dim];
            axpy(lr * (1.0 - sigmoid(dot(center, out))), out, &mut self.grad);
            for _ in 0..self.negatives {
                let neg = self.table.sample(rng);
                if neg == positive {
                    continue;
                }
                let out = &output[neg * dim..(neg + 1) * dim];
                axpy(lr * (0.0 - sigmoid(dot(center, out))), out, &mut self.grad);
            }
            axpy(1.0, &self.grad, center);
        }
    }

    /// One seeded parity case: a corpus over `vocab` word ids and the
    /// shape of the step.
    pub(crate) struct Case {
        pub(crate) docs: Vec<Vec<usize>>,
        pub(crate) vocab: usize,
        pub(crate) dim: usize,
        pub(crate) negatives: usize,
        pub(crate) epochs: usize,
    }

    /// The parity cases: every dimension in {1, 3, 48, 64, 65} (SIMD
    /// chunks with and without a tail) against every negative count in
    /// {0, 1, 5, 9} (nine negatives make ten rows, more than the widest
    /// single-pass step), each over a 2–5-word vocabulary, where negatives
    /// repeat and hit the positive, and over a 6–40-word one.
    pub(crate) fn parity_cases() -> Vec<Case> {
        let mut rng = StdRng::seed_from_u64(0x5eed_5965);
        let mut cases = Vec::new();
        for dim in [1, 3, 48, 64, 65] {
            for negatives in [0, 1, 5, 9] {
                for vocab in [rng.gen_range(2..=5), rng.gen_range(6..=40)] {
                    let docs = (0..rng.gen_range(1..=6))
                        .map(|_| {
                            (0..rng.gen_range(1..=12))
                                .map(|_| rng.gen_range(0..vocab))
                                .collect()
                        })
                        .collect();
                    cases.push(Case {
                        docs,
                        vocab,
                        dim,
                        negatives,
                        epochs: rng.gen_range(1..=3),
                    });
                }
            }
        }
        cases
    }

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn training_matches_the_sequential_reference_bit_for_bit() {
        for (n, case) in parity_cases().iter().enumerate() {
            let cfg = Word2VecConfig {
                dim: case.dim,
                negatives: case.negatives,
                epochs: case.epochs,
                window: 1 + n % 3,
                lr: 0.05,
                seed: n as u64,
            };
            let fast = Word2Vec::train(&case.docs, case.vocab, &cfg);
            let reference =
                Word2Vec::train_with(&case.docs, case.vocab, &cfg, |s, c, o, w, lr, rng| {
                    s.update_reference(c, o, w, lr, rng)
                });
            for w in 0..case.vocab {
                assert_eq!(
                    bits(fast.vector(w)),
                    bits(reference.vector(w)),
                    "case {n} word {w}"
                );
            }
            assert_eq!(
                bits(&fast.output),
                bits(&reference.output),
                "case {n} output"
            );
        }
    }

    /// Two "topics" of words that co-occur only within their topic. After
    /// training, intra-topic similarity must exceed inter-topic similarity.
    fn topical_corpus() -> (Vec<Vec<usize>>, usize) {
        // words 0..4 = topic A, 4..8 = topic B
        let mut sents = Vec::new();
        for i in 0..200 {
            let base = if i % 2 == 0 { 0 } else { 4 };
            let s: Vec<usize> = (0..12).map(|j| base + (i + j) % 4).collect();
            sents.push(s);
        }
        (sents, 8)
    }

    #[test]
    fn learns_topical_structure() {
        let (sents, v) = topical_corpus();
        let cfg = Word2VecConfig {
            dim: 16,
            epochs: 8,
            ..Default::default()
        };
        let model = Word2Vec::train(&sents, v, &cfg);
        let intra = model.similarity(0, 1);
        let inter = model.similarity(0, 5);
        assert!(
            intra > inter + 0.2,
            "intra-topic {intra} should exceed inter-topic {inter}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (sents, v) = topical_corpus();
        let cfg = Word2VecConfig {
            dim: 8,
            epochs: 2,
            ..Default::default()
        };
        let m1 = Word2Vec::train(&sents, v, &cfg);
        let m2 = Word2Vec::train(&sents, v, &cfg);
        assert_eq!(m1.vector(3), m2.vector(3));
    }

    #[test]
    fn different_seeds_differ() {
        let (sents, v) = topical_corpus();
        let base = Word2VecConfig {
            dim: 8,
            epochs: 1,
            ..Default::default()
        };
        let m1 = Word2Vec::train(&sents, v, &base);
        let m2 = Word2Vec::train(
            &sents,
            v,
            &Word2VecConfig {
                seed: 7,
                ..base.clone()
            },
        );
        assert_ne!(m1.vector(0), m2.vector(0));
    }

    #[test]
    fn empty_corpus_yields_random_model() {
        let model = Word2Vec::train(&[], 4, &Word2VecConfig::default());
        assert_eq!(model.vocab_size(), 4);
        assert_eq!(model.vector(0).len(), model.dim());
    }

    #[test]
    fn mean_vector_of_empty_is_zero() {
        let model = Word2Vec::train(&[], 4, &Word2VecConfig::default());
        assert!(model.mean_vector(&[]).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn mean_vector_averages() {
        let (sents, v) = topical_corpus();
        let model = Word2Vec::train(
            &sents,
            v,
            &Word2VecConfig {
                dim: 8,
                epochs: 1,
                ..Default::default()
            },
        );
        let m = model.mean_vector(&[0, 1]);
        for (i, &mi) in m.iter().enumerate() {
            let expected = (model.vector(0)[i] + model.vector(1)[i]) / 2.0;
            assert!((mi - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn vectors_remain_finite_after_training() {
        let (sents, v) = topical_corpus();
        let model = Word2Vec::train(
            &sents,
            v,
            &Word2VecConfig {
                dim: 16,
                epochs: 5,
                lr: 0.05,
                ..Default::default()
            },
        );
        for w in 0..v {
            assert!(model.vector(w).iter().all(|x| x.is_finite()));
        }
    }
}
