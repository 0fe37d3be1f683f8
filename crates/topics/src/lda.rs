//! Latent Dirichlet Allocation via collapsed Gibbs sampling
//! (Griffiths & Steyvers 2004).
//!
//! The sampler maintains the standard count matrices — topic×word, doc×topic,
//! per-topic totals — and resamples every token's topic assignment from the
//! collapsed conditional
//!
//! ```text
//! p(z = t | rest) ∝ (n_dt + α) · (n_tw + β) / (n_t + Vβ)
//! ```
//!
//! Deterministic under a seed; count invariants are asserted in tests and
//! exposed for property testing.

use credence_rng::rngs::StdRng;
use credence_rng::{Rng, SeedableRng};

/// Hyper-parameters for LDA.
#[derive(Debug, Clone)]
pub struct LdaConfig {
    /// Number of topics `K`.
    pub num_topics: usize,
    /// Symmetric document–topic prior.
    pub alpha: f64,
    /// Symmetric topic–word prior.
    pub beta: f64,
    /// Gibbs sweeps over the corpus.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LdaConfig {
    fn default() -> Self {
        Self {
            num_topics: 5,
            alpha: 0.1,
            beta: 0.01,
            iterations: 200,
            seed: 42,
        }
    }
}

/// A fitted LDA model.
#[derive(Debug, Clone)]
pub struct LdaModel {
    config: LdaConfig,
    vocab_size: usize,
    /// `K × V` topic-word counts, row-major.
    topic_word: Vec<u32>,
    /// `D × K` doc-topic counts, row-major.
    doc_topic: Vec<u32>,
    /// Per-topic totals (length `K`).
    topic_total: Vec<u32>,
    /// Per-document lengths.
    doc_len: Vec<u32>,
}

impl LdaModel {
    /// Fit LDA on `docs` (word-id sequences over `0..vocab_size`).
    ///
    /// Empty documents are allowed and simply contribute nothing.
    pub fn fit(docs: &[Vec<usize>], vocab_size: usize, config: &LdaConfig) -> Self {
        assert!(config.num_topics > 0, "need at least one topic");
        let k = config.num_topics;
        let mut rng = StdRng::seed_from_u64(config.seed);

        let mut topic_word = vec![0u32; k * vocab_size];
        let mut doc_topic = vec![0u32; docs.len() * k];
        let mut topic_total = vec![0u32; k];
        let mut assignments: Vec<Vec<usize>> = Vec::with_capacity(docs.len());

        // Random initialisation.
        for (d, doc) in docs.iter().enumerate() {
            let mut z = Vec::with_capacity(doc.len());
            for &w in doc {
                debug_assert!(w < vocab_size, "word id {w} out of range");
                let t = rng.gen_range(0..k);
                z.push(t);
                topic_word[t * vocab_size + w] += 1;
                doc_topic[d * k + t] += 1;
                topic_total[t] += 1;
            }
            assignments.push(z);
        }

        let vbeta = vocab_size as f64 * config.beta;
        let mut probs = vec![0.0f64; k];
        for _ in 0..config.iterations {
            for (d, doc) in docs.iter().enumerate() {
                for (i, &w) in doc.iter().enumerate() {
                    let old = assignments[d][i];
                    // Remove current assignment.
                    topic_word[old * vocab_size + w] -= 1;
                    doc_topic[d * k + old] -= 1;
                    topic_total[old] -= 1;

                    // Collapsed conditional, accumulated in place so the
                    // categorical draw is one binary search over `probs`.
                    let mut acc = 0.0;
                    for (t, p) in probs.iter_mut().enumerate() {
                        let val = (doc_topic[d * k + t] as f64 + config.alpha)
                            * (topic_word[t * vocab_size + w] as f64 + config.beta)
                            / (topic_total[t] as f64 + vbeta);
                        acc += val;
                        *p = acc;
                    }
                    let new = credence_rng::weighted::sample_cumulative(&mut rng, &probs)
                        .expect("positive mass: alpha/beta priors are positive");

                    assignments[d][i] = new;
                    topic_word[new * vocab_size + w] += 1;
                    doc_topic[d * k + new] += 1;
                    topic_total[new] += 1;
                }
            }
        }

        Self {
            config: config.clone(),
            vocab_size,
            topic_word,
            doc_topic,
            topic_total,
            doc_len: docs.iter().map(|d| d.len() as u32).collect(),
        }
    }

    /// Number of topics.
    pub fn num_topics(&self) -> usize {
        self.config.num_topics
    }

    /// Vocabulary size the model was fitted against.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.doc_len.len()
    }

    /// Smoothed topic-word distribution `phi[t][w]`.
    pub fn phi(&self, topic: usize, word: usize) -> f64 {
        (self.topic_word[topic * self.vocab_size + word] as f64 + self.config.beta)
            / (self.topic_total[topic] as f64 + self.vocab_size as f64 * self.config.beta)
    }

    /// Smoothed document-topic distribution `theta[d][t]`.
    pub fn theta(&self, doc: usize, topic: usize) -> f64 {
        let k = self.config.num_topics;
        (self.doc_topic[doc * k + topic] as f64 + self.config.alpha)
            / (self.doc_len[doc] as f64 + k as f64 * self.config.alpha)
    }

    /// The `n` highest-probability words of a topic, best first,
    /// ties broken by word id.
    pub fn top_words(&self, topic: usize, n: usize) -> Vec<(usize, f64)> {
        let mut words: Vec<(usize, f64)> = (0..self.vocab_size)
            .map(|w| (w, self.phi(topic, w)))
            .collect();
        words.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        words.truncate(n);
        words
    }

    /// Per-word log-likelihood of held-in data under the fitted model
    /// (higher is better); used to sanity-check convergence.
    pub fn log_likelihood(&self, docs: &[Vec<usize>]) -> f64 {
        let mut ll = 0.0;
        let mut tokens = 0usize;
        for (d, doc) in docs.iter().enumerate() {
            for &w in doc {
                let p: f64 = (0..self.config.num_topics)
                    .map(|t| self.theta(d, t) * self.phi(t, w))
                    .sum();
                ll += p.max(1e-300).ln();
                tokens += 1;
            }
        }
        if tokens == 0 {
            0.0
        } else {
            ll / tokens as f64
        }
    }

    /// Count-invariant check: total assignments equal corpus token count and
    /// the three count matrices are mutually consistent. Exposed for
    /// property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let k = self.config.num_topics;
        let total_tokens: u64 = self.doc_len.iter().map(|&l| l as u64).sum();
        let tt: u64 = self.topic_total.iter().map(|&c| c as u64).sum();
        if tt != total_tokens {
            return Err(format!("topic totals {tt} != corpus tokens {total_tokens}"));
        }
        for t in 0..k {
            let row: u64 = self.topic_word[t * self.vocab_size..(t + 1) * self.vocab_size]
                .iter()
                .map(|&c| c as u64)
                .sum();
            if row != self.topic_total[t] as u64 {
                return Err(format!("topic {t} word counts disagree with total"));
            }
        }
        for d in 0..self.doc_len.len() {
            let row: u64 = self.doc_topic[d * k..(d + 1) * k]
                .iter()
                .map(|&c| c as u64)
                .sum();
            if row != self.doc_len[d] as u64 {
                return Err(format!("doc {d} topic counts disagree with length"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two clearly separated word clusters; documents draw from one cluster.
    fn two_topic_corpus() -> (Vec<Vec<usize>>, usize) {
        let mut docs = Vec::new();
        for i in 0..40 {
            let base = if i % 2 == 0 { 0 } else { 5 };
            docs.push((0..25).map(|j| base + (i * 3 + j) % 5).collect());
        }
        (docs, 10)
    }

    fn quick() -> LdaConfig {
        LdaConfig {
            num_topics: 2,
            iterations: 80,
            ..Default::default()
        }
    }

    #[test]
    fn invariants_hold_after_fit() {
        let (docs, v) = two_topic_corpus();
        let model = LdaModel::fit(&docs, v, &quick());
        model.check_invariants().unwrap();
    }

    #[test]
    fn recovers_two_topics() {
        let (docs, v) = two_topic_corpus();
        let model = LdaModel::fit(&docs, v, &quick());
        // Top words of each topic should come from one cluster.
        let purity = |topic: usize| {
            let top = model.top_words(topic, 5);
            let low = top.iter().filter(|&&(w, _)| w < 5).count();
            low.max(5 - low)
        };
        assert!(purity(0) >= 4, "topic 0 should be nearly pure");
        assert!(purity(1) >= 4, "topic 1 should be nearly pure");
    }

    #[test]
    fn documents_assigned_to_their_cluster_topic() {
        let (docs, v) = two_topic_corpus();
        let model = LdaModel::fit(&docs, v, &quick());
        let dominant = |doc: usize| {
            (0..2)
                .max_by(|&a, &b| model.theta(doc, a).total_cmp(&model.theta(doc, b)))
                .unwrap()
        };
        // All even docs share a dominant topic; odd docs get the other one.
        let t_even = dominant(0);
        let t_odd = dominant(1);
        assert_ne!(t_even, t_odd);
        for d in 0..docs.len() {
            let expected = if d % 2 == 0 { t_even } else { t_odd };
            assert_eq!(dominant(d), expected, "doc {d}");
        }
    }

    #[test]
    fn distributions_sum_to_one() {
        let (docs, v) = two_topic_corpus();
        let model = LdaModel::fit(&docs, v, &quick());
        for t in 0..model.num_topics() {
            let s: f64 = (0..v).map(|w| model.phi(t, w)).sum();
            assert!((s - 1.0).abs() < 1e-9, "phi row {t} sums to {s}");
        }
        for d in 0..docs.len() {
            let s: f64 = (0..model.num_topics()).map(|t| model.theta(d, t)).sum();
            assert!((s - 1.0).abs() < 1e-9, "theta row {d} sums to {s}");
        }
    }

    #[test]
    fn fitted_model_beats_random_assignment_likelihood() {
        let (docs, v) = two_topic_corpus();
        let fitted = LdaModel::fit(&docs, v, &quick());
        let random = LdaModel::fit(
            &docs,
            v,
            &LdaConfig {
                iterations: 0,
                ..quick()
            },
        );
        assert!(
            fitted.log_likelihood(&docs) > random.log_likelihood(&docs),
            "Gibbs sweeps must improve likelihood"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let (docs, v) = two_topic_corpus();
        let m1 = LdaModel::fit(&docs, v, &quick());
        let m2 = LdaModel::fit(&docs, v, &quick());
        assert_eq!(m1.top_words(0, 5), m2.top_words(0, 5));
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let model = LdaModel::fit(&[], 5, &quick());
        assert_eq!(model.num_docs(), 0);
        model.check_invariants().unwrap();
        assert_eq!(model.log_likelihood(&[]), 0.0);

        let with_empty = LdaModel::fit(&[vec![], vec![0, 1]], 2, &quick());
        with_empty.check_invariants().unwrap();
        // Empty doc's theta is the uniform prior.
        let k = with_empty.num_topics() as f64;
        assert!((with_empty.theta(0, 0) - 1.0 / k).abs() < 1e-9);
    }

    #[test]
    fn single_topic_model() {
        let (docs, v) = two_topic_corpus();
        let model = LdaModel::fit(
            &docs,
            v,
            &LdaConfig {
                num_topics: 1,
                iterations: 10,
                ..Default::default()
            },
        );
        model.check_invariants().unwrap();
    }

    #[test]
    fn top_words_truncates_and_orders() {
        let (docs, v) = two_topic_corpus();
        let model = LdaModel::fit(&docs, v, &quick());
        let top = model.top_words(0, 3);
        assert_eq!(top.len(), 3);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }
}
