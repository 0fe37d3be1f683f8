//! Exact nearest-neighbour search by cosine similarity.
//!
//! The *Doc2Vec Nearest* explainer returns "the n most similar documents"
//! (§II-E); corpora here are laptop-scale, so exact brute-force search with a
//! bounded heap is both simple and fast enough, and — unlike approximate
//! indexes — cannot change who the nearest counterfactual instance is.
//!
//! [`nearest_neighbors_quantized`] accelerates the scan without giving up
//! exactness: vectors are pre-quantised to i8 with a per-vector scale
//! ([`QuantizedVectors`]), the first pass computes integer dot products plus
//! a *sound* error bound on each cosine, and only candidates whose upper
//! bound reaches the provisional n-th lower bound are re-scored with the
//! full f32 formula. The rescore replicates [`nearest_neighbors`]'s float
//! expression exactly, so the returned neighbours (items *and* similarity
//! bits) are identical to the brute-force scan.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::vecmath::{dot, norm};

/// One neighbour: an item index and its cosine similarity to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the neighbouring item among the candidates.
    pub item: usize,
    /// Cosine similarity to the query vector.
    pub similarity: f32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry(Neighbor);

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by similarity; larger item index is "worse" on ties.
        other
            .0
            .similarity
            .partial_cmp(&self.0.similarity)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.0.item.cmp(&other.0.item))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Return the top-`n` candidates most cosine-similar to `query`, best first.
///
/// `candidates` yields `(item_index, vector)` pairs; items whose vector
/// length differs from the query's are skipped (defensive: mixed-model
/// vectors cannot be compared meaningfully). Ties break toward the smaller
/// item index, so results are deterministic.
pub fn nearest_neighbors<'a, I>(query: &[f32], candidates: I, n: usize) -> Vec<Neighbor>
where
    I: IntoIterator<Item = (usize, &'a [f32])>,
{
    if n == 0 {
        return Vec::new();
    }
    // Normalise the query once up front: cosine(q, v) = dot(q̂, v) / ‖v‖,
    // so each candidate costs one dot product and one norm instead of a
    // full cosine (which re-derives the query norm every time).
    let query_norm = norm(query);
    let mut q_unit = query.to_vec();
    if query_norm > 0.0 {
        for x in &mut q_unit {
            *x /= query_norm;
        }
    }
    // `n` may exceed the candidates (it comes straight off a request), so
    // reserve for no more than the candidates can fill.
    let candidates = candidates.into_iter();
    let mut heap: BinaryHeap<HeapEntry> =
        BinaryHeap::with_capacity(n.min(candidates.size_hint().0) + 1);
    for (item, vec) in candidates {
        if vec.len() != query.len() {
            continue;
        }
        let item_norm = norm(vec);
        let similarity = if query_norm == 0.0 || item_norm == 0.0 {
            0.0
        } else {
            (dot(&q_unit, vec) / item_norm).clamp(-1.0, 1.0)
        };
        heap.push(HeapEntry(Neighbor { item, similarity }));
        if heap.len() > n {
            heap.pop();
        }
    }
    let mut out: Vec<Neighbor> = heap.into_iter().map(|e| e.0).collect();
    out.sort_unstable_by(|a, b| {
        b.similarity
            .partial_cmp(&a.similarity)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.item.cmp(&b.item))
    });
    out
}

/// Quantise `x` against `scale` to a symmetric i8 code.
fn code_of(x: f32, scale: f32) -> i8 {
    if scale > 0.0 {
        (x / scale).round().clamp(-127.0, 127.0) as i8
    } else {
        0
    }
}

/// A fixed set of embedding vectors quantised to i8 (one scale per vector),
/// with the per-vector metadata needed to bound the quantisation error of
/// any dot product against them.
#[derive(Debug, Clone, Default)]
pub struct QuantizedVectors {
    dim: usize,
    /// Row-major `num × dim` i8 codes.
    codes: Vec<i8>,
    /// Per-vector scale `max|x| / 127` (`0.0` for all-zero vectors).
    scales: Vec<f32>,
    /// Per-vector f32 norm, computed exactly as the rescore pass does.
    norms: Vec<f32>,
    /// Per-vector `Σ|code|`, for the error bound.
    code_abs_sums: Vec<f32>,
}

impl QuantizedVectors {
    /// Quantise `num` vectors of dimension `dim`, reading row `i` via
    /// `row(i)`. Each row must have exactly `dim` elements.
    pub fn build<'a>(num: usize, dim: usize, row: impl Fn(usize) -> &'a [f32]) -> Self {
        let mut q = Self {
            dim,
            codes: Vec::with_capacity(num * dim),
            scales: Vec::with_capacity(num),
            norms: Vec::with_capacity(num),
            code_abs_sums: Vec::with_capacity(num),
        };
        for i in 0..num {
            let v = row(i);
            assert_eq!(v.len(), dim, "row {i} has the wrong dimension");
            let maxabs = v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let scale = maxabs / 127.0;
            let mut abs_sum = 0.0f32;
            for &x in v {
                let c = code_of(x, scale);
                abs_sum += (c as i32).unsigned_abs() as f32;
                q.codes.push(c);
            }
            q.scales.push(scale);
            q.norms.push(norm(v));
            q.code_abs_sums.push(abs_sum);
        }
        q
    }

    /// Number of quantised vectors.
    pub fn len(&self) -> usize {
        self.scales.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.scales.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// [`nearest_neighbors`] over pre-quantised candidates, with identical
/// output.
///
/// First pass: for each candidate, an integer dot product of the i8 codes
/// gives an approximate cosine plus a sound error interval (writing `u =
/// s_u·c + e`, `v = s_v·d + f` with `|e| ≤ s_u/2`, `|f| ≤ s_v/2` per
/// element, the dot-product error is at most `s_u·s_v·(Σ|c| + Σ|d| +
/// dim/2)/2`; a generous multiplicative + additive margin then absorbs f32
/// rounding in both the integer path and the exact formula). The provisional
/// threshold θ is the n-th largest *lower* bound; at least n candidates have
/// true similarity ≥ θ, so every true top-n member — including ties — has an
/// upper bound ≥ θ and survives to the second pass. Survivors are re-scored
/// with the exact f32 formula and selected by the same heap, so the result
/// is bit-identical to the brute-force scan.
///
/// `exact(i)` must return the same f32 vector that `quant` row `i` was built
/// from. Queries whose dimension differs from `quant` or whose norm is zero
/// fall back to the plain scan.
pub fn nearest_neighbors_quantized<'a, I>(
    query: &[f32],
    quant: &QuantizedVectors,
    exact: impl Fn(usize) -> &'a [f32],
    candidates: I,
    n: usize,
) -> Vec<Neighbor>
where
    I: IntoIterator<Item = usize>,
{
    if n == 0 {
        return Vec::new();
    }
    let items: Vec<usize> = candidates.into_iter().collect();
    let query_norm = norm(query);
    if query.len() != quant.dim || query_norm == 0.0 {
        return nearest_neighbors(query, items.iter().map(|&i| (i, exact(i))), n);
    }
    let maxabs = query.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    let q_scale = maxabs / 127.0;
    let q_codes: Vec<i32> = query.iter().map(|&x| code_of(x, q_scale) as i32).collect();
    let q_abs: f32 = q_codes.iter().map(|c| c.unsigned_abs() as f32).sum();
    let dim = quant.dim;

    // Pass 1: integer dots → similarity intervals.
    let mut bounds: Vec<(usize, f32, f32)> = Vec::with_capacity(items.len());
    for &item in &items {
        let scale = quant.scales[item];
        let item_norm = quant.norms[item];
        if scale == 0.0 || item_norm == 0.0 {
            // All-zero vector: the exact formula yields exactly 0.0.
            bounds.push((item, 0.0, 0.0));
            continue;
        }
        let codes = &quant.codes[item * dim..(item + 1) * dim];
        let mut int_dot = 0i32;
        for (qc, &c) in q_codes.iter().zip(codes) {
            int_dot += qc * c as i32;
        }
        let approx_dot = q_scale * scale * int_dot as f32;
        let err_dot =
            0.5 * q_scale * scale * (q_abs + quant.code_abs_sums[item] + 0.25 * dim as f32);
        let denom = query_norm * item_norm;
        let sim = approx_dot / denom;
        let err = (err_dot / denom) * 1.001 + 1e-5;
        bounds.push((item, (sim - err).max(-1.0), (sim + err).min(1.0)));
    }

    // Provisional threshold: the n-th largest lower bound.
    let theta = if bounds.len() > n {
        let mut lbs: Vec<f32> = bounds.iter().map(|&(_, lb, _)| lb).collect();
        lbs.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap_or(Ordering::Equal));
        lbs[n - 1]
    } else {
        f32::NEG_INFINITY
    };

    // Pass 2: exact rescore of the shortlist, with the reference formula.
    let mut q_unit = query.to_vec();
    for x in &mut q_unit {
        *x /= query_norm;
    }
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(n.min(bounds.len()) + 1);
    for &(item, _, _) in bounds.iter().filter(|&&(_, _, ub)| ub >= theta) {
        let vec = exact(item);
        let item_norm = norm(vec);
        let similarity = if item_norm == 0.0 {
            0.0
        } else {
            (dot(&q_unit, vec) / item_norm).clamp(-1.0, 1.0)
        };
        heap.push(HeapEntry(Neighbor { item, similarity }));
        if heap.len() > n {
            heap.pop();
        }
    }
    let mut out: Vec<Neighbor> = heap.into_iter().map(|e| e.0).collect();
    out.sort_unstable_by(|a, b| {
        b.similarity
            .partial_cmp(&a.similarity)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.item.cmp(&b.item))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixtures() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 0.0],  // 0: identical direction to query
            vec![0.9, 0.1],  // 1: close
            vec![0.0, 1.0],  // 2: orthogonal
            vec![-1.0, 0.0], // 3: opposite
        ]
    }

    #[test]
    fn finds_most_similar_first() {
        let vecs = fixtures();
        let nn = nearest_neighbors(
            &[1.0, 0.0],
            vecs.iter().enumerate().map(|(i, v)| (i, v.as_slice())),
            2,
        );
        assert_eq!(nn.len(), 2);
        assert_eq!(nn[0].item, 0);
        assert_eq!(nn[1].item, 1);
        assert!(nn[0].similarity > nn[1].similarity);
    }

    #[test]
    fn n_larger_than_candidates() {
        let vecs = fixtures();
        let nn = nearest_neighbors(
            &[1.0, 0.0],
            vecs.iter().enumerate().map(|(i, v)| (i, v.as_slice())),
            10,
        );
        assert_eq!(nn.len(), 4);
        assert_eq!(nn.last().unwrap().item, 3, "opposite vector ranks last");
    }

    #[test]
    fn n_zero() {
        let vecs = fixtures();
        let nn = nearest_neighbors(
            &[1.0, 0.0],
            vecs.iter().enumerate().map(|(i, v)| (i, v.as_slice())),
            0,
        );
        assert!(nn.is_empty());
    }

    #[test]
    fn mismatched_dimensions_skipped() {
        let a = vec![1.0, 0.0];
        let b = vec![1.0, 0.0, 0.0];
        let nn = nearest_neighbors(
            &[1.0, 0.0],
            vec![(0usize, a.as_slice()), (1usize, b.as_slice())],
            5,
        );
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].item, 0);
    }

    #[test]
    fn ties_break_by_item_index() {
        let v = vec![1.0f32, 0.0];
        let candidates: Vec<(usize, &[f32])> = (0..6).map(|i| (i, v.as_slice())).collect();
        let nn = nearest_neighbors(&[1.0, 0.0], candidates, 3);
        let items: Vec<usize> = nn.iter().map(|n| n.item).collect();
        assert_eq!(items, vec![0, 1, 2]);
    }

    #[test]
    fn empty_candidates() {
        let nn = nearest_neighbors(&[1.0, 0.0], std::iter::empty(), 3);
        assert!(nn.is_empty());
    }

    #[test]
    fn zero_vectors_have_zero_similarity() {
        let z = vec![0.0f32, 0.0];
        let v = vec![1.0f32, 0.0];
        let nn = nearest_neighbors(&v, vec![(0usize, z.as_slice())], 1);
        assert_eq!(nn[0].similarity, 0.0);
        let nn = nearest_neighbors(&z, vec![(0usize, v.as_slice())], 1);
        assert_eq!(nn[0].similarity, 0.0, "all-zero query");
    }

    #[test]
    fn quantized_search_is_bit_identical_to_exact_scan() {
        // Adversarial candidate set: pseudo-random directions, exact
        // duplicates (heap tie-breaks), scalar multiples (identical cosine
        // at different magnitudes — the quantisation scales differ), an
        // all-zero vector, and a near-opposite. The quantised path must
        // reproduce the exact scan bit for bit at every n.
        fn mixed(i: u64) -> f32 {
            (i.wrapping_mul(2654435761).wrapping_add(104729) % 2003) as f32 / 1001.5 - 1.0
        }
        let dim = 16usize;
        let mut vecs: Vec<Vec<f32>> = (0..40u64)
            .map(|i| (0..dim as u64).map(|j| mixed(i * dim as u64 + j)).collect())
            .collect();
        vecs.push(vecs[3].clone()); // exact duplicate
        vecs.push(vecs[7].iter().map(|x| x * 250.0).collect()); // scalar multiple
        vecs.push(vecs[7].iter().map(|x| x * 1e-4).collect()); // tiny multiple
        vecs.push(vec![0.0; dim]); // zero vector
        let query: Vec<f32> = (0..dim as u64).map(|j| mixed(9000 + j)).collect();
        vecs.push(query.iter().map(|x| -x).collect()); // opposite
        let quant = QuantizedVectors::build(vecs.len(), dim, |i| vecs[i].as_slice());
        for n in [1usize, 3, 5, 20, vecs.len(), vecs.len() + 5] {
            let reference = nearest_neighbors(
                &query,
                vecs.iter().enumerate().map(|(i, v)| (i, v.as_slice())),
                n,
            );
            let got = nearest_neighbors_quantized(
                &query,
                &quant,
                |i| vecs[i].as_slice(),
                0..vecs.len(),
                n,
            );
            assert_eq!(got.len(), reference.len(), "n={n}");
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(g.item, r.item, "n={n}");
                assert_eq!(g.similarity.to_bits(), r.similarity.to_bits(), "n={n}");
            }
        }
        // Subset of candidates and the degenerate queries also agree.
        let subset: Vec<usize> = (0..vecs.len()).step_by(3).collect();
        let got = nearest_neighbors_quantized(
            &query,
            &quant,
            |i| vecs[i].as_slice(),
            subset.iter().copied(),
            4,
        );
        let reference =
            nearest_neighbors(&query, subset.iter().map(|&i| (i, vecs[i].as_slice())), 4);
        assert_eq!(got, reference);
        let zero_q = vec![0.0f32; dim];
        let got = nearest_neighbors_quantized(&zero_q, &quant, |i| vecs[i].as_slice(), 0..3, 2);
        let reference = nearest_neighbors(&zero_q, (0..3).map(|i| (i, vecs[i].as_slice())), 2);
        assert_eq!(got, reference);
    }

    #[test]
    fn quantized_shortlist_actually_prunes() {
        // A selective geometry: one tight cluster near the query and many
        // far-away candidates. The interval test must rescore only a
        // fraction of the candidates (sanity check that the fast path is a
        // fast path, via the bound construction rather than instrumentation:
        // with all-equal vectors nothing can be excluded, so assert the
        // bounds separate the cluster from the rest).
        let dim = 8usize;
        let mut vecs: Vec<Vec<f32>> = Vec::new();
        for i in 0..5 {
            let mut v = vec![1.0f32; dim];
            v[0] += i as f32 * 1e-3;
            vecs.push(v); // cluster, cosine ≈ 1
        }
        for i in 0..200 {
            let mut v = vec![-1.0f32; dim];
            v[i % dim] = 1.0;
            vecs.push(v); // far away, cosine < 0
        }
        let query = vec![1.0f32; dim];
        let quant = QuantizedVectors::build(vecs.len(), dim, |i| vecs[i].as_slice());
        let got =
            nearest_neighbors_quantized(&query, &quant, |i| vecs[i].as_slice(), 0..vecs.len(), 3);
        let reference = nearest_neighbors(
            &query,
            vecs.iter().enumerate().map(|(i, v)| (i, v.as_slice())),
            3,
        );
        assert_eq!(got, reference);
        assert!(got.iter().all(|nb| nb.item < 5), "cluster wins: {got:?}");
    }

    #[test]
    fn order_matches_full_cosine_reference() {
        use crate::vecmath::cosine;
        // A deterministic spread of candidate directions, checked against
        // the reference ordering computed with the unoptimised full cosine.
        // The mixer makes vectors generic: no two candidates are scalar
        // multiples, so every cosine gap is far above float noise and the
        // order is formula-independent (asserted below).
        fn mixed(i: u64) -> f32 {
            (i.wrapping_mul(2654435761).wrapping_add(104729) % 2003) as f32 / 1001.5 - 1.0
        }
        let vecs: Vec<Vec<f32>> = (0..16u64)
            .map(|i| (0..8u64).map(|j| mixed(i * 8 + j)).collect())
            .collect();
        let query: Vec<f32> = (0..8u64).map(|j| mixed(1000 + j)).collect();
        let nn = nearest_neighbors(
            &query,
            vecs.iter().enumerate().map(|(i, v)| (i, v.as_slice())),
            vecs.len(),
        );
        let mut reference: Vec<(usize, f32)> = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| (i, cosine(&query, v)))
            .collect();
        reference.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        for w in reference.windows(2) {
            assert!(
                w[0].1 - w[1].1 > 1e-4,
                "fixture cosines must be well separated, got {} vs {}",
                w[0].1,
                w[1].1
            );
        }
        let got: Vec<usize> = nn.iter().map(|n| n.item).collect();
        let want: Vec<usize> = reference.iter().map(|&(i, _)| i).collect();
        assert_eq!(got, want, "pre-normalised search must preserve the order");
    }
}
