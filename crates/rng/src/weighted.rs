//! Weighted / categorical sampling.
//!
//! Two entry points:
//!
//! * [`sample_cumulative`] — one-shot draw from a cumulative weight slice
//!   (one binary search; right for distributions that change every draw,
//!   like LDA's collapsed Gibbs conditional).
//! * [`CumulativeTable`] — precomputed cumulative sums and a guide table
//!   that narrows each draw's binary search to one bucket (right for fixed
//!   distributions sampled many times, like word2vec's unigram^0.75
//!   negative-sampling table).

use crate::{Rng, RngCore};

/// Draw an index from a *cumulative* weight slice (non-decreasing, as built
/// by LDA's conditional accumulation). Returns the first index `i` with
/// `cumulative[i] > x` for a uniform `x` in `[0, total)`.
pub fn sample_cumulative<G: RngCore + ?Sized>(rng: &mut G, cumulative: &[f64]) -> Option<usize> {
    let &total = cumulative.last()?;
    if !total.is_finite() || total <= 0.0 {
        return None;
    }
    let x = rng.gen_range(0.0..total);
    Some(
        cumulative
            .partition_point(|&c| c <= x)
            .min(cumulative.len() - 1),
    )
}

/// Guide buckets per category. Eight keep nearly every bucket down to at
/// most one cumulative sum on skewed tables such as word2vec's, so most
/// draws need one comparison or none.
const BUCKETS_PER_CATEGORY: usize = 8;

/// A fixed categorical distribution: cumulative sums + binary search.
///
/// A draw returns the first index whose cumulative sum exceeds a uniform
/// `x` in `[0, total)`. A guide table splits `[0, total)` into equal
/// buckets and records, per bucket, which sums can lie in it, so the
/// binary search runs over one bucket's sums instead of all of them.
#[derive(Debug, Clone)]
pub struct CumulativeTable {
    cumulative: Vec<f64>,
    /// Buckets per unit of mass: mass `x` lies in bucket
    /// `min(⌊x · scale⌋, buckets − 1)`.
    scale: f64,
    /// `guide[b]` counts the sums whose bucket is below `b`
    /// (`buckets + 1` entries, the last one `cumulative.len()`).
    guide: Vec<usize>,
}

impl CumulativeTable {
    /// Build from non-negative weights. Returns `None` when the total mass
    /// is zero or non-finite.
    pub fn new(weights: impl IntoIterator<Item = f64>) -> Option<Self> {
        let mut cumulative = Vec::new();
        let mut acc = 0.0f64;
        for w in weights {
            if w.is_finite() && w > 0.0 {
                acc += w;
            }
            cumulative.push(acc);
        }
        if !(acc > 0.0 && acc.is_finite()) {
            return None;
        }
        let len = cumulative.len();
        let buckets = len * BUCKETS_PER_CATEGORY;
        let mut table = Self {
            scale: buckets as f64 / acc,
            cumulative,
            guide: Vec::with_capacity(buckets + 1),
        };
        let mut below = 0;
        for b in 0..=buckets {
            while below < len && table.bucket(table.cumulative[below]) < b {
                below += 1;
            }
            table.guide.push(below);
        }
        Some(table)
    }

    /// The guide bucket of mass `x`. Non-decreasing in `x`, which is all
    /// that [`Self::index_of`] relies on.
    fn bucket(&self, x: f64) -> usize {
        ((x * self.scale) as usize).min(self.cumulative.len() * BUCKETS_PER_CATEGORY - 1)
    }

    /// Draw one index.
    pub fn sample<G: RngCore + ?Sized>(&self, rng: &mut G) -> usize {
        let total = *self.cumulative.last().expect("non-empty by construction");
        self.index_of(rng.gen_range(0.0..total))
    }

    /// The first index whose cumulative sum exceeds `x` (the last index
    /// when none does), which skips zero-weight entries: their sum equals
    /// the previous entry's. Every sum in a bucket below `x`'s is at most
    /// `x`, and every sum in a bucket above it exceeds `x`, because the
    /// bucket is non-decreasing in the mass; so only the sums in `x`'s own
    /// bucket need searching.
    fn index_of(&self, x: f64) -> usize {
        let b = self.bucket(x);
        let (lo, hi) = (self.guide[b], self.guide[b + 1]);
        let i = lo + self.cumulative[lo..hi].partition_point(|&c| c <= x);
        i.min(self.cumulative.len() - 1)
    }

    /// Number of categories (including zero-weight ones).
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True when the table covers no categories.
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;
    use crate::SeedableRng;

    #[test]
    fn table_rejects_degenerate_weights() {
        assert!(CumulativeTable::new([]).is_none());
        assert!(CumulativeTable::new([0.0, 0.0]).is_none());
        assert!(CumulativeTable::new([f64::NAN]).is_none());
        assert!(CumulativeTable::new([f64::INFINITY]).is_none());
    }

    #[test]
    fn table_never_draws_zero_weight() {
        let table = CumulativeTable::new([2.0, 0.0, 2.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..5000 {
            assert_ne!(table.sample(&mut rng), 1);
        }
    }

    #[test]
    fn table_matches_proportions() {
        let table = CumulativeTable::new([1.0, 4.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        let mut hits = [0usize; 2];
        for _ in 0..50_000 {
            hits[table.sample(&mut rng)] += 1;
        }
        let ratio = hits[1] as f64 / hits[0] as f64;
        assert!((ratio - 4.0).abs() < 0.4, "ratio {ratio} should be near 4");
    }

    #[test]
    fn cumulative_draw_agrees_with_table() {
        let weights = [0.5, 1.5, 3.0];
        let cumulative: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, &w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        let mut a = StdRng::seed_from_u64(33);
        let mut b = StdRng::seed_from_u64(33);
        let table = CumulativeTable::new(weights).unwrap();
        for _ in 0..1000 {
            assert_eq!(
                sample_cumulative(&mut a, &cumulative),
                Some(table.sample(&mut b))
            );
        }
    }

    impl CumulativeTable {
        /// The draw the guide table replaced: one binary search over every
        /// sum. The reference for the guide draw.
        fn index_of_reference(&self, x: f64) -> usize {
            self.cumulative
                .partition_point(|&c| c <= x)
                .min(self.cumulative.len() - 1)
        }
    }

    /// Masses in `[0, total)` where an off-by-one would show: every bucket
    /// edge and every cumulative sum, each with its float neighbours.
    fn edges(table: &CumulativeTable) -> Vec<f64> {
        let total = *table.cumulative.last().unwrap();
        let buckets = table.guide.len() - 1;
        (0..=buckets)
            .map(|b| b as f64 / table.scale)
            .chain(table.cumulative.iter().copied())
            .flat_map(|x| [x.next_down(), x, x.next_up()])
            .filter(|&x| (0.0..total).contains(&x))
            .collect()
    }

    #[test]
    fn guide_draw_equals_the_full_binary_search() {
        let zipf: Vec<f64> = (1..=500)
            .map(|r| (2_000.0 / r as f64).floor().powf(0.75))
            .collect();
        let tables = [
            vec![0.0, 3.0, 0.0, 0.0, 1.0, 0.0], // zeros inside and at both ends
            vec![0.0, 0.0, 2.0],                // all mass at the end
            vec![1e12, 1.0, 1.0, 1.0],          // one dominant weight first
            vec![1.0, 1.0, 1e12, 1.0],          // ... and in the middle
            vec![1e-300, 1.0, 1e-300],          // slivers
            vec![5.0],                          // a single category
            vec![0.1; 10],                      // sums that round
            zipf,
        ];
        let mut rng = StdRng::seed_from_u64(35);
        for weights in tables {
            let table = CumulativeTable::new(weights.iter().copied()).unwrap();
            let total = *table.cumulative.last().unwrap();
            let points = edges(&table);
            assert!(!points.is_empty());
            let draws = (0..20_000).map(|_| rng.gen_range(0.0..total));
            for x in points.into_iter().chain(draws) {
                assert_eq!(
                    table.index_of(x),
                    table.index_of_reference(x),
                    "mass {x} over {weights:?}"
                );
            }
        }
    }

    #[test]
    fn sample_cumulative_handles_empty() {
        let mut rng = StdRng::seed_from_u64(34);
        assert_eq!(sample_cumulative(&mut rng, &[]), None);
        assert_eq!(sample_cumulative(&mut rng, &[0.0]), None);
    }
}
