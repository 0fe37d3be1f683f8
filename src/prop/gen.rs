//! Value generators with attached shrinkers.
//!
//! A [`Gen<T>`] pairs a sampling closure with a shrinking closure. Shrinking
//! is *local*: given a failing value it proposes a bounded list of strictly
//! simpler candidates; the runner re-tests candidates and descends greedily.
//! Generators built with [`Gen::map`] or [`gens::one_of`] don't shrink
//! (there is no inverse to shrink through) — compose from the primitives
//! below when shrinking matters.

use std::fmt::Debug;
use std::ops::Range;
use std::rc::Rc;

use credence_rng::rngs::StdRng;
use credence_rng::Rng;

/// Proposes simpler candidates for a failing value.
type Shrinker<T> = Rc<dyn Fn(&T) -> Vec<T>>;

/// A reusable generator of `T` values with an attached shrinker.
pub struct Gen<T> {
    generate: Rc<dyn Fn(&mut StdRng) -> T>,
    shrink: Shrinker<T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Self {
            generate: Rc::clone(&self.generate),
            shrink: Rc::clone(&self.shrink),
        }
    }
}

impl<T: 'static> Gen<T> {
    /// A generator from a sampling closure, with no shrinking.
    pub fn new(generate: impl Fn(&mut StdRng) -> T + 'static) -> Self {
        Self {
            generate: Rc::new(generate),
            shrink: Rc::new(|_| Vec::new()),
        }
    }

    /// A generator with both a sampler and a shrinker. The shrinker must
    /// propose *simpler* values only — the runner guards against cycles
    /// with a step budget, not candidate tracking.
    pub fn with_shrink(
        generate: impl Fn(&mut StdRng) -> T + 'static,
        shrink: impl Fn(&T) -> Vec<T> + 'static,
    ) -> Self {
        Self {
            generate: Rc::new(generate),
            shrink: Rc::new(shrink),
        }
    }

    /// Draw one value.
    pub fn generate(&self, rng: &mut StdRng) -> T {
        (self.generate)(rng)
    }

    /// Simpler candidates for `value` (empty when unshrinkable).
    pub fn shrink(&self, value: &T) -> Vec<T> {
        (self.shrink)(value)
    }

    /// Transform generated values. The mapped generator does not shrink.
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        let g = self.generate;
        Gen::new(move |rng| f(g(rng)))
    }
}

/// The generator constructors. Import as `use credence_repro::prop::gens;`
/// and call `gens::u32_range(0..100)` etc.
pub mod gens {
    use super::*;

    // -- numeric ----------------------------------------------------------

    macro_rules! int_gens {
        ($($fn_range:ident, $fn_any:ident, $t:ty);* $(;)?) => {$(
            /// Uniform draw from the half-open range, shrinking toward its
            /// start (via start, halving, and decrement — so greedy descent
            /// reaches the smallest failing value).
            pub fn $fn_range(range: Range<$t>) -> Gen<$t> {
                assert!(range.start < range.end, "empty range");
                let lo = range.start;
                Gen::with_shrink(
                    move |rng| rng.gen_range(range.clone()),
                    move |&x| {
                        let mut out = Vec::new();
                        if x > lo {
                            out.push(lo);
                            let mid = lo + (x - lo) / 2;
                            if mid != lo && mid != x {
                                out.push(mid);
                            }
                            out.push(x - 1);
                        }
                        out.dedup();
                        out
                    },
                )
            }

            /// Uniform draw over the full domain, shrinking toward zero.
            pub fn $fn_any() -> Gen<$t> {
                Gen::with_shrink(
                    |rng| rng.gen_range(<$t>::MIN..=<$t>::MAX),
                    |&x| {
                        let mut out = Vec::new();
                        if x != 0 {
                            out.push(0);
                            out.push(x / 2);
                            if x > 0 { out.push(x - 1); } else { out.push(x + 1); }
                        }
                        out.dedup();
                        out
                    },
                )
            }
        )*};
    }

    int_gens!(
        u8_range, u8_any, u8;
        u32_range, u32_any, u32;
        u64_range, u64_any, u64;
        usize_range, usize_any, usize;
        i64_range, i64_any, i64;
    );

    /// Uniform `f64` in `[lo, hi)`, shrinking toward `lo` (and `0.0` when
    /// the range contains it).
    pub fn f64_range(range: Range<f64>) -> Gen<f64> {
        assert!(range.start < range.end, "empty range");
        let (lo, hi) = (range.start, range.end);
        Gen::with_shrink(
            move |rng| rng.gen_range(lo..hi),
            move |&x| {
                let mut out = Vec::new();
                if x != lo {
                    out.push(lo);
                    if lo < 0.0 && x > 0.0 {
                        out.push(0.0);
                    }
                    let mid = lo + (x - lo) / 2.0;
                    if mid != lo && mid != x {
                        out.push(mid);
                    }
                }
                out
            },
        )
    }

    /// `true`/`false` with equal probability; `true` shrinks to `false`.
    pub fn bool_any() -> Gen<bool> {
        Gen::with_shrink(
            |rng| rng.gen_bool(0.5),
            |&b| if b { vec![false] } else { Vec::new() },
        )
    }

    // -- characters and strings -------------------------------------------

    /// An arbitrary Unicode scalar value. Biased: half the draws are
    /// printable ASCII (where most tokenizer/JSON edge cases live), the
    /// rest span the full scalar range minus surrogates. Shrinks toward
    /// `'a'`.
    pub fn char_any() -> Gen<char> {
        Gen::with_shrink(
            |rng| {
                if rng.gen_bool(0.5) {
                    rng.gen_range(0x20u32..0x7F) as u8 as char
                } else {
                    loop {
                        let c = rng.gen_range(0u32..0x11_0000);
                        if let Some(c) = char::from_u32(c) {
                            return c;
                        }
                    }
                }
            },
            |&c| {
                let mut out = Vec::new();
                if c != 'a' {
                    out.push('a');
                    if !c.is_ascii() {
                        out.push('~');
                    }
                }
                out
            },
        )
    }

    /// A character drawn uniformly from an explicit alphabet.
    pub fn char_in(alphabet: &str) -> Gen<char> {
        let chars: Rc<[char]> = alphabet.chars().collect::<Vec<_>>().into();
        assert!(!chars.is_empty(), "empty alphabet");
        let first = chars[0];
        Gen::with_shrink(
            move |rng| chars[rng.gen_range(0..chars.len())],
            move |&c| if c != first { vec![first] } else { Vec::new() },
        )
    }

    /// A string of characters from `alphabet`, length uniform in `len`.
    /// Shrinks by dropping characters (down to `len.start`) and by
    /// simplifying characters to the alphabet's first.
    pub fn string_of(alphabet: &str, len: Range<usize>) -> Gen<String> {
        string_from(char_in(alphabet), len)
    }

    /// An arbitrary (mostly-ASCII-biased, see [`char_any`]) string with
    /// length uniform in `len` — the stand-in for proptest's `".{0,n}"`.
    pub fn any_string(len: Range<usize>) -> Gen<String> {
        string_from(char_any(), len)
    }

    /// A string whose characters come from an arbitrary char generator.
    pub fn string_from(ch: Gen<char>, len: Range<usize>) -> Gen<String> {
        assert!(len.start < len.end, "empty length range");
        let min_len = len.start;
        let ch2 = ch.clone();
        Gen::with_shrink(
            move |rng| {
                let n = rng.gen_range(len.clone());
                (0..n).map(|_| ch.generate(rng)).collect()
            },
            move |s: &String| {
                let chars: Vec<char> = s.chars().collect();
                let mut out: Vec<String> = Vec::new();
                if chars.len() > min_len {
                    // Empty (or minimal prefix) first, then halves, then
                    // single-character deletions.
                    out.push(chars[..min_len].iter().collect());
                    if chars.len() >= 2 && chars.len() / 2 >= min_len {
                        out.push(chars[..chars.len() / 2].iter().collect());
                    }
                    for i in 0..chars.len().min(16) {
                        if chars.len() > min_len {
                            let mut c = chars.clone();
                            c.remove(i);
                            out.push(c.into_iter().collect());
                        }
                    }
                }
                // Simplify individual characters.
                for i in 0..chars.len().min(8) {
                    for rc in ch2.shrink(&chars[i]) {
                        let mut c = chars.clone();
                        c[i] = rc;
                        out.push(c.into_iter().collect());
                    }
                }
                out.retain(|cand| cand != s);
                out.dedup();
                out
            },
        )
    }

    // -- collections -------------------------------------------------------

    /// A vector of `elem` draws, length uniform in `len`. Shrinks by
    /// dropping elements (minimal prefix, halves, single deletions — never
    /// below `len.start`) and by shrinking individual elements.
    pub fn vec_of<T: Clone + Debug + 'static>(elem: Gen<T>, len: Range<usize>) -> Gen<Vec<T>> {
        assert!(len.start < len.end, "empty length range");
        let min_len = len.start;
        let elem2 = elem.clone();
        Gen::with_shrink(
            move |rng| {
                let n = rng.gen_range(len.clone());
                (0..n).map(|_| elem.generate(rng)).collect()
            },
            move |v: &Vec<T>| {
                let mut out: Vec<Vec<T>> = Vec::new();
                if v.len() > min_len {
                    out.push(v[..min_len].to_vec());
                    if v.len() >= 2 && v.len() / 2 >= min_len {
                        out.push(v[..v.len() / 2].to_vec());
                    }
                    for i in 0..v.len().min(16) {
                        if v.len() > min_len {
                            let mut w = v.clone();
                            w.remove(i);
                            out.push(w);
                        }
                    }
                }
                for i in 0..v.len().min(8) {
                    for rc in elem2.shrink(&v[i]) {
                        let mut w = v.clone();
                        w[i] = rc;
                        out.push(w);
                    }
                }
                out
            },
        )
    }

    /// A pair of independent draws; shrinks each side while holding the
    /// other fixed.
    pub fn pair<A, B>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)>
    where
        A: Clone + Debug + 'static,
        B: Clone + Debug + 'static,
    {
        let (a2, b2) = (a.clone(), b.clone());
        Gen::with_shrink(
            move |rng| (a.generate(rng), b.generate(rng)),
            move |(x, y)| {
                let mut out = Vec::new();
                for sx in a2.shrink(x) {
                    out.push((sx, y.clone()));
                }
                for sy in b2.shrink(y) {
                    out.push((x.clone(), sy));
                }
                out
            },
        )
    }

    /// Choose uniformly between alternative generators (proptest's
    /// `prop_oneof!`). Values don't shrink — the producing branch is not
    /// recorded.
    pub fn one_of<T: 'static>(alternatives: Vec<Gen<T>>) -> Gen<T> {
        assert!(!alternatives.is_empty(), "one_of: no alternatives");
        Gen::new(move |rng| {
            let i = rng.gen_range(0..alternatives.len());
            alternatives[i].generate(rng)
        })
    }

    /// Always the same value (proptest's `Just`).
    pub fn just<T: Clone + 'static>(value: T) -> Gen<T> {
        Gen::new(move |_| value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use credence_rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn int_range_respects_bounds_and_shrinks_down() {
        let g = gens::usize_range(3..10);
        let mut r = rng();
        for _ in 0..1000 {
            let x = g.generate(&mut r);
            assert!((3..10).contains(&x));
        }
        let c = g.shrink(&9);
        assert!(c.contains(&3) && c.contains(&8));
        assert!(g.shrink(&3).is_empty());
    }

    #[test]
    fn vec_shrink_never_violates_min_len() {
        let g = gens::vec_of(gens::u32_range(0..5), 2..6);
        for cand in g.shrink(&vec![1, 2, 3]) {
            assert!(cand.len() >= 2, "{cand:?}");
        }
    }

    #[test]
    fn string_shrink_proposes_simpler_strings() {
        let g = gens::string_of("abc", 0..8);
        let cands = g.shrink(&"cba".to_string());
        assert!(cands.iter().any(|s| s.is_empty()));
        assert!(cands.iter().any(|s| s.len() < 3));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = gens::vec_of(gens::u64_any(), 0..10);
        let a: Vec<_> = {
            let mut r = rng();
            (0..20).map(|_| g.generate(&mut r)).collect()
        };
        let b: Vec<_> = {
            let mut r = rng();
            (0..20).map(|_| g.generate(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn char_any_only_yields_valid_scalars() {
        let g = gens::char_any();
        let mut r = rng();
        for _ in 0..5000 {
            let c = g.generate(&mut r);
            assert!(char::from_u32(c as u32).is_some());
        }
    }
}
