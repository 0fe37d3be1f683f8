//! The xoshiro256++ generator and its SplitMix64 seeder.
//!
//! xoshiro256++ (Blackman & Vigna, "Scrambled linear pseudorandom number
//! generators", 2019) is a 256-bit all-purpose generator: period 2^256 − 1,
//! passes BigCrush, a handful of shifts/rotates/xors per draw. It is not
//! cryptographic — fine here, where randomness only drives embedding
//! initialisation, Gibbs sampling, shuffling, and synthetic corpora.

use crate::{RngCore, SeedableRng};

/// SplitMix64 (Steele, Lea & Flood 2014): a tiny 64-bit generator whose
/// one-word state makes it the standard choice for expanding a small seed
/// into the 256-bit xoshiro state.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start the sequence at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        Self::new(seed)
    }
}

/// xoshiro256++: the workspace's standard generator (`rngs::StdRng`).
#[derive(Debug, Clone)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl SeedableRng for Xoshiro256PlusPlus {
    fn seed_from_u64(seed: u64) -> Self {
        // Expand through SplitMix64 so similar seeds yield unrelated states.
        // SplitMix64 is a bijection on u64, so at most one of the four words
        // can be zero — the state can never be all-zero.
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

impl RngCore for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector from the public-domain xoshiro256plusplus.c by
    /// Blackman & Vigna: first outputs from the state {1, 2, 3, 4}.
    #[test]
    fn matches_reference_implementation() {
        let mut rng = Xoshiro256PlusPlus { s: [1, 2, 3, 4] };
        let expected: [u64; 6] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
        ];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // First three outputs for seed 1234567 (from the reference C code).
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
        assert_eq!(sm.next_u64(), 9817491932198370423);
    }

    #[test]
    fn clone_preserves_stream() {
        let mut a = Xoshiro256PlusPlus::seed_from_u64(99);
        let _ = a.next_u64();
        let mut b = a.clone();
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
