//! Counter-free deterministic randomness for the traffic generator.
//!
//! Every sampling decision in `lm4db-loadgen` flows through [`Rng`], a
//! splitmix64 stream. Generators never share one stream: each
//! `(seed, tenant, tick)` triple derives its own via [`Rng::derive`], so
//! the arrivals of one tick are a pure function of that triple — they do
//! not depend on which other ticks were sampled before, in what order, or
//! on how many threads the consumer runs.

use lm4db_fault::mix;

/// A splitmix64 pseudo-random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded directly.
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed))
    }

    /// A substream for a labelled domain: `derive(seed, [a, b])` and
    /// `derive(seed, [a, c])` are statistically independent streams.
    pub fn derive(seed: u64, labels: &[u64]) -> Self {
        let mut s = mix(seed);
        for &l in labels {
            s = mix(s ^ mix(l));
        }
        Rng(s)
    }

    /// The next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `[0, n)`; 0 when `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            // Multiply-shift range reduction: bias is < 2^-64 per draw,
            // far below anything the generator's statistics can resolve.
            ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
        }
    }

    /// A Poisson draw with mean `lambda` (Knuth's product-of-uniforms
    /// method, exact for the modest per-tick rates an open-loop generator
    /// uses). `lambda` is clamped to `[0, 64]` so a misconfigured burst
    /// cannot spin unboundedly.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        let lambda = lambda.clamp(0.0, 64.0);
        if lambda == 0.0 {
            return 0;
        }
        let limit = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= self.next_f64();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }

    /// An index drawn from the categorical distribution `weights`
    /// (non-negative; all-zero falls back to index 0).
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 {
            return 0;
        }
        let mut x = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w.max(0.0);
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = {
            let mut r = Rng::derive(7, &[1, 2]);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut r = Rng::derive(7, &[1, 2]);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, a2, "same labels must replay the same stream");
        let b: Vec<u64> = {
            let mut r = Rng::derive(7, &[1, 3]);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b, "different labels must decorrelate");
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut r = Rng::new(42);
        let n = 4000;
        let total: u64 = (0..n).map(|_| r.poisson(2.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((2.2..=2.8).contains(&mean), "mean {mean} far from 2.5");
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn weighted_respects_zero_weights() {
        let mut r = Rng::new(3);
        for _ in 0..256 {
            let i = r.weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
        assert_eq!(r.weighted(&[0.0, 0.0]), 0, "all-zero falls back to 0");
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(9);
        for _ in 0..512 {
            assert!(r.below(7) < 7);
        }
        assert_eq!(r.below(0), 0);
    }
}
