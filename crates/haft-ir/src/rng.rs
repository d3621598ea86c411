//! Deterministic pseudo-random number generation for reproducible
//! experiments.
//!
//! Every stochastic component of the reproduction (workload data, schedule
//! jitter, spontaneous aborts, fault planning, YCSB key distributions)
//! draws from this splitmix64 generator so that a seed fully determines an
//! experiment — the property the paper's fault-injection methodology needs
//! to attribute outcome differences to the injected fault alone.

/// A splitmix64 pseudo-random generator.
///
/// Passes BigCrush as the stream `z -> mix(z)`; statistically more than
/// adequate for simulation jitter and input synthesis.
#[derive(Clone, Debug)]
pub struct Prng {
    state: u64,
}

impl Prng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Prng { state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15) }
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// Rejects draws below `2⁶⁴ mod bound` to avoid modulo bias. That
    /// threshold is itself below `bound`, so a draw `r >= bound` clears it
    /// without computing it: the threshold's division runs only for the
    /// rare draw below `bound`, and a draw costs one 64-bit division
    /// instead of two. The accept/reject decisions, and so the values
    /// returned and the draws consumed, are those of testing every draw
    /// against the threshold.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        loop {
            let r = self.next_u64();
            if r >= bound || r >= bound.wrapping_neg() % bound {
                return r % bound;
            }
        }
    }

    /// Returns a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns true with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Forks an independent generator (seeded from this stream).
    pub fn fork(&mut self) -> Prng {
        Prng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::new(1);
        let mut b = Prng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut p = Prng::new(7);
        for _ in 0..10_000 {
            assert!(p.below(13) < 13);
        }
    }

    /// `below` against its former body, which computed the threshold
    /// before every draw: the same values, and the same number of draws
    /// consumed (the next raw draw after it agrees too).
    #[test]
    fn below_matches_the_eager_threshold() {
        fn eager_below(p: &mut Prng, bound: u64) -> u64 {
            let threshold = bound.wrapping_neg() % bound;
            loop {
                let r = p.next_u64();
                if r >= threshold {
                    return r % bound;
                }
            }
        }
        let bounds = [1, 2, 3, 1000, (1 << 32) + 1, 1 << 63, (1 << 63) + 1, u64::MAX];
        for seed in 0..500 {
            for bound in bounds {
                let (mut lazy, mut eager) = (Prng::new(seed), Prng::new(seed));
                for _ in 0..20 {
                    assert_eq!(lazy.below(bound), eager_below(&mut eager, bound), "{seed} {bound}");
                    assert_eq!(lazy.next_u64(), eager.next_u64(), "{seed} {bound}");
                }
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut p = Prng::new(3);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[p.below(8) as usize] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut p = Prng::new(11);
        for _ in 0..10_000 {
            let v = p.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut p = Prng::new(5);
        assert!(!(0..1000).any(|_| p.chance(0.0)));
        assert!((0..1000).all(|_| p.chance(1.0)));
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = Prng::new(9);
        let mut f = a.fork();
        // The fork must not mirror the parent.
        let same = (0..32).filter(|_| a.next_u64() == f.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Prng::new(0).below(0);
    }
}
