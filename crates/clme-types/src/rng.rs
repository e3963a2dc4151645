//! Deterministic pseudo-random number generation.
//!
//! The simulator must be reproducible bit-for-bit from a seed so that the
//! figure harnesses print stable numbers. [`Xoshiro256`] implements
//! xoshiro256** seeded through [`SplitMix64`] — the standard,
//! well-analysed construction — without pulling a dependency into every
//! crate. [`SplitMix64`] is also exposed directly: its single-u64 state
//! makes it the right tool for deriving independent per-cell seeds in the
//! run-matrix driver (every cell's stream is a pure function of the
//! matrix seed and the cell's stable label, regardless of scheduling).

/// The SplitMix64 generator: one u64 of state, one multiply-xor-shift
/// avalanche per output. Passes BigCrush when used as a stream; its main
/// role here is seed derivation and cheap labelled sub-streams.
///
/// Not cryptographically secure.
///
/// # Examples
///
/// ```
/// use clme_types::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Labelled derivation is order-independent:
/// let s1 = SplitMix64::new(42).derive(b"cell/bfs/counter-light");
/// let s2 = SplitMix64::new(42).derive(b"cell/bfs/counter-light");
/// assert_eq!(s1, s2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        split_mix64(&mut self.state)
    }

    /// Returns a uniformly random value in `[0, bound)` by the
    /// multiply-shift method (bias < 2⁻⁶⁴·bound, irrelevant here).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }

    /// Derives an independent child seed from this generator's current
    /// state and a stable byte label (e.g. a run-matrix cell name). Does
    /// not consume this generator's stream, so derivation order cannot
    /// affect any other stream.
    pub fn derive(&self, label: &[u8]) -> u64 {
        // FNV-1a over the label, folded into the state through one extra
        // SplitMix64 avalanche so related labels decorrelate.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &byte in label {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut mixed = self.state ^ h;
        split_mix64(&mut mixed)
    }
}

/// A xoshiro256** PRNG, seeded via SplitMix64.
///
/// Not cryptographically secure; used only for workload generation, fault
/// injection, and randomized tests.
///
/// # Examples
///
/// ```
/// use clme_types::rng::Xoshiro256;
///
/// let mut a = Xoshiro256::seed_from(42);
/// let mut b = Xoshiro256::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed by expanding it through
    /// SplitMix64 (as recommended by the xoshiro authors).
    pub fn seed_from(seed: u64) -> Xoshiro256 {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is invalid for xoshiro; SplitMix64 of any seed
        // cannot produce four zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 { s }
    }

    /// Returns the next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a value in `[0, bound)` from one draw by plain
    /// multiply-shift: the high 64 bits of `next_u64() * bound`. No draw
    /// is rejected, so the bias is at most `bound / 2^64`, and every call
    /// consumes exactly one draw of the stream.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }

    /// Returns a uniformly random `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Draws from a geometric-ish Pareto distribution with shape `alpha`,
    /// scaled into `[0, n)`; used by the power-law graph generator.
    pub fn pareto_index(&mut self, n: u64, alpha: f64) -> u64 {
        assert!(n > 0, "population must be non-empty");
        let u = self.next_f64().max(1e-12);
        let x = u.powf(-1.0 / alpha) - 1.0; // Pareto with minimum 0
        let idx = x.min(n as f64 - 1.0);
        idx as u64
    }
}

#[inline]
fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Xoshiro256::seed_from(7);
        let mut b = Xoshiro256::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::seed_from(1);
        let mut b = Xoshiro256::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Xoshiro256::seed_from(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn below_known_answers() {
        // One multiply-shift per draw: these values pin the stream every
        // workload and golden snapshot is generated from.
        let mut rng = Xoshiro256::seed_from(0x5EED);
        let mut draws = |bound| [(); 4].map(|_| rng.below(bound));
        assert_eq!(draws(1), [0; 4]);
        assert_eq!(draws(1 << 20), [718_970, 552_744, 319_916, 442_687]);
        assert_eq!(draws(1_000_003), [775_447, 733_548, 174_754, 674_545]);
        assert_eq!(
            draws((1 << 63) + 1),
            [
                4_988_569_008_178_466_182,
                2_859_480_771_986_916_480,
                5_613_952_681_704_545_833,
                2_280_521_207_111_789_498
            ]
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from(4);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_respects_probability() {
        let mut rng = Xoshiro256::seed_from(5);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = Xoshiro256::seed_from(6);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn pareto_skews_low() {
        let mut rng = Xoshiro256::seed_from(8);
        let n = 1000;
        let draws: Vec<u64> = (0..10_000).map(|_| rng.pareto_index(n, 1.2)).collect();
        assert!(draws.iter().all(|&d| d < n));
        let low = draws.iter().filter(|&&d| d < n / 10).count();
        assert!(low > 5_000, "power-law draws should concentrate low: {low}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn below_zero_bound_panics() {
        let mut rng = Xoshiro256::seed_from(0);
        let _ = rng.below(0);
    }

    #[test]
    fn splitmix_known_answer() {
        // Reference value from the canonical SplitMix64 (Steele et al.):
        // seed 0 → first output 0xE220A8397B1DCDAF.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn splitmix_below_in_range() {
        let mut sm = SplitMix64::new(99);
        for _ in 0..1000 {
            assert!(sm.below(17) < 17);
        }
    }

    #[test]
    fn derive_is_pure_and_label_sensitive() {
        let base = SplitMix64::new(5);
        assert_eq!(base.derive(b"a"), base.derive(b"a"));
        assert_ne!(base.derive(b"a"), base.derive(b"b"));
        assert_ne!(base.derive(b"a"), SplitMix64::new(6).derive(b"a"));
        // Derivation does not perturb the stream.
        let mut x = SplitMix64::new(5);
        let _ = x.derive(b"whatever");
        let mut y = SplitMix64::new(5);
        assert_eq!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn xoshiro_seeding_still_matches_splitmix_expansion() {
        // Xoshiro256::seed_from must keep producing the historical
        // streams (golden snapshots depend on workload determinism).
        let mut a = Xoshiro256::seed_from(42);
        let mut b = Xoshiro256::seed_from(42);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
