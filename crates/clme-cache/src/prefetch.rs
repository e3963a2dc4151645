//! Hardware prefetchers (Table I: next-line at L1/L2, stride of degree 1
//! at L1 and degree 2 at L2).
//!
//! Prefetching is what hides counterless encryption's cipher latency for
//! *regular* workloads (Section I) — and what cannot help irregular ones.
//! The stride prefetcher is a reference-prediction table keyed by 4 KB
//! region: it learns a stable block stride within a region and, once
//! confident, prefetches `degree` blocks ahead.

use clme_types::hash::BlockHasher;

/// A next-line prefetcher: every access to block `b` suggests `b + 1`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NextLinePrefetcher;

impl NextLinePrefetcher {
    /// Creates a next-line prefetcher.
    pub fn new() -> NextLinePrefetcher {
        NextLinePrefetcher
    }

    /// The block to prefetch in response to an access to `block`.
    pub fn suggest(&self, block: u64) -> u64 {
        block.wrapping_add(1)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct StrideEntry {
    region: u64,
    last_block: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// A stride prefetcher with a small reference-prediction table.
///
/// # Examples
///
/// ```
/// use clme_cache::prefetch::StridePrefetcher;
///
/// let mut pf = StridePrefetcher::new(16, 2);
/// let mut suggestions = Vec::new();
/// pf.observe(100, &mut suggestions);
/// pf.observe(102, &mut suggestions); // stride 2 seen once
/// assert!(suggestions.is_empty());
/// pf.observe(104, &mut suggestions); // stride 2 confirmed -> confident
/// assert_eq!(suggestions, vec![106, 108]);
/// pf.observe(106, &mut suggestions); // appends
/// assert_eq!(suggestions, vec![106, 108, 108, 110]);
/// ```
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    table: Vec<StrideEntry>,
    degree: u32,
}

impl StridePrefetcher {
    /// Confidence needed before issuing prefetches.
    const CONFIDENT: u8 = 2;

    /// Creates a stride prefetcher with `entries` RPT entries (power of
    /// two) issuing `degree` prefetches per trained access.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a nonzero power of two.
    pub fn new(entries: usize, degree: u32) -> StridePrefetcher {
        assert!(
            entries.is_power_of_two() && entries > 0,
            "entries must be a power of two"
        );
        StridePrefetcher {
            table: vec![StrideEntry::default(); entries],
            degree,
        }
    }

    /// Observes a demand access to `block` and appends the blocks to
    /// prefetch to `out` (nothing while training or with degree 0).
    /// Block arithmetic wraps around the 64-bit block space.
    pub fn observe(&mut self, block: u64, out: &mut Vec<u64>) {
        if self.degree == 0 {
            return;
        }
        // Key by 4 KB region: 64 blocks per region.
        let region = block >> 6;
        let idx = (region as usize) & (self.table.len() - 1);
        let entry = &mut self.table[idx];
        if !entry.valid || entry.region != region {
            *entry = StrideEntry {
                region,
                last_block: block,
                stride: 0,
                confidence: 0,
                valid: true,
            };
            return;
        }
        let observed = block.wrapping_sub(entry.last_block) as i64;
        entry.last_block = block;
        if observed == 0 {
            return;
        }
        if observed == entry.stride {
            entry.confidence = (entry.confidence + 1).min(3);
        } else {
            entry.stride = observed;
            entry.confidence = 1;
            return;
        }
        if entry.confidence >= Self::CONFIDENT {
            let stride = entry.stride;
            out.extend(
                (1..=i64::from(self.degree))
                    .map(|k| block.wrapping_add(stride.wrapping_mul(k) as u64)),
            );
        }
    }

    /// Forgets all training state, returning the table to its
    /// just-constructed contents (run-matrix arena reuse).
    pub fn reset(&mut self) {
        for entry in &mut self.table {
            *entry = StrideEntry::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The suggestions one observation appends to an empty buffer.
    fn observe(pf: &mut StridePrefetcher, block: u64) -> Vec<u64> {
        let mut out = Vec::new();
        pf.observe(block, &mut out);
        out
    }

    #[test]
    fn next_line_suggests_successor() {
        let pf = NextLinePrefetcher::new();
        assert_eq!(pf.suggest(10), 11);
        assert_eq!(pf.suggest(u64::MAX), 0);
    }

    #[test]
    fn stride_learns_unit_stride() {
        let mut pf = StridePrefetcher::new(8, 1);
        assert!(observe(&mut pf, 0).is_empty()); // allocate
        assert!(observe(&mut pf, 1).is_empty()); // stride=1, conf=1
        assert_eq!(observe(&mut pf, 2), vec![3]); // conf=2: prefetch
        assert_eq!(observe(&mut pf, 3), vec![4]);
    }

    #[test]
    fn stride_learns_negative_stride() {
        let mut pf = StridePrefetcher::new(8, 1);
        observe(&mut pf, 40);
        observe(&mut pf, 38);
        assert_eq!(observe(&mut pf, 36), vec![34]);
    }

    #[test]
    fn degree_two_prefetches_two_ahead() {
        let mut pf = StridePrefetcher::new(8, 2);
        observe(&mut pf, 100);
        observe(&mut pf, 104);
        assert_eq!(observe(&mut pf, 108), vec![112, 116]);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut pf = StridePrefetcher::new(8, 1);
        observe(&mut pf, 0);
        observe(&mut pf, 1);
        assert!(!observe(&mut pf, 2).is_empty());
        // Break the pattern.
        assert!(observe(&mut pf, 10).is_empty()); // stride becomes 8, conf 1
        assert!(!observe(&mut pf, 18).is_empty()); // stride 8 confirmed
    }

    #[test]
    fn random_accesses_do_not_trigger() {
        let mut pf = StridePrefetcher::new(16, 2);
        let mut rng = clme_types::rng::Xoshiro256::seed_from(5);
        let mut issued = 0usize;
        for _ in 0..1000 {
            // Random blocks over a huge range: regions rarely repeat with
            // a consistent stride.
            issued += observe(&mut pf, rng.next_u64() >> 20).len();
        }
        assert!(issued < 50, "random stream triggered {issued} prefetches");
    }

    #[test]
    fn repeated_same_block_is_ignored() {
        let mut pf = StridePrefetcher::new(8, 1);
        observe(&mut pf, 5);
        for _ in 0..10 {
            assert!(observe(&mut pf, 5).is_empty());
        }
    }

    #[test]
    fn predictions_wrap_around_the_block_space() {
        let mut pf = StridePrefetcher::new(8, 2);
        for block in [u64::MAX - 2, u64::MAX - 1] {
            observe(&mut pf, block);
        }
        assert_eq!(observe(&mut pf, u64::MAX), vec![0, 1]);
        let top = i64::MAX as u64;
        for block in [top - 2, top - 1] {
            observe(&mut pf, block);
        }
        assert_eq!(observe(&mut pf, top), vec![top + 1, top + 2]);
    }

    #[test]
    fn appends_to_the_callers_buffer() {
        let mut pf = StridePrefetcher::new(8, 1);
        let mut out = vec![7];
        for block in [0, 1, 2] {
            pf.observe(block, &mut out);
        }
        assert_eq!(out, vec![7, 3]);
    }

    #[test]
    fn degree_zero_disables() {
        let mut pf = StridePrefetcher::new(8, 0);
        observe(&mut pf, 0);
        observe(&mut pf, 1);
        assert!(observe(&mut pf, 2).is_empty());
    }
}

/// The throttle's outstanding-block set: probed on every access, never
/// iterated, so [`BlockHasher`] picks its buckets.
type BlockSet = std::collections::HashSet<u64, std::hash::BuildHasherDefault<BlockHasher>>;

/// Accuracy-feedback throttle, as real prefetchers employ: prefetches are
/// only issued while the observed usefulness (prefetched blocks that get
/// demand-accessed before being forgotten) stays above a floor. Without
/// this, a next-line prefetcher on an irregular workload floods the
/// memory bus with useless fills far beyond the utilisation real systems
/// report.
#[derive(Clone, Debug)]
pub struct PrefetchThrottle {
    outstanding: BlockSet,
    order: std::collections::VecDeque<u64>,
    issued: u64,
    useful: u64,
}

impl PrefetchThrottle {
    /// Tracked outstanding prefetches before the oldest is forgotten.
    const WINDOW: usize = 2048;
    /// Minimum usefulness: 1 useful per 8 issued.
    const MIN_ACCURACY_SHIFT: u32 = 3;
    /// Decay cadence, in issued prefetch decisions.
    const DECAY_AT: u64 = 8192;

    /// Creates an open throttle.
    pub fn new() -> PrefetchThrottle {
        PrefetchThrottle {
            outstanding: BlockSet::default(),
            order: std::collections::VecDeque::new(),
            issued: 0,
            useful: 0,
        }
    }

    /// Whether a new prefetch may be issued right now.
    pub fn allows(&self) -> bool {
        self.issued < 64 || (self.useful << Self::MIN_ACCURACY_SHIFT) >= self.issued
    }

    /// Records an issued prefetch of `block`.
    pub fn on_issue(&mut self, block: u64) {
        self.issued += 1;
        if self.issued >= Self::DECAY_AT {
            self.issued /= 2;
            self.useful /= 2;
        }
        if self.outstanding.insert(block) {
            self.order.push_back(block);
            if self.order.len() > Self::WINDOW {
                if let Some(old) = self.order.pop_front() {
                    self.outstanding.remove(&old);
                }
            }
        }
    }

    /// Records a demand access; returns whether it hit an outstanding
    /// prefetch (credited as useful).
    pub fn on_demand(&mut self, block: u64) -> bool {
        if self.outstanding.remove(&block) {
            self.useful += 1;
            true
        } else {
            false
        }
    }

    /// Forgets all accuracy state, reopening the throttle as when
    /// constructed (run-matrix arena reuse).
    pub fn reset(&mut self) {
        self.outstanding.clear();
        self.order.clear();
        self.issued = 0;
        self.useful = 0;
    }
}

impl Default for PrefetchThrottle {
    fn default() -> PrefetchThrottle {
        PrefetchThrottle::new()
    }
}

#[cfg(test)]
mod throttle_tests {
    use super::*;

    #[test]
    fn accurate_stream_stays_open() {
        let mut t = PrefetchThrottle::new();
        for b in 0..10_000u64 {
            assert!(t.allows() || b < 64, "closed at {b}");
            if t.allows() {
                t.on_issue(b + 1);
            }
            t.on_demand(b + 1);
        }
        assert!(t.allows());
    }

    #[test]
    fn useless_stream_gets_throttled() {
        let mut t = PrefetchThrottle::new();
        let mut issued = 0;
        for b in 0..10_000u64 {
            if t.allows() {
                t.on_issue(b * 1_000_003); // never demanded
                issued += 1;
            }
            t.on_demand(b * 7 + 13);
        }
        assert!(issued < 200, "throttle failed: {issued} issued");
    }

    #[test]
    fn decay_lets_prefetcher_retry() {
        let mut t = PrefetchThrottle::new();
        // Poison with useless prefetches until closed.
        for b in 0..100u64 {
            t.on_issue(b * 999_983);
        }
        assert!(!t.allows());
        // A later phase where demand walks through the tracked window
        // revives it (useful hits accumulate).
        let mut reopened = false;
        for b in 0..2_000u64 {
            t.on_demand(b * 999_983);
            if t.allows() {
                reopened = true;
            }
        }
        assert!(reopened);
    }
}
