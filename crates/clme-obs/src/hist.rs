//! Fixed-bucket log2 latency histogram.
//!
//! Latencies in this simulator span five orders of magnitude (sub-ns AES
//! stages to tens-of-µs queueing pathologies), so linear buckets either
//! lose the tail or the head. A power-of-two bucketing keeps both with a
//! single 64-slot array and no allocation on the record path.

use clme_types::TimeDelta;

/// Number of buckets; covers every representable `u64` picosecond value.
pub const LOG2_BUCKETS: usize = 64;

/// A latency histogram with power-of-two picosecond buckets.
///
/// Bucket `0` holds exact zeros; bucket `i >= 1` holds latencies in
/// `[2^(i-1), 2^i)` picoseconds. The exact sum is kept alongside so the
/// mean is not quantised.
///
/// # Examples
///
/// ```
/// use clme_obs::Log2Histogram;
/// use clme_types::TimeDelta;
///
/// let mut h = Log2Histogram::new();
/// h.record(TimeDelta::from_picos(3));
/// assert_eq!(h.bucket_count(2), 1); // [2, 4) ps
/// assert_eq!(h.mean_ps(), 3.0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; LOG2_BUCKETS],
    total: u64,
    sum_ps: u128,
    max_ps: u64,
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Log2Histogram {
        Log2Histogram {
            counts: [0; LOG2_BUCKETS],
            total: 0,
            sum_ps: 0,
            max_ps: 0,
        }
    }

    /// Bucket index for a picosecond value: 0 for 0, else
    /// `64 - leading_zeros(ps)`, clamped so the last bucket also absorbs
    /// values at and above `2^63`.
    #[inline]
    pub fn bucket_of(ps: u64) -> usize {
        ((64 - ps.leading_zeros()) as usize).min(LOG2_BUCKETS - 1)
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, latency: TimeDelta) {
        self.record_n(latency, 1);
    }

    /// Records `n` samples of the same latency.
    #[inline]
    pub fn record_n(&mut self, latency: TimeDelta, n: u64) {
        if n == 0 {
            return;
        }
        let ps = latency.picos();
        self.counts[Self::bucket_of(ps)] += n;
        self.total += n;
        self.sum_ps += ps as u128 * n as u128;
        self.max_ps = self.max_ps.max(ps);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Number of samples in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Inclusive lower bound of bucket `i`, in picoseconds.
    pub fn bucket_lo_ps(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Exclusive upper bound of bucket `i`, in picoseconds (saturating for
    /// the last bucket).
    pub fn bucket_hi_ps(i: usize) -> u64 {
        if i == 0 {
            1
        } else if i >= 63 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Exact mean of the recorded samples, in picoseconds (0 when empty).
    pub fn mean_ps(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ps as f64 / self.total as f64
        }
    }

    /// Largest recorded sample, in picoseconds.
    pub fn max_ps(&self) -> u64 {
        self.max_ps
    }

    /// Approximate `p`-th percentile (`0.0..=1.0`), in picoseconds: the
    /// upper bound of the first bucket whose cumulative count reaches
    /// `p * total`, clamped to the observed maximum. Returns 0 when empty.
    pub fn percentile_ps(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let target = target.max(1);
        let mut seen = 0;
        for i in 0..LOG2_BUCKETS {
            seen += self.counts[i];
            if seen >= target {
                // The top bucket's bound is already saturated (inclusive);
                // subtracting 1 there would under-report a u64::MAX sample.
                let bound = if i == LOG2_BUCKETS - 1 {
                    u64::MAX
                } else {
                    Self::bucket_hi_ps(i) - 1
                };
                return bound.min(self.max_ps);
            }
        }
        self.max_ps
    }

    /// Resets all buckets to empty.
    pub fn clear(&mut self) {
        *self = Log2Histogram::new();
    }

    /// Builds a histogram from raw bucket counts plus the exact sum and
    /// maximum. The total is recomputed from `counts`. This is the merge
    /// target for the atomic sharded histogram in [`crate::registry`],
    /// which accumulates the same representation across threads and folds
    /// it back into the single-threaded type for reporting.
    pub fn from_parts(counts: [u64; LOG2_BUCKETS], sum_ps: u128, max_ps: u64) -> Log2Histogram {
        let total = counts.iter().sum();
        Log2Histogram {
            counts,
            total,
            sum_ps,
            max_ps,
        }
    }

    /// The histogram of samples recorded since `baseline` was cloned off
    /// this histogram: per-bucket count differences plus exact total/sum
    /// differences. Used by the epoch sampler to turn a cumulative
    /// histogram into per-epoch deltas without a second record path.
    ///
    /// The delta's maximum is exact when the global maximum moved inside
    /// the delta window; otherwise it is the tightest bucket upper bound,
    /// clamped to the cumulative maximum.
    ///
    /// Every subtraction saturates at zero: a `baseline` that is *not*
    /// an earlier state of `self` (a snapshot that outlived a purge,
    /// reset, or was taken from another histogram) yields an
    /// empty-or-smaller delta instead of underflowing into garbage
    /// percentiles.
    pub fn delta_since(&self, baseline: &Log2Histogram) -> Log2Histogram {
        let mut counts = [0u64; LOG2_BUCKETS];
        let mut highest = None;
        for i in 0..LOG2_BUCKETS {
            counts[i] = self.counts[i].saturating_sub(baseline.counts[i]);
            if counts[i] > 0 {
                highest = Some(i);
            }
        }
        let max_ps = if self.max_ps > baseline.max_ps {
            self.max_ps
        } else {
            highest
                .map(|i| Self::bucket_hi_ps(i).saturating_sub(1).min(self.max_ps))
                .unwrap_or(0)
        };
        Log2Histogram {
            counts,
            total: counts.iter().sum(),
            sum_ps: self.sum_ps.saturating_sub(baseline.sum_ps),
            max_ps,
        }
    }
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // 0 -> bucket 0; [2^(i-1), 2^i) -> bucket i.
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        for i in 1..62usize {
            let lo = 1u64 << (i - 1);
            let hi = 1u64 << i;
            assert_eq!(Log2Histogram::bucket_of(lo), i, "lower edge of bucket {i}");
            assert_eq!(
                Log2Histogram::bucket_of(hi - 1),
                i,
                "upper edge of bucket {i}"
            );
            assert_eq!(Log2Histogram::bucket_of(hi), i + 1, "next bucket after {i}");
            assert_eq!(Log2Histogram::bucket_lo_ps(i), lo);
            assert_eq!(Log2Histogram::bucket_hi_ps(i), hi);
        }
        // The last bucket absorbs everything at and above 2^62.
        assert_eq!(Log2Histogram::bucket_of(1u64 << 62), 63);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 63);
        assert_eq!(Log2Histogram::bucket_hi_ps(63), u64::MAX);
    }

    #[test]
    fn record_and_summaries() {
        let mut h = Log2Histogram::new();
        for ps in [0u64, 1, 2, 3, 4, 1000, 1024] {
            h.record(TimeDelta::from_picos(ps));
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.bucket_count(0), 1); // 0
        assert_eq!(h.bucket_count(1), 1); // 1
        assert_eq!(h.bucket_count(2), 2); // 2, 3
        assert_eq!(h.bucket_count(3), 1); // 4
        assert_eq!(h.bucket_count(10), 1); // 1000 in [512, 1024)
        assert_eq!(h.bucket_count(11), 1); // 1024 in [1024, 2048)
        assert_eq!(h.max_ps(), 1024);
        let mean = (0 + 1 + 2 + 3 + 4 + 1000 + 1024) as f64 / 7.0;
        assert!((h.mean_ps() - mean).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_monotonic_and_clamped() {
        let mut h = Log2Histogram::new();
        for ps in 1..=100u64 {
            h.record(TimeDelta::from_picos(ps));
        }
        let p50 = h.percentile_ps(0.5);
        let p99 = h.percentile_ps(0.99);
        assert!(p50 <= p99);
        assert!(p99 <= h.max_ps());
        assert_eq!(h.percentile_ps(1.0), h.max_ps());
        assert_eq!(Log2Histogram::new().percentile_ps(0.5), 0);
    }

    #[test]
    fn zero_latency_lands_in_bucket_zero_only() {
        let mut h = Log2Histogram::new();
        h.record(TimeDelta::ZERO);
        h.record(TimeDelta::ZERO);
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket_count(0), 2);
        for i in 1..LOG2_BUCKETS {
            assert_eq!(h.bucket_count(i), 0, "bucket {i} must stay empty");
        }
        assert_eq!(h.mean_ps(), 0.0);
        assert_eq!(h.max_ps(), 0);
        // Every percentile of an all-zero histogram is zero.
        for p in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.percentile_ps(p), 0);
        }
    }

    #[test]
    fn u64_max_saturates_into_the_top_bucket() {
        let mut h = Log2Histogram::new();
        h.record(TimeDelta::from_picos(u64::MAX));
        h.record(TimeDelta::from_picos(u64::MAX - 1));
        h.record(TimeDelta::from_picos(1u64 << 63));
        assert_eq!(h.bucket_count(LOG2_BUCKETS - 1), 3);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max_ps(), u64::MAX);
        // The exact sum survives in the u128 accumulator (no wrap).
        let expected = u64::MAX as u128 + (u64::MAX - 1) as u128 + (1u128 << 63);
        assert!((h.mean_ps() - expected as f64 / 3.0).abs() / h.mean_ps() < 1e-12);
        // Percentiles clamp to the observed maximum, not the bucket bound.
        assert_eq!(h.percentile_ps(1.0), u64::MAX);
    }

    #[test]
    fn single_sample_percentiles_return_that_sample() {
        // A one-sample histogram has only one defensible answer for any
        // percentile: the sample itself. The bucket upper bound is
        // clamped to the observed maximum, which for a single sample is
        // exact at every p.
        for ps in [1u64, 3, 1000, 13_750, u64::MAX] {
            let mut h = Log2Histogram::new();
            h.record(TimeDelta::from_picos(ps));
            for p in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(h.percentile_ps(p), ps, "p={p} of single sample {ps}");
            }
        }
    }

    #[test]
    fn delta_since_subtracts_buckets_and_sums() {
        let mut h = Log2Histogram::new();
        h.record(TimeDelta::from_picos(3));
        h.record(TimeDelta::from_picos(100));
        let baseline = h.clone();
        h.record(TimeDelta::from_picos(5));
        h.record(TimeDelta::from_picos(1000));
        let delta = h.delta_since(&baseline);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.bucket_count(3), 1); // 5 in [4, 8)
        assert_eq!(delta.bucket_count(10), 1); // 1000 in [512, 1024)
        assert_eq!(delta.mean_ps(), (5 + 1000) as f64 / 2.0);
        // 1000 raised the global max inside the window: exact.
        assert_eq!(delta.max_ps(), 1000);
        // A quiet window deltas to an empty histogram.
        let quiet = h.delta_since(&h.clone());
        assert_eq!(quiet.count(), 0);
        assert_eq!(quiet.max_ps(), 0);
    }

    #[test]
    fn delta_since_bounds_max_when_global_max_is_stale() {
        let mut h = Log2Histogram::new();
        h.record(TimeDelta::from_picos(1_000_000)); // sets the global max
        let baseline = h.clone();
        h.record(TimeDelta::from_picos(70)); // in [64, 128)
        let delta = h.delta_since(&baseline);
        assert_eq!(delta.count(), 1);
        // True epoch max (70) is unknowable from buckets; the bound is
        // the bucket's upper edge, clamped below the cumulative max.
        assert_eq!(delta.max_ps(), 127);
    }

    #[test]
    fn delta_since_clamps_when_baseline_is_newer() {
        // A snapshot taken *after* more traffic (or after a purge reset
        // the live histogram) must clamp to zero, not underflow.
        let mut live = Log2Histogram::new();
        live.record(TimeDelta::from_picos(100));
        let mut newer = live.clone();
        newer.record(TimeDelta::from_picos(100));
        newer.record(TimeDelta::from_picos(5000));
        let delta = live.delta_since(&newer);
        assert_eq!(delta.count(), 0);
        assert_eq!(delta.mean_ps(), 0.0);
        assert_eq!(delta.max_ps(), 0);
        for p in [0.5, 0.99, 1.0] {
            assert_eq!(delta.percentile_ps(p), 0);
        }
        // Post-purge: live restarts from empty while the snapshot still
        // holds history. The delta is the new traffic only where it
        // exceeds the stale baseline, never a wrapped count.
        let mut purged = Log2Histogram::new();
        purged.record(TimeDelta::from_picos(7));
        let delta = purged.delta_since(&newer);
        assert_eq!(delta.count(), 1);
        assert_eq!(delta.bucket_count(3), 1); // 7 in [4, 8)
                                              // Internal consistency: total always equals the bucket sum.
        let summed: u64 = (0..LOG2_BUCKETS).map(|i| delta.bucket_count(i)).sum();
        assert_eq!(delta.count(), summed);
    }

    #[test]
    fn clear_empties() {
        let mut h = Log2Histogram::new();
        h.record(TimeDelta::from_ns(5));
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ps(), 0.0);
        assert_eq!(h, Log2Histogram::new());
    }
}
