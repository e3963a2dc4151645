//! Statistics helpers shared by the simulator and the figure harnesses.
//!
//! * [`RunningMean`] — numerically stable incremental mean.
//! * [`Histogram`] — fixed-width bucket histogram with under/overflow
//!   buckets; Fig. 8's "counter arrival minus data arrival" distribution is
//!   produced by one of these.
//! * [`Ratio`] — a hit/total pair with convenient percentage reporting
//!   (cache hit rates, memoization-table hit rates, writeback-mode shares).

use core::fmt;

/// Incremental arithmetic mean over `f64` samples.
///
/// # Examples
///
/// ```
/// use clme_types::stats::RunningMean;
///
/// let mut m = RunningMean::new();
/// m.add(2.0);
/// m.add(4.0);
/// assert_eq!(m.mean(), 3.0);
/// assert_eq!(m.count(), 2);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunningMean {
    count: u64,
    mean: f64,
}

impl RunningMean {
    /// Creates an empty mean.
    pub fn new() -> RunningMean {
        RunningMean::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, sample: f64) {
        self.count += 1;
        self.mean += (sample - self.mean) / self.count as f64;
    }

    /// Adds `n` identical samples (cheaper than looping).
    pub fn add_n(&mut self, sample: f64, n: u64) {
        if n == 0 {
            return;
        }
        let total = self.count + n;
        self.mean += (sample - self.mean) * n as f64 / total as f64;
        self.count = total;
    }

    /// The current mean, or `0.0` when no samples were added.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Number of samples added.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// A fixed-width histogram over `i64` samples with explicit underflow and
/// overflow buckets.
///
/// Bucket `i` covers `[lo + i*width, lo + (i+1)*width)`.
///
/// # Examples
///
/// ```
/// use clme_types::stats::Histogram;
///
/// // Fig. 8 uses 5 ns buckets of counter-minus-data arrival skew.
/// let mut h = Histogram::new(-20_000, 5_000, 12);
/// h.add(3_000);
/// h.add(3_500);
/// assert_eq!(h.bucket_count(4), 2); // [0ns, 5ns)
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    lo: i64,
    width: i64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram of `buckets` buckets of `width` starting at
    /// `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive or `buckets` is zero.
    pub fn new(lo: i64, width: i64, buckets: usize) -> Histogram {
        assert!(width > 0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            lo,
            width,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, sample: i64) {
        self.total += 1;
        if sample < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((sample - self.lo) / self.width) as usize;
        if idx >= self.buckets.len() {
            self.overflow += 1;
        } else {
            self.buckets[idx] += 1;
        }
    }

    /// Count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Fraction of all samples (including under/overflow) in bucket `i`.
    pub fn bucket_fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.buckets[i] as f64 / self.total as f64
        }
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lo(&self, i: usize) -> i64 {
        self.lo + i as i64 * self.width
    }

    /// Exclusive upper bound of bucket `i`.
    pub fn bucket_hi(&self, i: usize) -> i64 {
        self.bucket_lo(i) + self.width
    }

    /// Number of regular buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Samples below the first bucket.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the last bucket's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples added.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of samples strictly greater than or equal to `threshold`
    /// (computed from bucket boundaries, so `threshold` should be a bucket
    /// boundary for exact results).
    pub fn fraction_at_or_above(&self, threshold: i64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut count = self.overflow;
        for i in 0..self.buckets.len() {
            if self.bucket_lo(i) >= threshold {
                count += self.buckets[i];
            }
        }
        count as f64 / self.total as f64
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "histogram ({} samples)", self.total)?;
        if self.underflow > 0 {
            writeln!(f, "  < {:>8}: {}", self.lo, self.underflow)?;
        }
        for (i, count) in self.buckets.iter().enumerate() {
            writeln!(
                f,
                "  [{:>8}, {:>8}): {}",
                self.bucket_lo(i),
                self.bucket_hi(i),
                count
            )?;
        }
        if self.overflow > 0 {
            writeln!(
                f,
                "  >= {:>7}: {}",
                self.bucket_hi(self.len() - 1),
                self.overflow
            )?;
        }
        Ok(())
    }
}

/// A hits/total pair reporting a rate.
///
/// # Examples
///
/// ```
/// use clme_types::stats::Ratio;
///
/// let mut r = Ratio::new();
/// r.record(true);
/// r.record(false);
/// r.record(true);
/// assert!((r.rate() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Ratio {
    hits: u64,
    total: u64,
}

impl Ratio {
    /// Creates an empty ratio.
    pub fn new() -> Ratio {
        Ratio::default()
    }

    /// Records one event; `hit` selects the numerator.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Adds raw counts.
    pub fn add(&mut self, hits: u64, total: u64) {
        self.hits += hits;
        self.total += total;
    }

    /// Numerator.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Denominator.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `hits / total`, or `0.0` when empty.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} ({:.1}%)",
            self.hits,
            self.total,
            self.rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_basic() {
        let mut m = RunningMean::new();
        assert_eq!(m.mean(), 0.0);
        for v in [1.0, 2.0, 3.0, 4.0] {
            m.add(v);
        }
        assert!((m.mean() - 2.5).abs() < 1e-12);
        assert_eq!(m.count(), 4);
    }

    #[test]
    fn running_mean_add_n_matches_loop() {
        let mut a = RunningMean::new();
        let mut b = RunningMean::new();
        a.add(1.0);
        a.add_n(5.0, 3);
        b.add(1.0);
        for _ in 0..3 {
            b.add(5.0);
        }
        assert!((a.mean() - b.mean()).abs() < 1e-12);
        a.add_n(9.0, 0);
        assert_eq!(a.count(), 4);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(0, 10, 3);
        for v in [0, 9, 10, 29, 30, -1] {
            h.add(v);
        }
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 6);
        assert!(!h.is_empty());
    }

    #[test]
    fn histogram_bounds_and_fractions() {
        let mut h = Histogram::new(-10, 5, 4);
        assert_eq!(h.bucket_lo(0), -10);
        assert_eq!(h.bucket_hi(3), 10);
        h.add(-10);
        h.add(0);
        h.add(5);
        h.add(100);
        assert!((h.bucket_fraction(0) - 0.25).abs() < 1e-12);
        // >= 0: the 0, 5, and overflow samples.
        assert!((h.fraction_at_or_above(0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_display_nonempty() {
        let mut h = Histogram::new(0, 1, 2);
        h.add(0);
        let s = format!("{h}");
        assert!(s.contains("1 samples"));
    }

    #[test]
    fn ratio_reporting() {
        let mut r = Ratio::new();
        assert_eq!(r.rate(), 0.0);
        r.add(3, 4);
        assert_eq!(r.hits(), 3);
        assert_eq!(r.total(), 4);
        assert_eq!(format!("{r}"), "3/4 (75.0%)");
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_histogram_panics() {
        let _ = Histogram::new(0, 0, 1);
    }
}
