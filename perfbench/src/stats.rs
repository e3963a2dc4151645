//! Exact sample statistics and host facts.
//!
//! Latency quantiles come from the sorted raw per-call samples, never
//! from histogram buckets, so a tail that moves by less than 2× still
//! shows.

/// A raw sample value: a nanosecond count.
pub trait Sample: Copy + Ord {
    /// The value as a float.
    fn value(self) -> f64;
}

impl Sample for u32 {
    fn value(self) -> f64 {
        f64::from(self)
    }
}

impl Sample for u64 {
    fn value(self) -> f64 {
        self as f64
    }
}

/// Quantile `q` in `[0, 1]` of an ascending slice, interpolating
/// linearly between the two closest ranks (the "linear" method of
/// NumPy and of Python's `statistics.quantiles(..., method="inclusive")`).
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `[0, 1]`.
pub fn quantile<T: Sample>(sorted: &[T], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let (a, b) = (sorted[lo].value(), sorted[hi].value());
    a + (b - a) * frac
}

/// Tail percentiles tried from the highest down; the first one with at
/// least [`TAIL_MIN_BEYOND`] samples beyond it is reported. The rungs are
/// far apart so that a workload's run-to-run change in sample count (a
/// `sim-grid` run completes 120 to 220 cells) does not switch the rung.
const TAIL_LADDER: [f64; 3] = [0.99, 0.90, 0.75];

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// Median and tail of one set of latency samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is (0.99 when there are enough samples).
    pub tail_q: f64,
    /// The highest ladder percentile with ten samples beyond it (the
    /// lowest rung when even that has fewer).
    pub tail: f64,
}

/// Summarises raw samples (sorted in place).
///
/// # Panics
///
/// Panics on an empty vector.
pub fn summarize<T: Sample>(samples: &mut [T]) -> Summary {
    samples.sort_unstable();
    let n = samples.len();
    let tail_q = TAIL_LADDER
        .iter()
        .copied()
        .find(|q| n as f64 * (1.0 - q) + 1e-9 >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[TAIL_LADDER.len() - 1]);
    Summary {
        n,
        p50: quantile(samples, 0.5),
        tail_q,
        tail: quantile(samples, tail_q),
    }
}

/// Median of a few floats (the mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Linux reports `/proc/self/stat` CPU times in clock ticks of this
/// length (`sysconf(_SC_CLK_TCK)` is 100 on every mainstream kernel).
const CLOCK_TICK_S: f64 = 0.01;

/// User plus system CPU seconds of this process (all threads, reaped
/// ones included), from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after its ')'.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')' the state is field 3, so utime (14) and stime (15) sit
    // at offsets 11 and 12.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) * CLOCK_TICK_S
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10u32, 20, 30, 40];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 40.0);
        assert_eq!(quantile(&v, 0.5), 25.0);
        assert!((quantile(&v, 0.25) - 17.5).abs() < 1e-12);
        assert_eq!(quantile(&[7u32], 0.99), 7.0);
    }

    #[test]
    fn summary_sorts_and_resolves_a_tail_finer_than_2x() {
        // 1000 samples 1..=1000 in reverse: p50 = 500.5, p99 = 990.01 —
        // a log2 histogram would report both tails as the same edge.
        let mut v: Vec<u32> = (1..=1000).rev().collect();
        let s = summarize(&mut v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.tail_q, 0.99);
        assert!((s.tail - 990.01).abs() < 1e-9);
    }

    #[test]
    fn tail_steps_down_until_ten_samples_lie_beyond_it() {
        let mut v: Vec<u32> = (0..100).collect();
        assert_eq!(summarize(&mut v).tail_q, 0.90);
        let mut v: Vec<u32> = (0..220).collect();
        assert_eq!(
            summarize(&mut v).tail_q,
            0.90,
            "no rung between p90 and p99"
        );
        let mut v: Vec<u32> = (0..5).collect();
        assert_eq!(
            summarize(&mut v).tail_q,
            0.75,
            "lowest rung when samples are scarce"
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn host_facts_are_plausible() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
        let spin: u64 = (0..5_000_000u64).fold(0, |a, x| a.wrapping_add(x * x));
        std::hint::black_box(spin);
        assert!(process_cpu_s() >= 0.0);
    }
}
