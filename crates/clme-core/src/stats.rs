//! Statistics every encryption engine collects, sized to regenerate the
//! paper's figures: per-miss latency (Figs. 16/17/20/22/23), counter
//! arrival skew (Fig. 8), memoization hit rate, writeback mode mix
//! (Fig. 21), and metadata traffic (Fig. 18).

use clme_types::stats::{Histogram, Ratio};
use clme_types::TimeDelta;

/// Counters accumulated by an [`crate::engine::EncryptionEngine`].
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Demand LLC read misses served.
    pub read_misses: u64,
    /// LLC writebacks served.
    pub writebacks: u64,
    /// Prefetch fills served (memory reads, latency not critical).
    pub prefetch_fills: u64,
    /// DRAM reads issued for counters on the *read* path.
    pub counter_fetches: u64,
    /// DRAM reads issued for metadata (counters + tree) on any path.
    pub metadata_reads: u64,
    /// DRAM writes issued for metadata (dirty counter-cache evictions).
    pub metadata_writes: u64,
    /// Writebacks encrypted counterless (the Fig. 21 numerator).
    pub counterless_writebacks: u64,
    /// Writebacks encrypted in counter mode.
    pub counter_mode_writebacks: u64,
    /// Memoization-table hit ratio on the read path.
    pub memo: Ratio,
    /// Read misses whose block was in counter mode when read.
    pub reads_in_counter_mode: u64,
    /// Σ (ready − issue) over read misses — average LLC miss latency.
    pub total_read_latency: TimeDelta,
    /// Σ (ready − data arrival) over read misses — the post-arrival
    /// cipher stall the paper attacks.
    pub total_stall_after_data: TimeDelta,
    /// Distribution of (counter arrival − data arrival) in picoseconds
    /// over *all* read misses (paper Fig. 8); misses with no DRAM counter
    /// fetch contribute large negative values (counter known early).
    pub counter_skew: Histogram,
    /// Counter-cache hit ratio (always zero for engines without a counter
    /// cache, so the shared export schema stays engine-independent).
    pub counter_cache: Ratio,
}

/// Stable export names for the 12 Fig. 8 skew buckets (−30 ns … +30 ns in
/// 5 ns steps, matching the histogram geometry in [`EngineStats::new`]).
const SKEW_BUCKET_NAMES: [&str; 12] = [
    "counter_skew.m30_m25ns",
    "counter_skew.m25_m20ns",
    "counter_skew.m20_m15ns",
    "counter_skew.m15_m10ns",
    "counter_skew.m10_m05ns",
    "counter_skew.m05_p00ns",
    "counter_skew.p00_p05ns",
    "counter_skew.p05_p10ns",
    "counter_skew.p10_p15ns",
    "counter_skew.p15_p20ns",
    "counter_skew.p20_p25ns",
    "counter_skew.p25_p30ns",
];

impl EngineStats {
    /// Creates zeroed statistics. The skew histogram uses the paper's
    /// 5 ns buckets spanning −30 ns … +30 ns.
    pub fn new() -> EngineStats {
        EngineStats {
            read_misses: 0,
            writebacks: 0,
            prefetch_fills: 0,
            counter_fetches: 0,
            metadata_reads: 0,
            metadata_writes: 0,
            counterless_writebacks: 0,
            counter_mode_writebacks: 0,
            memo: Ratio::new(),
            reads_in_counter_mode: 0,
            total_read_latency: TimeDelta::ZERO,
            total_stall_after_data: TimeDelta::ZERO,
            counter_skew: Histogram::new(-30_000, 5_000, 12),
            counter_cache: Ratio::new(),
        }
    }

    /// Mean LLC read-miss latency.
    pub fn mean_read_latency(&self) -> TimeDelta {
        if self.read_misses == 0 {
            TimeDelta::ZERO
        } else {
            self.total_read_latency / self.read_misses
        }
    }

    /// Mean stall between data arrival and data usability.
    pub fn mean_stall_after_data(&self) -> TimeDelta {
        if self.read_misses == 0 {
            TimeDelta::ZERO
        } else {
            self.total_stall_after_data / self.read_misses
        }
    }

    /// Fraction of writebacks that used counterless encryption
    /// (the Fig. 21 metric).
    pub fn counterless_writeback_fraction(&self) -> f64 {
        let total = self.counterless_writebacks + self.counter_mode_writebacks;
        if total == 0 {
            0.0
        } else {
            self.counterless_writebacks as f64 / total as f64
        }
    }

    /// Fraction of all read misses where the counter arrived from DRAM
    /// *later* than the data (the Fig. 8 headline: 22% under RMCC).
    pub fn counter_late_fraction(&self) -> f64 {
        self.counter_skew.fraction_at_or_above(0)
    }

    /// Exports every counter and derived metric as stable
    /// `(name, value)` pairs, in a fixed order, for the stats-snapshot
    /// layer. All four engines share this schema, so snapshots of
    /// different engines are directly diffable field-by-field.
    pub fn export(&self) -> Vec<(&'static str, f64)> {
        let mut fields = vec![
            ("read_misses", self.read_misses as f64),
            ("writebacks", self.writebacks as f64),
            ("prefetch_fills", self.prefetch_fills as f64),
            ("counter_fetches", self.counter_fetches as f64),
            ("metadata_reads", self.metadata_reads as f64),
            ("metadata_writes", self.metadata_writes as f64),
            ("counterless_writebacks", self.counterless_writebacks as f64),
            (
                "counter_mode_writebacks",
                self.counter_mode_writebacks as f64,
            ),
            (
                "counterless_writeback_fraction",
                self.counterless_writeback_fraction(),
            ),
            ("memo_hits", self.memo.hits() as f64),
            ("memo_lookups", self.memo.total() as f64),
            ("memo_hit_rate", self.memo.rate()),
            ("reads_in_counter_mode", self.reads_in_counter_mode as f64),
            ("mean_read_latency_ns", self.mean_read_latency().as_ns_f64()),
            (
                "mean_stall_after_data_ns",
                self.mean_stall_after_data().as_ns_f64(),
            ),
            ("counter_cache_hits", self.counter_cache.hits() as f64),
            ("counter_cache_lookups", self.counter_cache.total() as f64),
            ("counter_cache_hit_rate", self.counter_cache.rate()),
        ];
        // The Fig. 8 skew distribution, folded bucket-by-bucket so golden
        // diffs catch shifts the scalar late-fraction would average away.
        fields.push((
            "counter_skew.below_m30ns",
            self.counter_skew.underflow() as f64,
        ));
        for (i, name) in SKEW_BUCKET_NAMES.iter().enumerate() {
            fields.push((name, self.counter_skew.bucket_count(i) as f64));
        }
        fields.push((
            "counter_skew.above_p30ns",
            self.counter_skew.overflow() as f64,
        ));
        fields.push(("counter_late_fraction", self.counter_late_fraction()));
        fields
    }
}

impl Default for EngineStats {
    fn default() -> EngineStats {
        EngineStats::new()
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "misses {} (mean lat {}, stall {}) | wbs {} ({} ctr / {} cxl) | \
             meta rd/wr {}/{} | memo {} | ctr late {:.1}%",
            self.read_misses,
            self.mean_read_latency(),
            self.mean_stall_after_data(),
            self.writebacks,
            self.counter_mode_writebacks,
            self.counterless_writebacks,
            self.metadata_reads,
            self.metadata_writes,
            self.memo,
            self.counter_late_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_means_are_zero() {
        let s = EngineStats::new();
        assert_eq!(s.mean_read_latency(), TimeDelta::ZERO);
        assert_eq!(s.mean_stall_after_data(), TimeDelta::ZERO);
        assert_eq!(s.counterless_writeback_fraction(), 0.0);
    }

    #[test]
    fn means_divide_by_misses() {
        let mut s = EngineStats::new();
        s.read_misses = 4;
        s.total_read_latency = TimeDelta::from_ns(100);
        s.total_stall_after_data = TimeDelta::from_ns(8);
        assert_eq!(s.mean_read_latency(), TimeDelta::from_ns(25));
        assert_eq!(s.mean_stall_after_data(), TimeDelta::from_ns(2));
    }

    #[test]
    fn writeback_fraction() {
        let mut s = EngineStats::new();
        s.counterless_writebacks = 3;
        s.counter_mode_writebacks = 1;
        assert!((s.counterless_writeback_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty_and_complete() {
        let mut s = EngineStats::new();
        s.read_misses = 3;
        s.writebacks = 2;
        s.counter_mode_writebacks = 2;
        let line = format!("{s}");
        assert!(line.contains("misses 3"));
        assert!(line.contains("wbs 2"));
        assert!(line.contains("memo"));
    }

    #[test]
    fn export_is_stable_and_complete() {
        let mut s = EngineStats::new();
        s.read_misses = 4;
        s.total_read_latency = TimeDelta::from_ns(100);
        s.counterless_writebacks = 3;
        s.counter_mode_writebacks = 1;
        let fields = s.export();
        let names: Vec<&str> = fields.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.first(), Some(&"read_misses"));
        assert_eq!(names.last(), Some(&"counter_late_fraction"));
        // No duplicate field names (they become JSON keys).
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        let get = |name: &str| fields.iter().find(|&&(n, _)| n == name).unwrap().1;
        assert_eq!(get("read_misses"), 4.0);
        assert_eq!(get("mean_read_latency_ns"), 25.0);
        assert!((get("counterless_writeback_fraction") - 0.75).abs() < 1e-12);
        assert_eq!(get("counter_cache_lookups"), 0.0);
    }

    #[test]
    fn export_folds_skew_buckets() {
        let mut s = EngineStats::new();
        s.counter_skew.add(-40_000); // underflow
        s.counter_skew.add(-29_000); // first bucket
        s.counter_skew.add(2_000); // [0, 5) ns
        s.counter_skew.add(99_000); // overflow
        s.counter_cache.add(3, 4);
        let fields = s.export();
        let get = |name: &str| fields.iter().find(|&&(n, _)| n == name).unwrap().1;
        assert_eq!(get("counter_skew.below_m30ns"), 1.0);
        assert_eq!(get("counter_skew.m30_m25ns"), 1.0);
        assert_eq!(get("counter_skew.p00_p05ns"), 1.0);
        assert_eq!(get("counter_skew.above_p30ns"), 1.0);
        assert_eq!(get("counter_skew.m05_p00ns"), 0.0);
        assert_eq!(get("counter_cache_hits"), 3.0);
        assert!((get("counter_cache_hit_rate") - 0.75).abs() < 1e-12);
    }

    #[test]
    fn late_fraction_from_histogram() {
        let mut s = EngineStats::new();
        s.counter_skew.add(-10_000); // early
        s.counter_skew.add(2_000); // late
        s.counter_skew.add(7_000); // late
        assert!((s.counter_late_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }
}
