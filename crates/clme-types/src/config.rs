//! System configuration — the paper's Table I, as data.
//!
//! [`SystemConfig`] carries every parameter the simulator and the
//! encryption engines need. [`SystemConfig::isca_table1`] reproduces the
//! configuration the paper evaluates; [`SystemConfig::low_bandwidth`]
//! produces the 6.4 GB/s stress configuration of Section VI.

use crate::time::TimeDelta;

/// Which AES strength the encryption engines model (Section III evaluates
/// both; Table I lists 10 ns for AES-128 and 14 ns for AES-256).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AesStrength {
    /// 10-round AES with a 128-bit key (the mainstream deployment today).
    #[default]
    Aes128,
    /// 14-round AES with a 256-bit key (post-quantum-motivated; slower).
    Aes256,
}

impl AesStrength {
    /// Number of cipher rounds (10 for AES-128, 14 for AES-256); the paper
    /// scales latency linearly with round count (Section III).
    pub fn rounds(self) -> u32 {
        match self {
            AesStrength::Aes128 => 10,
            AesStrength::Aes256 => 14,
        }
    }
}

/// A single cache level's geometry and access latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Access (hit) latency.
    pub latency: TimeDelta,
}

impl CacheLevelConfig {
    /// Number of 64-byte-line sets implied by capacity and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole sets.
    pub fn sets(&self) -> u64 {
        let lines = self.capacity_bytes / crate::addr::BLOCK_BYTES;
        assert!(
            lines.is_multiple_of(self.ways as u64),
            "cache capacity must divide into whole sets"
        );
        lines / self.ways as u64
    }
}

/// The full system configuration (paper Table I plus the handful of
/// implied parameters the table leaves to gem5/Ramulator defaults).
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of out-of-order cores.
    pub cores: usize,
    /// Core clock frequency in hertz.
    pub core_freq_hz: u64,
    /// Reorder-buffer capacity per core (bounds memory-level parallelism).
    pub rob_entries: usize,
    /// Retire/dispatch width in instructions per cycle.
    pub dispatch_width: u32,

    /// L1 data cache (32 KB, 2 ns in Table I).
    pub l1d: CacheLevelConfig,
    /// L2 cache (1 MB, 4 ns in Table I).
    pub l2: CacheLevelConfig,
    /// Last-level (L3) cache (8 MB, 17 ns in Table I).
    pub llc: CacheLevelConfig,
    /// Whether the next-line prefetchers at L1/L2 are enabled.
    pub next_line_prefetch: bool,
    /// Stride-prefetch degree at L1 (Table I: 1); 0 disables.
    pub stride_degree_l1: u32,
    /// Stride-prefetch degree at L2 (Table I: 2); 0 disables.
    pub stride_degree_l2: u32,

    /// Counter cache capacity in bytes (Table I: 64 KB).
    pub counter_cache_bytes: u64,
    /// Counter cache associativity (Table I: 32-way).
    pub counter_cache_ways: u32,
    /// Memoization-table entries (Table I: 4 KB / 128 entries of 32 B).
    pub memo_entries: usize,

    /// AES strength in use.
    pub aes: AesStrength,
    /// Latency of one AES-128 calculation (Table I: 10 ns).
    pub aes128_latency: TimeDelta,
    /// Latency of one AES-256 calculation (Table I: 14 ns).
    pub aes256_latency: TimeDelta,
    /// SHA-3 latency for the counterless MAC (Table I: 1 ns).
    pub sha3_latency: TimeDelta,
    /// Standard ECC check latency in an unencrypted system (Section IV-D:
    /// 1 ns).
    pub ecc_check_latency: TimeDelta,
    /// Latency to fetch a memoized AES result and combine it with the
    /// address-only AES into the final OTP (Section IV-D / Fig. 4: 2 ns).
    pub memo_combine_latency: TimeDelta,
    /// Counter-cache lookup latency that must elapse before a counter miss
    /// can be sent to DRAM (Section IV-A).
    pub counter_cache_latency: TimeDelta,

    /// Total DRAM capacity in bytes (Table I: 128 GB).
    pub memory_bytes: u64,
    /// Peak DRAM bandwidth in bytes/second (Table I: 25.6 GB/s; the stress
    /// test uses 6.4 GB/s).
    pub dram_bandwidth_bytes_per_s: u64,
    /// CAS latency (Table I: 13.75 ns).
    pub t_cl: TimeDelta,
    /// RAS-to-CAS delay (Table I: 13.75 ns).
    pub t_rcd: TimeDelta,
    /// Row precharge time (Table I: 13.75 ns).
    pub t_rp: TimeDelta,
    /// Memory channels (Table I: 1).
    pub channels: u32,
    /// Ranks per channel (Table I: 8).
    pub ranks: u32,
    /// Banks per rank (DDR5 default; Table I leaves this implicit).
    pub banks_per_rank: u32,
    /// Row-buffer (page) size in bytes per bank.
    pub row_bytes: u64,

    /// Bandwidth-utilisation threshold for the epoch mode switch
    /// (Table I: 60%), expressed as a fraction in `[0, 1]`.
    pub bandwidth_threshold: f64,
    /// Epoch length for the writeback-mode decision (Section IV-B: 100 µs).
    pub epoch_length: TimeDelta,
}

impl SystemConfig {
    /// The configuration of the paper's Table I.
    ///
    /// # Examples
    ///
    /// ```
    /// use clme_types::config::SystemConfig;
    ///
    /// let cfg = SystemConfig::isca_table1();
    /// assert_eq!(cfg.cores, 4);
    /// assert_eq!(cfg.dram_bandwidth_bytes_per_s, 25_600_000_000);
    /// ```
    pub fn isca_table1() -> SystemConfig {
        SystemConfig {
            cores: 4,
            core_freq_hz: 3_200_000_000,
            rob_entries: 192,
            dispatch_width: 4,
            l1d: CacheLevelConfig {
                capacity_bytes: 32 << 10,
                ways: 8,
                latency: TimeDelta::from_ns(2),
            },
            l2: CacheLevelConfig {
                capacity_bytes: 1 << 20,
                ways: 16,
                latency: TimeDelta::from_ns(4),
            },
            llc: CacheLevelConfig {
                capacity_bytes: 8 << 20,
                ways: 16,
                latency: TimeDelta::from_ns(17),
            },
            next_line_prefetch: true,
            stride_degree_l1: 1,
            stride_degree_l2: 2,
            counter_cache_bytes: 64 << 10,
            counter_cache_ways: 32,
            memo_entries: 128,
            aes: AesStrength::Aes128,
            aes128_latency: TimeDelta::from_ns(10),
            aes256_latency: TimeDelta::from_ns(14),
            sha3_latency: TimeDelta::from_ns(1),
            ecc_check_latency: TimeDelta::from_ns(1),
            memo_combine_latency: TimeDelta::from_ns(2),
            counter_cache_latency: TimeDelta::from_ns(2),
            memory_bytes: 128 << 30,
            dram_bandwidth_bytes_per_s: 25_600_000_000,
            t_cl: TimeDelta::from_ns_f64(13.75),
            t_rcd: TimeDelta::from_ns_f64(13.75),
            t_rp: TimeDelta::from_ns_f64(13.75),
            channels: 1,
            ranks: 8,
            banks_per_rank: 8,
            row_bytes: 8 << 10,
            bandwidth_threshold: 0.60,
            epoch_length: TimeDelta::from_us(100),
        }
    }

    /// The 6.4 GB/s bandwidth-starved stress configuration (Section VI,
    /// "Sensitivity to Bandwidth Utilization").
    pub fn low_bandwidth() -> SystemConfig {
        SystemConfig {
            dram_bandwidth_bytes_per_s: 6_400_000_000,
            ..SystemConfig::isca_table1()
        }
    }

    /// Sets the AES strength, returning the modified configuration.
    pub fn with_aes(mut self, aes: AesStrength) -> SystemConfig {
        self.aes = aes;
        self
    }

    /// Sets the epoch switching threshold, returning the modified
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `[0, 1]`.
    pub fn with_threshold(mut self, threshold: f64) -> SystemConfig {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0,1]"
        );
        self.bandwidth_threshold = threshold;
        self
    }

    /// The AES latency implied by the configured strength.
    pub fn aes_latency(&self) -> TimeDelta {
        match self.aes {
            AesStrength::Aes128 => self.aes128_latency,
            AesStrength::Aes256 => self.aes256_latency,
        }
    }

    /// One core clock period (floor, in picoseconds).
    pub fn core_period(&self) -> TimeDelta {
        TimeDelta::from_picos(1_000_000_000_000 / self.core_freq_hz)
    }

    /// Time for one 64-byte block to cross the DRAM data bus at peak
    /// bandwidth (2.5 ns at 25.6 GB/s; 10 ns at 6.4 GB/s).
    pub fn block_transfer_time(&self) -> TimeDelta {
        TimeDelta::from_picos(
            crate::addr::BLOCK_BYTES * 1_000_000_000_000 / self.dram_bandwidth_bytes_per_s,
        )
    }

    /// Time until the *first half* of a block (including its parity lane)
    /// has arrived — the point at which Counter-light can decode
    /// EncryptionMetadata (Section IV-D).
    pub fn half_block_transfer_time(&self) -> TimeDelta {
        self.block_transfer_time() / 2
    }

    /// Maximum number of 64-byte transfers that fit in one epoch at peak
    /// bandwidth; the denominator of the epoch bandwidth-utilisation
    /// measurement (Section IV-B).
    pub fn max_accesses_per_epoch(&self) -> u64 {
        self.epoch_length / self.block_transfer_time()
    }
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig::isca_table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let cfg = SystemConfig::isca_table1();
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.core_freq_hz, 3_200_000_000);
        assert_eq!(cfg.l1d.capacity_bytes, 32 << 10);
        assert_eq!(cfg.llc.capacity_bytes, 8 << 20);
        assert_eq!(cfg.counter_cache_bytes, 64 << 10);
        assert_eq!(cfg.counter_cache_ways, 32);
        assert_eq!(cfg.memo_entries, 128);
        assert_eq!(cfg.aes128_latency, TimeDelta::from_ns(10));
        assert_eq!(cfg.aes256_latency, TimeDelta::from_ns(14));
        assert_eq!(cfg.sha3_latency, TimeDelta::from_ns(1));
        assert_eq!(cfg.t_cl.picos(), 13_750);
        assert_eq!(cfg.channels, 1);
        assert_eq!(cfg.ranks, 8);
        assert!((cfg.bandwidth_threshold - 0.60).abs() < 1e-12);
        assert_eq!(cfg.epoch_length, TimeDelta::from_us(100));
    }

    #[test]
    fn derived_block_transfer_times() {
        let cfg = SystemConfig::isca_table1();
        assert_eq!(cfg.block_transfer_time(), TimeDelta::from_ns_f64(2.5));
        assert_eq!(cfg.half_block_transfer_time(), TimeDelta::from_ns_f64(1.25));
        let low = SystemConfig::low_bandwidth();
        assert_eq!(low.block_transfer_time(), TimeDelta::from_ns(10));
    }

    #[test]
    fn epoch_capacity() {
        let cfg = SystemConfig::isca_table1();
        // 100us / 2.5ns = 40_000 transfers.
        assert_eq!(cfg.max_accesses_per_epoch(), 40_000);
        let low = SystemConfig::low_bandwidth();
        assert_eq!(low.max_accesses_per_epoch(), 10_000);
    }

    #[test]
    fn aes_strength_selection() {
        let cfg = SystemConfig::isca_table1().with_aes(AesStrength::Aes256);
        assert_eq!(cfg.aes_latency(), TimeDelta::from_ns(14));
        assert_eq!(AesStrength::Aes128.rounds(), 10);
        assert_eq!(AesStrength::Aes256.rounds(), 14);
    }

    #[test]
    fn cache_geometry() {
        let cfg = SystemConfig::isca_table1();
        assert_eq!(cfg.l1d.sets(), 64);
        assert_eq!(cfg.llc.sets(), 8192);
    }

    #[test]
    fn core_period_is_about_312ps() {
        let cfg = SystemConfig::isca_table1();
        assert_eq!(cfg.core_period().picos(), 312);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        let _ = SystemConfig::isca_table1().with_threshold(1.5);
    }
}
