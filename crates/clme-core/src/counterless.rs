//! The counterless (AES-XTS) engine: SGX2 / TME / MKTME / SME / SEV.
//!
//! The cipher input *is the data* (Fig. 2a), so decryption can only start
//! after the missing block arrives — **every** LLC read miss stalls for
//! the full AES latency (Section III: +10 ns under AES-128, +14 ns under
//! AES-256). In exchange, there is zero metadata traffic: writebacks are
//! a single DRAM write and no counters exist anywhere.

use crate::engine::{EncryptionEngine, EngineKind, ReadMissOutcome, WritebackOutcome};
use crate::stats::EngineStats;
use clme_dram::timing::{AccessKind, Dram};
use clme_obs::{Component, EventKind, SpanKind, Stage, TraceSink};
use clme_types::config::SystemConfig;
use clme_types::{BlockAddr, Time, TimeDelta};

/// Counterless memory encryption.
///
/// # Examples
///
/// ```
/// use clme_core::counterless::CounterlessEngine;
/// use clme_core::engine::EncryptionEngine;
/// use clme_dram::timing::Dram;
/// use clme_types::{BlockAddr, SystemConfig, Time, TimeDelta};
///
/// let cfg = SystemConfig::isca_table1();
/// let mut engine = CounterlessEngine::new(&cfg);
/// let mut dram = Dram::new(&cfg);
/// let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram);
/// // Stalls AES (10 ns) + ECC/MAC check (1 ns) after the data arrive.
/// assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns(11));
/// ```
#[derive(Clone, Debug)]
pub struct CounterlessEngine {
    aes: TimeDelta,
    ecc_check: TimeDelta,
    mac_window: TimeDelta,
    stats: EngineStats,
}

impl CounterlessEngine {
    /// Creates a counterless engine with the configured AES strength.
    pub fn new(cfg: &SystemConfig) -> CounterlessEngine {
        CounterlessEngine {
            aes: cfg.aes_latency(),
            ecc_check: cfg.ecc_check_latency,
            // Synergy in-line MAC: its lanes occupy the burst tail.
            mac_window: TimeDelta::from_picos(cfg.block_transfer_time().picos() / 8),
            stats: EngineStats::new(),
        }
    }
}

impl EncryptionEngine for CounterlessEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Counterless
    }

    fn on_read_miss_obs(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> ReadMissOutcome {
        obs.tick(issue);
        let access = dram.access_obs(block, AccessKind::Read, issue, obs);
        // The data-dependent AES starts at arrival; the MAC/ECC check
        // completes after it.
        let cipher_done = access.arrival + self.aes;
        let ready = cipher_done.max(access.arrival) + self.ecc_check;
        self.stats.read_misses += 1;
        self.stats.total_read_latency += ready - issue;
        self.stats.total_stall_after_data += ready - access.arrival;
        if obs.enabled() {
            obs.count(EventKind::PadAes);
            obs.count(EventKind::MacVerify);
            obs.latency(Stage::MacFetch, self.mac_window);
            obs.span_child(SpanKind::DataDram, 0, issue, access.arrival);
            obs.span_child(
                SpanKind::MacFetch,
                0,
                access.arrival - self.mac_window,
                access.arrival,
            );
            obs.span_child(SpanKind::PadAes, 0, access.arrival, cipher_done);
            obs.span_child(
                SpanKind::EccDecode,
                0,
                cipher_done.max(access.arrival),
                ready,
            );
            obs.event(
                issue,
                Component::Engine,
                EventKind::ReadMiss,
                block.raw(),
                ready - issue,
            );
            obs.latency(Stage::Engine, ready - access.arrival);
        }
        ReadMissOutcome {
            data_arrival: access.arrival,
            ready,
            counter_known: None,
        }
    }

    fn on_prefetch_fill_obs(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> Time {
        obs.tick(issue);
        self.stats.prefetch_fills += 1;
        obs.count(EventKind::PrefetchFill);
        // Decryption happens off the critical path; only the transfer
        // matters for timing.
        dram.background_access_obs(block, AccessKind::Read, issue, obs)
    }

    fn on_writeback_obs(
        &mut self,
        block: BlockAddr,
        now: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> WritebackOutcome {
        obs.tick(now);
        let completion = dram.background_access_obs(block, AccessKind::Write, now, obs);
        self.stats.writebacks += 1;
        self.stats.counterless_writebacks += 1;
        if obs.enabled() {
            obs.count(EventKind::Writeback);
            obs.count(EventKind::WritebackCounterless);
        }
        WritebackOutcome {
            used_counter_mode: false,
            completion,
        }
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = EngineStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::none::NoEncryptionEngine;
    use clme_types::config::AesStrength;

    #[test]
    fn stall_equals_aes_plus_check() {
        let cfg = SystemConfig::isca_table1();
        let mut engine = CounterlessEngine::new(&cfg);
        let mut dram = Dram::new(&cfg);
        let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram);
        assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns(11));
    }

    #[test]
    fn aes256_stalls_four_ns_longer() {
        let cfg = SystemConfig::isca_table1().with_aes(AesStrength::Aes256);
        let mut engine = CounterlessEngine::new(&cfg);
        let mut dram = Dram::new(&cfg);
        let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram);
        assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns(15));
    }

    #[test]
    fn exactly_ten_ns_slower_than_no_encryption() {
        // The Section III real-system measurement, reproduced.
        let cfg = SystemConfig::isca_table1();
        let mut counterless = CounterlessEngine::new(&cfg);
        let mut baseline = NoEncryptionEngine::new(&cfg);
        let mut dram_a = Dram::new(&cfg);
        let mut dram_b = Dram::new(&cfg);
        let a = counterless.on_read_miss(BlockAddr::new(7), Time::ZERO, &mut dram_a);
        let b = baseline.on_read_miss(BlockAddr::new(7), Time::ZERO, &mut dram_b);
        assert_eq!(a.ready - b.ready, TimeDelta::from_ns(10));
    }

    #[test]
    fn no_metadata_traffic_at_all() {
        let cfg = SystemConfig::isca_table1();
        let mut engine = CounterlessEngine::new(&cfg);
        let mut dram = Dram::new(&cfg);
        engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram);
        engine.on_writeback(BlockAddr::new(0), Time::ZERO, &mut dram);
        engine.on_prefetch_fill(BlockAddr::new(1), Time::ZERO, &mut dram);
        // Exactly three transfers: the data read, write, and prefetch.
        assert_eq!(dram.tracker().total(), 3);
        assert_eq!(engine.stats().metadata_reads, 0);
        assert_eq!(engine.stats().counterless_writebacks, 1);
    }
}
