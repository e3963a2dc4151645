//! The unencrypted baseline: every figure normalises to this engine.
//!
//! Read misses pay only the standard ECC check (1 ns) after data arrive;
//! writebacks are a single DRAM write.

use crate::engine::{EncryptionEngine, EngineKind, ReadMissOutcome, WritebackOutcome};
use crate::stats::EngineStats;
use clme_dram::timing::{AccessKind, Dram};
use clme_obs::{Component, EventKind, SpanKind, Stage, TraceSink};
use clme_types::config::SystemConfig;
use clme_types::{BlockAddr, Time, TimeDelta};

/// No memory encryption.
///
/// # Examples
///
/// ```
/// use clme_core::engine::EncryptionEngine;
/// use clme_core::none::NoEncryptionEngine;
/// use clme_dram::timing::Dram;
/// use clme_types::{BlockAddr, SystemConfig, Time};
///
/// let cfg = SystemConfig::isca_table1();
/// let mut engine = NoEncryptionEngine::new(&cfg);
/// let mut dram = Dram::new(&cfg);
/// let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram);
/// assert_eq!(miss.ready - miss.data_arrival, cfg.ecc_check_latency);
/// ```
#[derive(Clone, Debug)]
pub struct NoEncryptionEngine {
    ecc_check: TimeDelta,
    stats: EngineStats,
}

impl NoEncryptionEngine {
    /// Creates the baseline engine.
    pub fn new(cfg: &SystemConfig) -> NoEncryptionEngine {
        NoEncryptionEngine {
            ecc_check: cfg.ecc_check_latency,
            stats: EngineStats::new(),
        }
    }
}

impl EncryptionEngine for NoEncryptionEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::None
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
        let ready = access.arrival + self.ecc_check;
        self.stats.read_misses += 1;
        self.stats.total_read_latency += ready - issue;
        self.stats.total_stall_after_data += ready - access.arrival;
        if obs.enabled() {
            obs.count(EventKind::MacVerify);
            obs.span_child(SpanKind::DataDram, 0, issue, access.arrival);
            obs.span_child(SpanKind::EccDecode, 0, access.arrival, ready);
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
        obs.count(EventKind::Writeback);
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

    #[test]
    fn read_pays_only_ecc_check() {
        let cfg = SystemConfig::isca_table1();
        let mut engine = NoEncryptionEngine::new(&cfg);
        let mut dram = Dram::new(&cfg);
        let miss = engine.on_read_miss(BlockAddr::new(5), Time::ZERO, &mut dram);
        assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns(1));
        assert!(miss.counter_known.is_none());
        assert_eq!(engine.stats().read_misses, 1);
    }

    #[test]
    fn writeback_is_single_write() {
        let cfg = SystemConfig::isca_table1();
        let mut engine = NoEncryptionEngine::new(&cfg);
        let mut dram = Dram::new(&cfg);
        let wb = engine.on_writeback(BlockAddr::new(5), Time::ZERO, &mut dram);
        assert!(!wb.used_counter_mode);
        assert_eq!(dram.tracker().writes(), 1);
        assert_eq!(dram.tracker().reads(), 0);
    }

    #[test]
    fn stats_reset() {
        let cfg = SystemConfig::isca_table1();
        let mut engine = NoEncryptionEngine::new(&cfg);
        let mut dram = Dram::new(&cfg);
        engine.on_read_miss(BlockAddr::new(1), Time::ZERO, &mut dram);
        engine.reset_stats();
        assert_eq!(engine.stats().read_misses, 0);
    }
}
