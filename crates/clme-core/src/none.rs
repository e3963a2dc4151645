//! The unencrypted baseline: every figure normalises to this engine.
//!
//! Read misses pay only the standard ECC check (1 ns) after data arrive;
//! writebacks are a single DRAM write.

use crate::engine::{EncryptionEngine, EngineKind, Frame, ReadMissOutcome, WritebackOutcome};
use crate::stats::EngineStats;
use clme_dram::timing::Dram;
use clme_obs::TraceSink;
use clme_types::config::SystemConfig;
use clme_types::{BlockAddr, Time};

/// No memory encryption.
///
/// # Examples
///
/// ```
/// use clme_core::engine::EncryptionEngine;
/// use clme_core::none::NoEncryptionEngine;
/// use clme_dram::timing::Dram;
/// use clme_obs::NopSink;
/// use clme_types::{BlockAddr, SystemConfig, Time};
///
/// let cfg = SystemConfig::isca_table1();
/// let mut engine = NoEncryptionEngine::new(&cfg);
/// let mut dram = Dram::new(&cfg);
/// let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram, &mut NopSink);
/// assert_eq!(miss.ready - miss.data_arrival, cfg.ecc_check_latency);
/// ```
#[derive(Clone, Debug)]
pub struct NoEncryptionEngine {
    frame: Frame,
}

impl NoEncryptionEngine {
    /// Creates the baseline engine.
    pub fn new(cfg: &SystemConfig) -> NoEncryptionEngine {
        NoEncryptionEngine {
            frame: Frame::new(cfg, false),
        }
    }
}

impl EncryptionEngine for NoEncryptionEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::None
    }

    fn on_read_miss(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> ReadMissOutcome {
        self.frame
            .read_miss(block, issue, dram, obs, |_, _, _, _| None)
    }

    fn on_prefetch_fill(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> Time {
        self.frame.prefetch_fill(block, issue, dram, obs)
    }

    fn on_writeback(
        &mut self,
        block: BlockAddr,
        now: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> WritebackOutcome {
        self.frame
            .writeback(block, now, dram, obs, |_, _| (None, Time::ZERO))
    }

    fn stats(&self) -> &EngineStats {
        &self.frame.stats
    }

    fn reset_stats(&mut self) {
        self.frame.stats = EngineStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clme_obs::NopSink;
    use clme_types::TimeDelta;

    #[test]
    fn read_pays_only_ecc_check() {
        let nop = &mut NopSink;
        let cfg = SystemConfig::isca_table1();
        let mut engine = NoEncryptionEngine::new(&cfg);
        let mut dram = Dram::new(&cfg);
        let miss = engine.on_read_miss(BlockAddr::new(5), Time::ZERO, &mut dram, nop);
        assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns(1));
        assert!(miss.counter_known.is_none());
        assert_eq!(engine.stats().read_misses, 1);
    }

    #[test]
    fn writeback_is_single_write() {
        let nop = &mut NopSink;
        let cfg = SystemConfig::isca_table1();
        let mut engine = NoEncryptionEngine::new(&cfg);
        let mut dram = Dram::new(&cfg);
        let wb = engine.on_writeback(BlockAddr::new(5), Time::ZERO, &mut dram, nop);
        assert!(!wb.used_counter_mode);
        assert_eq!(dram.tracker().writes(), 1);
        assert_eq!(dram.tracker().reads(), 0);
    }

    #[test]
    fn stats_reset() {
        let nop = &mut NopSink;
        let cfg = SystemConfig::isca_table1();
        let mut engine = NoEncryptionEngine::new(&cfg);
        let mut dram = Dram::new(&cfg);
        engine.on_read_miss(BlockAddr::new(1), Time::ZERO, &mut dram, nop);
        engine.reset_stats();
        assert_eq!(engine.stats().read_misses, 0);
    }
}
