//! The counterless (AES-XTS) engine: SGX2 / TME / MKTME / SME / SEV.
//!
//! The cipher input *is the data* (Fig. 2a), so decryption can only start
//! after the missing block arrives — **every** LLC read miss stalls for
//! the full AES latency (Section III: +10 ns under AES-128, +14 ns under
//! AES-256). In exchange, there is zero metadata traffic: writebacks are
//! a single DRAM write and no counters exist anywhere.

use crate::engine::{EncryptionEngine, EngineKind, Frame, Pad, ReadMissOutcome, WritebackOutcome};
use crate::epoch::WritebackMode;
use crate::stats::EngineStats;
use clme_dram::timing::Dram;
use clme_obs::TraceSink;
use clme_types::config::SystemConfig;
use clme_types::{BlockAddr, Time};

/// Counterless memory encryption.
///
/// # Examples
///
/// ```
/// use clme_core::counterless::CounterlessEngine;
/// use clme_core::engine::EncryptionEngine;
/// use clme_dram::timing::Dram;
/// use clme_obs::NopSink;
/// use clme_types::{BlockAddr, SystemConfig, Time, TimeDelta};
///
/// let cfg = SystemConfig::isca_table1();
/// let mut engine = CounterlessEngine::new(&cfg);
/// let mut dram = Dram::new(&cfg);
/// let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram, &mut NopSink);
/// // Stalls AES (10 ns) + ECC/MAC check (1 ns) after the data arrive.
/// assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns(11));
/// ```
#[derive(Clone, Debug)]
pub struct CounterlessEngine {
    frame: Frame,
}

impl CounterlessEngine {
    /// Creates a counterless engine with the configured AES strength.
    pub fn new(cfg: &SystemConfig) -> CounterlessEngine {
        CounterlessEngine {
            frame: Frame::new(cfg, true),
        }
    }
}

impl EncryptionEngine for CounterlessEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Counterless
    }

    fn on_read_miss(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> ReadMissOutcome {
        // The data-dependent AES starts at arrival; the MAC/ECC check
        // completes after it.
        self.frame
            .read_miss(block, issue, dram, obs, |_, _, _, _| Some(Pad::Data))
    }

    fn on_prefetch_fill(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> Time {
        // Decryption happens off the critical path; only the transfer
        // matters for timing.
        self.frame.prefetch_fill(block, issue, dram, obs)
    }

    fn on_writeback(
        &mut self,
        block: BlockAddr,
        now: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> WritebackOutcome {
        self.frame.writeback(block, now, dram, obs, |_, _| {
            (Some(WritebackMode::Counterless), Time::ZERO)
        })
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
    use crate::none::NoEncryptionEngine;
    use clme_obs::NopSink;
    use clme_types::config::AesStrength;
    use clme_types::TimeDelta;

    #[test]
    fn stall_equals_aes_plus_check() {
        let nop = &mut NopSink;
        let cfg = SystemConfig::isca_table1();
        let mut engine = CounterlessEngine::new(&cfg);
        let mut dram = Dram::new(&cfg);
        let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram, nop);
        assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns(11));
    }

    #[test]
    fn aes256_stalls_four_ns_longer() {
        let nop = &mut NopSink;
        let cfg = SystemConfig::isca_table1().with_aes(AesStrength::Aes256);
        let mut engine = CounterlessEngine::new(&cfg);
        let mut dram = Dram::new(&cfg);
        let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram, nop);
        assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns(15));
    }

    #[test]
    fn exactly_ten_ns_slower_than_no_encryption() {
        let nop = &mut NopSink;
        // The Section III real-system measurement, reproduced.
        let cfg = SystemConfig::isca_table1();
        let mut counterless = CounterlessEngine::new(&cfg);
        let mut baseline = NoEncryptionEngine::new(&cfg);
        let mut dram_a = Dram::new(&cfg);
        let mut dram_b = Dram::new(&cfg);
        let a = counterless.on_read_miss(BlockAddr::new(7), Time::ZERO, &mut dram_a, nop);
        let b = baseline.on_read_miss(BlockAddr::new(7), Time::ZERO, &mut dram_b, nop);
        assert_eq!(a.ready - b.ready, TimeDelta::from_ns(10));
    }

    #[test]
    fn no_metadata_traffic_at_all() {
        let nop = &mut NopSink;
        let cfg = SystemConfig::isca_table1();
        let mut engine = CounterlessEngine::new(&cfg);
        let mut dram = Dram::new(&cfg);
        engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram, nop);
        engine.on_writeback(BlockAddr::new(0), Time::ZERO, &mut dram, nop);
        engine.on_prefetch_fill(BlockAddr::new(1), Time::ZERO, &mut dram, nop);
        // Exactly three transfers: the data read, write, and prefetch.
        assert_eq!(dram.tracker().total(), 3);
        assert_eq!(engine.stats().metadata_reads, 0);
        assert_eq!(engine.stats().counterless_writebacks, 1);
    }
}
