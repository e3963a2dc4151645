//! Counter-light Encryption — the paper's contribution (ISCA 2024).
//!
//! This crate implements the four memory-encryption designs the paper
//! evaluates, in two complementary forms:
//!
//! **Timing engines** ([`engine::EncryptionEngine`]) plug into the memory
//! controller of `clme-sim` and decide, per LLC miss and writeback, what
//! DRAM traffic to issue and when decrypted data becomes usable:
//!
//! * [`none::NoEncryptionEngine`] — the normalisation baseline,
//! * [`counterless::CounterlessEngine`] — AES-XTS (SGX2/TME/SEV),
//! * [`counter_mode::CounterModeEngine`] — counter mode with RMCC
//!   memoization (the Figs. 8–9 baseline, with Fig. 9's single-counter
//!   ablation),
//! * [`counter_light::CounterLightEngine`] — the proposed design:
//!   EncryptionMetadata decoded from the block's own ECC on reads, and
//!   the [`epoch::EpochMonitor`]-driven writeback mode switch.
//!
//! **The functional model** ([`functional::MemoryImage`]) is the
//! bit-exact twin: real AES/XTS/OTP encryption, real MACs, the Synergy
//! parity with the MetaWord folded in, and the full Fig. 14 correction
//! flow under injected chip faults.
//!
//! # Examples
//!
//! ```
//! use clme_core::counter_light::CounterLightEngine;
//! use clme_core::engine::EncryptionEngine;
//! use clme_dram::timing::Dram;
//! use clme_obs::NopSink;
//! use clme_types::{BlockAddr, SystemConfig, Time};
//!
//! let cfg = SystemConfig::isca_table1();
//! let mut engine = CounterLightEngine::new(&cfg, 1 << 20);
//! let mut dram = Dram::new(&cfg);
//! let wb = engine.on_writeback(BlockAddr::new(3), Time::ZERO, &mut dram, &mut NopSink);
//! assert!(wb.used_counter_mode); // quiet epoch → counter mode
//! ```

pub mod counter_light;
pub mod counter_mode;
pub mod counterless;
pub mod engine;
pub mod epoch;
pub mod functional;
pub mod metadata;
pub mod none;
mod rmcc;
pub mod stats;

pub use counter_light::CounterLightEngine;
pub use counter_mode::{CounterModeConfig, CounterModeEngine};
pub use counterless::CounterlessEngine;
pub use engine::{EncryptionEngine, EngineKind, ReadMissOutcome, WritebackOutcome};
pub use epoch::{EpochMonitor, WritebackMode};
pub use functional::{MemoryImage, ReadError};
pub use none::NoEncryptionEngine;
pub use stats::EngineStats;

use clme_types::config::SystemConfig;

/// Builds an engine of the requested kind over `data_blocks` of protected
/// memory — the factory the simulator and benches use.
pub fn build_engine(
    kind: EngineKind,
    cfg: &SystemConfig,
    data_blocks: u64,
) -> Box<dyn EncryptionEngine> {
    match kind {
        EngineKind::None => Box::new(NoEncryptionEngine::new(cfg)),
        EngineKind::Counterless => Box::new(CounterlessEngine::new(cfg)),
        EngineKind::CounterMode => Box::new(CounterModeEngine::new(cfg, data_blocks)),
        EngineKind::CounterLight => Box::new(CounterLightEngine::new(cfg, data_blocks)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_each_kind() {
        let cfg = SystemConfig::isca_table1();
        for kind in [
            EngineKind::None,
            EngineKind::Counterless,
            EngineKind::CounterMode,
            EngineKind::CounterLight,
        ] {
            let engine = build_engine(kind, &cfg, 1 << 20);
            assert_eq!(engine.kind(), kind);
        }
    }
}
