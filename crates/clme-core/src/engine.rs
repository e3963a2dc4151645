//! The timing-level encryption-engine interface the memory controller
//! drives.
//!
//! An engine owns everything between the LLC and DRAM that the paper
//! varies: cipher-latency behaviour on read misses, metadata traffic on
//! writebacks, and (for Counter-light) the per-epoch mode switch. The
//! memory controller calls one method per event and the engine issues the
//! DRAM accesses itself, so every byte of overhead traffic contends in
//! the banks and on the bus like the data traffic does.
//!
//! The designs differ in two places only: when a missed block's pad can
//! start (after the data arrive, after a counter fetch, or at the
//! half-block ECC decode) and what a writeback updates. `Frame` does
//! the rest of every event once for all four engines; each engine
//! passes it a closure holding its decision.

use crate::epoch::WritebackMode;
use crate::stats::EngineStats;
use clme_dram::timing::{AccessKind, Dram};
use clme_obs::{Component, EventKind, SpanKind, Stage, TraceSink};
use clme_types::config::SystemConfig;
use clme_types::{BlockAddr, Time, TimeDelta};

/// Which design an engine implements (Fig. 1's three rows, plus the
/// unencrypted baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// No memory encryption (the normalisation baseline).
    None,
    /// Counterless (AES-XTS) encryption: SGX2/TME/MKTME/SME/SEV.
    Counterless,
    /// Counter-mode encryption with RMCC memoization (the prior art the
    /// paper measures in Figs. 8–9).
    CounterMode,
    /// Counter-light Encryption — the paper's contribution.
    CounterLight,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            EngineKind::None => "no-encryption",
            EngineKind::Counterless => "counterless",
            EngineKind::CounterMode => "counter-mode",
            EngineKind::CounterLight => "counter-light",
        };
        f.write_str(name)
    }
}

/// Timing of one LLC read miss as resolved by an engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadMissOutcome {
    /// When the data block's last beat arrived from DRAM.
    pub data_arrival: Time,
    /// When the *decrypted, verified* data became usable by the core.
    pub ready: Time,
    /// When the block's counter became known, if the engine needed one
    /// (`None` for engines/blocks without counters).
    pub counter_known: Option<Time>,
}

/// Timing/mode of one LLC writeback as resolved by an engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WritebackOutcome {
    /// Whether this writeback used counter mode (false = counterless).
    pub used_counter_mode: bool,
    /// When the data write (and any metadata traffic issued eagerly)
    /// finished occupying DRAM.
    pub completion: Time,
}

/// A memory-encryption engine: the timing twin of the functional model in
/// [`crate::functional`].
///
/// Each event has one method, and it reports to the sink the caller
/// passes: engines report counter fetches (start/hit/late), pad
/// generation, integrity verification and the writeback mode. A caller
/// with nothing to observe passes [`clme_obs::NopSink`].
pub trait EncryptionEngine {
    /// Which design this is.
    fn kind(&self) -> EngineKind;

    /// Serves a demand LLC read miss issued at `issue` (the moment the
    /// LLC lookup completed and the request reached the memory
    /// controller). The engine issues the data DRAM read and any metadata
    /// reads and returns the resolved timing.
    fn on_read_miss(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> ReadMissOutcome;

    /// Serves a prefetch fill: the data read (plus any metadata the
    /// engine's design needs for decryption) is issued, but the latency is
    /// off the critical path. Returns the data arrival time.
    fn on_prefetch_fill(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> Time;

    /// Serves an LLC writeback arriving at the controller at `now`.
    fn on_writeback(
        &mut self,
        block: BlockAddr,
        now: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> WritebackOutcome;

    /// Accumulated statistics.
    fn stats(&self) -> &EngineStats;

    /// Clears statistics (e.g. after warm-up) without touching state.
    fn reset_stats(&mut self);
}

/// Where a missed block's pad comes from: the read-path decision that
/// tells the designs apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Pad {
    /// AES over the data itself, so it starts when the data arrive
    /// (counterless encryption).
    Data,
    /// From the block's counter, known at `known`: the memoized AES
    /// result combined in when `memoized`, a full AES otherwise.
    Counter { known: Time, memoized: bool },
}

/// What every engine does around its design decisions, for each event:
/// the data DRAM transfer, the pad and ECC/MAC timing of a read miss,
/// the statistics, and the report to the sink.
#[derive(Clone, Debug)]
pub(crate) struct Frame {
    aes: TimeDelta,
    memo_combine: TimeDelta,
    ecc_check: TimeDelta,
    /// The Synergy in-line MAC's lanes ride the last eighth of the data
    /// burst instead of a separate DRAM read; `None` without encryption.
    mac_window: Option<TimeDelta>,
    pub(crate) stats: EngineStats,
}

impl Frame {
    /// The frame of an engine that encrypts (and so verifies a MAC) when
    /// `encrypted`, of the unencrypted baseline otherwise.
    pub(crate) fn new(cfg: &SystemConfig, encrypted: bool) -> Frame {
        let mac_window = TimeDelta::from_picos(cfg.block_transfer_time().picos() / 8);
        Frame {
            aes: cfg.aes_latency(),
            memo_combine: cfg.memo_combine_latency,
            ecc_check: cfg.ecc_check_latency,
            mac_window: encrypted.then_some(mac_window),
            stats: EngineStats::new(),
        }
    }

    /// Serves a read miss: reads the data, asks `design` for the pad once
    /// they arrive (`None` when the block is not encrypted), and makes
    /// the data usable one ECC/MAC check after both are done.
    pub(crate) fn read_miss(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
        design: impl FnOnce(&mut EngineStats, Time, &mut Dram, &mut dyn TraceSink) -> Option<Pad>,
    ) -> ReadMissOutcome {
        obs.tick(issue);
        let data = dram.access(block, AccessKind::Read, issue, obs).arrival;
        if obs.enabled() {
            obs.span_child(SpanKind::DataDram, 0, issue, data);
        }
        let (cipher_done, counter_known) = match design(&mut self.stats, data, dram, obs) {
            None => (data, None),
            Some(pad) => {
                let (start, memoized, counter_known) = match pad {
                    Pad::Data => (data, false, None),
                    Pad::Counter { known, memoized } => (known, memoized, Some(known)),
                };
                let (latency, event, span) = if memoized {
                    (self.memo_combine, EventKind::PadMemoized, SpanKind::PadMemo)
                } else {
                    (self.aes, EventKind::PadAes, SpanKind::PadAes)
                };
                if obs.enabled() {
                    obs.count(event);
                    obs.span_child(span, 0, start, start + latency);
                }
                (start + latency, counter_known)
            }
        };
        let ready = cipher_done.max(data) + self.ecc_check;
        self.stats.read_misses += 1;
        self.stats.total_read_latency += ready - issue;
        self.stats.total_stall_after_data += ready - data;
        if obs.enabled() {
            obs.count(EventKind::MacVerify);
            if let Some(window) = self.mac_window {
                obs.latency(Stage::MacFetch, window);
                obs.span_child(SpanKind::MacFetch, 0, data - window, data);
            }
            obs.span_child(SpanKind::EccDecode, 0, ready - self.ecc_check, ready);
            obs.event(
                issue,
                Component::Engine,
                EventKind::ReadMiss,
                block.raw(),
                ready - issue,
            );
            obs.latency(Stage::Engine, ready - data);
        }
        ReadMissOutcome {
            data_arrival: data,
            ready,
            counter_known,
        }
    }

    /// Serves a prefetch fill's data read; returns its arrival.
    pub(crate) fn prefetch_fill(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> Time {
        obs.tick(issue);
        self.stats.prefetch_fills += 1;
        obs.count(EventKind::PrefetchFill);
        dram.background_access(block, AccessKind::Read, issue, obs)
    }

    /// Serves a writeback: writes the data, then lets `design` choose the
    /// mode (`None` without encryption) and issue its metadata traffic,
    /// returning when that traffic is done (`Time::ZERO` when there is
    /// none).
    pub(crate) fn writeback(
        &mut self,
        block: BlockAddr,
        now: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
        design: impl FnOnce(&mut EngineStats, &mut Dram) -> (Option<WritebackMode>, Time),
    ) -> WritebackOutcome {
        obs.tick(now);
        let data_done = dram.background_access(block, AccessKind::Write, now, obs);
        let (mode, metadata_done) = design(&mut self.stats, dram);
        self.stats.writebacks += 1;
        let mode_event = match mode {
            None => None,
            Some(WritebackMode::Counter) => {
                self.stats.counter_mode_writebacks += 1;
                Some(EventKind::WritebackCounterMode)
            }
            Some(WritebackMode::Counterless) => {
                self.stats.counterless_writebacks += 1;
                Some(EventKind::WritebackCounterless)
            }
        };
        if obs.enabled() {
            obs.count(EventKind::Writeback);
            if let Some(event) = mode_event {
                obs.count(event);
            }
        }
        WritebackOutcome {
            used_counter_mode: mode == Some(WritebackMode::Counter),
            completion: data_done.max(metadata_done),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_display() {
        assert_eq!(EngineKind::None.to_string(), "no-encryption");
        assert_eq!(EngineKind::Counterless.to_string(), "counterless");
        assert_eq!(EngineKind::CounterMode.to_string(), "counter-mode");
        assert_eq!(EngineKind::CounterLight.to_string(), "counter-light");
    }
}
