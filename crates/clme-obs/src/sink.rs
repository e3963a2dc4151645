//! The [`TraceSink`] trait and its two standard implementations.
//!
//! Instrumentation sites call sink hooks unconditionally; whether anything
//! happens is the sink's choice. [`NopSink`]'s hooks are empty `#[inline]`
//! bodies, so the disabled configuration costs one virtual dispatch per
//! hook and nothing else — and, critically, observes nothing, which the
//! conformance tests pin down as "byte-identical `StatsSnapshot`s".

use crate::counters::{Component, EventCounters, EventKind};
use crate::hist::Log2Histogram;
use crate::ring::{TraceEvent, TraceRing};
use crate::span::SpanKind;
use clme_types::{Time, TimeDelta};
use std::any::Any;

/// Default ring capacity for a [`Recorder`] (events retained).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// A pipeline stage whose latency is histogrammed separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Engine-added stall after data arrival (decrypt + verify path).
    Engine = 0,
    /// Counter availability relative to issue (counter-mode fetch path).
    CounterFetch = 1,
    /// DRAM demand access, issue to data arrival.
    Dram = 2,
    /// Cache-hierarchy traversal for a demand access.
    Cache = 3,
    /// Dispatch stall attributed to a full ROB.
    RobStall = 4,
    /// MAC lanes riding the tail of the data burst (the Synergy layout
    /// stores the MAC with the block, so its fetch is the last slice of
    /// the data transfer rather than a separate DRAM access).
    MacFetch = 5,
}

/// Number of [`Stage`] variants.
pub const STAGES: usize = 6;

impl Stage {
    /// All stages, in index order.
    pub const ALL: [Stage; STAGES] = [
        Stage::Engine,
        Stage::CounterFetch,
        Stage::Dram,
        Stage::Cache,
        Stage::RobStall,
        Stage::MacFetch,
    ];

    /// Stable kebab-case name (used in reports and JSON artifacts).
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Engine => "engine",
            Stage::CounterFetch => "counter-fetch",
            Stage::Dram => "dram",
            Stage::Cache => "cache",
            Stage::RobStall => "rob-stall",
            Stage::MacFetch => "mac-fetch",
        }
    }
}

impl core::fmt::Display for Stage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Receiver for instrumentation events.
///
/// All hooks default to no-ops so sinks override only what they consume.
/// Instrumentation sites may guard expensive event construction behind
/// [`TraceSink::enabled`].
pub trait TraceSink: Any {
    /// True when this sink records anything; sites may skip work when false.
    fn enabled(&self) -> bool {
        false
    }

    /// A discrete event: counted and (for recording sinks) ring-traced.
    fn event(
        &mut self,
        _at: Time,
        _component: Component,
        _event: EventKind,
        _addr: u64,
        _latency: TimeDelta,
    ) {
    }

    /// A counter-only event (too frequent to be worth ring slots).
    fn count(&mut self, _event: EventKind) {}

    /// A latency sample attributed to a pipeline stage.
    fn latency(&mut self, _stage: Stage, _latency: TimeDelta) {}

    /// Simulated time has progressed to (at least) `now`. The machine
    /// calls this once per executed op and the engines and DRAM call it
    /// on each event, so time-resolved sinks (the epoch
    /// sampler) can flush epoch boundaries promptly even while a single
    /// long op is in flight. Sinks must tolerate non-monotonic calls:
    /// component-local timestamps can trail the global maximum.
    fn tick(&mut self, _now: Time) {}

    /// `instructions` more instructions retired (the machine calls this
    /// once per executed op with that op's retirement count).
    fn retire(&mut self, _instructions: u64) {}

    /// An LLC miss entered the engine read path: a request span opens.
    /// The cache hierarchy calls this when it detects the miss; every
    /// [`TraceSink::span_child`] until the matching
    /// [`TraceSink::span_request_end`] belongs to this request. The
    /// simulation is single-threaded per machine, so at most one request
    /// is open at a time.
    fn span_request_begin(&mut self, _at: Time, _addr: u64) {}

    /// A dependent operation of the open request ran over `[begin, end]`.
    /// `level` disambiguates integrity-tree depth for
    /// [`SpanKind::CounterFetch`] (0 = leaf counter, 1.. = tree nodes)
    /// and is 0 for every other kind. Ignored when no request is open.
    fn span_child(&mut self, _kind: SpanKind, _level: u8, _begin: Time, _end: Time) {}

    /// The open request resolved: data arrived at `data_arrival` and the
    /// decrypted, verified block became usable at `ready`. Sinks compute
    /// critical-path blame here from the children they collected.
    fn span_request_end(&mut self, _data_arrival: Time, _ready: Time) {}

    /// A measurement boundary (e.g. warm-up finished): accumulating
    /// sinks clear here so reports cover only the measured window.
    fn window_reset(&mut self) {}

    /// Recovers the concrete sink from a `Box<dyn TraceSink>`.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// The always-off sink: every hook is an empty inline body.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NopSink;

impl TraceSink for NopSink {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// The recording sink: per-stage histograms, event counters, and a ring.
///
/// # Examples
///
/// ```
/// use clme_obs::{Component, EventKind, Recorder, Stage, TraceSink};
/// use clme_types::{Time, TimeDelta};
///
/// let mut rec = Recorder::new();
/// rec.event(Time::ZERO, Component::Dram, EventKind::RowHit, 7, TimeDelta::from_ns(20));
/// rec.latency(Stage::Dram, TimeDelta::from_ns(20));
/// assert_eq!(rec.counters().get(EventKind::RowHit), 1);
/// assert_eq!(rec.stage(Stage::Dram).count(), 1);
/// assert_eq!(rec.ring().len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Recorder {
    counters: EventCounters,
    stages: [Log2Histogram; STAGES],
    ring: TraceRing,
}

impl Recorder {
    /// Creates a recorder with the default ring capacity.
    pub fn new() -> Recorder {
        Recorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Creates a recorder retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            counters: EventCounters::new(),
            stages: Default::default(),
            ring: TraceRing::new(capacity),
        }
    }

    /// The event counter bank.
    pub fn counters(&self) -> &EventCounters {
        &self.counters
    }

    /// The latency histogram for `stage`.
    pub fn stage(&self, stage: Stage) -> &Log2Histogram {
        &self.stages[stage as usize]
    }

    /// The retained trace events.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Serialises the retained events as Chrome `trace_event` JSON.
    pub fn chrome_trace(&self) -> String {
        crate::chrome::chrome_trace_json(&self.ring)
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl TraceSink for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(
        &mut self,
        at: Time,
        component: Component,
        event: EventKind,
        addr: u64,
        latency: TimeDelta,
    ) {
        self.counters.bump(event);
        self.ring.push(TraceEvent {
            at,
            component,
            event,
            addr,
            latency,
        });
    }

    fn count(&mut self, event: EventKind) {
        self.counters.bump(event);
    }

    fn latency(&mut self, stage: Stage, latency: TimeDelta) {
        self.stages[stage as usize].record(latency);
    }

    fn window_reset(&mut self) {
        self.counters = EventCounters::new();
        for stage in &mut self.stages {
            stage.clear();
        }
        self.ring.clear();
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_sink_is_disabled_and_silent() {
        let mut nop = NopSink;
        assert!(!nop.enabled());
        nop.event(
            Time::ZERO,
            Component::Core,
            EventKind::RobStall,
            0,
            TimeDelta::ZERO,
        );
        nop.count(EventKind::RobStall);
        nop.latency(Stage::RobStall, TimeDelta::from_ns(1));
        // Nothing to observe — the point is that this compiles and does
        // nothing; downcast must still work.
        let boxed: Box<dyn TraceSink> = Box::new(NopSink);
        assert!(boxed.into_any().downcast::<NopSink>().is_ok());
    }

    #[test]
    fn recorder_round_trips_through_dyn_box() {
        let mut rec = Recorder::new();
        rec.count(EventKind::PadAes);
        let boxed: Box<dyn TraceSink> = Box::new(rec);
        let back = boxed
            .into_any()
            .downcast::<Recorder>()
            .expect("recorder downcast");
        assert_eq!(back.counters().get(EventKind::PadAes), 1);
    }

    #[test]
    fn window_reset_clears_everything_but_stays_enabled() {
        let mut rec = Recorder::new();
        rec.event(
            Time::ZERO,
            Component::Engine,
            EventKind::ReadMiss,
            9,
            TimeDelta::from_ns(40),
        );
        rec.latency(Stage::Engine, TimeDelta::from_ns(2));
        rec.window_reset();
        assert!(rec.enabled());
        assert_eq!(rec.counters().get(EventKind::ReadMiss), 0);
        assert_eq!(rec.stage(Stage::Engine).count(), 0);
        assert!(rec.ring().is_empty());
        rec.count(EventKind::ReadMiss);
        assert_eq!(rec.counters().get(EventKind::ReadMiss), 1);
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STAGES);
    }
}
