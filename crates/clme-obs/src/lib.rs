//! Zero-overhead-when-off observability for the simulator stack.
//!
//! Every timed component (engines, DRAM, caches) has one method per
//! event, and that method takes a `&mut dyn` [`TraceSink`]. The
//! [`NopSink`] implements every hook as an empty inline method, so a
//! caller that observes nothing (or must stay silent, as the engines'
//! metadata DRAM traffic does) passes it and keeps the exact behaviour
//! and cost of an unobserved run; the [`Recorder`] sink accumulates:
//!
//! * [`Log2Histogram`] — fixed 64-bucket power-of-two picosecond latency
//!   histograms, one per pipeline [`Stage`],
//! * [`EventCounters`] — monotonic counters, one per [`EventKind`],
//! * [`TraceRing`] — a bounded ring of `(cycle, component, event, addr,
//!   latency)` tuples, exportable as Chrome `trace_event` JSON
//!   ([`chrome_trace_json`]) viewable in Perfetto / `about:tracing`.
//!
//! # Examples
//!
//! ```
//! use clme_obs::{Recorder, Stage, TraceSink};
//! use clme_types::{Time, TimeDelta};
//!
//! let mut rec = Recorder::new();
//! rec.latency(Stage::Dram, TimeDelta::from_ns(46));
//! assert_eq!(rec.stage(Stage::Dram).count(), 1);
//! ```

pub mod chrome;
pub mod counters;
pub mod flight;
pub mod hist;
pub mod prom;
pub mod registry;
pub mod ring;
pub mod series;
pub mod sink;
pub mod span;

pub use chrome::{chrome_trace_json, span_flow_json};
pub use counters::{Component, EventCounters, EventKind};
pub use flight::{FlightEvent, FlightRing, FlightSnapshot};
pub use hist::Log2Histogram;
pub use registry::{
    Counter, Gauge, MetricKind, MetricsError, Registry, Sample, SampleValue, ShardedHistogram,
};
pub use ring::{TraceEvent, TraceRing};
pub use series::{EpochSample, EpochSeries, SeriesRecorder, StageSample, DEFAULT_EPOCH_CYCLES};
pub use sink::{NopSink, Recorder, Stage, TraceSink, DEFAULT_RING_CAPACITY, STAGES};
pub use span::{
    Blame, BlameTally, BlameTracker, ChildSpan, RequestSpans, SpanKind, SpanTracer, BLAME_KINDS,
    DEFAULT_SPAN_SAMPLES, SPAN_KINDS,
};
