//! Always-on, atomics-based metrics primitives and a named registry.
//!
//! The [`Recorder`](crate::Recorder) sink is `&mut`-threaded and belongs to
//! one simulation loop; production telemetry for the `clme-mem` library
//! needs the opposite shape: shared handles that many threads bump
//! concurrently with relaxed atomics, merged into plain
//! [`Log2Histogram`]s only when a snapshot is taken.
//!
//! Three primitives:
//!
//! * [`Counter`] — monotonic count,
//! * [`Gauge`] — last-write-wins `AtomicU64`,
//! * [`ShardedHistogram`] — log2 picosecond histogram;
//!   [`ShardedHistogram::merge`] folds it into a [`Log2Histogram`] for
//!   percentiles and deltas.
//!
//! Counters, histograms and the [flight ring](crate::flight) follow one
//! stripe rule: each of the first seven threads that record in the
//! process owns a cache-line stripe and updates it with a relaxed load
//! and store, and every later thread shares the last stripe through
//! `fetch_add` and `fetch_max`. Readers fold the stripes. So a process
//! with up to seven recording threads pays no locked read-modify-write
//! and never contends on a line.
//!
//! [`Registry`] names the handles. Metric and label names are validated at
//! registration against the Prometheus grammar and rejected with a typed
//! [`MetricsError`] — a hostile name never reaches the exposition writer.
//!
//! # Examples
//!
//! ```
//! use clme_obs::registry::{Registry, MetricsError};
//!
//! let reg = Registry::new();
//! let ops = reg.counter("clme_demo_ops_total", "demo ops", &[]).unwrap();
//! ops.inc();
//! assert_eq!(ops.get(), 1);
//! assert!(matches!(
//!     reg.counter("0bad", "nope", &[]),
//!     Err(MetricsError::InvalidMetricName(_))
//! ));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::hist::{Log2Histogram, LOG2_BUCKETS};
use clme_types::TimeDelta;

/// Thread stripes of every concurrent cell in this crate: one owned by
/// each of the first `STRIPES - 1` thread slots, one shared by the rest.
pub(crate) const STRIPES: usize = 8;

/// Hands each thread a stable small integer the first time it records.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

// Const-initialised with a sentinel so the hot-path access compiles to
// a direct TLS load (lazily-initialised `thread_local!` pays an
// initialisation check and possibly a dynamic TLS call on every
// access); the slot is claimed from the global counter on first use.
thread_local! {
    static THREAD_SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// The calling thread's stripe index, and whether the thread owns it.
/// Slots are never reused, so an owner is its stripe's only writer and
/// a load and store cannot lose an update; on x86 that saves the full
/// barrier of a locked read-modify-write.
#[inline]
pub(crate) fn stripe() -> (usize, bool) {
    let slot = THREAD_SLOT.with(|slot| {
        let mut s = slot.get();
        if s == usize::MAX {
            s = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
            slot.set(s);
        }
        s
    });
    if slot < STRIPES - 1 {
        (slot, true)
    } else {
        (STRIPES - 1, false)
    }
}

/// Adds `n` to `cell`, a cell of the caller's [`stripe`], and returns
/// the previous value.
#[inline]
pub(crate) fn stripe_add(cell: &AtomicU64, n: u64, owned: bool) -> u64 {
    if owned {
        let prev = cell.load(Ordering::Relaxed);
        cell.store(prev.wrapping_add(n), Ordering::Relaxed);
        prev
    } else {
        cell.fetch_add(n, Ordering::Relaxed)
    }
}

/// Raises `cell`, a cell of the caller's [`stripe`], to at least `v`.
#[inline]
fn stripe_max(cell: &AtomicU64, v: u64, owned: bool) {
    if !owned {
        cell.fetch_max(v, Ordering::Relaxed);
    } else if v > cell.load(Ordering::Relaxed) {
        cell.store(v, Ordering::Relaxed);
    }
}

/// One counter stripe on its own cache line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Stripe(AtomicU64);

/// A monotonically increasing counter. All operations are relaxed: the
/// value is a statistic, not a synchronisation edge.
///
/// The count is striped by thread under the [module's stripe
/// rule](self), so a bump from one of the first seven recording threads
/// is a plain relaxed load and store, and [`get`](Self::get) sums the
/// stripes.
#[derive(Debug, Default)]
pub struct Counter([Stripe; STRIPES]);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Counter {
        Counter([const { Stripe(AtomicU64::new(0)) }; STRIPES])
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. Adding zero returns before it touches a stripe, so a
    /// caller folding a count that is often zero needs no guard.
    #[inline]
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        let (i, owned) = stripe();
        stripe_add(&self.0[i].0, n, owned);
    }

    /// Current value: the sum of the stripes.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
            .iter()
            .fold(0, |sum, s| sum.wrapping_add(s.0.load(Ordering::Relaxed)))
    }
}

/// A last-write-wins gauge (a `u64` the owner sets to the current level:
/// pages swept, sweep in progress, key age in milliseconds, ...).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds one to the level.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One histogram stripe, padded to its own cache lines so two threads
/// recording into adjacent stripes never false-share.
#[repr(align(128))]
struct HistStripe {
    counts: [AtomicU64; LOG2_BUCKETS],
    sum_ps: AtomicU64,
    max_ps: AtomicU64,
}

/// A log2 latency histogram safe for concurrent recording.
///
/// `record_ps` is lock-free and allocation-free: it updates the bucket,
/// sum and max of the caller's stripe under the [module's stripe
/// rule](self), with plain relaxed loads and stores on an owned stripe.
/// [`merge`](Self::merge) folds all stripes into a plain
/// [`Log2Histogram`]; because every stripe is only ever added to, a merge
/// taken while recorders are live is a valid (if slightly stale) snapshot,
/// and two merges bracket the samples recorded between them — which is
/// exactly what [`Log2Histogram::delta_since`] needs.
pub struct ShardedHistogram {
    stripes: Box<[HistStripe; STRIPES]>,
}

impl ShardedHistogram {
    /// Creates an empty histogram.
    pub fn new() -> ShardedHistogram {
        let empty = || HistStripe {
            counts: [const { AtomicU64::new(0) }; LOG2_BUCKETS],
            sum_ps: AtomicU64::new(0),
            max_ps: AtomicU64::new(0),
        };
        ShardedHistogram {
            stripes: Box::new(std::array::from_fn(|_| empty())),
        }
    }

    /// Records one sample, in picoseconds. Lock-free, allocation-free.
    #[inline]
    pub fn record_ps(&self, ps: u64) {
        self.record_ps_n(ps, 1);
    }

    /// Records `n` samples of the same picosecond value in one pass.
    /// Batch paths that measure one interval covering `n` equal
    /// contributions (e.g. every cache-served block of a page visit
    /// shares the visit's latency) keep the exact same merged
    /// histogram — count, sum, buckets, max — for the price of one
    /// sample.
    #[inline]
    pub fn record_ps_n(&self, ps: u64, n: u64) {
        if n == 0 {
            return;
        }
        let (i, owned) = stripe();
        let cells = &self.stripes[i];
        stripe_add(&cells.counts[Log2Histogram::bucket_of(ps)], n, owned);
        stripe_add(&cells.sum_ps, ps.saturating_mul(n), owned);
        stripe_max(&cells.max_ps, ps, owned);
    }

    /// Records one simulated-time sample.
    #[inline]
    pub fn record(&self, latency: TimeDelta) {
        self.record_ps(latency.picos());
    }

    /// Records one host-clock sample. Nanoseconds are widened to the
    /// histogram's picosecond domain (saturating far beyond any real
    /// host latency).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record_duration_n(d, 1);
    }

    /// Records `n` host-clock samples of the same duration in one
    /// pass (see [`record_ps_n`](Self::record_ps_n)).
    #[inline]
    pub fn record_duration_n(&self, d: Duration, n: u64) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.record_ps_n(ns.saturating_mul(1000), n);
    }

    /// Folds every stripe into a single-threaded histogram.
    pub fn merge(&self) -> Log2Histogram {
        let mut counts = [0u64; LOG2_BUCKETS];
        let mut sum_ps: u128 = 0;
        let mut max_ps: u64 = 0;
        for stripe in self.stripes.iter() {
            for (i, c) in stripe.counts.iter().enumerate() {
                counts[i] += c.load(Ordering::Relaxed);
            }
            sum_ps += stripe.sum_ps.load(Ordering::Relaxed) as u128;
            max_ps = max_ps.max(stripe.max_ps.load(Ordering::Relaxed));
        }
        Log2Histogram::from_parts(counts, sum_ps, max_ps)
    }
}

impl Default for ShardedHistogram {
    fn default() -> ShardedHistogram {
        ShardedHistogram::new()
    }
}

impl fmt::Debug for ShardedHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedHistogram")
            .field("merged", &self.merge())
            .finish()
    }
}

/// Typed registration failure. Validation happens when a metric is named,
/// not when it is rendered, so a hostile or typo'd name fails loudly at
/// the registration site instead of corrupting the exposition text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsError {
    /// Metric name does not match `[a-zA-Z_:][a-zA-Z0-9_:]*`.
    InvalidMetricName(String),
    /// Label name does not match `[a-zA-Z_][a-zA-Z0-9_]*`, or starts with
    /// the reserved `__` prefix.
    InvalidLabelName(String),
    /// A metric with this exact name and label set is already registered.
    DuplicateMetric(String),
    /// The name is already registered as a different metric kind.
    KindMismatch(String),
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::InvalidMetricName(n) => {
                write!(
                    f,
                    "invalid metric name {n:?}: must match [a-zA-Z_:][a-zA-Z0-9_:]*"
                )
            }
            MetricsError::InvalidLabelName(n) => {
                write!(
                    f,
                    "invalid label name {n:?}: must match [a-zA-Z_][a-zA-Z0-9_]* and not start with __"
                )
            }
            MetricsError::DuplicateMetric(n) => {
                write!(f, "metric {n} already registered with this label set")
            }
            MetricsError::KindMismatch(n) => {
                write!(f, "metric {n} already registered as a different kind")
            }
        }
    }
}

impl std::error::Error for MetricsError {}

/// `true` iff `name` is a valid Prometheus metric name.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `true` iff `name` is a valid, non-reserved Prometheus label name.
pub fn valid_label_name(name: &str) -> bool {
    if name.starts_with("__") {
        return false;
    }
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// What kind of metric a [`Sample`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Last-write-wins level.
    Gauge,
    /// Log2 latency histogram (picoseconds).
    Histogram,
}

impl MetricKind {
    /// Prometheus `# TYPE` keyword.
    pub fn type_keyword(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One registered metric's value at snapshot time. Public fields so
/// callers can also assemble samples directly from their own snapshot
/// structs and feed them to [`crate::prom::render`].
#[derive(Debug, Clone)]
pub struct Sample {
    /// Metric family name (validated at registration).
    pub name: String,
    /// One-line help text (escaped by the exposition writer).
    pub help: String,
    /// Metric kind, controls the exposition shape.
    pub kind: MetricKind,
    /// `(label, value)` pairs; label names validated, values escaped.
    pub labels: Vec<(String, String)>,
    /// The observed value.
    pub value: SampleValue,
}

/// The value inside a [`Sample`].
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge level.
    Gauge(u64),
    /// Merged histogram.
    Histogram(Log2Histogram),
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<ShardedHistogram>),
}

impl Handle {
    fn kind(&self) -> MetricKind {
        match self {
            Handle::Counter(_) => MetricKind::Counter,
            Handle::Gauge(_) => MetricKind::Gauge,
            Handle::Histogram(_) => MetricKind::Histogram,
        }
    }
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    handle: Handle,
}

#[derive(Default)]
struct RegistryInner {
    entries: Vec<Entry>,
    /// Family name -> kind, to reject kind-mismatched re-registration.
    families: BTreeMap<String, MetricKind>,
}

/// A named collection of metric handles.
///
/// Registration is cold-path (one mutex, allocations); the returned
/// `Arc` handles are the hot path and never touch the registry again.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Result<Handle, MetricsError> {
        if !valid_metric_name(name) {
            return Err(MetricsError::InvalidMetricName(name.to_string()));
        }
        for (label, _) in labels {
            if !valid_label_name(label) {
                return Err(MetricsError::InvalidLabelName(label.to_string()));
            }
        }
        let handle = make();
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some(&kind) = inner.families.get(name) {
            if kind != handle.kind() {
                return Err(MetricsError::KindMismatch(name.to_string()));
            }
        }
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if inner
            .entries
            .iter()
            .any(|e| e.name == name && e.labels == labels)
        {
            return Err(MetricsError::DuplicateMetric(name.to_string()));
        }
        inner.families.insert(name.to_string(), handle.kind());
        let out = match &handle {
            Handle::Counter(c) => Handle::Counter(Arc::clone(c)),
            Handle::Gauge(g) => Handle::Gauge(Arc::clone(g)),
            Handle::Histogram(h) => Handle::Histogram(Arc::clone(h)),
        };
        inner.entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            handle,
        });
        Ok(out)
    }

    /// Registers a counter and returns its handle.
    pub fn counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Result<Arc<Counter>, MetricsError> {
        match self.register(name, help, labels, || {
            Handle::Counter(Arc::new(Counter::new()))
        })? {
            Handle::Counter(c) => Ok(c),
            _ => unreachable!("registered a counter"),
        }
    }

    /// Registers a gauge and returns its handle.
    pub fn gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Result<Arc<Gauge>, MetricsError> {
        match self.register(name, help, labels, || Handle::Gauge(Arc::new(Gauge::new())))? {
            Handle::Gauge(g) => Ok(g),
            _ => unreachable!("registered a gauge"),
        }
    }

    /// Registers a sharded histogram and returns its handle.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Result<Arc<ShardedHistogram>, MetricsError> {
        match self.register(name, help, labels, || {
            Handle::Histogram(Arc::new(ShardedHistogram::new()))
        })? {
            Handle::Histogram(h) => Ok(h),
            _ => unreachable!("registered a histogram"),
        }
    }

    /// Reads every registered metric. Histograms are merged; the snapshot
    /// is consistent per-metric (each value is atomic) but not across
    /// metrics, which is the usual scrape contract.
    pub fn snapshot(&self) -> Vec<Sample> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .entries
            .iter()
            .map(|e| Sample {
                name: e.name.clone(),
                help: e.help.clone(),
                kind: e.handle.kind(),
                labels: e.labels.clone(),
                value: match &e.handle {
                    Handle::Counter(c) => SampleValue::Counter(c.get()),
                    Handle::Gauge(g) => SampleValue::Gauge(g.get()),
                    Handle::Histogram(h) => SampleValue::Histogram(h.merge()),
                },
            })
            .collect()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        f.debug_struct("Registry")
            .field("metrics", &inner.entries.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.inc();
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn adding_zero_claims_no_stripe() {
        thread::spawn(|| {
            let c = Counter::new();
            c.add(0);
            assert_eq!(c.get(), 0);
            assert_eq!(THREAD_SLOT.with(|s| s.get()), usize::MAX);
            c.add(2);
            assert_ne!(THREAD_SLOT.with(|s| s.get()), usize::MAX);
            assert_eq!(c.get(), 2);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn counter_is_exact_across_owned_and_shared_stripes() {
        // More threads than owned stripes, so some share the last one.
        let c = Arc::new(Counter::new());
        let threads = 2 * STRIPES;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                    c.add(t as u64);
                })
            })
            .collect();
        for jh in handles {
            jh.join().unwrap();
        }
        let n = threads as u64;
        assert_eq!(c.get(), n * 10_000 + n * (n - 1) / 2);
    }

    #[test]
    fn sharded_histogram_merges_to_plain() {
        let h = ShardedHistogram::new();
        for ps in [0u64, 1, 2, 3, 4, 1000, 1024] {
            h.record_ps(ps);
        }
        let merged = h.merge();
        assert_eq!(merged.count(), 7);
        assert_eq!(merged.max_ps(), 1024);
        let mean = (0 + 1 + 2 + 3 + 4 + 1000 + 1024) as f64 / 7.0;
        assert!((merged.mean_ps() - mean).abs() < 1e-9);
        // Same bucketing as the single-threaded histogram.
        assert_eq!(merged.bucket_count(2), 2); // 2, 3
        assert_eq!(merged.bucket_count(11), 1); // 1024
    }

    #[test]
    fn merged_counts_are_deterministic_across_interleavings() {
        // Model-check style: whatever the interleaving, the merged totals
        // equal the arithmetic truth. Several rounds with different thread
        // counts vary the schedule.
        for &threads in &[2usize, 4, 8, 13] {
            let h = Arc::new(ShardedHistogram::new());
            let per_thread = 1000u64;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let h = Arc::clone(&h);
                    thread::spawn(move || {
                        for i in 0..per_thread {
                            h.record_ps(t as u64 * per_thread + i);
                        }
                    })
                })
                .collect();
            for jh in handles {
                jh.join().unwrap();
            }
            let merged = h.merge();
            assert_eq!(merged.count(), threads as u64 * per_thread);
            let n = threads as u128 * per_thread as u128;
            let expected_sum = n * (n - 1) / 2;
            assert!(
                (merged.mean_ps() - expected_sum as f64 / n as f64).abs() < 1e-6,
                "sum must be exact regardless of interleaving"
            );
            assert_eq!(merged.max_ps(), threads as u64 * per_thread - 1);
        }
    }

    #[test]
    fn merge_while_recording_is_a_valid_prefix() {
        // A merge taken concurrently with recorders must see some prefix
        // of the samples: count <= final, and a later merge sees them all.
        let h = Arc::new(ShardedHistogram::new());
        let writer = {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                for i in 0..50_000u64 {
                    h.record_ps(i % 97);
                }
            })
        };
        let mid = h.merge();
        assert!(mid.count() <= 50_000);
        writer.join().unwrap();
        assert_eq!(h.merge().count(), 50_000);
    }

    #[test]
    fn registry_validates_names() {
        let reg = Registry::new();
        assert!(reg.counter("clme_ok_total", "h", &[]).is_ok());
        assert!(matches!(
            reg.counter("0bad", "h", &[]),
            Err(MetricsError::InvalidMetricName(_))
        ));
        assert!(matches!(
            reg.counter("bad name", "h", &[]),
            Err(MetricsError::InvalidMetricName(_))
        ));
        assert!(matches!(
            reg.counter("bad\nname", "h", &[]),
            Err(MetricsError::InvalidMetricName(_))
        ));
        assert!(matches!(
            reg.gauge("ok", "h", &[("0bad", "v")]),
            Err(MetricsError::InvalidLabelName(_))
        ));
        assert!(matches!(
            reg.gauge("ok", "h", &[("__reserved", "v")]),
            Err(MetricsError::InvalidLabelName(_))
        ));
        assert!(matches!(
            reg.gauge("ok", "h", &[("label\"quote", "v")]),
            Err(MetricsError::InvalidLabelName(_))
        ));
        // Hostile label *values* are fine at registration: the exposition
        // writer escapes them.
        assert!(reg
            .counter("ok_total", "h", &[("shard", "a\"b\\c\nd")])
            .is_ok());
    }

    #[test]
    fn registry_rejects_duplicates_and_kind_mismatch() {
        let reg = Registry::new();
        reg.counter("dup_total", "h", &[("shard", "0")]).unwrap();
        // Same family, different labels: fine.
        assert!(reg.counter("dup_total", "h", &[("shard", "1")]).is_ok());
        assert!(matches!(
            reg.counter("dup_total", "h", &[("shard", "0")]),
            Err(MetricsError::DuplicateMetric(_))
        ));
        assert!(matches!(
            reg.gauge("dup_total", "h", &[("shard", "2")]),
            Err(MetricsError::KindMismatch(_))
        ));
    }

    #[test]
    fn snapshot_reads_live_values() {
        let reg = Registry::new();
        let c = reg.counter("snap_total", "h", &[]).unwrap();
        let g = reg.gauge("snap_level", "h", &[]).unwrap();
        let h = reg.histogram("snap_ps", "h", &[]).unwrap();
        c.add(3);
        g.set(9);
        h.record_ps(64);
        let samples = reg.snapshot();
        assert_eq!(samples.len(), 3);
        match &samples[0].value {
            SampleValue::Counter(v) => assert_eq!(*v, 3),
            other => panic!("expected counter, got {other:?}"),
        }
        match &samples[1].value {
            SampleValue::Gauge(v) => assert_eq!(*v, 9),
            other => panic!("expected gauge, got {other:?}"),
        }
        match &samples[2].value {
            SampleValue::Histogram(hist) => assert_eq!(hist.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn record_duration_widens_to_picos() {
        let h = ShardedHistogram::new();
        h.record_duration(Duration::from_nanos(5));
        assert_eq!(h.merge().max_ps(), 5000);
    }
}
