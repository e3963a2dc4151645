//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! Nothing here reaches inside a library: a layer call is timed around
//! the public `batch_read`/`batch_write` call, the store below it
//! through [`TimedStore`], a `StoreBackend` wrapper, and the simulator
//! around `Machine::new`, `functional_warmup` and `run`. Spans live in
//! per-thread memory and are written out once, at the end of the run.

use clme_mem::{MemError, StoreBackend, StoreMetrics, StoredWord};
use std::cell::RefCell;
use std::time::Instant;

/// Spans written to the trace file; the totals stay exact beyond it.
const MAX_WRITTEN_SPANS: usize = 50_000;

/// Layer calls per thread whose individual store calls are kept as
/// child spans (later calls fold their store time into totals only).
const DETAILED_CALLS: u64 = 200;

/// One recorded interval, in nanoseconds since the run's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Operation id (shared by an op span and its children).
    pub op: u64,
    /// Whether this is a child span of `op` rather than the op itself.
    pub child: bool,
    /// Span name.
    pub name: &'static str,
    /// Client thread index.
    pub tid: usize,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// Store-call totals of one thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreTally {
    /// Nanoseconds inside `read_word`.
    pub read_ns: u64,
    /// `read_word` calls.
    pub reads: u64,
    /// Nanoseconds inside `write_word`.
    pub write_ns: u64,
    /// `write_word` calls.
    pub writes: u64,
}

impl StoreTally {
    fn ns(&self) -> u64 {
        self.read_ns + self.write_ns
    }

    fn add(&mut self, other: &StoreTally) {
        self.read_ns += other.read_ns;
        self.reads += other.reads;
        self.write_ns += other.write_ns;
        self.writes += other.writes;
    }
}

#[derive(Default)]
struct StoreThread {
    tally: StoreTally,
    /// Child spans of the current layer call, kept only while set.
    detail: Option<Vec<(&'static str, u64, u64)>>,
}

thread_local! {
    static STORE: RefCell<StoreThread> = RefCell::new(StoreThread::default());
}

/// A [`StoreBackend`] that times every word access on the calling
/// thread. It forwards `store_metrics`, `kind` and `write_generation`:
/// without the generation the layer would silently switch its
/// verified-page cache off.
pub struct TimedStore<B> {
    inner: B,
    epoch: Instant,
}

impl<B: StoreBackend> TimedStore<B> {
    /// Wraps `inner`, stamping spans relative to `epoch`.
    pub fn new(inner: B, epoch: Instant) -> TimedStore<B> {
        TimedStore { inner, epoch }
    }

    fn note(&self, write: bool, t0: Instant, t1: Instant) {
        let ns = t1.duration_since(t0).as_nanos() as u64;
        STORE.with(|s| {
            let mut s = s.borrow_mut();
            if write {
                s.tally.write_ns += ns;
                s.tally.writes += 1;
            } else {
                s.tally.read_ns += ns;
                s.tally.reads += 1;
            }
            if let Some(detail) = &mut s.detail {
                let name = if write {
                    "store.write_word"
                } else {
                    "store.read_word"
                };
                detail.push((name, since(self.epoch, t0), since(self.epoch, t1)));
            }
        });
    }
}

impl<B: StoreBackend> StoreBackend for TimedStore<B> {
    fn words(&self) -> u64 {
        self.inner.words()
    }

    fn read_word(&self, index: u64) -> Result<StoredWord, MemError> {
        let t0 = Instant::now();
        let word = self.inner.read_word(index);
        self.note(false, t0, Instant::now());
        word
    }

    fn write_word(&self, index: u64, word: &StoredWord) -> Result<(), MemError> {
        let t0 = Instant::now();
        let done = self.inner.write_word(index, word);
        self.note(true, t0, Instant::now());
        done
    }

    fn store_metrics(&self) -> Option<&StoreMetrics> {
        self.inner.store_metrics()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn write_generation(&self) -> Option<u64> {
        self.inner.write_generation()
    }
}

/// Nanoseconds from `epoch` to `t`.
fn since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// One client thread's spans and time accounting.
pub struct ThreadTrace {
    epoch: Instant,
    tid: usize,
    next_op: u64,
    /// Every op span plus the detailed children.
    pub spans: Vec<Span>,
    /// Time inside layer (or simulator) calls.
    pub call_ns: u64,
    /// Part of `call_ns` spent in child spans (store calls, sim phases).
    pub child_ns: u64,
    /// Time generating inputs and checking outputs between calls.
    pub driver_ns: u64,
    /// Wall time of the thread's timed phase.
    pub wall_ns: u64,
    /// Store-call totals accumulated over this thread's calls.
    pub store: StoreTally,
}

impl ThreadTrace {
    /// A fresh trace for client `tid`.
    pub fn new(epoch: Instant, tid: usize) -> ThreadTrace {
        ThreadTrace {
            epoch,
            tid,
            next_op: (tid as u64) << 40,
            spans: Vec::new(),
            call_ns: 0,
            child_ns: 0,
            driver_ns: 0,
            wall_ns: 0,
            store: StoreTally::default(),
        }
    }

    /// Starts a layer call: resets this thread's store tally and, for
    /// the first calls, arms child-span recording. Returns the op id.
    pub fn begin_call(&mut self) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        let detailed = (op & ((1 << 40) - 1)) < DETAILED_CALLS;
        STORE.with(|s| {
            let mut s = s.borrow_mut();
            s.tally = StoreTally::default();
            s.detail = detailed.then(Vec::new);
        });
        op
    }

    /// Ends a layer call started by [`begin_call`](Self::begin_call):
    /// records its span and folds in the store calls it made.
    pub fn end_call(&mut self, op: u64, name: &'static str, t0: Instant, t1: Instant) {
        let (tally, detail) = STORE.with(|s| {
            let mut s = s.borrow_mut();
            (std::mem::take(&mut s.tally), s.detail.take())
        });
        self.store.add(&tally);
        self.child_ns += tally.ns();
        for (child, start, end) in detail.unwrap_or_default() {
            self.push(op, true, child, start, end);
        }
        self.call_ns += t1.duration_since(t0).as_nanos() as u64;
        self.push(
            op,
            false,
            name,
            since(self.epoch, t0),
            since(self.epoch, t1),
        );
    }

    /// Records a simulator op span (`name`) whose phases the caller
    /// reports through [`child`](Self::child).
    pub fn op(&mut self, name: &'static str, t0: Instant, t1: Instant) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        self.call_ns += t1.duration_since(t0).as_nanos() as u64;
        self.push(
            op,
            false,
            name,
            since(self.epoch, t0),
            since(self.epoch, t1),
        );
        op
    }

    /// Records a child span of `op` that lies inside the op's interval.
    pub fn child(&mut self, op: u64, name: &'static str, t0: Instant, t1: Instant) {
        self.child_ns += t1.duration_since(t0).as_nanos() as u64;
        self.push(op, true, name, since(self.epoch, t0), since(self.epoch, t1));
    }

    fn push(&mut self, op: u64, child: bool, name: &'static str, start: u64, end: u64) {
        self.spans.push(Span {
            op,
            child,
            name,
            tid: self.tid,
            start,
            end,
        });
    }
}

/// Time accounting summed over all client threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct Accounting {
    /// Summed thread wall time of the timed phase.
    pub wall_ns: u64,
    /// Time inside layer calls.
    pub call_ns: u64,
    /// Part of `call_ns` in child spans.
    pub child_ns: u64,
    /// Driver time between calls.
    pub driver_ns: u64,
    /// Layer (or simulator) calls.
    pub calls: u64,
    /// Store totals.
    pub store: StoreTally,
}

impl Accounting {
    /// Sums the threads' totals.
    pub fn of(traces: &[ThreadTrace]) -> Accounting {
        let mut acc = Accounting::default();
        for t in traces {
            acc.wall_ns += t.wall_ns;
            acc.call_ns += t.call_ns;
            acc.child_ns += t.child_ns;
            acc.driver_ns += t.driver_ns;
            acc.calls += t.spans.iter().filter(|s| !s.child).count() as u64;
            acc.store.add(&t.store);
        }
        acc
    }

    /// Wall time not covered by calls or driver work, as a share of wall.
    pub fn unexplained_frac(&self) -> f64 {
        let explained = self.call_ns + self.driver_ns;
        crate::stats::ratio(self.wall_ns as f64 - explained as f64, self.wall_ns as f64)
    }
}

/// Where a traced run of `workload` writes its spans.
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(crate::SCRATCH_DIR).join(format!("trace-{workload}.json"))
}

/// Writes the spans as Chrome `trace_event` JSON (loadable in Perfetto),
/// at most [`MAX_WRITTEN_SPANS`] of them, earliest first.
pub fn write_chrome(path: &std::path::Path, traces: &[ThreadTrace]) -> std::io::Result<()> {
    let mut spans: Vec<&Span> = traces.iter().flat_map(|t| t.spans.iter()).collect();
    spans.sort_by_key(|s| (s.start, s.child));
    let dropped = spans.len().saturating_sub(MAX_WRITTEN_SPANS);
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().take(MAX_WRITTEN_SPANS).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"op\":{},\"child\":{}}}}}",
            s.name,
            s.tid,
            s.start as f64 / 1000.0,
            (s.end - s.start) as f64 / 1000.0,
            s.op,
            s.child
        ));
    }
    out.push_str(&format!("\n],\"droppedSpans\":{dropped}}}\n"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clme_mem::VecBackend;

    #[test]
    fn timed_store_forwards_everything_the_layer_relies_on() {
        let store = TimedStore::new(VecBackend::new(8), Instant::now());
        assert_eq!(store.kind(), "vec");
        assert_eq!(store.write_generation(), Some(0));
        store.write_word(1, &[7u8; clme_mem::WORD_BYTES]).unwrap();
        assert_eq!(store.write_generation(), Some(1));
        assert!(store.store_metrics().is_some());
        assert_eq!(store.words(), 8);
    }

    #[test]
    fn call_spans_fold_in_their_store_children() {
        let epoch = Instant::now();
        let store = TimedStore::new(VecBackend::new(8), epoch);
        let mut trace = ThreadTrace::new(epoch, 0);
        let op = trace.begin_call();
        let t0 = Instant::now();
        store.read_word(0).unwrap();
        store.write_word(1, &[1u8; clme_mem::WORD_BYTES]).unwrap();
        trace.end_call(op, "layer.batch_read", t0, Instant::now());
        assert_eq!(trace.store.reads, 1);
        assert_eq!(trace.store.writes, 1);
        assert!(trace.call_ns >= trace.child_ns);
        let children: Vec<_> = trace.spans.iter().filter(|s| s.child).collect();
        assert_eq!(children.len(), 2, "detailed calls keep their store spans");
        assert!(children.iter().all(|s| s.op == op));
        let acc = Accounting::of(&[trace]);
        assert_eq!(acc.calls, 1);
    }
}
