//! The one observation path of the encryption layer.
//!
//! The data path fills one [`Visit`] per read page visit and one per
//! write batch — op, page, block count, cache outcome, the sampled flag,
//! stage and lock nanoseconds, and the counterless, page-roll and
//! ciphertext-write counts — and hands it to the layer's [`Observer`].
//! The observer makes the visit's single sampling decision (in
//! [`Observer::begin`]) and fans the finished record out to
//! [`MemMetrics`], the installed [`TenantTelemetry`], the flight ring
//! and the span tracer. A handful of events are not visits and have
//! their own calls: batch completion, integrity failures, cache purges,
//! the rekey sweep and the tenant driver's batch record.
//!
//! Exhaustive and sampled parts of a visit:
//!
//! * every visit feeds the counters (the tree-walk hop counts among
//!   them), the cache and ciphertext observation tables, the read tree
//!   walk (per miss), the write tree walk and commit (per batch), the
//!   page-roll MAC verify and the write-side flight events, and every
//!   successful batch call its batch latency and, for reads, each
//!   block's share of it as the read op latency;
//! * a sampled visit — every [`WRITE_SAMPLE_EVERY`]-th write batch and
//!   every [`READ_SAMPLE_EVERY`]-th read page visit on a thread — also
//!   takes per-block clock marks and records lock wait and hold, the
//!   fan-in histogram, the per-block stage histograms (read MAC verify
//!   and pad generation, write pad generation), write op latency, the
//!   read-page and read-hit flight events, and the tenant blame sample.
//!
//! Under the `telemetry-off` feature the observer is a twin that keeps
//! only the opt-in span tracer: nothing is sampled, nothing is recorded,
//! and the data path reads the clock only while a tracer is installed.

use crate::error::IntegrityError;
use crate::metrics::{CacheCause, MemOp};
use crate::tenant::{TailCause, VisitSegments};
use clme_obs::span::{SpanKind, SpanTracer};
use clme_obs::TraceSink;
use clme_types::Time;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One write batch in this many per thread is a sampled visit.
pub const WRITE_SAMPLE_EVERY: u64 = 8;

/// One read page visit in this many per thread is a sampled visit. A
/// cache-served read visit finishes in a few hundred nanoseconds, so
/// the read side samples eight times more rarely than the write side.
pub const READ_SAMPLE_EVERY: u64 = 64;

/// How the verified-page cache served a read visit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum CacheServe {
    /// Every block came from the cache.
    Hit,
    /// The cached counter block was reused; some blocks were fetched.
    Partial,
    /// Nothing cached: the full verification chain ran.
    Miss,
    /// The cache is disabled.
    #[default]
    Bypass,
}

/// Where a visit's tree-walk hops were answered.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TreeHops {
    /// Hops answered by an already trusted node.
    pub trusted: u64,
    /// Hops that read a node word and checked its MAC.
    pub verified: u64,
}

/// One page's share of a write batch.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PageTally {
    pub page: u64,
    /// Blocks committed to the page.
    pub blocks: u64,
    /// Ciphertext writes that landed on the page (page-roll
    /// re-encryptions included).
    pub observed: u64,
    /// Page rolls.
    pub rolls: u64,
}

/// The observation record of one read page visit or one write batch.
#[derive(Debug, Default)]
#[cfg_attr(feature = "telemetry-off", allow(dead_code))]
pub(crate) struct Visit {
    pub op: MemOp,
    /// The visited page; a write batch's first page (a composed tenant
    /// batch stays inside one tenant's pages).
    pub page: u64,
    /// Blocks the visit asked for.
    pub blocks: u64,
    /// Whether this visit carries the sampled probes.
    pub sampled: bool,
    /// Whether the exhaustive per-visit clock marks are taken.
    pub timed: bool,
    /// Reads: how the cache served the visit.
    pub serve: CacheServe,
    /// Measured nanoseconds by [`TailCause`]. Tree walk, commit and the
    /// page-roll MAC verify are measured on every visit; the rest only
    /// on sampled ones.
    pub stage_ns: VisitSegments,
    /// Sampled: `(shard, wait ns)` per shard lock taken.
    pub locks: Vec<(usize, u64)>,
    /// Sampled: how long the shard locks were held.
    pub hold_ns: u64,
    /// Sampled: lock request to release.
    pub total_ns: u64,
    /// Whether the visit walked the tree (reads: misses only).
    pub tree_walked: bool,
    /// The tree walk's hops.
    pub hops: TreeHops,
    /// Reads: blocks served from the cache.
    pub hits: u64,
    /// Reads: blocks fetched from the store.
    pub fetched: u64,
    /// Writes: the interval spent encrypting and storing the blocks.
    pub data_ns: u64,
    /// Blocks read or written in counterless (XTS) mode.
    pub counterless: u64,
    /// Reads: the cache took a new entry, displacing a resident one.
    pub filled: bool,
    pub evicted: bool,
    /// Writes: cache entries the batch invalidated.
    pub invalidated: u64,
    /// Writes: per-page tallies, batch page order.
    pub pages: Vec<PageTally>,
}

impl Visit {
    fn new(op: MemOp, page: u64, blocks: u64, sampled: bool, timed: bool) -> Visit {
        Visit {
            op,
            page,
            blocks,
            sampled,
            timed,
            ..Visit::default()
        }
    }

    /// A clock mark for the exhaustive per-visit probes (`None` when
    /// the visit is untimed).
    #[inline]
    pub fn now(&self) -> Option<Instant> {
        self.timed.then(Instant::now)
    }

    /// Adds `from..to` to the `cause` segment.
    #[inline]
    pub fn add(&mut self, cause: TailCause, from: Option<Instant>, to: Option<Instant>) {
        self.stage_ns[cause as usize] += ns_between(from, to);
    }

    /// Sampled: the visit releases its shard locks now, so they were held
    /// since `held` and requested at `wait0`.
    #[inline]
    pub fn release(&mut self, wait0: Option<Instant>, held: Option<Instant>) {
        if self.sampled {
            let end = Some(Instant::now());
            self.hold_ns = ns_between(held, end);
            self.total_ns = ns_between(wait0, end);
        }
    }

    /// Folds one fetched block's marks into the sampled stage segments.
    pub fn add_marks(&mut self, m: &ReadMarks) {
        let iv = |(a, b): (Instant, Instant)| b.saturating_duration_since(a).as_nanos() as u64;
        // ECC decode rides the store segment: it is part of turning the
        // fetched word into usable bytes.
        self.stage_ns[TailCause::Store as usize] += iv(m.data) + iv(m.ecc);
        self.stage_ns[TailCause::Mac as usize] += iv(m.mac);
        if let Some(x) = m.xts {
            self.stage_ns[TailCause::Pad as usize] += iv(x);
        }
    }
}

/// Nanoseconds from `from` to `to`; zero when either mark is absent.
#[inline]
pub(crate) fn ns_between(from: Option<Instant>, to: Option<Instant>) -> u64 {
    match (from, to) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_nanos() as u64,
        _ => 0,
    }
}

/// Host-clock marks of one fetched block, taken on sampled visits and
/// while a tracer is installed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReadMarks {
    pub issue: Instant,
    /// The page's batched pad pass (counter mode only) — the overlap
    /// the paper's scheme exists to exploit.
    pub pad: Option<(Instant, Instant)>,
    pub data: (Instant, Instant),
    pub ecc: (Instant, Instant),
    pub mac: (Instant, Instant),
    /// Post-data XTS decrypt (counterless only).
    pub xts: Option<(Instant, Instant)>,
    pub ready: Instant,
}

/// The opt-in span tracer, kept by both observer builds.
pub(crate) struct Spans {
    tracer: Mutex<Option<SpanTracer>>,
    tracing: AtomicBool,
    epoch: Instant,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            tracer: Mutex::new(None),
            tracing: AtomicBool::new(false),
            epoch: Instant::now(),
        }
    }

    /// Whether a tracer is installed.
    #[inline]
    pub fn on(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    pub fn install(&self, tracer: SpanTracer) {
        *self.tracer.lock().unwrap_or_else(PoisonError::into_inner) = Some(tracer);
        self.tracing.store(true, Ordering::SeqCst);
    }

    pub fn take(&self) -> Option<SpanTracer> {
        self.tracing.store(false, Ordering::SeqCst);
        self.tracer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    fn t(&self, at: Instant) -> Time {
        let ns = at.saturating_duration_since(self.epoch).as_nanos() as u64;
        Time::from_picos(ns.saturating_mul(1000))
    }

    /// Replays a page visit's fetched reads. The page's metadata verify
    /// is the counter fetch: the first request carries its real
    /// interval, later ones a point span (they hit the just-verified
    /// page, like a counter-cache hit).
    pub fn reads(&self, meta: (Instant, Instant), requests: &[(u64, ReadMarks)]) {
        let mut guard = self.tracer.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(tracer) = guard.as_mut() else {
            return;
        };
        for (i, (addr, m)) in requests.iter().enumerate() {
            let (issue, c0, c1) = if i == 0 {
                (meta.0, meta.0, meta.1)
            } else {
                (m.issue, m.issue, m.issue)
            };
            tracer.span_request_begin(self.t(issue), *addr);
            tracer.span_child(SpanKind::CounterFetch, 0, self.t(c0), self.t(c1));
            if let Some((p0, p1)) = m.pad {
                tracer.span_child(SpanKind::PadAes, 0, self.t(p0), self.t(p1));
            }
            tracer.span_child(SpanKind::DataDram, 0, self.t(m.data.0), self.t(m.data.1));
            tracer.span_child(SpanKind::EccDecode, 0, self.t(m.ecc.0), self.t(m.ecc.1));
            tracer.span_child(SpanKind::MacFetch, 0, self.t(m.mac.0), self.t(m.mac.1));
            if let Some((x0, x1)) = m.xts {
                tracer.span_child(SpanKind::PadAes, 0, self.t(x0), self.t(x1));
            }
            tracer.span_request_end(self.t(m.data.1), self.t(m.ready));
        }
    }

    /// Replays cache-hit reads: a begin at lookup time, a *point*
    /// counter fetch (the verified image was already resident), the
    /// copy interval as the DRAM child, and **no MAC child** — a hit
    /// re-verifies nothing, which is exactly what span blame should
    /// show (DRAM-bound, not MAC-bound).
    pub fn hits(&self, t0: Instant, t1: Instant, addrs: &[u64]) {
        let mut guard = self.tracer.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(tracer) = guard.as_mut() else {
            return;
        };
        for &addr in addrs {
            tracer.span_request_begin(self.t(t0), addr);
            tracer.span_child(SpanKind::CounterFetch, 0, self.t(t0), self.t(t0));
            tracer.span_child(SpanKind::DataDram, 0, self.t(t0), self.t(t1));
            tracer.span_request_end(self.t(t1), self.t(t1));
        }
    }
}

#[cfg(not(feature = "telemetry-off"))]
mod sink {
    use super::*;
    use crate::flight::{FlightRecorder, BURST_FLOOR};
    use crate::metrics::{MemMetrics, MemStage};
    use crate::tenant::{TenantServe, TenantTelemetry};
    use clme_obs::flight::FlightSnapshot;
    use std::sync::Arc;
    use std::time::Duration;

    thread_local! {
        /// Per-thread visit ticks.
        static WRITE_TICK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        static READ_TICK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// The single sink of every observation the layer makes.
    pub(crate) struct Observer {
        pub spans: Spans,
        metrics: MemMetrics,
        flight: FlightRecorder,
        tenants: Option<Arc<TenantTelemetry>>,
    }

    impl Observer {
        pub fn new(shards: usize, pages: u64, flight_capacity: usize) -> Observer {
            Observer {
                spans: Spans::new(),
                metrics: MemMetrics::new(shards, pages),
                flight: FlightRecorder::new(flight_capacity),
                tenants: None,
            }
        }

        /// Opens the record of one visit and makes its sampling
        /// decision: the first visit of each kind on a thread, then
        /// every [`WRITE_SAMPLE_EVERY`]-th write batch or
        /// [`READ_SAMPLE_EVERY`]-th read page visit.
        #[inline]
        pub fn begin(&self, op: MemOp, page: u64, blocks: u64) -> Visit {
            let (tick, every) = match op {
                MemOp::Read => (&READ_TICK, READ_SAMPLE_EVERY),
                _ => (&WRITE_TICK, WRITE_SAMPLE_EVERY),
            };
            let sampled = tick.with(|tick| {
                let t = tick.get();
                tick.set(t.wrapping_add(1));
                t % every == 0
            });
            Visit::new(op, page, blocks, sampled, true)
        }

        /// A clock mark for per-call probes.
        #[inline]
        pub fn now(&self) -> Option<Instant> {
            Some(Instant::now())
        }

        /// Fans one finished visit out to every consumer.
        pub fn visit(&self, v: &Visit) {
            let m = &self.metrics;
            let d = |ns: u64| Duration::from_nanos(ns);
            let seg = |c: TailCause| v.stage_ns[c as usize];
            let per = |ns: u64, n: u64| d(ns / n.max(1));
            // A stage measured once for `n` blocks: each block's share.
            let shared = |op: MemOp, stage: MemStage, cause: TailCause, n: u64| {
                m.stage_duration_n(op, stage, per(seg(cause), n), n)
            };
            m.tree_hops(v.hops.trusted, v.hops.verified);
            if v.op == MemOp::Read {
                let served = match v.serve {
                    CacheServe::Hit => {
                        m.cache_hit();
                        TenantServe::Hit
                    }
                    CacheServe::Partial => {
                        m.cache_partial_hit();
                        TenantServe::Partial
                    }
                    CacheServe::Miss => {
                        m.cache_miss();
                        TenantServe::Miss
                    }
                    // Tenant tables fold bypasses in with misses: either
                    // way the full verification chain ran.
                    CacheServe::Bypass => {
                        m.cache_bypass();
                        TenantServe::Miss
                    }
                };
                if let Some(t) = &self.tenants {
                    t.page_served(v.page, served);
                }
                if v.tree_walked {
                    m.stage_duration(MemOp::Read, MemStage::TreeWalk, d(seg(TailCause::TreeWalk)));
                }
                if v.counterless > 0 {
                    m.counterless_reads(v.counterless);
                }
                if v.filled {
                    m.cache_fill();
                }
                if v.evicted {
                    m.cache_evict();
                }
                if v.sampled {
                    m.fanin_read(v.blocks);
                    shared(MemOp::Read, MemStage::MacVerify, TailCause::Mac, v.fetched);
                    shared(MemOp::Read, MemStage::PadGen, TailCause::Pad, v.fetched);
                    if v.serve == CacheServe::Hit {
                        self.flight.read_hit(v.page, v.blocks);
                    } else {
                        self.flight.read_page(v.page, v.blocks);
                        if v.hits > 0 {
                            self.flight.read_hit(v.page, v.hits);
                        }
                    }
                }
            } else {
                if v.counterless > 0 {
                    m.counterless_writes(v.counterless);
                }
                if v.invalidated > 0 {
                    m.cache_invalidated(CacheCause::Write, v.invalidated);
                }
                m.stage_duration(
                    MemOp::Write,
                    MemStage::TreeWalk,
                    d(seg(TailCause::TreeWalk)),
                );
                m.stage_duration(MemOp::Write, MemStage::Commit, d(seg(TailCause::Commit)));
                let rolls: u64 = v.pages.iter().map(|p| p.rolls).sum();
                if rolls > 0 {
                    m.page_rolls(rolls);
                }
                shared(MemOp::Write, MemStage::MacVerify, TailCause::Mac, rolls);
                for p in &v.pages {
                    for _ in 0..p.rolls {
                        self.flight.page_roll(p.page);
                    }
                    self.ciphertext_writes(p.page, p.observed);
                    if let Some(t) = &self.tenants {
                        t.ciphertext_writes(p.page, p.observed);
                    }
                    if p.blocks > 0 {
                        self.flight.write_page(p.page, p.blocks);
                    }
                    if v.sampled {
                        m.fanin_write(p.blocks);
                    }
                }
                if v.sampled {
                    let n = v.pages.iter().map(|p| p.blocks).sum();
                    m.op_duration_n(MemOp::Write, per(v.data_ns, n), n);
                    shared(MemOp::Write, MemStage::PadGen, TailCause::Pad, n);
                }
            }
            if v.sampled {
                for &(shard, wait) in &v.locks {
                    m.lock_wait(shard, d(wait));
                    m.lock_hold(shard, d(v.hold_ns));
                    self.flight.lock_wait(shard, wait);
                }
                if let Some(t) = &self.tenants {
                    t.visit_sample(v.page, v.total_ns, &v.stage_ns);
                }
            }
        }

        /// `n` ciphertexts landed on `page`: counted, and flagged as a
        /// burst at each power of two crossed.
        fn ciphertext_writes(&self, page: u64, n: u64) {
            if n == 0 {
                return;
            }
            let after = self.metrics.observe_ciphertext_writes(page, n);
            if after > 0 {
                let mut p = BURST_FLOOR.max((after - n + 1).next_power_of_two());
                while p <= after {
                    self.flight.ciphertext_write(page, p);
                    p *= 2;
                }
            }
        }

        /// A batch call of `blocks` blocks succeeded after `since`. Each
        /// read block's latency is its share of the call: one weighted
        /// record keeps the read latency count exhaustive without a
        /// clock read per page visit.
        pub fn batch(&self, write: bool, blocks: u64, since: Option<Instant>) {
            if write {
                self.metrics.note_write_batch(blocks);
            } else {
                self.metrics.note_read_batch(blocks);
            }
            if let Some(t0) = since {
                let elapsed = t0.elapsed();
                self.metrics.op_duration(MemOp::Batch, elapsed);
                if !write && blocks > 0 {
                    let share = Duration::from_nanos((elapsed.as_nanos() / blocks as u128) as u64);
                    self.metrics.op_duration_n(MemOp::Read, share, blocks);
                }
            }
        }

        pub fn integrity_error(&self, e: &IntegrityError) {
            self.metrics.integrity_error();
            self.flight.integrity_fail(e.addr, e.class);
        }

        pub fn cache_purge(&self, cause: CacheCause, dropped: u64) {
            self.metrics.cache_invalidated(cause, dropped);
            self.flight.cache_purge(cause, dropped);
        }

        pub fn rekey_begin(&self, pages: u64) {
            self.metrics.rekey_begin(pages);
            self.flight.rekey_begin(pages);
        }

        /// A rekey sweep waited `wait` for shard `shard`.
        pub fn rekey_lock(&self, shard: usize, wait: Duration) {
            self.metrics.lock_wait(shard, wait);
            self.flight.lock_wait(shard, wait.as_nanos() as u64);
        }

        /// A rekey sweep re-encrypted `blocks` blocks of `page`. The
        /// tenant columns count caller traffic only, so the sweep's
        /// writes are not attributed.
        pub fn rekey_page(&self, page: u64, blocks: u64) {
            self.ciphertext_writes(page, blocks);
            self.metrics.rekey_page_done();
            self.flight.rekey_page(page);
        }

        /// A rekey sweep completed, holding all `shards` locks for
        /// `hold`. Every per-tenant key-exposure gauge resets: whatever
        /// an observer collected was written under the retired key.
        pub fn rekey_swept(&self, shards: usize, hold: Duration) {
            for shard in 0..shards {
                self.metrics.lock_hold(shard, hold);
            }
            if let Some(t) = &self.tenants {
                t.on_rekey();
            }
        }

        pub fn rekey_end(&self, ok: bool) {
            self.metrics.rekey_end(ok);
            self.flight.rekey_end(ok);
        }

        /// A multi-tenant driver finished one batch for `tenant`.
        pub fn tenant_batch(&self, tenant: u64, write: bool, latency_ns: u64, blocks: u64) {
            if let Some(t) = &self.tenants {
                t.record_op(tenant, write, latency_ns, blocks);
            }
            self.flight.tenant_batch(tenant, blocks, write);
        }

        pub fn install_tenants(&mut self, tenants: Arc<TenantTelemetry>) {
            self.tenants = Some(tenants);
        }

        pub fn tenants(&self) -> Option<&Arc<TenantTelemetry>> {
            self.tenants.as_ref()
        }

        /// The live metrics with their derived gauges refreshed — the
        /// one place both the snapshot and the scrape read from.
        pub fn metrics(&self, cache_resident: Option<u64>) -> Option<&MemMetrics> {
            if let Some(pages) = cache_resident {
                self.metrics.set_cache_resident(pages);
            }
            Some(&self.metrics)
        }

        pub fn flight_snapshot(&self) -> FlightSnapshot {
            self.flight.snapshot()
        }
    }
}

#[cfg(feature = "telemetry-off")]
mod sink {
    use super::*;
    use crate::metrics::MemMetrics;
    use crate::tenant::TenantTelemetry;
    use clme_obs::flight::FlightSnapshot;
    use std::sync::Arc;
    use std::time::Duration;

    /// The telemetry-off twin: only the span tracer survives, no visit
    /// is sampled, and visits are timed only while a tracer is
    /// installed.
    pub(crate) struct Observer {
        pub spans: Spans,
    }

    impl Observer {
        pub fn new(_shards: usize, _pages: u64, _flight_capacity: usize) -> Observer {
            Observer {
                spans: Spans::new(),
            }
        }

        #[inline(always)]
        pub fn begin(&self, op: MemOp, page: u64, blocks: u64) -> Visit {
            Visit::new(op, page, blocks, false, self.spans.on())
        }

        #[inline(always)]
        pub fn now(&self) -> Option<Instant> {
            None
        }

        #[inline(always)]
        pub fn visit(&self, _v: &Visit) {}
        #[inline(always)]
        pub fn batch(&self, _write: bool, _blocks: u64, _since: Option<Instant>) {}
        pub fn integrity_error(&self, _e: &IntegrityError) {}
        pub fn cache_purge(&self, _cause: CacheCause, _dropped: u64) {}
        pub fn rekey_begin(&self, _pages: u64) {}
        pub fn rekey_lock(&self, _shard: usize, _wait: Duration) {}
        pub fn rekey_page(&self, _page: u64, _blocks: u64) {}
        pub fn rekey_swept(&self, _shards: usize, _hold: Duration) {}
        pub fn rekey_end(&self, _ok: bool) {}
        pub fn tenant_batch(&self, _tenant: u64, _write: bool, _latency_ns: u64, _blocks: u64) {}
        pub fn install_tenants(&mut self, _tenants: Arc<TenantTelemetry>) {}
        pub fn tenants(&self) -> Option<&Arc<TenantTelemetry>> {
            None
        }
        pub fn metrics(&self, _cache_resident: Option<u64>) -> Option<&MemMetrics> {
            None
        }
        pub fn flight_snapshot(&self) -> FlightSnapshot {
            FlightSnapshot::default()
        }
    }
}

pub(crate) use sink::Observer;
