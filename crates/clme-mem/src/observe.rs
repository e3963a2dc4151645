//! The one observation path of the encryption layer.
//!
//! The unit of observation is the batch call. Each `batch_read` and
//! `batch_write` call fills one [`Visit`] and hands it to the layer's
//! [`Observer`], which folds it into [`MemMetrics`] once, when the call
//! ends. The observer is the only writer of the metric handles and of
//! the flight ring it owns: each of its methods is the one place where
//! its event's counters, gauges, histograms, flight payload and
//! threshold ([`SLOW_LOCK_NS`], [`BURST_FLOOR`], [`REKEY_FLIGHT_EVERY`])
//! are written. Inside the call, each read page visit fills a
//! [`PageVisit`] (a write batch is one visit, charged to its first page)
//! and adds its counts to the call's record as plain integers: cache
//! outcome, tree hops, counterless blocks, fills, evictions and
//! invalidations. The per-page tenant hooks and the write-side flight
//! events stay per page.
//!
//! One rule covers every probe: **every count is exact, and the clock
//! is read only on a sampled call or while a span tracer is
//! installed.** [`Observer::begin`] makes the call's one sampling
//! decision, one call in [`SAMPLE_EVERY`] per thread and op kind. A
//! sampled call times every page visit inside it and records the batch
//! and per-block op latencies, the stage histograms, lock waits and
//! holds, fan-in, the read-page and read-hit flight events and the
//! tenant blame sample. An unsampled call reads no clock. Every clock
//! read in the crate goes through [`clock`], and every clock read on
//! the data path is guarded by the call's [`Visit::clocked`].
//!
//! Stage time is recorded where it is measured: each interval the
//! layer times goes into [`PageVisit::add`] under its [`MemStage`],
//! with the number of blocks it covered (one lock wait, walk or commit;
//! each fetched block's store read and MAC; a read page's batched pad
//! pass for all its pad requests). A sampled visit records every stage
//! that covered blocks as that many samples of its per-block share, and
//! the same nanoseconds feed the tenant blame tables. The block counts
//! feed only these sampled histograms, never a counter.
//!
//! Under the `telemetry-off` feature the observer is a twin that keeps
//! only the opt-in span tracer: nothing is sampled or recorded, and the
//! data path reads the clock only while a tracer is installed.

use crate::error::IntegrityError;
use crate::metrics::{CacheCause, MemOp, MemStage, MEM_STAGES};
use clme_obs::span::{SpanKind, SpanTracer};
use clme_obs::TraceSink;
use clme_types::Time;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One batch call in this many per thread and op kind is sampled.
pub const SAMPLE_EVERY: u64 = 256;

/// A shard-lock wait at or above this many nanoseconds becomes a
/// [`FlightKind::LockSlow`](crate::FlightKind::LockSlow) event. Normal
/// uncontended acquisitions are hundreds of nanoseconds; 100µs means a
/// page lock was genuinely queued behind a page roll or a rekey sweep.
pub const SLOW_LOCK_NS: u64 = 100_000;

/// A page's ciphertext-write observation count becomes a
/// [`FlightKind::WriteBurst`](crate::FlightKind::WriteBurst) event each
/// time it crosses a power of two at or above this floor (64, 128, 256,
/// ...). Count-based, not clock-based, so burst events are deterministic
/// — the CipherGuard observation that attacks manifest as per-page
/// write bursts.
pub const BURST_FLOOR: u64 = 64;

/// Every how many swept pages a rekey sweep records a
/// [`FlightKind::RekeyPage`](crate::FlightKind::RekeyPage) progress
/// event.
pub const REKEY_FLIGHT_EVERY: u64 = 64;

#[cfg(test)]
thread_local! {
    /// Clock reads on this thread, counted in test builds only.
    static CLOCK_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Reads the host clock. The crate's one clock read: test builds count
/// each read per thread ([`clock_reads`]).
#[inline]
pub(crate) fn clock() -> Instant {
    #[cfg(test)]
    CLOCK_READS.with(|n| n.set(n.get() + 1));
    Instant::now()
}

/// Clock reads this thread has made so far.
#[cfg(test)]
pub(crate) fn clock_reads() -> u64 {
    CLOCK_READS.with(std::cell::Cell::get)
}

/// How the verified-page cache served a read visit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum CacheServe {
    /// Every block came from the cache.
    Hit = 0,
    /// The cached counter block was reused; some blocks were fetched.
    Partial = 1,
    /// Nothing cached: the full verification chain ran.
    Miss = 2,
    /// The cache is disabled.
    #[default]
    Bypass = 3,
}

/// Where a walk's tree hops were answered.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TreeHops {
    /// Hops answered by an already trusted node.
    pub trusted: u64,
    /// Hops that read a node word and checked its MAC.
    pub verified: u64,
}

/// One page's share of a write batch.
#[derive(Clone, Copy, Debug, Default)]
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

/// The observation record of one batch call: exact counts summed over
/// its page visits, and its sampling decision.
#[derive(Debug, Default)]
#[cfg_attr(feature = "telemetry-off", allow(dead_code))]
pub(crate) struct Visit {
    pub op: MemOp,
    /// Blocks the call asked for.
    pub blocks: u64,
    /// Whether the call records the sampled probes.
    pub sampled: bool,
    /// Whether the call reads the clock: it is sampled, or a span
    /// tracer is installed. The one guard of every data-path clock read.
    pub clocked: bool,
    /// Sampled: when the call began.
    start: Option<Instant>,
    /// Reads: page visits by how the cache served them, indexed by
    /// [`CacheServe`].
    served: [u64; 4],
    /// The tree walks' hops.
    pub hops: TreeHops,
    /// Blocks read or written in counterless (XTS) mode.
    pub counterless: u64,
    /// Reads: cache entries inserted, and resident entries they displaced.
    pub fills: u64,
    pub evictions: u64,
    /// Writes: cache entries the batch invalidated.
    pub invalidated: u64,
    /// Writes: per-page tallies, batch page order.
    pub pages: Vec<PageTally>,
}

impl Visit {
    pub fn new(op: MemOp, blocks: u64, sampled: bool, clocked: bool) -> Visit {
        Visit {
            op,
            blocks,
            sampled,
            clocked,
            start: sampled.then(clock),
            ..Visit::default()
        }
    }
}

/// The timed part of one page visit: a read page visit, or a whole
/// write batch. Its segments are measured on clocked calls only.
#[derive(Debug, Default)]
#[cfg_attr(feature = "telemetry-off", allow(dead_code))]
pub(crate) struct PageVisit {
    /// The visited page; a write batch's first page (a composed tenant
    /// batch stays inside one tenant's pages).
    pub page: u64,
    /// Blocks the visit asked for.
    pub blocks: u64,
    /// Reads: how the cache served the visit.
    pub serve: CacheServe,
    /// Reads: blocks served from the cache.
    pub hits: u64,
    /// Measured nanoseconds per [`MemStage`], and the blocks each
    /// stage's measured intervals covered.
    pub stage_ns: [u64; MEM_STAGES],
    pub stage_blocks: [u64; MEM_STAGES],
    /// How long the shard locks were held, and lock request to release.
    pub hold_ns: u64,
    pub total_ns: u64,
    /// Writes: the interval spent encrypting and storing the blocks.
    pub data_ns: u64,
}

impl PageVisit {
    pub fn new(page: u64, blocks: u64) -> PageVisit {
        PageVisit {
            page,
            blocks,
            ..PageVisit::default()
        }
    }

    /// Adds the interval `from..to`, which covered `blocks` blocks, to
    /// `stage`. Only a clocked call has the marks, so only it counts.
    #[inline]
    pub fn add(
        &mut self,
        stage: MemStage,
        from: Option<Instant>,
        to: Option<Instant>,
        blocks: u64,
    ) {
        if let Some(iv) = from.zip(to) {
            self.add_iv(stage, iv, blocks);
        }
    }

    #[inline]
    fn add_iv(&mut self, stage: MemStage, (from, to): (Instant, Instant), blocks: u64) {
        self.stage_ns[stage as usize] += to.saturating_duration_since(from).as_nanos() as u64;
        self.stage_blocks[stage as usize] += blocks;
    }

    /// The visit released its shard locks at `end`: they were requested
    /// at `wait0` and held since `held`.
    #[inline]
    pub fn release(&mut self, wait0: Option<Instant>, held: Option<Instant>, end: Option<Instant>) {
        self.hold_ns = ns_between(held, end);
        self.total_ns = ns_between(wait0, end);
    }

    /// Folds one fetched block's marks into the stage segments.
    pub fn add_marks(&mut self, m: &ReadMarks) {
        self.add_iv(MemStage::Store, m.data, 1);
        // ECC decode rides the store segment: it is part of turning the
        // fetched word into usable bytes.
        self.add_iv(MemStage::Store, m.ecc, 0);
        self.add_iv(MemStage::MacVerify, m.mac, 1);
        if let Some(x) = m.xts {
            self.add_iv(MemStage::PadGen, x, 1);
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

/// Host-clock marks of one fetched block, taken on clocked calls.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReadMarks {
    /// The page's batched pad pass (counter mode only) — the overlap
    /// the paper's scheme exists to exploit.
    pub pad: Option<(Instant, Instant)>,
    /// The store read; the block's request is issued at its start.
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
            epoch: clock(),
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
                (m.data.0, m.data.0, m.data.0)
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
    use crate::flight::FlightKind;
    use crate::metrics::{MemMetrics, FANIN_SCALE};
    use crate::tenant::{TenantServe, TenantTelemetry};
    use clme_obs::flight::{FlightRing, FlightSnapshot};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::Duration;

    thread_local! {
        /// Per-thread call ticks, one per op kind, so that an
        /// alternating read/write stream samples both kinds.
        static WRITE_TICK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        static READ_TICK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// The single sink of every observation the layer makes, and the
    /// only writer of the layer's metric handles and flight ring: each
    /// method below is the one place its event is recorded.
    pub(crate) struct Observer {
        pub spans: Spans,
        metrics: MemMetrics,
        flight: FlightRing,
        tenants: Option<Arc<TenantTelemetry>>,
        /// When the live key was installed and when the running (or
        /// last) sweep began, in milliseconds since the spans' epoch.
        key_epoch_ms: AtomicU64,
        sweep_start_ms: AtomicU64,
    }

    impl Observer {
        /// A rekey sweep is a call of its own, rare and long: every
        /// sweep is sampled.
        pub const SWEEPS_SAMPLED: bool = true;

        pub fn new(shards: usize, pages: u64, flight_capacity: usize) -> Observer {
            Observer {
                spans: Spans::new(),
                metrics: MemMetrics::new(shards, pages),
                flight: FlightRing::new(flight_capacity),
                tenants: None,
                key_epoch_ms: AtomicU64::new(0),
                sweep_start_ms: AtomicU64::new(0),
            }
        }

        #[inline]
        fn record(&self, kind: FlightKind, a: u64, b: u64) {
            self.flight.record(kind as u16, a, b);
        }

        fn now_ms(&self) -> u64 {
            clock()
                .saturating_duration_since(self.spans.epoch)
                .as_millis() as u64
        }

        /// Opens the record of one batch call and makes its sampling
        /// decision: the first call of each op kind on a thread, then
        /// every [`SAMPLE_EVERY`]-th.
        #[inline]
        pub fn begin(&self, op: MemOp, blocks: u64) -> Visit {
            let tick = if op == MemOp::Read {
                &READ_TICK
            } else {
                &WRITE_TICK
            };
            let sampled = tick.with(|tick| {
                let t = tick.get();
                tick.set(t.wrapping_add(1));
                t % SAMPLE_EVERY == 0
            });
            Visit::new(op, blocks, sampled, sampled || self.spans.on())
        }

        /// Folds one finished page visit into its call's record: a read
        /// visit's cache outcome is counted and attributed to the page's
        /// tenant, and a sampled call records the visit's probes.
        #[inline]
        pub fn page(&self, v: &mut Visit, p: &PageVisit) {
            if v.op == MemOp::Read {
                v.served[p.serve as usize] += 1;
                if let Some(t) = &self.tenants {
                    // Tenant tables fold bypasses in with misses: either
                    // way the full verification chain ran.
                    let served = match p.serve {
                        CacheServe::Hit => TenantServe::Hit,
                        CacheServe::Partial => TenantServe::Partial,
                        CacheServe::Miss | CacheServe::Bypass => TenantServe::Miss,
                    };
                    t.page_served(p.page, served);
                }
            }
            if v.sampled {
                self.page_sample(v, p);
            }
        }

        /// A sampled call's probes of one page visit: fan-in, per-block
        /// op latency, the read page and hit events, and each stage's
        /// time shared evenly by the blocks its intervals covered.
        #[inline(never)]
        fn page_sample(&self, v: &Visit, p: &PageVisit) {
            let m = &self.metrics;
            let op = &m.ops[v.op as usize];
            let d = Duration::from_nanos;
            if v.op == MemOp::Read {
                m.fanin_read.record_ps(p.blocks.saturating_mul(FANIN_SCALE));
                op.latency
                    .record_duration_n(d(p.total_ns / p.blocks.max(1)), p.blocks);
                if p.serve == CacheServe::Hit {
                    self.record(FlightKind::ReadHit, p.page, p.blocks);
                } else {
                    self.record(FlightKind::ReadPage, p.page, p.blocks);
                    if p.hits > 0 {
                        self.record(FlightKind::ReadHit, p.page, p.hits);
                    }
                }
            } else {
                let n: u64 = v.pages.iter().map(|t| t.blocks).sum();
                for t in &v.pages {
                    m.fanin_write
                        .record_ps(t.blocks.saturating_mul(FANIN_SCALE));
                }
                op.latency.record_duration_n(d(p.data_ns / n.max(1)), n);
            }
            for stage in MemStage::ALL {
                let blocks = p.stage_blocks[stage as usize];
                if let Some(share) = p.stage_ns[stage as usize].checked_div(blocks) {
                    op.stages[stage as usize].record_duration_n(d(share), blocks);
                }
            }
            if let Some(t) = &self.tenants {
                t.visit_sample(p.page, p.total_ns, &p.stage_ns);
            }
        }

        /// A sampled call waited `wait_ns` for shard `shard`'s lock and
        /// held it `hold_ns`.
        #[inline]
        pub fn lock(&self, v: &Visit, shard: usize, wait_ns: u64, hold_ns: u64) {
            if v.sampled {
                self.lock_wait(shard, wait_ns);
                self.metrics.lock_hold[shard].record_duration(Duration::from_nanos(hold_ns));
            }
        }

        /// A measured wait for shard `shard`'s lock; one at or above
        /// [`SLOW_LOCK_NS`] is also a flight event.
        fn lock_wait(&self, shard: usize, wait_ns: u64) {
            self.metrics.lock_wait[shard].record_duration(Duration::from_nanos(wait_ns));
            if wait_ns >= SLOW_LOCK_NS {
                self.record(FlightKind::LockSlow, shard as u64, wait_ns);
            }
        }

        /// Folds a finished call's record into the metrics, once per
        /// call. `ok` says the call succeeded: only then does it count
        /// as a batch, and a sampled one records its latency.
        pub fn visit(&self, v: &Visit, ok: bool) {
            let m = &self.metrics;
            m.tree_nodes_trusted.add(v.hops.trusted);
            m.tree_nodes_verified.add(v.hops.verified);
            let (batches, blocks) = if v.op == MemOp::Read {
                let [hits, partial, misses, bypasses] = v.served;
                m.cache_hits.add(hits);
                m.cache_partial_hits.add(partial);
                m.cache_misses.add(misses);
                m.cache_bypasses.add(bypasses);
                m.cache_fills.add(v.fills);
                m.cache_evictions.add(v.evictions);
                m.counterless_reads.add(v.counterless);
                (&m.batch_reads, &m.blocks_read)
            } else {
                m.counterless_writes.add(v.counterless);
                m.cache_invalidations[CacheCause::Write as usize].add(v.invalidated);
                for p in &v.pages {
                    m.page_rolls.add(p.rolls);
                    for _ in 0..p.rolls {
                        self.record(FlightKind::PageRoll, p.page, 0);
                    }
                    self.ciphertext_writes(p.page, p.observed);
                    if let Some(t) = &self.tenants {
                        t.ciphertext_writes(p.page, p.observed);
                    }
                    if p.blocks > 0 {
                        self.record(FlightKind::WritePage, p.page, p.blocks);
                    }
                }
                (&m.batch_writes, &m.blocks_written)
            };
            if ok {
                batches.inc();
                blocks.add(v.blocks);
                if let Some(t0) = v.start {
                    m.ops[MemOp::Batch as usize]
                        .latency
                        .record_duration(clock().saturating_duration_since(t0));
                }
            }
        }

        /// `n` ciphertexts landed on `page`: counted, and flagged as a
        /// burst at each power of two at or above [`BURST_FLOOR`] that
        /// the page's count crossed. A page out of range counts in the
        /// total only.
        fn ciphertext_writes(&self, page: u64, n: u64) {
            let m = &self.metrics;
            m.observed_total.add(n);
            let Some(slot) = m.observed.get(page as usize) else {
                return;
            };
            let after = slot.fetch_add(n, Ordering::Relaxed) + n;
            let mut p = BURST_FLOOR.max((after - n + 1).next_power_of_two());
            while p <= after {
                self.record(FlightKind::WriteBurst, page, p);
                p *= 2;
            }
        }

        pub fn integrity_error(&self, e: &IntegrityError) {
            self.metrics.integrity_errors.inc();
            self.record(FlightKind::IntegrityFail, e.addr, e.class.code() as u64);
        }

        /// The verified-page cache dropped `dropped` entries for
        /// `cause`: a bulk purge (rekey, tamper, foreign write). A
        /// write's own invalidations are counted by [`visit`](Self::visit)
        /// and not recorded as events: they would shadow every
        /// [`FlightKind::WritePage`].
        pub fn cache_purge(&self, cause: CacheCause, dropped: u64) {
            let m = &self.metrics;
            m.cache_invalidations[cause as usize].add(dropped);
            if cause == CacheCause::Foreign {
                m.cache_foreign_purges.inc();
            }
            self.record(FlightKind::CachePurge, cause.code(), dropped);
        }

        /// A rekey sweep over `pages` pages is starting, all locks held.
        pub fn rekey_begin(&self, pages: u64) {
            let m = &self.metrics;
            m.rekey_pages_total.set(pages);
            m.rekey_pages_done.set(0);
            m.rekey_in_progress.set(1);
            self.sweep_start_ms.store(self.now_ms(), Ordering::Relaxed);
            self.record(FlightKind::RekeyBegin, pages, 0);
        }

        /// A rekey sweep waited `wait_ns` for shard `shard`.
        pub fn rekey_lock(&self, shard: usize, wait_ns: u64) {
            self.lock_wait(shard, wait_ns);
        }

        /// A rekey sweep re-encrypted `blocks` blocks of `page`. The
        /// tenant columns count caller traffic only, so the sweep's
        /// writes are not attributed. Progress events are thinned to
        /// every [`REKEY_FLIGHT_EVERY`] pages so that a large sweep
        /// cannot flush the whole ring.
        pub fn rekey_page(&self, page: u64, blocks: u64) {
            self.ciphertext_writes(page, blocks);
            self.metrics.rekey_pages_done.inc();
            if page.is_multiple_of(REKEY_FLIGHT_EVERY) {
                self.record(FlightKind::RekeyPage, page, 0);
            }
        }

        /// A rekey sweep completed, holding all `shards` locks for
        /// `hold_ns`. Every per-tenant key-exposure gauge resets:
        /// whatever an observer collected was written under the retired
        /// key.
        pub fn rekey_swept(&self, shards: usize, hold_ns: u64) {
            for hold in &self.metrics.lock_hold[..shards] {
                hold.record_duration(Duration::from_nanos(hold_ns));
            }
            if let Some(t) = &self.tenants {
                t.on_rekey();
            }
        }

        /// The sweep finished. On success the sweep's duration and the
        /// retired key's dwell are recorded and the key epoch restarts.
        pub fn rekey_end(&self, ok: bool) {
            let m = &self.metrics;
            m.rekey_in_progress.set(0);
            if ok {
                let now = self.now_ms();
                m.rekey_sweeps.inc();
                m.rekey_last_ms
                    .set(now - self.sweep_start_ms.load(Ordering::Relaxed));
                m.old_key_dwell_ms
                    .set(now - self.key_epoch_ms.swap(now, Ordering::Relaxed));
            }
            self.record(FlightKind::RekeyEnd, ok as u64, 0);
        }

        /// A multi-tenant driver finished one batch of `blocks` blocks
        /// for `tenant`.
        pub fn tenant_batch(&self, tenant: u64, write: bool, latency_ns: u64, blocks: u64) {
            if let Some(t) = &self.tenants {
                t.record_op(tenant, write, latency_ns, blocks);
            }
            self.record(
                FlightKind::TenantBatch,
                tenant,
                (blocks << 1) | write as u64,
            );
        }

        pub fn install_tenants(&mut self, tenants: Arc<TenantTelemetry>) {
            self.tenants = Some(tenants);
        }

        pub fn tenants(&self) -> Option<&Arc<TenantTelemetry>> {
            self.tenants.as_ref()
        }

        /// The live metrics with their derived gauges (resident cache
        /// pages, key dwell) refreshed — the one place both the snapshot
        /// and the scrape read from.
        pub fn metrics(&self, cache_resident: Option<u64>) -> Option<&MemMetrics> {
            let m = &self.metrics;
            if let Some(pages) = cache_resident {
                m.cache_resident.set(pages);
            }
            m.key_dwell_ms
                .set(self.now_ms() - self.key_epoch_ms.load(Ordering::Relaxed));
            Some(m)
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

    /// The telemetry-off twin: only the span tracer survives, no call
    /// is sampled, and calls are clocked only while a tracer is
    /// installed.
    pub(crate) struct Observer {
        pub spans: Spans,
    }

    impl Observer {
        pub const SWEEPS_SAMPLED: bool = false;

        pub fn new(_shards: usize, _pages: u64, _flight_capacity: usize) -> Observer {
            Observer {
                spans: Spans::new(),
            }
        }

        #[inline(always)]
        pub fn begin(&self, op: MemOp, blocks: u64) -> Visit {
            Visit::new(op, blocks, false, self.spans.on())
        }

        #[inline(always)]
        pub fn page(&self, _v: &mut Visit, _p: &PageVisit) {}
        #[inline(always)]
        pub fn lock(&self, _v: &Visit, _shard: usize, _wait_ns: u64, _hold_ns: u64) {}
        #[inline(always)]
        pub fn visit(&self, _v: &Visit, _ok: bool) {}
        pub fn integrity_error(&self, _e: &IntegrityError) {}
        pub fn cache_purge(&self, _cause: CacheCause, _dropped: u64) {}
        pub fn rekey_begin(&self, _pages: u64) {}
        pub fn rekey_lock(&self, _shard: usize, _wait_ns: u64) {}
        pub fn rekey_page(&self, _page: u64, _blocks: u64) {}
        pub fn rekey_swept(&self, _shards: usize, _hold_ns: u64) {}
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

#[cfg(test)]
#[cfg(not(feature = "telemetry-off"))]
mod tests {
    use super::*;
    use crate::error::TamperClass;
    use crate::flight::FlightKind;
    use crate::metrics::MEM_STAGES;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    // Allocations counted per thread, so concurrently running tests
    // cannot leak allocations into another test's window.
    thread_local! {
        static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// A page visit of `blocks` blocks on `page`, served as `serve` with
    /// `hits` blocks from the cache.
    fn read_page(page: u64, blocks: u64, serve: CacheServe, hits: u64) -> PageVisit {
        PageVisit {
            serve,
            hits,
            ..PageVisit::new(page, blocks)
        }
    }

    /// A write call whose pages saw these `(page, blocks, observed, rolls)`.
    fn write_call(sampled: bool, pages: &[(u64, u64, u64, u64)]) -> Visit {
        let mut v = Visit::new(MemOp::Write, 0, sampled, sampled);
        for &(page, blocks, observed, rolls) in pages {
            v.blocks += blocks;
            v.pages.push(PageTally {
                page,
                blocks,
                observed,
                rolls,
            });
        }
        v
    }

    /// Every flight kind, driven through the observer's methods, lands
    /// with its exact payload; unsampled calls and sub-threshold waits
    /// record nothing.
    #[test]
    fn every_flight_kind_records_its_exact_payload() {
        use FlightKind::*;
        let obs = Observer::new(4, 128, 1024);

        // A sampled read call: a partial hit, a full hit, then a miss.
        let mut read = Visit::new(MemOp::Read, 9, true, true);
        obs.page(&mut read, &read_page(2, 3, CacheServe::Partial, 1));
        obs.page(&mut read, &read_page(5, 4, CacheServe::Hit, 4));
        obs.page(&mut read, &read_page(6, 2, CacheServe::Miss, 0));
        obs.lock(&read, 1, 150_000, 10);
        obs.lock(&read, 2, 99_999, 10);
        obs.visit(&read, true);

        // An unsampled read call records no page, hit or lock event.
        let mut quiet = Visit::new(MemOp::Read, 3, false, false);
        obs.page(&mut quiet, &read_page(7, 3, CacheServe::Miss, 0));
        obs.lock(&quiet, 3, 500_000, 10);
        obs.visit(&quiet, true);

        // Writes: a roll plus 66 ciphertexts on page 3 cross 64, a
        // further 70 cross 128; page 4 stays under the burst floor. The
        // unsampled call records the same write-side events.
        obs.visit(&write_call(true, &[(3, 2, 66, 1), (4, 1, 1, 0)]), true);
        obs.visit(&write_call(false, &[(3, 5, 70, 0)]), true);

        obs.integrity_error(&IntegrityError {
            addr: 77,
            class: TamperClass::TreeNode { level: 2 },
        });
        obs.cache_purge(CacheCause::Foreign, 5);

        // A rekey sweep: one slow and one fast shard wait, 64 blocks on
        // pages 0 and 1 (a burst each), progress thinned to page 0 and 64.
        obs.rekey_begin(128);
        obs.rekey_lock(0, 200_000);
        obs.rekey_lock(1, 1_000);
        for page in [0, 1, 64] {
            obs.rekey_page(page, 64);
        }
        obs.rekey_swept(4, 1_000);
        obs.rekey_end(true);
        obs.rekey_end(false);

        obs.tenant_batch(3, true, 1_000, 5);
        obs.tenant_batch(2, false, 1_000, 4);

        let got: Vec<(FlightKind, u64, u64)> = obs
            .flight_snapshot()
            .events
            .iter()
            .map(|e| (FlightKind::from_code(e.kind).unwrap(), e.a, e.b))
            .collect();
        let want = [
            (ReadPage, 2, 3),
            (ReadHit, 2, 1),
            (ReadHit, 5, 4),
            (ReadPage, 6, 2),
            (LockSlow, 1, 150_000),
            (PageRoll, 3, 0),
            (WriteBurst, 3, 64),
            (WritePage, 3, 2),
            (WritePage, 4, 1),
            (WriteBurst, 3, 128),
            (WritePage, 3, 5),
            (IntegrityFail, 77, 5),
            (CachePurge, 3, 5),
            (RekeyBegin, 128, 0),
            (LockSlow, 0, 200_000),
            (WriteBurst, 0, 64),
            (RekeyPage, 0, 0),
            (WriteBurst, 1, 64),
            (WriteBurst, 64, 64),
            (RekeyPage, 64, 0),
            (RekeyEnd, 1, 0),
            (RekeyEnd, 0, 0),
            (TenantBatch, 3, (5 << 1) | 1),
            (TenantBatch, 2, 4 << 1),
        ];
        assert_eq!(got, want);
        for kind in crate::flight::FLIGHT_KINDS {
            assert!(got.iter().any(|e| e.0 == kind), "{kind:?} not pinned");
        }
    }

    /// The per-call fold runs in every call the layer serves, so it must
    /// never touch the heap: page visits, lock records and the call
    /// record, sampled or not, with page rolls, ciphertext bursts and a
    /// slow lock wait among them.
    #[test]
    fn observer_fold_does_not_allocate() {
        let obs = Observer::new(16, 64, 1024);
        // The records are built before the window: the layer fills
        // them, the observer only reads them.
        let mut reads = [
            Visit::new(MemOp::Read, 64, true, true),
            Visit::new(MemOp::Read, 64, false, false),
        ];
        let mut hit = read_page(2, 32, CacheServe::Hit, 32);
        hit.total_ns = 900;
        let mut partial = read_page(3, 32, CacheServe::Partial, 8);
        partial.stage_ns = [40; MEM_STAGES];
        partial.stage_blocks = [24; MEM_STAGES];
        // A roll and 64 ciphertexts on page 0 each call: its count
        // crosses a power of two at 64, 128, 256, ...
        let pages = [(0, 64, 128, 1), (1, 8, 8, 0)];
        let mut writes = [write_call(true, &pages), write_call(false, &pages)];
        let mut written = PageVisit::new(0, 72);
        written.data_ns = 7_200;
        written.stage_ns = [100; MEM_STAGES];
        written.stage_blocks = [72; MEM_STAGES];

        let fold = |reads: &mut [Visit; 2], writes: &mut [Visit; 2], i: u64| {
            for v in reads.iter_mut() {
                obs.page(v, &hit);
                obs.page(v, &partial);
                obs.lock(v, (i % 16) as usize, 150_000, 1_000 + i);
                obs.visit(v, true);
            }
            for v in writes.iter_mut() {
                obs.page(v, &written);
                obs.lock(v, ((i + 1) % 16) as usize, i, 2_000);
                obs.visit(v, true);
            }
        };
        // Warm the per-thread stripes and any lazy thread-local state.
        fold(&mut reads, &mut writes, 0);

        let before = THREAD_ALLOCS.with(Cell::get);
        for i in 1..=10_000 {
            fold(&mut reads, &mut writes, i);
        }
        let allocs = THREAD_ALLOCS.with(Cell::get) - before;
        assert_eq!(allocs, 0, "the observer's per-call fold allocated");

        // Snapshots may allocate; the traffic above must have landed.
        let snap = obs.metrics(None).unwrap().snapshot(None);
        assert_eq!(snap.batch_reads, 2 * 10_001);
        assert_eq!(snap.page_rolls, 2 * 10_001);
        assert_eq!(snap.op(MemOp::Read).latency.count(), 64 * 10_001);
        // Ten events per fold (a sampled read's hit, page, partial hit
        // and slow wait; each write's roll and two pages), plus a burst
        // at each power of two from 64 that page 0 (up to 2^21) and
        // page 1 (up to 2^17) crossed.
        assert_eq!(obs.flight_snapshot().recorded, 10 * 10_001 + 16 + 12);
    }
}
