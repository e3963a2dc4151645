//! Request-scoped causal spans and critical-path blame.
//!
//! Every LLC miss opens a *request*; each dependent operation the engine
//! performs to resolve it — the data DRAM access, counter fetches per
//! integrity-tree level, the MAC lanes riding the data burst, pad
//! generation, ECC decode — is recorded as a *child span* with begin/end
//! timestamps. When the request resolves, [`classify_ends`] decides which
//! dependency chain bounded completion:
//!
//! * **counter-bound** — the counter became known only after the data
//!   arrived, so the counter-fetch chain necessarily gated `ready`
//!   (counter-mode's serialized fetch; structurally impossible for
//!   counter-light, whose counter decodes from the block's own ECC at the
//!   half-transfer point).
//! * **cipher-bound** — the counter was known in time but pad generation
//!   (AES or memo-combine) still finished after the data (counterless
//!   engines always land here: AES-XTS serializes after arrival).
//! * **mac-bound** — the MAC lanes landed after the data's last beat. In
//!   the Synergy layout the MAC rides the burst itself, so this is zero
//!   today; a split-MAC layout would surface here.
//! * **dram-bound** — nothing outlived the data access; DRAM was the
//!   critical path.
//!
//! [`SpanTracer`] is the full-featured sink: it tallies blame for every
//! request and retains a deterministic reservoir sample of whole requests
//! (children included) for `clme critpath` and the Perfetto flow export.
//! [`BlameTracker`] is the O(1)-per-request core other sinks (the epoch
//! series recorder) embed so blame fractions reach matrix snapshots
//! without retaining any spans.

use crate::sink::TraceSink;
use clme_types::rng::Xoshiro256;
use clme_types::{Time, TimeDelta};
use std::any::Any;

/// Default number of whole requests a [`SpanTracer`] retains.
pub const DEFAULT_SPAN_SAMPLES: usize = 256;

/// Fixed seed for the reservoir-sampling draw stream, so sampled request
/// sets are reproducible run-to-run.
const SPAN_RESERVOIR_SEED: u64 = 0x5AD5_0C75;

/// What a child span covered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum SpanKind {
    /// The demand data DRAM access (issue to last beat).
    DataDram = 0,
    /// Counter availability: a metadata fetch (counter-mode) or the
    /// in-ECC decode point (counter-light). `level` 0 is the leaf
    /// counter; levels 1.. are integrity-tree nodes.
    CounterFetch = 1,
    /// The MAC lanes' slice of the data burst (Synergy layout).
    MacFetch = 2,
    /// A fresh AES pipeline pass producing the OTP.
    PadAes = 3,
    /// A memo-combine producing the OTP.
    PadMemo = 4,
    /// The ECC/MAC check after data and pad are both available.
    EccDecode = 5,
    /// The bank's array occupancy inside a demand DRAM access.
    DramBank = 6,
    /// The channel-bus occupancy inside a demand DRAM access.
    DramBus = 7,
    /// The cache-hierarchy traversal that discovered the miss.
    CacheLookup = 8,
}

/// Number of [`SpanKind`] variants.
pub const SPAN_KINDS: usize = 9;

impl SpanKind {
    /// All kinds, in index order.
    pub const ALL: [SpanKind; SPAN_KINDS] = [
        SpanKind::DataDram,
        SpanKind::CounterFetch,
        SpanKind::MacFetch,
        SpanKind::PadAes,
        SpanKind::PadMemo,
        SpanKind::EccDecode,
        SpanKind::DramBank,
        SpanKind::DramBus,
        SpanKind::CacheLookup,
    ];

    /// Stable kebab-case name (used in reports and the flow export).
    pub const fn name(self) -> &'static str {
        match self {
            SpanKind::DataDram => "data-dram",
            SpanKind::CounterFetch => "counter-fetch",
            SpanKind::MacFetch => "mac-fetch",
            SpanKind::PadAes => "pad-aes",
            SpanKind::PadMemo => "pad-memo",
            SpanKind::EccDecode => "ecc-decode",
            SpanKind::DramBank => "dram-bank",
            SpanKind::DramBus => "dram-bus",
            SpanKind::CacheLookup => "cache-lookup",
        }
    }
}

impl core::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which dependency chain determined a request's completion time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Blame {
    /// The data DRAM access itself was the critical path.
    Dram = 0,
    /// The counter arrived after the data; the fetch chain gated `ready`.
    Counter = 1,
    /// Pad generation outlived the data despite a timely counter.
    Cipher = 2,
    /// The MAC fetch outlived the data's last beat.
    Mac = 3,
}

/// Number of [`Blame`] variants.
pub const BLAME_KINDS: usize = 4;

impl Blame {
    /// All blame classes, in index order.
    pub const ALL: [Blame; BLAME_KINDS] = [Blame::Dram, Blame::Counter, Blame::Cipher, Blame::Mac];

    /// Stable kebab-case name (used in reports and snapshot metrics).
    pub const fn name(self) -> &'static str {
        match self {
            Blame::Dram => "dram-bound",
            Blame::Counter => "counter-bound",
            Blame::Cipher => "cipher-bound",
            Blame::Mac => "mac-bound",
        }
    }
}

impl core::fmt::Display for Blame {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Decides blame from the latest end time of each gating chain.
///
/// The precedence encodes causality, not severity: a late counter makes
/// the whole fetch→pad chain late, so it outranks cipher; pad gating with
/// a timely counter is the cipher's own latency; the MAC can only gate if
/// it ends strictly after the data's last beat (a tie means it rode the
/// burst); otherwise DRAM bounded the request.
pub fn classify_ends(
    counter_end: Option<Time>,
    pad_end: Option<Time>,
    mac_end: Option<Time>,
    data_arrival: Time,
) -> Blame {
    if counter_end.is_some_and(|t| t > data_arrival) {
        Blame::Counter
    } else if pad_end.is_some_and(|t| t > data_arrival) {
        Blame::Cipher
    } else if mac_end.is_some_and(|t| t > data_arrival) {
        Blame::Mac
    } else {
        Blame::Dram
    }
}

/// Per-class request counts plus total stall beyond data arrival.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlameTally {
    counts: [u64; BLAME_KINDS],
    stall_ps: [u64; BLAME_KINDS],
}

impl BlameTally {
    /// A zeroed tally.
    pub fn new() -> BlameTally {
        BlameTally::default()
    }

    /// Records one classified request with its stall beyond data arrival.
    pub fn record(&mut self, blame: Blame, stall: TimeDelta) {
        self.counts[blame as usize] += 1;
        self.stall_ps[blame as usize] += stall.picos();
    }

    /// Requests attributed to `blame`.
    pub fn count(&self, blame: Blame) -> u64 {
        self.counts[blame as usize]
    }

    /// Total classified requests.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of requests attributed to `blame` (0 when no requests).
    pub fn fraction(&self, blame: Blame) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(blame) as f64 / total as f64
        }
    }

    /// Mean stall beyond data arrival (`ready - data_arrival`) over the
    /// requests attributed to `blame`, in picoseconds.
    pub fn mean_stall_ps(&self, blame: Blame) -> f64 {
        let n = self.count(blame);
        if n == 0 {
            0.0
        } else {
            self.stall_ps[blame as usize] as f64 / n as f64
        }
    }

    /// Zeroes the tally.
    pub fn clear(&mut self) {
        self.counts = [0; BLAME_KINDS];
        self.stall_ps = [0; BLAME_KINDS];
    }
}

/// The O(1)-per-request blame core: tracks only the latest end per gating
/// chain of the open request, so embedding sinks pay a few compares per
/// child instead of retaining spans.
#[derive(Clone, Debug, Default)]
pub struct BlameTracker {
    active: bool,
    counter_end: Option<Time>,
    pad_end: Option<Time>,
    mac_end: Option<Time>,
    tally: BlameTally,
}

impl BlameTracker {
    /// A fresh tracker with an empty tally and no open request.
    pub fn new() -> BlameTracker {
        BlameTracker::default()
    }

    /// A request span opened.
    pub fn begin(&mut self) {
        self.active = true;
        self.counter_end = None;
        self.pad_end = None;
        self.mac_end = None;
    }

    /// A child span of the open request ended at `end`.
    pub fn child(&mut self, kind: SpanKind, end: Time) {
        if !self.active {
            return;
        }
        let slot = match kind {
            SpanKind::CounterFetch => &mut self.counter_end,
            SpanKind::PadAes | SpanKind::PadMemo => &mut self.pad_end,
            SpanKind::MacFetch => &mut self.mac_end,
            _ => return,
        };
        *slot = Some(slot.map_or(end, |prev| prev.max(end)));
    }

    /// The open request resolved; classifies and tallies it.
    pub fn end(&mut self, data_arrival: Time, ready: Time) -> Option<Blame> {
        if !self.active {
            return None;
        }
        self.active = false;
        let blame = classify_ends(self.counter_end, self.pad_end, self.mac_end, data_arrival);
        self.tally.record(blame, ready - data_arrival);
        Some(blame)
    }

    /// The accumulated tally.
    pub fn tally(&self) -> &BlameTally {
        &self.tally
    }

    /// Clears the tally and abandons any open request.
    pub fn reset(&mut self) {
        self.active = false;
        self.tally.clear();
    }
}

/// One dependent operation of a sampled request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChildSpan {
    /// What the operation was.
    pub kind: SpanKind,
    /// Integrity-tree depth for counter fetches (0 otherwise).
    pub level: u8,
    /// When it began.
    pub begin: Time,
    /// When it ended.
    pub end: Time,
}

/// A whole sampled request: identity, resolution times, blame, children.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestSpans {
    /// Request id, dense in completion order within the measured window.
    pub id: u64,
    /// The missing block address.
    pub addr: u64,
    /// When the LLC lookup discovered the miss.
    pub issue: Time,
    /// When the data's last beat arrived.
    pub data_arrival: Time,
    /// When the decrypted, verified data became usable.
    pub ready: Time,
    /// Which chain bounded completion.
    pub blame: Blame,
    /// The dependent operations, in emission order.
    pub children: Vec<ChildSpan>,
}

struct OpenRequest {
    addr: u64,
    issue: Time,
    children: Vec<ChildSpan>,
}

/// The span-recording sink: full blame tally plus a deterministic
/// reservoir sample of whole requests.
///
/// # Examples
///
/// ```
/// use clme_obs::span::{Blame, SpanKind, SpanTracer};
/// use clme_obs::TraceSink;
/// use clme_types::Time;
///
/// let ns = |v: u64| Time::from_picos(v * 1000);
/// let mut tracer = SpanTracer::new(16);
/// tracer.span_request_begin(ns(0), 0x40);
/// tracer.span_child(SpanKind::DataDram, 0, ns(0), ns(30));
/// tracer.span_child(SpanKind::CounterFetch, 0, ns(0), ns(55));
/// tracer.span_request_end(ns(30), ns(60));
/// assert_eq!(tracer.tally().count(Blame::Counter), 1);
/// ```
pub struct SpanTracer {
    next_id: u64,
    seen: u64,
    open: Option<OpenRequest>,
    tally: BlameTally,
    sampled: Vec<RequestSpans>,
    capacity: usize,
    rng: Xoshiro256,
}

impl SpanTracer {
    /// A tracer retaining at most `capacity` whole requests.
    pub fn new(capacity: usize) -> SpanTracer {
        SpanTracer {
            next_id: 0,
            seen: 0,
            open: None,
            tally: BlameTally::new(),
            // The .min(4096) only bounds the up-front allocation for
            // absurd capacities; it is NOT a retention cap — the vec
            // grows to the full capacity as requests arrive (pinned by
            // reservoir_capacity_above_allocation_hint_is_not_a_cap).
            sampled: Vec::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            rng: Xoshiro256::seed_from(SPAN_RESERVOIR_SEED),
        }
    }

    /// The blame tally over every request (sampled or not).
    pub fn tally(&self) -> &BlameTally {
        &self.tally
    }

    /// Requests classified in the measured window.
    pub fn total_requests(&self) -> u64 {
        self.seen
    }

    /// The retained request sample, in completion order of retention
    /// slots (not globally sorted; sort by `id` for display).
    pub fn sampled(&self) -> &[RequestSpans] {
        &self.sampled
    }
}

impl TraceSink for SpanTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn span_request_begin(&mut self, at: Time, addr: u64) {
        // A begin with a still-open request (functional warm-up paths
        // never resolve) abandons the older one.
        self.open = Some(OpenRequest {
            addr,
            issue: at,
            children: Vec::new(),
        });
    }

    fn span_child(&mut self, kind: SpanKind, level: u8, begin: Time, end: Time) {
        if let Some(open) = &mut self.open {
            open.children.push(ChildSpan {
                kind,
                level,
                begin,
                end,
            });
        }
    }

    fn span_request_end(&mut self, data_arrival: Time, ready: Time) {
        let Some(open) = self.open.take() else {
            return;
        };
        let mut counter_end = None;
        let mut pad_end = None;
        let mut mac_end = None;
        for child in &open.children {
            let slot = match child.kind {
                SpanKind::CounterFetch => &mut counter_end,
                SpanKind::PadAes | SpanKind::PadMemo => &mut pad_end,
                SpanKind::MacFetch => &mut mac_end,
                _ => continue,
            };
            *slot = Some(slot.map_or(child.end, |prev: Time| prev.max(child.end)));
        }
        let blame = classify_ends(counter_end, pad_end, mac_end, data_arrival);
        self.tally.record(blame, ready - data_arrival);
        let request = RequestSpans {
            id: self.next_id,
            addr: open.addr,
            issue: open.issue,
            data_arrival,
            ready,
            blame,
            children: open.children,
        };
        self.next_id += 1;
        self.seen += 1;
        // Algorithm R: every completed request has capacity/seen odds of
        // being retained, with a fixed-seed draw stream.
        if self.sampled.len() < self.capacity {
            self.sampled.push(request);
        } else {
            let j = self.rng.below(self.seen);
            if (j as usize) < self.capacity {
                self.sampled[j as usize] = request;
            }
        }
    }

    fn window_reset(&mut self) {
        self.next_id = 0;
        self.seen = 0;
        self.open = None;
        self.tally.clear();
        self.sampled.clear();
        self.rng = Xoshiro256::seed_from(SPAN_RESERVOIR_SEED);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> Time {
        Time::from_picos(v * 1_000)
    }

    #[test]
    fn span_kind_and_blame_names_are_unique_and_indexed() {
        for (i, &k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(k as usize, i, "{k} discriminant drifted");
        }
        for (i, &b) in Blame::ALL.iter().enumerate() {
            assert_eq!(b as usize, i, "{b} discriminant drifted");
        }
        let mut names: Vec<&str> = SpanKind::ALL.iter().map(|k| k.name()).collect();
        names.extend(Blame::ALL.iter().map(|b| b.name()));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SPAN_KINDS + BLAME_KINDS);
    }

    /// The hand-built two-dependency request of the test plan: a data
    /// access and a counter chain. Whichever ends later takes the blame.
    #[test]
    fn two_dependency_request_blames_the_later_chain() {
        // Counter chain outlives the data: counter-bound.
        let mut tracer = SpanTracer::new(8);
        tracer.span_request_begin(ns(0), 0x1000);
        tracer.span_child(SpanKind::DataDram, 0, ns(0), ns(30));
        tracer.span_child(SpanKind::CounterFetch, 0, ns(0), ns(44));
        tracer.span_child(SpanKind::PadMemo, 0, ns(44), ns(45));
        tracer.span_request_end(ns(30), ns(46));
        assert_eq!(tracer.tally().count(Blame::Counter), 1);
        assert_eq!(tracer.sampled()[0].blame, Blame::Counter);
        assert_eq!(tracer.sampled()[0].children.len(), 3);

        // Counter known early, pad still under the data: dram-bound.
        tracer.span_request_begin(ns(100), 0x2000);
        tracer.span_child(SpanKind::DataDram, 0, ns(100), ns(130));
        tracer.span_child(SpanKind::CounterFetch, 0, ns(100), ns(105));
        tracer.span_child(SpanKind::PadAes, 0, ns(105), ns(125));
        tracer.span_request_end(ns(130), ns(131));
        assert_eq!(tracer.tally().count(Blame::Dram), 1);
        assert_eq!(tracer.tally().total(), 2);
        assert!((tracer.tally().fraction(Blame::Counter) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn classification_precedence_matches_causality() {
        let d = ns(100);
        // Late counter outranks everything.
        assert_eq!(
            classify_ends(Some(ns(110)), Some(ns(120)), Some(ns(115)), d),
            Blame::Counter
        );
        // Timely counter + late pad: cipher.
        assert_eq!(
            classify_ends(Some(ns(90)), Some(ns(120)), None, d),
            Blame::Cipher
        );
        // MAC riding the burst (tie) does not gate.
        assert_eq!(classify_ends(None, None, Some(ns(100)), d), Blame::Dram);
        assert_eq!(classify_ends(None, None, Some(ns(101)), d), Blame::Mac);
        assert_eq!(classify_ends(None, None, None, d), Blame::Dram);
    }

    #[test]
    fn blame_tracker_matches_full_tracer() {
        let mut tracker = BlameTracker::new();
        tracker.begin();
        tracker.child(SpanKind::DataDram, ns(30));
        tracker.child(SpanKind::CounterFetch, ns(44));
        tracker.child(SpanKind::PadMemo, ns(45));
        assert_eq!(tracker.end(ns(30), ns(46)), Some(Blame::Counter));
        // Children outside a request are ignored, as are double ends.
        tracker.child(SpanKind::CounterFetch, ns(999));
        assert_eq!(tracker.end(ns(30), ns(46)), None);
        assert_eq!(tracker.tally().total(), 1);
        assert_eq!(tracker.tally().count(Blame::Counter), 1);
        assert_eq!(tracker.tally().mean_stall_ps(Blame::Counter), 16_000.0);
    }

    #[test]
    fn reservoir_is_bounded_and_deterministic() {
        let run = || {
            let mut tracer = SpanTracer::new(16);
            for i in 0..1_000u64 {
                tracer.span_request_begin(ns(i * 100), i);
                tracer.span_child(SpanKind::DataDram, 0, ns(i * 100), ns(i * 100 + 30));
                tracer.span_request_end(ns(i * 100 + 30), ns(i * 100 + 31));
            }
            tracer
        };
        let a = run();
        let b = run();
        assert_eq!(a.sampled().len(), 16);
        assert_eq!(a.total_requests(), 1_000);
        let ids_a: Vec<u64> = a.sampled().iter().map(|r| r.id).collect();
        let ids_b: Vec<u64> = b.sampled().iter().map(|r| r.id).collect();
        assert_eq!(ids_a, ids_b, "reservoir must be seed-deterministic");
        // The sample is not just the first 16 requests.
        assert!(ids_a.iter().any(|&id| id >= 16), "reservoir never replaced");
    }

    #[test]
    fn reservoir_capacity_above_allocation_hint_is_not_a_cap() {
        // `new` clamps only the up-front allocation to 4096 entries; a
        // larger capacity must still retain that many requests. This
        // pins the distinction so the hint can never quietly become a
        // truncation.
        let mut tracer = SpanTracer::new(5_000);
        for i in 0..6_000u64 {
            tracer.span_request_begin(ns(i), i);
            tracer.span_child(SpanKind::DataDram, 0, ns(i), ns(i + 1));
            tracer.span_request_end(ns(i + 1), ns(i + 2));
        }
        assert_eq!(tracer.sampled().len(), 5_000);
        assert_eq!(tracer.total_requests(), 6_000);
        // Replacement still happened beyond the hint boundary.
        assert!(tracer.sampled().iter().any(|r| r.id >= 5_000));
    }

    #[test]
    fn reservoir_is_deterministic_across_thread_counts() {
        // Each tracer carries its own fixed-seed draw stream, so the
        // retained sample is a pure function of the request stream —
        // however many tracers run concurrently on other threads. A
        // thread-shared RNG (or any hidden global) would break this.
        let feed = |tracer: &mut SpanTracer| {
            for i in 0..2_000u64 {
                tracer.span_request_begin(ns(i * 10), i);
                tracer.span_child(SpanKind::DataDram, 0, ns(i * 10), ns(i * 10 + 3));
                tracer.span_request_end(ns(i * 10 + 3), ns(i * 10 + 4));
            }
        };
        let mut reference = SpanTracer::new(32);
        feed(&mut reference);
        let reference_ids: Vec<u64> = reference.sampled().iter().map(|r| r.id).collect();
        for threads in [1usize, 2, 8] {
            let results: Vec<Vec<u64>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut tracer = SpanTracer::new(32);
                            feed(&mut tracer);
                            tracer.sampled().iter().map(|r| r.id).collect::<Vec<u64>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("no panics"))
                    .collect()
            });
            for ids in results {
                assert_eq!(
                    ids, reference_ids,
                    "{threads}-thread run diverged from the single-threaded sample"
                );
            }
        }
    }

    #[test]
    fn window_reset_restarts_everything() {
        let mut tracer = SpanTracer::new(4);
        for i in 0..10u64 {
            tracer.span_request_begin(ns(i), i);
            tracer.span_child(SpanKind::DataDram, 0, ns(i), ns(i + 1));
            tracer.span_request_end(ns(i + 1), ns(i + 2));
        }
        tracer.window_reset();
        assert_eq!(tracer.total_requests(), 0);
        assert_eq!(tracer.tally().total(), 0);
        assert!(tracer.sampled().is_empty());
        tracer.span_request_begin(ns(0), 7);
        tracer.span_request_end(ns(1), ns(2));
        assert_eq!(tracer.sampled()[0].id, 0, "ids restart at the window");
    }

    #[test]
    fn orphan_hooks_are_harmless() {
        let mut tracer = SpanTracer::new(4);
        // End without begin, child without begin: ignored.
        tracer.span_request_end(ns(1), ns(2));
        tracer.span_child(SpanKind::DataDram, 0, ns(0), ns(1));
        assert_eq!(tracer.total_requests(), 0);
        // Begin-begin keeps only the newer request.
        tracer.span_request_begin(ns(0), 1);
        tracer.span_request_begin(ns(5), 2);
        tracer.span_request_end(ns(6), ns(7));
        assert_eq!(tracer.sampled().len(), 1);
        assert_eq!(tracer.sampled()[0].addr, 2);
    }
}
