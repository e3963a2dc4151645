//! The bank/bus backfill-reservation timing model.
//!
//! Every access resolves to: find the bank's first free interval after
//! the request's issue time, pay the row-buffer outcome's latency (hit:
//! tCL; closed: tRCD + tCL; conflict: tRP + tRCD + tCL), then find the
//! channel data bus's first free 64-byte-transfer slot. The returned
//! [`DramAccess::arrival`] is when the last beat crosses the bus — the
//! moment the memory controller can start ECC/decryption work.
//!
//! Reservations use **first-fit backfill** rather than a monotone
//! "next-free" cursor: the trace-driven core model issues requests whose
//! timestamps are not globally sorted (a pointer-dependent load can be
//! stamped microseconds after an independent load dispatched later), and
//! a monotone cursor would queue early-stamped requests behind
//! later-stamped ones, detaching the DRAM clock from the core clocks.
//! With backfill, a request occupies the earliest genuinely free
//! interval at or after its own timestamp, so idle bus time is usable by
//! whoever's timestamp falls into it — which is also precisely the
//! read-priority/write-drain behaviour of real controllers: background
//! transfers (writebacks, metadata updates, prefetches) soak up idle
//! slots and only displace demand reads when utilisation leaves no gaps.

use crate::mapping::{AddressMapping, DramCoord};
use crate::stats::BandwidthTracker;
use clme_obs::{Component, EventKind, SpanKind, Stage, TraceSink};
use clme_types::config::SystemConfig;
use clme_types::{BlockAddr, Time, TimeDelta};

/// Read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read transfer (LLC miss fill, counter fetch, correction read).
    Read,
    /// A write transfer (LLC writeback, counter/tree update).
    Write,
}

/// How an access met its bank's row buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RowOutcome {
    /// The row was already open.
    Hit,
    /// The bank was idle (no open row): activate then access.
    Closed,
    /// Another row was open: precharge, activate, access.
    Conflict,
}

/// The resolved timing of one DRAM access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramAccess {
    /// When the transfer's last beat completes (data available / write
    /// absorbed).
    pub arrival: Time,
    /// When the transfer began occupying the data bus.
    pub bus_start: Time,
    /// Row-buffer outcome.
    pub row: RowOutcome,
    /// The bank coordinate used (exposed for tests and detailed stats).
    pub coord: DramCoord,
    /// When the bank began serving this request.
    pub bank_start: Time,
    /// When the array access finished (data at the sense amps).
    pub array_done: Time,
}

/// How far behind the newest observed timestamp a reservation may still
/// land; request timestamps are disordered by at most the core's ROB
/// lookahead (a few µs), so 50 µs is generous.
const RESERVATION_HORIZON: TimeDelta = TimeDelta::from_us(50);

/// A sorted list of busy intervals with first-fit reservation and
/// adjacent-interval coalescing (so a saturated resource collapses to a
/// single long interval instead of thousands of slots).
#[derive(Clone, Debug, Default)]
struct Reservations {
    /// Non-overlapping `(start, end)` picosecond intervals, sorted.
    busy: Vec<(u64, u64)>,
    floor: u64,
}

impl Reservations {
    /// Reserves `dur` at the earliest free point ≥ `at`; returns the
    /// reserved start time.
    fn reserve(&mut self, at: Time, dur: TimeDelta) -> Time {
        let dur = dur.picos();
        debug_assert!(dur > 0);
        let mut t = at.picos().max(self.floor);
        // Intervals are sorted, disjoint and nonempty, so their ends are
        // sorted too: the scan starts at the first interval ending after
        // `t`, and every later one ends after the `t` it moves to.
        let first = self.busy.partition_point(|&(_, e)| e <= t);
        for &(s, e) in &self.busy[first..] {
            if s >= t + dur {
                break; // the gap [t, s) fits
            }
            t = e;
        }
        let idx = self.busy.partition_point(|&(s, _)| s < t);
        // Coalesce with neighbours where the new interval abuts them.
        let end = t + dur;
        let merge_prev = idx > 0 && self.busy[idx - 1].1 == t;
        let merge_next = idx < self.busy.len() && self.busy[idx].0 == end;
        match (merge_prev, merge_next) {
            (true, true) => {
                self.busy[idx - 1].1 = self.busy[idx].1;
                self.busy.remove(idx);
            }
            (true, false) => self.busy[idx - 1].1 = end,
            (false, true) => self.busy[idx].0 = t,
            (false, false) => self.busy.insert(idx, (t, end)),
        }
        Time::from_picos(t)
    }

    /// Drops intervals that ended at or before `before` and forbids new
    /// reservations from starting before it.
    fn prune(&mut self, before: Time) {
        let b = before.picos();
        if b <= self.floor {
            return;
        }
        self.floor = b;
        let keep_from = self.busy.partition_point(|&(_, e)| e <= b);
        if keep_from > 0 {
            self.busy.drain(..keep_from);
        }
    }

    /// Empties the interval list and resets the floor, keeping the
    /// allocation (arena reuse).
    fn clear(&mut self) {
        self.busy.clear();
        self.floor = 0;
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.busy.len()
    }
}

/// The DRAM device model: per-bank row state and busy intervals plus a
/// per-channel data bus.
///
/// # Examples
///
/// ```
/// use clme_dram::timing::{AccessKind, Dram, RowOutcome};
/// use clme_obs::NopSink;
/// use clme_types::{BlockAddr, SystemConfig, Time};
///
/// let mut dram = Dram::new(&SystemConfig::isca_table1());
/// let first = dram.access(BlockAddr::new(0), AccessKind::Read, Time::ZERO, &mut NopSink);
/// assert_eq!(first.row, RowOutcome::Closed);
/// let second = dram.access(BlockAddr::new(1), AccessKind::Read, first.arrival, &mut NopSink);
/// assert_eq!(second.row, RowOutcome::Hit);
/// assert!(second.arrival - first.arrival < first.arrival - Time::ZERO);
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    mapping: AddressMapping,
    bank_rows: Vec<Option<u64>>,
    bank_busy: Vec<Reservations>,
    bus_busy: Vec<Reservations>,
    t_cl: TimeDelta,
    t_rcd: TimeDelta,
    t_rp: TimeDelta,
    transfer: TimeDelta,
    tracker: BandwidthTracker,
    activations: u64,
    row_hits: u64,
    row_closed: u64,
    row_conflicts: u64,
    max_stamp: Time,
    accesses_since_prune: u32,
}

impl Dram {
    /// Builds the DRAM model from a system configuration.
    pub fn new(cfg: &SystemConfig) -> Dram {
        let mapping = AddressMapping::new(cfg);
        let total_banks = (cfg.channels * mapping.banks_per_channel()) as usize;
        Dram {
            bank_rows: vec![None; total_banks],
            bank_busy: vec![Reservations::default(); total_banks],
            bus_busy: vec![Reservations::default(); cfg.channels as usize],
            mapping,
            t_cl: cfg.t_cl,
            t_rcd: cfg.t_rcd,
            t_rp: cfg.t_rp,
            transfer: cfg.block_transfer_time(),
            tracker: BandwidthTracker::new(),
            activations: 0,
            row_hits: 0,
            row_closed: 0,
            row_conflicts: 0,
            max_stamp: Time::ZERO,
            accesses_since_prune: 0,
        }
    }

    /// Performs one *demand* 64-byte access issued at time `at`,
    /// returning its resolved timing. Reports to `obs` the row-buffer
    /// outcome and the bus transfer as trace events, the issue-to-arrival
    /// latency to the DRAM stage histogram, and the bank and bus
    /// occupancy as child spans of the open request.
    pub fn access(
        &mut self,
        block: BlockAddr,
        kind: AccessKind,
        at: Time,
        obs: &mut dyn TraceSink,
    ) -> DramAccess {
        obs.tick(at);
        let coord = self.mapping.coord(block);
        self.housekeeping(at);
        let bank_index = (coord.channel * self.mapping.banks_per_channel() + coord.bank) as usize;

        let (row_outcome, array_latency) = match self.bank_rows[bank_index] {
            Some(open) if open == coord.row => (RowOutcome::Hit, self.t_cl),
            Some(_) => (RowOutcome::Conflict, self.t_rp + self.t_rcd + self.t_cl),
            None => (RowOutcome::Closed, self.t_rcd + self.t_cl),
        };
        if row_outcome != RowOutcome::Hit {
            self.activations += 1;
        }
        match row_outcome {
            RowOutcome::Hit => self.row_hits += 1,
            RowOutcome::Closed => self.row_closed += 1,
            RowOutcome::Conflict => self.row_conflicts += 1,
        }
        self.bank_rows[bank_index] = Some(coord.row);

        let bank_start = self.bank_busy[bank_index].reserve(at, array_latency);
        let array_done = bank_start + array_latency;
        let bus_start = self.bus_busy[coord.channel as usize].reserve(array_done, self.transfer);
        let arrival = bus_start + self.transfer;

        self.tracker.record(kind, self.transfer, arrival);
        if obs.enabled() {
            let row_event = match row_outcome {
                RowOutcome::Hit => EventKind::RowHit,
                RowOutcome::Closed => EventKind::RowClosed,
                RowOutcome::Conflict => EventKind::RowConflict,
            };
            obs.event(at, Component::Dram, row_event, block.raw(), arrival - at);
            obs.event(
                bus_start,
                Component::Dram,
                EventKind::BusTransfer,
                block.raw(),
                self.transfer,
            );
            obs.latency(Stage::Dram, arrival - at);
            obs.span_child(SpanKind::DramBank, 0, bank_start, array_done);
            obs.span_child(SpanKind::DramBus, 0, bus_start, arrival);
        }
        DramAccess {
            arrival,
            bus_start,
            row: row_outcome,
            coord,
            bank_start,
            array_done,
        }
    }

    /// Posts one *background* 64-byte transfer (LLC writeback data,
    /// writeback-path metadata, prefetch fill) at time `at`; returns its
    /// transfer completion.
    ///
    /// Background transfers backfill idle bus slots like demand transfers
    /// do but skip the bank model (controllers schedule them to idle
    /// banks opportunistically). When utilisation is low they land in
    /// gaps no demand read wanted; when it is high they genuinely
    /// compete — which is when Counter-light's epoch switch turns them
    /// off. Counts the transfer toward bus occupancy in `obs`.
    pub fn background_access(
        &mut self,
        block: BlockAddr,
        kind: AccessKind,
        at: Time,
        obs: &mut dyn TraceSink,
    ) -> Time {
        obs.tick(at);
        let coord = self.mapping.coord(block);
        self.housekeeping(at);
        let bus_start = self.bus_busy[coord.channel as usize].reserve(at, self.transfer);
        let arrival = bus_start + self.transfer;
        self.tracker.record(kind, self.transfer, arrival);
        obs.count(EventKind::BusTransfer);
        arrival
    }

    fn housekeeping(&mut self, at: Time) {
        self.max_stamp = self.max_stamp.max(at);
        self.accesses_since_prune += 1;
        if self.accesses_since_prune >= 1024 {
            self.accesses_since_prune = 0;
            let cutoff = Time::from_picos(
                self.max_stamp
                    .picos()
                    .saturating_sub(RESERVATION_HORIZON.picos()),
            );
            for bank in &mut self.bank_busy {
                bank.prune(cutoff);
            }
            for bus in &mut self.bus_busy {
                bus.prune(cutoff);
            }
        }
    }

    /// Bandwidth/traffic statistics.
    pub fn tracker(&self) -> &BandwidthTracker {
        &self.tracker
    }

    /// Total row activations (for the energy model).
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Demand accesses that hit an open row.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Demand accesses that found the bank's row buffer closed.
    pub fn row_closed(&self) -> u64 {
        self.row_closed
    }

    /// Demand accesses that conflicted with a different open row.
    pub fn row_conflicts(&self) -> u64 {
        self.row_conflicts
    }

    /// Resets statistics (not bank state), e.g. after warm-up.
    pub fn reset_stats(&mut self) {
        self.tracker = BandwidthTracker::new();
        self.activations = 0;
        self.row_hits = 0;
        self.row_closed = 0;
        self.row_conflicts = 0;
    }

    /// Resets the device to its exact just-constructed state while keeping
    /// every allocation (row state, reservation lists, statistics). Used
    /// by the run-matrix arena so a worker can reuse one `Dram` across
    /// cells with bit-identical results.
    pub fn reset_full(&mut self) {
        for row in &mut self.bank_rows {
            *row = None;
        }
        for bank in &mut self.bank_busy {
            bank.clear();
        }
        for bus in &mut self.bus_busy {
            bus.clear();
        }
        self.reset_stats();
        self.max_stamp = Time::ZERO;
        self.accesses_since_prune = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clme_obs::NopSink;

    fn dram() -> Dram {
        Dram::new(&SystemConfig::isca_table1())
    }

    fn ns(v: f64) -> TimeDelta {
        TimeDelta::from_ns_f64(v)
    }

    #[test]
    fn row_outcome_counters_track_accesses() {
        let nop = &mut NopSink;
        let mut d = dram();
        let first = d.access(BlockAddr::new(0), AccessKind::Read, Time::ZERO, nop);
        assert_eq!((d.row_closed(), d.row_hits(), d.row_conflicts()), (1, 0, 0));
        d.access(BlockAddr::new(1), AccessKind::Read, first.arrival, nop);
        assert_eq!((d.row_closed(), d.row_hits(), d.row_conflicts()), (1, 1, 0));
        d.reset_stats();
        assert_eq!((d.row_closed(), d.row_hits(), d.row_conflicts()), (0, 0, 0));
    }

    #[test]
    fn closed_row_pays_rcd_plus_cl() {
        let nop = &mut NopSink;
        let mut d = dram();
        let a = d.access(BlockAddr::new(0), AccessKind::Read, Time::ZERO, nop);
        assert_eq!(a.row, RowOutcome::Closed);
        // 13.75 + 13.75 + 2.5 transfer = 30 ns.
        assert_eq!(a.arrival, Time::ZERO + ns(30.0));
    }

    #[test]
    fn row_hit_pays_cl_only() {
        let nop = &mut NopSink;
        let mut d = dram();
        let first = d.access(BlockAddr::new(0), AccessKind::Read, Time::ZERO, nop);
        let second = d.access(BlockAddr::new(1), AccessKind::Read, first.arrival, nop);
        assert_eq!(second.row, RowOutcome::Hit);
        assert_eq!(second.arrival - first.arrival, ns(13.75) + ns(2.5));
    }

    #[test]
    fn row_conflict_pays_full_cycle() {
        let nop = &mut NopSink;
        let mut d = dram();
        let cfg = SystemConfig::isca_table1();
        let blocks_per_row = cfg.row_bytes / 64;
        let banks = (cfg.ranks * cfg.banks_per_rank) as u64;
        let conflicting = BlockAddr::new(blocks_per_row * banks);
        let first = d.access(BlockAddr::new(0), AccessKind::Read, Time::ZERO, nop);
        let second = d.access(conflicting, AccessKind::Read, first.arrival, nop);
        assert_eq!(second.row, RowOutcome::Conflict);
        assert_eq!(second.arrival - first.arrival, ns(13.75) * 3 + ns(2.5));
    }

    #[test]
    fn bus_serialises_concurrent_banks() {
        let nop = &mut NopSink;
        let mut d = dram();
        let cfg = SystemConfig::isca_table1();
        let blocks_per_row = cfg.row_bytes / 64;
        // Two different banks at the same instant: array latencies
        // overlap, data transfers serialise.
        let a = d.access(BlockAddr::new(0), AccessKind::Read, Time::ZERO, nop);
        let b = d.access(
            BlockAddr::new(blocks_per_row),
            AccessKind::Read,
            Time::ZERO,
            nop,
        );
        assert_ne!(a.coord.bank, b.coord.bank);
        assert_eq!(b.bus_start, a.arrival, "second transfer waits for the bus");
        assert_eq!(b.arrival - a.arrival, ns(2.5));
    }

    #[test]
    fn same_bank_requests_serialise_at_the_bank() {
        let nop = &mut NopSink;
        let mut d = dram();
        let a = d.access(BlockAddr::new(0), AccessKind::Read, Time::ZERO, nop);
        let b = d.access(BlockAddr::new(2), AccessKind::Read, Time::ZERO, nop);
        assert!(b.bank_start >= a.array_done);
        assert!(b.arrival > a.arrival);
    }

    #[test]
    fn early_stamped_request_backfills_idle_time() {
        let nop = &mut NopSink;
        // The property the monotone-cursor model lacked: after a request
        // far in the future, an early-stamped request to another bank
        // still uses the idle bus before it.
        let mut d = dram();
        let cfg = SystemConfig::isca_table1();
        let blocks_per_row = cfg.row_bytes / 64;
        let late = d.access(
            BlockAddr::new(0),
            AccessKind::Read,
            Time::ZERO + TimeDelta::from_us(10),
            nop,
        );
        let early = d.access(
            BlockAddr::new(blocks_per_row),
            AccessKind::Read,
            Time::ZERO,
            nop,
        );
        assert!(
            early.arrival < late.arrival,
            "backfill must serve the early request first"
        );
        assert_eq!(early.arrival, Time::ZERO + ns(30.0));
    }

    #[test]
    fn writes_occupy_bus_like_reads() {
        let nop = &mut NopSink;
        let mut d = dram();
        let w = d.access(BlockAddr::new(0), AccessKind::Write, Time::ZERO, nop);
        let r = d.access(BlockAddr::new(128), AccessKind::Read, Time::ZERO, nop);
        assert_eq!(r.bus_start, w.arrival);
    }

    #[test]
    fn background_fills_gaps_without_delaying_later_demand() {
        let nop = &mut NopSink;
        let mut d = dram();
        let a = d.access(BlockAddr::new(0), AccessKind::Read, Time::ZERO, nop);
        let bg = d.background_access(BlockAddr::new(500), AccessKind::Write, Time::ZERO, nop);
        assert!(bg > Time::ZERO);
        // A later demand read finds free bus despite the background write.
        let later_issue = a.arrival + TimeDelta::from_us(1);
        let b = d.access(BlockAddr::new(1), AccessKind::Read, later_issue, nop);
        assert_eq!(b.arrival, later_issue + ns(13.75) + ns(2.5));
    }

    #[test]
    fn saturated_bus_makes_background_queue() {
        let nop = &mut NopSink;
        let mut d = Dram::new(&SystemConfig::low_bandwidth());
        let mut last = Time::ZERO;
        for i in 0..64u64 {
            last = d
                .access(BlockAddr::new(i), AccessKind::Read, Time::ZERO, nop)
                .arrival;
        }
        // Early gaps absorb the first few background writes, but a burst
        // of them must eventually queue past the demand transfers.
        let mut bg = Time::ZERO;
        for i in 0..200u64 {
            bg = d.background_access(BlockAddr::new(4096 + i), AccessKind::Write, Time::ZERO, nop);
        }
        assert!(
            bg >= last,
            "bg {bg} must queue past the burst ending {last}"
        );
    }

    #[test]
    fn low_bandwidth_quadruples_transfer_time() {
        let nop = &mut NopSink;
        let mut d = Dram::new(&SystemConfig::low_bandwidth());
        let a = d.access(BlockAddr::new(0), AccessKind::Read, Time::ZERO, nop);
        assert_eq!(a.arrival, Time::ZERO + ns(37.5));
    }

    #[test]
    fn activations_counted_for_non_hits() {
        let nop = &mut NopSink;
        let mut d = dram();
        d.access(BlockAddr::new(0), AccessKind::Read, Time::ZERO, nop); // closed
        d.access(BlockAddr::new(1), AccessKind::Read, Time::ZERO, nop); // hit
        let cfg = SystemConfig::isca_table1();
        let far = BlockAddr::new((cfg.row_bytes / 64) * (cfg.ranks * cfg.banks_per_rank) as u64);
        d.access(far, AccessKind::Read, Time::ZERO, nop); // conflict
        assert_eq!(d.activations(), 2);
    }

    #[test]
    fn tracker_accumulates_traffic() {
        let nop = &mut NopSink;
        let mut d = dram();
        d.access(BlockAddr::new(0), AccessKind::Read, Time::ZERO, nop);
        d.access(BlockAddr::new(1), AccessKind::Write, Time::ZERO, nop);
        assert_eq!(d.tracker().reads(), 1);
        assert_eq!(d.tracker().writes(), 1);
        assert_eq!(d.tracker().busy_time(), ns(5.0));
        let mut d2 = d.clone();
        d2.reset_stats();
        assert_eq!(d2.tracker().reads(), 0);
    }

    #[test]
    fn reservations_first_fit_and_coalesce() {
        let mut r = Reservations::default();
        let a = r.reserve(Time::ZERO, ns(10.0));
        assert_eq!(a, Time::ZERO);
        // Second at t=0 lands right after the first (coalesced).
        let b = r.reserve(Time::ZERO, ns(10.0));
        assert_eq!(b, Time::ZERO + ns(10.0));
        assert_eq!(r.len(), 1, "abutting intervals coalesce");
        // A later slot, leaving a gap.
        let c = r.reserve(Time::ZERO + ns(100.0), ns(10.0));
        assert_eq!(c, Time::ZERO + ns(100.0));
        // Backfill into the gap between 20 and 100.
        let d = r.reserve(Time::ZERO + ns(30.0), ns(10.0));
        assert_eq!(d, Time::ZERO + ns(30.0));
        // A request wanting more room than a gap offers skips it.
        let e = r.reserve(Time::ZERO + ns(12.0), ns(15.0));
        assert_eq!(e, Time::ZERO + ns(40.0));
    }

    #[test]
    fn reservations_prune_and_floor() {
        let mut r = Reservations::default();
        r.reserve(Time::ZERO, ns(10.0));
        r.prune(Time::ZERO + ns(50.0));
        assert_eq!(r.len(), 0);
        // Requests older than the floor are clamped to it.
        let s = r.reserve(Time::ZERO, ns(10.0));
        assert_eq!(s, Time::ZERO + ns(50.0));
    }

    #[test]
    fn reset_full_restores_fresh_behaviour() {
        let nop = &mut NopSink;
        // Drive a dram hard, reset it, and require the exact access
        // timings of a freshly constructed device.
        let mut used = dram();
        let mut rng = clme_types::rng::Xoshiro256::seed_from(7);
        let mut t = Time::ZERO;
        for _ in 0..5_000 {
            t += TimeDelta::from_picos(1 + rng.below(20_000));
            used.access(BlockAddr::new(rng.below(1 << 20)), AccessKind::Read, t, nop);
            used.background_access(
                BlockAddr::new(rng.below(1 << 20)),
                AccessKind::Write,
                t,
                nop,
            );
        }
        used.reset_full();
        let mut fresh = dram();
        let mut replay = clme_types::rng::Xoshiro256::seed_from(99);
        let mut at = Time::ZERO;
        for _ in 0..2_000 {
            at += TimeDelta::from_picos(1 + replay.below(15_000));
            let block = BlockAddr::new(replay.below(1 << 20));
            assert_eq!(
                used.access(block, AccessKind::Read, at, nop),
                fresh.access(block, AccessKind::Read, at, nop)
            );
        }
        assert_eq!(used.row_hits(), fresh.row_hits());
        assert_eq!(used.activations(), fresh.activations());
        assert_eq!(used.tracker().reads(), fresh.tracker().reads());
    }

    #[test]
    fn access_obs_reports_row_outcomes_and_latency() {
        let nop = &mut NopSink;
        use clme_obs::Recorder;

        let mut d = dram();
        let mut rec = Recorder::new();
        let first = d.access(BlockAddr::new(0), AccessKind::Read, Time::ZERO, &mut rec);
        d.access(BlockAddr::new(1), AccessKind::Read, first.arrival, &mut rec);
        d.background_access(BlockAddr::new(77), AccessKind::Write, Time::ZERO, &mut rec);
        assert_eq!(rec.counters().get(EventKind::RowClosed), 1);
        assert_eq!(rec.counters().get(EventKind::RowHit), 1);
        assert_eq!(rec.counters().get(EventKind::BusTransfer), 3);
        assert_eq!(rec.stage(Stage::Dram).count(), 2);
        // A silent sink must see the same timing as a recording one.
        let mut silent = dram();
        let p = silent.access(BlockAddr::new(0), AccessKind::Read, Time::ZERO, nop);
        assert_eq!(p, first);
    }

    #[test]
    fn long_run_interval_lists_stay_small() {
        let nop = &mut NopSink;
        let mut d = dram();
        let mut rng = clme_types::rng::Xoshiro256::seed_from(1);
        let mut t = Time::ZERO;
        for _ in 0..50_000 {
            t += TimeDelta::from_picos(1 + rng.below(10_000));
            d.access(BlockAddr::new(rng.below(1 << 22)), AccessKind::Read, t, nop);
            if rng.chance(0.5) {
                d.background_access(
                    BlockAddr::new(rng.below(1 << 22)),
                    AccessKind::Write,
                    t,
                    nop,
                );
            }
        }
        let bus: usize = d.bus_busy.iter().map(Reservations::len).sum();
        let banks: usize = d.bank_busy.iter().map(Reservations::len).sum();
        assert!(bus < 100_000, "bus interval list exploded: {bus}");
        assert!(banks < 200_000, "bank interval lists exploded: {banks}");
    }
}

#[cfg(test)]
mod reservation_properties {
    use super::*;
    use clme_obs::NopSink;
    use clme_types::rng::Xoshiro256;

    /// The first-fit scan from index 0 that `reserve`'s binary-searched
    /// start must reproduce: the earliest `t >= max(at, floor)` with
    /// `[t, t + dur)` free.
    fn linear_first_fit(r: &Reservations, at: u64, dur: u64) -> u64 {
        let mut t = at.max(r.floor);
        for &(s, e) in &r.busy {
            if e <= t {
                continue;
            }
            if s >= t + dur {
                break;
            }
            t = e;
        }
        t
    }

    /// After any sequence of reservations, the busy list is sorted,
    /// non-overlapping, every reservation started at or after its
    /// requested time, and each start equals the naive linear
    /// first-fit's. Randomised over 64 seeded request sequences, with
    /// occasional prunes moving the floor.
    #[test]
    fn intervals_stay_sorted_and_disjoint() {
        for case in 0..64u64 {
            let mut rng = Xoshiro256::seed_from(0xD7A1 + case);
            let len = 1 + rng.below(199) as usize;
            let requests: Vec<(u64, u64)> = (0..len)
                .map(|_| (rng.below(1_000_000), 1 + rng.below(4_999)))
                .collect();
            let mut r = Reservations::default();
            let mut pruned = Reservations::default();
            for &(at, dur) in &requests {
                let expected = linear_first_fit(&r, at, dur);
                let start = r.reserve(Time::from_picos(at), TimeDelta::from_picos(dur));
                assert_eq!(start.picos(), expected, "case {case}: first fit moved");
                assert!(start.picos() >= at, "case {case}");
                let expected = linear_first_fit(&pruned, at, dur);
                let start = pruned.reserve(Time::from_picos(at), TimeDelta::from_picos(dur));
                assert_eq!(start.picos(), expected, "case {case}: first fit moved");
                if rng.chance(0.05) {
                    pruned.prune(Time::from_picos(rng.below(1_000_000)));
                }
            }
            for pair in r.busy.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "case {case} overlap: {pair:?}");
            }
            let total: u64 = r.busy.iter().map(|&(s, e)| e - s).sum();
            let requested: u64 = requests.iter().map(|&(_, d)| d).sum();
            assert_eq!(
                total, requested,
                "case {case}: reserved time must be conserved"
            );
        }
    }

    /// Demand accesses always arrive after their issue time and
    /// arrivals on one bank never regress below the array occupancy.
    #[test]
    fn accesses_respect_causality() {
        let nop = &mut NopSink;
        for case in 0..64u64 {
            let mut rng = Xoshiro256::seed_from(0xCA05 + case);
            let len = 1 + rng.below(199) as usize;
            let mut d = Dram::new(&SystemConfig::isca_table1());
            for _ in 0..len {
                let at = rng.below(10_000_000);
                let block = rng.below(1 << 22);
                let access = d.access(
                    BlockAddr::new(block),
                    AccessKind::Read,
                    Time::from_picos(at),
                    nop,
                );
                assert!(access.bank_start.picos() >= at, "case {case}");
                assert!(access.array_done > access.bank_start, "case {case}");
                assert!(access.bus_start >= access.array_done, "case {case}");
                assert!(access.arrival > access.bus_start, "case {case}");
            }
        }
    }
}
