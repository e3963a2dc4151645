//! The encryption layer's flight recorder: what the black box records.
//!
//! [`clme_obs::FlightRing`] stores opaque `(seq, kind, a, b)` events;
//! this module gives them meaning. [`FlightKind`] is the stable event
//! vocabulary (codes go into `.clmedump` bundles, so variants may be
//! added but never renumbered), and [`FlightRecorder`] is the typed
//! recording facade the layer calls from its hot paths.
//!
//! The layer's observer is the recorder's only caller: it turns each
//! finished visit record into events (a `telemetry-off` build has no
//! recorder at all, and its timeline is empty). Recording never reads a
//! clock — event order comes from the ring's global sequence stamp — so
//! the captured timeline is deterministic for a deterministic workload.

use clme_obs::flight::{FlightRing, FlightSnapshot};

use crate::error::TamperClass;
use crate::metrics::CacheCause;

/// Default number of events the layer's flight ring retains.
pub const FLIGHT_CAPACITY: usize = 4096;

/// A shard-lock wait at or above this many nanoseconds becomes a
/// [`FlightKind::LockSlow`] event. Normal uncontended acquisitions are
/// hundreds of nanoseconds; 100µs means a page lock was genuinely
/// queued behind a page roll or a rekey sweep.
pub const SLOW_LOCK_NS: u64 = 100_000;

/// A page's ciphertext-write observation count becomes a
/// [`FlightKind::WriteBurst`] event each time it crosses a power of two
/// at or above this floor (64, 128, 256, ...). Count-based, not
/// clock-based, so burst events are deterministic — the CipherGuard
/// observation that attacks manifest as per-page write bursts.
pub const BURST_FLOOR: u64 = 64;

/// Every how many swept pages a rekey sweep records a
/// [`FlightKind::RekeyPage`] progress event.
pub const REKEY_FLIGHT_EVERY: u64 = 64;

/// Stable event vocabulary for the flight ring. The discriminants are
/// the on-wire codes inside `.clmedump` bundles: append-only, never
/// renumber.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum FlightKind {
    /// A page group of a batch read verified and decrypted.
    /// `a` = page, `b` = blocks read from the page.
    ReadPage = 1,
    /// A page group of a batch write committed.
    /// `a` = page, `b` = blocks written to the page.
    WritePage = 2,
    /// An integrity check failed. `a` = probe block address,
    /// `b` = [`TamperClass::code`].
    IntegrityFail = 3,
    /// A write rolled its whole page (64 blocks re-encrypted).
    /// `a` = page.
    PageRoll = 4,
    /// A rekey sweep started with all locks held. `a` = pages to sweep.
    RekeyBegin = 5,
    /// Rekey progress: page `a` finished (recorded every
    /// [`REKEY_FLIGHT_EVERY`] pages).
    RekeyPage = 6,
    /// A rekey sweep ended. `a` = 1 on success, 0 on failure.
    RekeyEnd = 7,
    /// A sampled shard-lock wait crossed [`SLOW_LOCK_NS`].
    /// `a` = shard index, `b` = wait in nanoseconds.
    LockSlow = 8,
    /// A page's ciphertext-write count crossed a power of two at or
    /// above [`BURST_FLOOR`]. `a` = page, `b` = the count.
    WriteBurst = 9,
    /// The verified-page cache dropped entries.
    /// `a` = [`CacheCause::code`](crate::CacheCause), `b` = entries
    /// dropped.
    CachePurge = 10,
    /// A page group of a batch read was served entirely from the
    /// verified-page cache (no store traffic, no MAC work).
    /// `a` = page, `b` = blocks served.
    ReadHit = 11,
    /// A multi-tenant driver completed one composed batch for a tenant.
    /// `a` = tenant id, `b` = `(blocks << 1) | is_write`. Tags the
    /// timeline with *whose* traffic surrounded an incident so a
    /// post-mortem can name the suspect tenant.
    TenantBatch = 12,
}

/// All kinds, for render tables and exhaustiveness tests.
pub const FLIGHT_KINDS: [FlightKind; 12] = [
    FlightKind::ReadPage,
    FlightKind::WritePage,
    FlightKind::IntegrityFail,
    FlightKind::PageRoll,
    FlightKind::RekeyBegin,
    FlightKind::RekeyPage,
    FlightKind::RekeyEnd,
    FlightKind::LockSlow,
    FlightKind::WriteBurst,
    FlightKind::CachePurge,
    FlightKind::ReadHit,
    FlightKind::TenantBatch,
];

impl FlightKind {
    /// Stable dashed name for dump bundles and timelines.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::ReadPage => "read-page",
            FlightKind::WritePage => "write-page",
            FlightKind::IntegrityFail => "integrity-fail",
            FlightKind::PageRoll => "page-roll",
            FlightKind::RekeyBegin => "rekey-begin",
            FlightKind::RekeyPage => "rekey-page",
            FlightKind::RekeyEnd => "rekey-end",
            FlightKind::LockSlow => "lock-slow",
            FlightKind::WriteBurst => "write-burst",
            FlightKind::CachePurge => "cache-purge",
            FlightKind::ReadHit => "read-hit",
            FlightKind::TenantBatch => "tenant-batch",
        }
    }

    /// Inverse of the discriminant. `None` for codes from a newer
    /// vocabulary than this build.
    pub fn from_code(code: u16) -> Option<FlightKind> {
        FLIGHT_KINDS.iter().copied().find(|k| *k as u16 == code)
    }
}

/// Typed facade over the lock-free flight ring. One per
/// [`EncryptionLayer`](crate::EncryptionLayer); shared by reference
/// across every thread using the layer.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: FlightRing,
}

impl FlightRecorder {
    /// A recorder retaining about `capacity` events.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: FlightRing::new(capacity),
        }
    }

    /// A page group of a batch read completed.
    #[inline]
    pub fn read_page(&self, page: u64, blocks: u64) {
        self.ring.record(FlightKind::ReadPage as u16, page, blocks);
    }

    /// A page group of a batch write committed.
    #[inline]
    pub fn write_page(&self, page: u64, blocks: u64) {
        self.ring.record(FlightKind::WritePage as u16, page, blocks);
    }

    /// An integrity check failed.
    #[inline]
    pub fn integrity_fail(&self, addr: u64, class: TamperClass) {
        self.ring
            .record(FlightKind::IntegrityFail as u16, addr, class.code() as u64);
    }

    /// A page roll happened.
    #[inline]
    pub fn page_roll(&self, page: u64) {
        self.ring.record(FlightKind::PageRoll as u16, page, 0);
    }

    /// A rekey sweep is starting.
    #[inline]
    pub fn rekey_begin(&self, pages: u64) {
        self.ring.record(FlightKind::RekeyBegin as u16, pages, 0);
    }

    /// Rekey progress; thinned to every [`REKEY_FLIGHT_EVERY`] pages so
    /// a large sweep cannot flush the whole ring.
    #[inline]
    pub fn rekey_page(&self, page: u64) {
        if page % REKEY_FLIGHT_EVERY == 0 {
            self.ring.record(FlightKind::RekeyPage as u16, page, 0);
        }
    }

    /// A rekey sweep finished.
    #[inline]
    pub fn rekey_end(&self, ok: bool) {
        self.ring.record(FlightKind::RekeyEnd as u16, ok as u64, 0);
    }

    /// A sampled lock wait was measured; records only past the
    /// [`SLOW_LOCK_NS`] threshold.
    #[inline]
    pub fn lock_wait(&self, shard: usize, wait_ns: u64) {
        if wait_ns >= SLOW_LOCK_NS {
            self.ring
                .record(FlightKind::LockSlow as u16, shard as u64, wait_ns);
        }
    }

    /// A ciphertext write raised `page`'s observation count to `count`;
    /// records a burst event on power-of-two crossings at or above
    /// [`BURST_FLOOR`].
    #[inline]
    pub fn ciphertext_write(&self, page: u64, count: u64) {
        if count >= BURST_FLOOR && count.is_power_of_two() {
            self.ring.record(FlightKind::WriteBurst as u16, page, count);
        }
    }

    /// The verified-page cache dropped `dropped` entries for `cause`.
    /// Per-page write invalidations are not recorded here (they would
    /// shadow every [`FlightKind::WritePage`]); this is for the bulk
    /// purges — rekey, tamper, foreign writes.
    #[inline]
    pub fn cache_purge(&self, cause: CacheCause, dropped: u64) {
        self.ring
            .record(FlightKind::CachePurge as u16, cause.code(), dropped);
    }

    /// A page group was served entirely from the verified-page cache.
    #[inline]
    pub fn read_hit(&self, page: u64, blocks: u64) {
        self.ring.record(FlightKind::ReadHit as u16, page, blocks);
    }

    /// A multi-tenant driver finished one composed batch for `tenant`.
    /// `write` distinguishes the op; `blocks` is the batch size.
    #[inline]
    pub fn tenant_batch(&self, tenant: u64, blocks: u64, write: bool) {
        self.ring.record(
            FlightKind::TenantBatch as u16,
            tenant,
            (blocks << 1) | write as u64,
        );
    }

    /// Merged, seq-ordered view of the retained events.
    pub fn snapshot(&self) -> FlightSnapshot {
        self.ring.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip_and_names_are_distinct() {
        let mut names = std::collections::HashSet::new();
        for k in FLIGHT_KINDS {
            assert_eq!(FlightKind::from_code(k as u16), Some(k));
            assert!(names.insert(k.name()), "names must be unique");
        }
        assert_eq!(FlightKind::from_code(0), None);
        assert_eq!(FlightKind::from_code(999), None);
    }

    #[test]
    fn thresholds_gate_slow_lock_and_burst_events() {
        let rec = FlightRecorder::new(256);
        rec.lock_wait(3, SLOW_LOCK_NS - 1);
        rec.ciphertext_write(9, BURST_FLOOR - 1);
        rec.ciphertext_write(9, BURST_FLOOR + 1); // not a power of two
        assert!(rec.snapshot().events.is_empty());

        rec.lock_wait(3, SLOW_LOCK_NS);
        rec.ciphertext_write(9, BURST_FLOOR);
        rec.ciphertext_write(9, BURST_FLOOR * 2);
        let events = rec.snapshot().events;
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, FlightKind::LockSlow as u16);
        assert_eq!(events[1].a, 9);
        assert_eq!(events[1].b, BURST_FLOOR);
        assert_eq!(events[2].b, BURST_FLOOR * 2);
    }

    #[test]
    fn rekey_progress_is_thinned() {
        let rec = FlightRecorder::new(256);
        for page in 0..200 {
            rec.rekey_page(page);
        }
        let events = rec.snapshot().events;
        let pages: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(pages, vec![0, 64, 128, 192]);
    }
}
