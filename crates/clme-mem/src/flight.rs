//! The encryption layer's flight recorder: what the black box records.
//!
//! [`clme_obs::FlightRing`] stores opaque `(seq, kind, a, b)` events;
//! this module gives them meaning. [`FlightKind`] is the stable event
//! vocabulary: each kind's code, its name, and what its two payload
//! words hold. Codes go into `.clmedump` bundles, so variants may be
//! added but never renumbered.
//!
//! The layer's observer (`observe.rs`) owns the ring and is its only
//! writer: each of its methods records its own event, payload and
//! threshold ([`SLOW_LOCK_NS`](crate::SLOW_LOCK_NS),
//! [`BURST_FLOOR`](crate::BURST_FLOOR),
//! [`REKEY_FLIGHT_EVERY`](crate::REKEY_FLIGHT_EVERY)) in one place. A `telemetry-off` build has no ring, and its timeline
//! is empty. Recording never reads a clock — event order comes from the
//! ring's global sequence stamp — so the captured timeline is
//! deterministic for a deterministic workload.

/// Default number of events the layer's flight ring retains.
pub const FLIGHT_CAPACITY: usize = 4096;

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
    /// `b` = [`TamperClass::code`](crate::TamperClass::code).
    IntegrityFail = 3,
    /// A write rolled its whole page (64 blocks re-encrypted).
    /// `a` = page.
    PageRoll = 4,
    /// A rekey sweep started with all locks held. `a` = pages to sweep.
    RekeyBegin = 5,
    /// Rekey progress: page `a` finished (recorded every
    /// [`REKEY_FLIGHT_EVERY`](crate::REKEY_FLIGHT_EVERY) pages).
    RekeyPage = 6,
    /// A rekey sweep ended. `a` = 1 on success, 0 on failure.
    RekeyEnd = 7,
    /// A sampled shard-lock wait crossed
    /// [`SLOW_LOCK_NS`](crate::SLOW_LOCK_NS).
    /// `a` = shard index, `b` = wait in nanoseconds.
    LockSlow = 8,
    /// A page's ciphertext-write count crossed a power of two at or
    /// above [`BURST_FLOOR`](crate::BURST_FLOOR). `a` = page, `b` = the
    /// count.
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

    // The thresholds are the observer's: a rekey sweep's shard waits
    // and re-encryptions reach them through the same checks as a
    // caller's calls. The `telemetry-off` observer records nothing.
    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn thresholds_gate_slow_lock_and_burst_events() {
        use crate::observe::Observer;
        use crate::{BURST_FLOOR, SLOW_LOCK_NS};
        let obs = Observer::new(4, 16, 256);
        obs.rekey_lock(3, SLOW_LOCK_NS - 1);
        // 63 ciphertexts cross every power of two below the floor.
        obs.rekey_page(9, BURST_FLOOR - 1);
        assert!(obs.flight_snapshot().events.is_empty());

        obs.rekey_lock(3, SLOW_LOCK_NS);
        obs.rekey_page(9, 1); // 64: at the floor
        obs.rekey_page(9, 1); // 65: no power of two crossed
        obs.rekey_page(9, BURST_FLOOR - 1); // 128
        let events: Vec<(u16, u64, u64)> = obs
            .flight_snapshot()
            .events
            .iter()
            .map(|e| (e.kind, e.a, e.b))
            .collect();
        let burst = FlightKind::WriteBurst as u16;
        assert_eq!(
            events,
            [
                (FlightKind::LockSlow as u16, 3, SLOW_LOCK_NS),
                (burst, 9, BURST_FLOOR),
                (burst, 9, BURST_FLOOR * 2),
            ]
        );
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn rekey_progress_is_thinned() {
        let obs = crate::observe::Observer::new(1, 200, 256);
        for page in 0..200 {
            obs.rekey_page(page, 0);
        }
        let events = obs.flight_snapshot().events;
        assert!(events
            .iter()
            .all(|e| e.kind == FlightKind::RekeyPage as u16));
        let pages: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(pages, vec![0, 64, 128, 192]);
    }
}
