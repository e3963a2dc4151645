//! Integer-picosecond simulated time.
//!
//! All timing in the workspace uses two newtypes: [`Time`], an absolute
//! point on the simulated clock, and [`TimeDelta`], a duration. Both wrap a
//! `u64` count of picoseconds. Picoseconds were chosen because every
//! latency in the paper is an exact multiple of 1 ps:
//!
//! * a 3.2 GHz core cycle is 312.5 ps (we round *down* when converting a
//!   frequency, and the error over a 20 ms window is < 0.2%),
//! * Table I's DRAM timings (13.75 ns) are 13 750 ps,
//! * the 0.75 ns / 1.25 ns sub-block latencies of Section IV-D are 750 ps
//!   and 1 250 ps.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;

/// An absolute point in simulated time, in picoseconds since simulation
/// start.
///
/// # Examples
///
/// ```
/// use clme_types::time::{Time, TimeDelta};
///
/// let t = Time::ZERO + TimeDelta::from_ns(5);
/// assert_eq!(t - Time::ZERO, TimeDelta::from_ns(5));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u64);

/// A span of simulated time, in picoseconds.
///
/// # Examples
///
/// ```
/// use clme_types::time::TimeDelta;
///
/// let d = TimeDelta::from_ns(2) * 3;
/// assert_eq!(d.as_ns_f64(), 6.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeDelta(u64);

impl Time {
    /// The origin of simulated time.
    pub const ZERO: Time = Time(0);

    /// A time later than any time a simulation will reach; useful as the
    /// initial value of `min`-folds.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from a raw picosecond count.
    #[inline]
    pub const fn from_picos(ps: u64) -> Time {
        Time(ps)
    }

    /// Returns the raw picosecond count.
    #[inline]
    pub const fn picos(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional nanoseconds (for reporting only).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Saturating subtraction: returns `self - other`, or
    /// [`TimeDelta::ZERO`] when `other` is later than `self`.
    #[inline]
    pub fn saturating_since(self, other: Time) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(other.0))
    }

    /// Returns the later of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Returns the earlier of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl TimeDelta {
    /// The empty duration.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Creates a duration from a raw picosecond count.
    #[inline]
    pub const fn from_picos(ps: u64) -> TimeDelta {
        TimeDelta(ps)
    }

    /// Creates a duration from whole nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> TimeDelta {
        TimeDelta(ns * PS_PER_NS)
    }

    /// Creates a duration from fractional nanoseconds, rounding to the
    /// nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> TimeDelta {
        assert!(ns.is_finite() && ns >= 0.0, "duration must be nonnegative");
        TimeDelta((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Creates a duration from whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> TimeDelta {
        TimeDelta(us * PS_PER_US)
    }

    /// Creates a duration from whole milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> TimeDelta {
        TimeDelta(ms * PS_PER_MS)
    }

    /// Returns the raw picosecond count.
    #[inline]
    pub const fn picos(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional nanoseconds (for reporting only).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Saturating subtraction of durations.
    #[inline]
    pub fn saturating_sub(self, other: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    #[inline]
    pub fn min(self, other: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.min(other.0))
    }
}

impl Add<TimeDelta> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: TimeDelta) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TimeDelta> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: Time) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TimeDelta {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl SubAssign for TimeDelta {
    #[inline]
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn mul(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 * rhs)
    }
}

impl Div<u64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn div(self, rhs: u64) -> TimeDelta {
        TimeDelta(self.0 / rhs)
    }
}

impl Div<TimeDelta> for TimeDelta {
    type Output = u64;
    /// Integer division of durations: how many whole `rhs` fit in `self`.
    #[inline]
    fn div(self, rhs: TimeDelta) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for TimeDelta {
    fn sum<I: Iterator<Item = TimeDelta>>(iter: I) -> TimeDelta {
        TimeDelta(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns_f64())
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(TimeDelta::from_ns(10).picos(), 10_000);
        assert_eq!(TimeDelta::from_us(100).picos(), 100_000_000);
        assert_eq!(TimeDelta::from_ms(20).picos(), 20_000_000_000);
        assert_eq!(TimeDelta::from_ns_f64(13.75).picos(), 13_750);
        assert_eq!(TimeDelta::from_ns_f64(0.75).picos(), 750);
    }

    #[test]
    fn arithmetic() {
        let t = Time::ZERO + TimeDelta::from_ns(5);
        assert_eq!((t + TimeDelta::from_ns(3)) - t, TimeDelta::from_ns(3));
        assert_eq!(TimeDelta::from_ns(6) / 2, TimeDelta::from_ns(3));
        assert_eq!(TimeDelta::from_ns(6) / TimeDelta::from_ns(4), 1);
        assert_eq!(TimeDelta::from_ns(2) * 4, TimeDelta::from_ns(8));
    }

    #[test]
    fn saturating_ops() {
        let early = Time::from_picos(10);
        let late = Time::from_picos(30);
        assert_eq!(early.saturating_since(late), TimeDelta::ZERO);
        assert_eq!(late.saturating_since(early), TimeDelta::from_picos(20));
        assert_eq!(
            TimeDelta::from_ns(1).saturating_sub(TimeDelta::from_ns(2)),
            TimeDelta::ZERO
        );
    }

    #[test]
    fn ordering_and_min_max() {
        let a = Time::from_picos(1);
        let b = Time::from_picos(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            TimeDelta::from_ns(1).max(TimeDelta::from_ns(2)),
            TimeDelta::from_ns(2)
        );
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", TimeDelta::from_ns_f64(0.75)), "0.750ns");
        assert_eq!(format!("{}", Time::ZERO), "0.000ns");
    }

    #[test]
    fn sum_of_deltas() {
        let total: TimeDelta = (1..=4).map(TimeDelta::from_ns).sum();
        assert_eq!(total, TimeDelta::from_ns(10));
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_duration_panics() {
        let _ = TimeDelta::from_ns_f64(-1.0);
    }
}
