//! Virtual simulation time.
//!
//! The paper measures everything in seconds: the broadcast latency `L`,
//! the TS window `w = kL`, update timestamps `t_j`, and the client-side
//! "age" variable `T_l` (the timestamp of the last report heard). We model
//! time as a non-negative `f64` wrapped in [`SimTime`], which gives us a
//! total order (NaN is rejected at construction) and explicit, readable
//! interval arithmetic instead of bare floats threaded through the code.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in seconds since the start of the simulation.
///
/// `SimTime` is totally ordered. Construction rejects NaN and negative
/// values with a panic, because a NaN timestamp anywhere in the event
/// queue would silently corrupt the ordering of the whole simulation.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

/// A span of virtual time, in seconds. Unlike [`SimTime`], a duration is
/// allowed to be zero but never negative or NaN.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The origin of the simulation clock (`t = 0`).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point at `seconds` since the origin.
    ///
    /// # Panics
    /// Panics if `seconds` is NaN or negative.
    #[inline]
    pub fn from_secs(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "SimTime must be finite and non-negative, got {seconds}"
        );
        SimTime(seconds)
    }

    /// Seconds since the origin as a raw `f64`.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The wire representation: integer microseconds since the origin,
    /// rounded to nearest. Every report, answer and live tag carries
    /// time in this unit.
    #[inline]
    pub fn as_micros(self) -> u64 {
        (self.0 * 1e6).round() as u64
    }

    /// The inverse of [`SimTime::as_micros`]: a wire timestamp back on
    /// the simulation clock.
    #[inline]
    pub fn from_micros(micros: u64) -> Self {
        SimTime::from_secs(micros as f64 / 1e6)
    }

    /// The (non-negative) duration from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; elapsed time cannot be
    /// negative, and callers that could race should compare first.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            self.0 >= earlier.0,
            "duration_since: {earlier:?} is later than {self:?}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating difference: zero if `earlier` is later than `self`.
    #[inline]
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0.0))
    }

    /// Returns the index of the broadcast interval containing this time,
    /// for reports broadcast at `T_i = i·L`. A time exactly on a report
    /// boundary belongs to the interval it *starts*.
    #[inline]
    pub fn interval_index(self, latency: SimDuration) -> u64 {
        assert!(latency.0 > 0.0, "interval latency must be positive");
        (self.0 / latency.0).floor() as u64
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration of `seconds`.
    ///
    /// # Panics
    /// Panics if `seconds` is NaN or negative.
    #[inline]
    pub fn from_secs(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "SimDuration must be finite and non-negative, got {seconds}"
        );
        SimDuration(seconds)
    }

    /// Length in seconds as a raw `f64`.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Duration scaled by a non-negative factor (e.g. `w = k·L`).
    #[inline]
    pub fn scaled(self, factor: f64) -> Self {
        SimDuration::from_secs(self.0 * factor)
    }

    /// True if this duration is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction guarantees non-NaN, so partial_cmp cannot fail.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for SimDuration {}

impl Ord for SimDuration {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimDuration is never NaN")
    }
}

impl PartialOrd for SimDuration {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ{:.6}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_secs(10.0) + SimDuration::from_secs(5.0);
        assert_eq!(t.as_secs(), 15.0);
        assert_eq!((t - SimTime::from_secs(10.0)).as_secs(), 5.0);
    }

    #[test]
    fn interval_index_matches_report_schedule() {
        let latency = SimDuration::from_secs(10.0);
        assert_eq!(SimTime::from_secs(0.0).interval_index(latency), 0);
        assert_eq!(SimTime::from_secs(9.999).interval_index(latency), 0);
        assert_eq!(SimTime::from_secs(10.0).interval_index(latency), 1);
        assert_eq!(SimTime::from_secs(25.0).interval_index(latency), 2);
    }

    #[test]
    fn micros_round_to_nearest_and_round_trip() {
        assert_eq!(SimTime::from_secs(17.0).as_micros(), 17_000_000);
        assert_eq!(SimTime::from_secs(0.1 + 0.2).as_micros(), 300_000);
        assert_eq!(SimTime::from_micros(12_345_678).as_micros(), 12_345_678);
    }

    #[test]
    fn saturating_difference_clamps() {
        let a = SimTime::from_secs(3.0);
        let b = SimTime::from_secs(5.0);
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_duration_since(a).as_secs(), 2.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "later than")]
    fn negative_duration_rejected() {
        let _ = SimTime::from_secs(1.0).duration_since(SimTime::from_secs(2.0));
    }

    #[test]
    fn duration_scaling_builds_window() {
        // w = k·L with k = 100, L = 10 s, as in Scenario 1.
        let l = SimDuration::from_secs(10.0);
        assert_eq!(l.scaled(100.0).as_secs(), 1000.0);
    }
}
