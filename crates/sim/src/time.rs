//! Integer simulation time.
//!
//! The analytic models keep wall-clock time as `f64` microseconds
//! ([`qla_physical::Time`]), which is the right tool for closed-form
//! arithmetic but the wrong one for an event queue: float addition is not
//! associative, so the accumulated clock of a long run could depend on the
//! order intermediate sums were formed in, and the byte-reproducibility
//! contract of the evaluation suite (identical output at every `--jobs`
//! count, on every platform) would hinge on last-ulp behaviour. [`SimTime`]
//! is the discrete-event engine's clock instead: a `u64` count of
//! **nanoseconds**, totally ordered, overflow-checked in debug builds, and
//! exact for simulated horizons up to ~584 years — far beyond the tens of
//! hours a 128-bit factorisation runs for.

use qla_physical::Time;
use serde::Serialize;

/// A point (or span) of simulated time, in integer nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// A time from a raw nanosecond count.
    #[must_use]
    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// The nearest-nanosecond conversion of an analytic [`Time`].
    ///
    /// # Panics
    /// Panics on negative or non-finite durations — the analytic layer has
    /// no business handing either to the event queue.
    #[must_use]
    pub fn from_time(t: Time) -> Self {
        let ns = t.as_nanos();
        assert!(
            ns.is_finite() && ns >= 0.0,
            "cannot simulate a non-finite or negative duration ({ns} ns)"
        );
        SimTime(ns.round() as u64)
    }

    /// The raw nanosecond count.
    #[must_use]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// This time as fractional milliseconds (for report columns).
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference (`self - earlier`, floored at zero).
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }

    /// How many whole-or-partial `window`s have elapsed at this instant —
    /// `ceil(self / window)`, the "windows used" of a makespan. Zero time
    /// uses zero windows.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    #[must_use]
    pub fn windows_spanned(self, window: SimTime) -> usize {
        assert!(window.0 > 0, "window must be positive");
        (self.0.div_ceil(window.0)) as usize
    }
}

impl core::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl core::ops::AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl core::ops::Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.checked_mul(rhs).expect("SimTime overflow"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip_at_nanosecond_precision() {
        let t = SimTime::from_time(Time::from_micros(573.25));
        assert_eq!(t.nanos(), 573_250);
        assert_eq!(t.as_millis_f64(), 0.57325);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(3);
        assert_eq!((a + b).nanos(), 13);
        assert_eq!((a * 4).nanos(), 40);
        assert_eq!(b.saturating_since(a), SimTime::ZERO);
        assert_eq!(a.saturating_since(b).nanos(), 7);
        assert!(b < a);
    }

    #[test]
    fn windows_spanned_is_a_ceiling() {
        let w = SimTime::from_nanos(100);
        assert_eq!(SimTime::ZERO.windows_spanned(w), 0);
        assert_eq!(SimTime::from_nanos(1).windows_spanned(w), 1);
        assert_eq!(SimTime::from_nanos(100).windows_spanned(w), 1);
        assert_eq!(SimTime::from_nanos(101).windows_spanned(w), 2);
    }

    #[test]
    #[should_panic(expected = "non-finite or negative")]
    fn negative_durations_are_rejected() {
        let _ = SimTime::from_time(Time::from_micros(-1.0));
    }
}
