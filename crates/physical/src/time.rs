//! A small fixed-meaning time type used throughout the QLA model.
//!
//! Quantum-architecture time scales span eleven orders of magnitude in this
//! paper — from 10 ns per micron of ballistic movement up to tens of hours for
//! a 128-bit factorisation — so we keep time as an `f64` number of
//! **microseconds** (the natural unit of Table 1) and provide explicit
//! constructors/accessors for every unit that appears in the paper.

use serde::{Deserialize, Serialize};

/// A span of (simulated) time.
///
/// Internally stored as `f64` microseconds. Supports addition, subtraction,
/// scaling by a count of operations, and comparison.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Time {
    micros: f64,
}

impl Time {
    /// The zero duration.
    pub const ZERO: Time = Time { micros: 0.0 };

    /// Construct from nanoseconds.
    #[must_use]
    pub fn from_nanos(ns: f64) -> Self {
        Time { micros: ns / 1e3 }
    }

    /// Construct from microseconds.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Time { micros: us }
    }

    /// Construct from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Time { micros: ms * 1e3 }
    }

    /// Construct from seconds.
    #[must_use]
    pub fn from_secs(s: f64) -> Self {
        Time { micros: s * 1e6 }
    }

    /// Construct from hours.
    #[must_use]
    pub fn from_hours(h: f64) -> Self {
        Time::from_secs(h * 3600.0)
    }

    /// The duration in nanoseconds.
    #[must_use]
    pub fn as_nanos(&self) -> f64 {
        self.micros * 1e3
    }

    /// The duration in microseconds.
    #[must_use]
    pub fn as_micros(&self) -> f64 {
        self.micros
    }

    /// The duration in milliseconds.
    #[must_use]
    pub fn as_millis(&self) -> f64 {
        self.micros / 1e3
    }

    /// The duration in seconds.
    #[must_use]
    pub fn as_secs(&self) -> f64 {
        self.micros / 1e6
    }

    /// The duration in hours.
    #[must_use]
    pub fn as_hours(&self) -> f64 {
        self.as_secs() / 3600.0
    }

    /// The duration in days.
    #[must_use]
    pub fn as_days(&self) -> f64 {
        self.as_hours() / 24.0
    }

    /// The larger of two durations.
    #[must_use]
    pub fn max(self, other: Time) -> Time {
        if self.micros >= other.micros {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    #[must_use]
    pub fn min(self, other: Time) -> Time {
        if self.micros <= other.micros {
            self
        } else {
            other
        }
    }
}

impl core::ops::Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time {
            micros: self.micros + rhs.micros,
        }
    }
}

impl core::ops::AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.micros += rhs.micros;
    }
}

impl core::ops::Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time {
            micros: self.micros - rhs.micros,
        }
    }
}

impl core::ops::Mul<f64> for Time {
    type Output = Time;
    fn mul(self, rhs: f64) -> Time {
        Time {
            micros: self.micros * rhs,
        }
    }
}

impl core::ops::Mul<usize> for Time {
    type Output = Time;
    fn mul(self, rhs: usize) -> Time {
        Time {
            micros: self.micros * rhs as f64,
        }
    }
}

impl core::ops::Div<f64> for Time {
    type Output = Time;
    fn div(self, rhs: f64) -> Time {
        Time {
            micros: self.micros / rhs,
        }
    }
}

impl core::iter::Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |acc, t| acc + t)
    }
}

impl core::fmt::Display for Time {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.as_secs();
        if s >= 3600.0 {
            write!(f, "{:.2} h", self.as_hours())
        } else if s >= 1.0 {
            write!(f, "{s:.3} s")
        } else if self.micros >= 1e3 {
            write!(f, "{:.3} ms", self.as_millis())
        } else if self.micros >= 1.0 {
            write!(f, "{:.3} us", self.micros)
        } else {
            write!(f, "{:.3} ns", self.as_nanos())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_round_trips() {
        assert_eq!(Time::from_nanos(1500.0).as_micros(), 1.5);
        assert_eq!(Time::from_micros(2.0).as_nanos(), 2000.0);
        assert_eq!(Time::from_millis(3.0).as_micros(), 3000.0);
        assert_eq!(Time::from_secs(1.0).as_millis(), 1000.0);
        assert_eq!(Time::from_hours(2.0).as_secs(), 7200.0);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_micros(10.0);
        let b = Time::from_micros(5.0);
        assert_eq!((a + b).as_micros(), 15.0);
        assert_eq!((a - b).as_micros(), 5.0);
        assert_eq!((a * 3.0).as_micros(), 30.0);
        assert_eq!((a * 4usize).as_micros(), 40.0);
        assert_eq!((a / 2.0).as_micros(), 5.0);
        let mut c = a;
        c += b;
        assert_eq!(c.as_micros(), 15.0);
    }

    #[test]
    fn comparison_and_minmax() {
        let a = Time::from_micros(1.0);
        let b = Time::from_micros(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Time = (0..10).map(|_| Time::from_micros(1.0)).sum();
        assert_eq!(total.as_micros(), 10.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Time::from_nanos(10.0)), "10.000 ns");
        assert_eq!(format!("{}", Time::from_micros(10.0)), "10.000 us");
        assert_eq!(format!("{}", Time::from_millis(10.0)), "10.000 ms");
        assert_eq!(format!("{}", Time::from_secs(10.0)), "10.000 s");
        assert_eq!(format!("{}", Time::from_hours(10.0)), "10.00 h");
    }
}
