//! Ballistic channels: pipelined ion shuttling along a line of empty cells.
//!
//! Section 2.1 models a channel of `D` empty cells with per-cell hop time
//! `T = 0.01 µs` and an initial split cost `τ = 10 µs`, giving a single-trip
//! latency of `τ + T·D`. Because neighbouring electrode cells are controlled
//! independently, several ions may be in flight simultaneously, so a channel
//! behaves like a pipeline with throughput `1/T ≈ 100 M qubits per second`.

use crate::params::TechnologyParams;
use crate::time::Time;
use serde::{Deserialize, Serialize};

/// A straight ballistic transport channel of a fixed length.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BallisticChannel {
    /// Length of the channel in cells.
    pub length_cells: usize,
    /// Per-cell hop time.
    pub hop_time: Time,
    /// Split cost paid once when an ion leaves its chain and enters the
    /// channel.
    pub split_time: Time,
    /// Per-cell movement failure probability.
    pub per_cell_failure: f64,
}

impl BallisticChannel {
    /// Build a channel of `length_cells` cells using the given technology.
    #[must_use]
    pub fn new(length_cells: usize, tech: &TechnologyParams) -> Self {
        BallisticChannel {
            length_cells,
            hop_time: tech.times.move_per_cell,
            split_time: tech.times.split,
            per_cell_failure: tech.failures.move_per_cell,
        }
    }

    /// Latency for a single ion to traverse the full channel:
    /// `τ + T·D` (Section 2.1).
    #[must_use]
    pub fn single_trip_latency(&self) -> Time {
        self.split_time + self.hop_time * self.length_cells
    }

    /// Latency for `n` ions to traverse the channel when pipelined: the first
    /// ion pays the full trip, each subsequent ion emerges one hop time later.
    #[must_use]
    pub fn pipelined_latency(&self, n: usize) -> Time {
        if n == 0 {
            return Time::ZERO;
        }
        self.single_trip_latency() + self.hop_time * (n - 1)
    }

    /// Steady-state throughput in qubits per second (`1 / T`).
    #[must_use]
    pub fn bandwidth_qbps(&self) -> f64 {
        1.0 / (self.hop_time.as_secs())
    }

    /// Probability that an ion is corrupted while traversing the channel
    /// (accumulated per cell, plus one split's worth of stress).
    #[must_use]
    pub fn traverse_failure(&self) -> f64 {
        let move_fail = 1.0 - (1.0 - self.per_cell_failure).powi(self.length_cells as i32);
        1.0 - (1.0 - move_fail) * (1.0 - self.per_cell_failure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel(cells: usize) -> BallisticChannel {
        BallisticChannel::new(cells, &TechnologyParams::expected())
    }

    #[test]
    fn single_trip_latency_matches_section_2_1() {
        // τ + T·D with τ = 10 µs, T = 0.01 µs, D = 1000 → 20 µs.
        let c = channel(1000);
        assert!((c.single_trip_latency().as_micros() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_is_about_100m_qbps() {
        let c = channel(100);
        let bw = c.bandwidth_qbps();
        assert!(bw > 9.9e7 && bw < 1.01e8, "bandwidth {bw}");
    }

    #[test]
    fn pipelining_amortises_the_split() {
        let c = channel(500);
        let one = c.pipelined_latency(1);
        let hundred = c.pipelined_latency(100);
        assert_eq!(one, c.single_trip_latency());
        // 100 qubits cost only 99 extra hop times, not 99 extra full trips.
        assert!(hundred.as_micros() < one.as_micros() + 1.0);
        assert_eq!(c.pipelined_latency(0), Time::ZERO);
    }

    #[test]
    fn traverse_failure_grows_with_length() {
        let short = channel(10).traverse_failure();
        let long = channel(1000).traverse_failure();
        assert!(short < long);
        assert!(long < 2e-3);
    }

    #[test]
    fn longer_channels_take_longer() {
        assert!(channel(2000).single_trip_latency() > channel(200).single_trip_latency());
    }
}
