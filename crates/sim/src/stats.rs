//! Latency statistics: exact integer percentiles for tail analysis.
//!
//! Sojourn times come out of the engine as integer nanoseconds, so the
//! summary statistics can be exact: percentiles are nearest-rank order
//! statistics of the sorted sample (no interpolation, no floating-point
//! ambiguity), and only the mean involves a division. This keeps the
//! tail-latency reports byte-stable.

use crate::time::SimTime;
use qla_obs::stats::percentile_u64;
use serde::Serialize;

/// Summary of a latency sample (all values in nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean, ns.
    pub mean_ns: f64,
    /// Median (nearest rank), ns.
    pub p50_ns: u64,
    /// 90th percentile, ns.
    pub p90_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Maximum, ns.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarise a set of durations. Returns an all-zero summary for an
    /// empty sample (a saturated run that completed nothing still renders).
    #[must_use]
    pub fn of(samples: &[SimTime]) -> Self {
        let ns = sorted_nanos(samples);
        if ns.is_empty() {
            return LatencySummary::default();
        }
        LatencySummary {
            count: ns.len(),
            mean_ns: mean_nanos(&ns),
            p50_ns: percentile_u64(&ns, 50),
            p90_ns: percentile_u64(&ns, 90),
            p99_ns: percentile_u64(&ns, 99),
            max_ns: *ns.last().expect("non-empty"),
        }
    }

    /// The mean in fractional milliseconds (report column unit).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns / 1e6
    }
}

/// The ascending-sorted nanosecond view of a latency sample — the form
/// [`percentile_u64`] and [`mean_nanos`] consume. All report-facing statistics
/// route through this one sort so the sample convention cannot fork.
#[must_use]
pub fn sorted_nanos(samples: &[SimTime]) -> Vec<u64> {
    let mut ns: Vec<u64> = samples.iter().map(|t| t.nanos()).collect();
    ns.sort_unstable();
    ns
}

/// Arithmetic mean of a nanosecond sample (`0.0` for an empty one — the
/// empty-sample-renders-zero convention every simulation report shares).
#[must_use]
pub fn mean_nanos(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.iter().map(|&v| u128::from(v)).sum::<u128>() as f64 / ns.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(ns: &[u64]) -> Vec<SimTime> {
        ns.iter().map(|&v| SimTime::from_nanos(v)).collect()
    }

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_u64(&sorted, 50), 50);
        assert_eq!(percentile_u64(&sorted, 99), 99);
        assert_eq!(percentile_u64(&sorted, 100), 100);
        assert_eq!(percentile_u64(&sorted, 1), 1);
        assert_eq!(percentile_u64(&[7], 99), 7);
    }

    #[test]
    fn summary_reports_the_order_statistics() {
        let s = LatencySummary::of(&times(&[30, 10, 20, 40]));
        assert_eq!(s.count, 4);
        assert_eq!(s.mean_ns, 25.0);
        assert_eq!(s.p50_ns, 20);
        assert_eq!(s.p90_ns, 40);
        assert_eq!(s.max_ns, 40);
        assert_eq!(s.mean_ms(), 25.0 / 1e6);
    }

    #[test]
    fn empty_samples_summarise_to_zero() {
        let s = LatencySummary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max_ns, 0);
    }
}
