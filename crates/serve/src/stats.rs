//! Service counters, surfaced by the `stats` protocol command.
//!
//! [`StatsSnapshot`] is the one counter struct. The service keeps it beside
//! its cache and the per-class service-time samples under one lock, so each
//! request is counted in one critical section and a snapshot never shows a
//! half-counted request. The percentile fields are filled from the samples
//! when the snapshot is read, as nearest-rank percentiles through the
//! shared [`qla_core::stats`] helper. The `stats` line is a single JSON
//! line with a fixed key order, so soak scripts can parse it with nothing
//! fancier than `grep`.

use qla_core::stats::percentile_u64;

/// Every service counter, plus the service-time percentiles at the moment
/// it was read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Run requests accepted (admitted past the queue bound) and served.
    pub requests: u64,
    /// Accepted requests answered from the cache.
    pub hits: u64,
    /// Accepted requests that evaluated an experiment.
    pub misses: u64,
    /// Run requests shed by admission control.
    pub shed: u64,
    /// Requests rejected as malformed (bad JSON, unknown experiment, …).
    pub errors: u64,
    /// Cache entries evicted by capacity pressure.
    pub evictions: u64,
    /// Run requests currently admitted and not yet answered.
    pub in_flight: u64,
    /// High-water mark of `in_flight` (the observed queue depth).
    pub peak_in_flight: u64,
    /// Total charged service time of accepted requests, nanoseconds.
    pub service_ns: u64,
    /// `stats` protocol commands served.
    pub stats_requests: u64,
    /// `shutdown` protocol commands served.
    pub shutdown_requests: u64,
    /// Median hit service time, ns (0 with no hit samples).
    pub hit_p50_ns: u64,
    /// 99th-percentile hit service time, ns (0 with no hit samples).
    pub hit_p99_ns: u64,
    /// Median miss service time, ns (0 with no miss samples).
    pub miss_p50_ns: u64,
    /// 99th-percentile miss service time, ns (0 with no miss samples).
    pub miss_p99_ns: u64,
}

impl StatsSnapshot {
    /// Enter one request into the in-flight gauge, maintaining the peak.
    pub(crate) fn enter(&mut self) {
        self.in_flight += 1;
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight);
    }

    /// Leave the in-flight gauge.
    pub(crate) fn leave(&mut self) {
        self.in_flight -= 1;
    }

    /// These counters with the percentile fields summarising the hit and
    /// miss service-time samples.
    #[must_use]
    pub(crate) fn with_percentiles(mut self, hit_ns: Vec<u64>, miss_ns: Vec<u64>) -> Self {
        let summarise = |mut ns: Vec<u64>| -> (u64, u64) {
            if ns.is_empty() {
                return (0, 0);
            }
            ns.sort_unstable();
            (percentile_u64(&ns, 50), percentile_u64(&ns, 99))
        };
        (self.hit_p50_ns, self.hit_p99_ns) = summarise(hit_ns);
        (self.miss_p50_ns, self.miss_p99_ns) = summarise(miss_ns);
        self
    }

    /// The cache hit rate over accepted requests (0 when none were served).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Render the snapshot as the one-line `stats` response body (fixed key
    /// order, no whitespace variance).
    #[must_use]
    pub fn render_json(&self) -> String {
        format!(
            concat!(
                "{{\"status\":\"ok\",\"requests\":{},\"hits\":{},\"misses\":{},",
                "\"shed\":{},\"errors\":{},\"evictions\":{},\"in_flight\":{},",
                "\"peak_in_flight\":{},\"service_ns\":{},\"stats_requests\":{},",
                "\"shutdown_requests\":{},\"hit_p50_ns\":{},\"hit_p99_ns\":{},",
                "\"miss_p50_ns\":{},\"miss_p99_ns\":{}}}"
            ),
            self.requests,
            self.hits,
            self.misses,
            self.shed,
            self.errors,
            self.evictions,
            self.in_flight,
            self.peak_in_flight,
            self.service_ns,
            self.stats_requests,
            self.shutdown_requests,
            self.hit_p50_ns,
            self.hit_p99_ns,
            self.miss_p50_ns,
            self.miss_p99_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_leave_tracks_depth_and_peak() {
        let mut stats = StatsSnapshot::default();
        stats.enter();
        stats.enter();
        assert_eq!(stats.in_flight, 2);
        stats.leave();
        stats.enter();
        stats.leave();
        stats.leave();
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.peak_in_flight, 2);
    }

    #[test]
    fn snapshot_renders_one_fixed_order_line() {
        let snap = StatsSnapshot {
            requests: 10,
            hits: 6,
            misses: 4,
            service_ns: 1234,
            stats_requests: 2,
            shutdown_requests: 1,
            ..StatsSnapshot::default()
        }
        .with_percentiles(vec![30, 10, 20], vec![500]);
        assert_eq!(
            snap.render_json(),
            "{\"status\":\"ok\",\"requests\":10,\"hits\":6,\"misses\":4,\
             \"shed\":0,\"errors\":0,\"evictions\":0,\"in_flight\":0,\
             \"peak_in_flight\":0,\"service_ns\":1234,\"stats_requests\":2,\
             \"shutdown_requests\":1,\"hit_p50_ns\":20,\"hit_p99_ns\":30,\
             \"miss_p50_ns\":500,\"miss_p99_ns\":500}"
        );
        assert!(!snap.render_json().contains('\n'));
        assert!((snap.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_samples_render_zero_percentiles() {
        let snap = StatsSnapshot::default().with_percentiles(Vec::new(), Vec::new());
        assert_eq!(snap.hit_rate(), 0.0);
        assert_eq!(
            (
                snap.hit_p50_ns,
                snap.hit_p99_ns,
                snap.miss_p50_ns,
                snap.miss_p99_ns
            ),
            (0, 0, 0, 0)
        );
    }
}
