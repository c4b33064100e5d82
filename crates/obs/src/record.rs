//! The recorder trait and its structured [`EventLog`] implementation.
//!
//! Instrumented code writes against [`Recorder`] so the off path stays a
//! trait-object call returning `false` from [`Recorder::enabled`]; the hot
//! sites hoist that check and skip building track names and arguments
//! entirely. The [`EventLog`] implementation appends to plain vectors in
//! call order — no interior mutability, no clocks — so two runs that make
//! the same calls hold byte-identical logs.

use serde::Serialize;

/// How much the recorder keeps. `Light` drops the high-volume per-round
/// channel spans and queue-depth samples that dominate log size on long
/// horizons; `Full` keeps everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ObsDetail {
    /// Admission, factory, item, fault, and request events only.
    Light,
    /// Everything, including per-round channel spans and queue samples.
    Full,
}

impl ObsDetail {
    /// The spec-file token (`sweep.obs.detail = full|light`).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            ObsDetail::Light => "light",
            ObsDetail::Full => "full",
        }
    }

    /// Parse a spec-file token; `None` for anything unknown.
    #[must_use]
    pub fn from_token(token: &str) -> Option<Self> {
        match token {
            "light" => Some(ObsDetail::Light),
            "full" => Some(ObsDetail::Full),
            _ => None,
        }
    }
}

/// Recorder configuration, sourced from the `sweep.obs.*` spec section.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ObsConfig {
    /// Whether recording is on at all. Off is the default everywhere: a run
    /// records only when its context asks to, and observability can never
    /// perturb a golden byte.
    pub enabled: bool,
    /// Detail level for the high-volume tracks.
    pub detail: ObsDetail,
    /// Keep every `sample_every`-th counter sample per track (1 = all).
    /// Spans and instants are never sampled — thinning them would make the
    /// timeline lie about occupancy.
    pub sample_every: u32,
}

impl ObsConfig {
    /// Recording disabled (the default for every unobserved run).
    #[must_use]
    pub fn off() -> Self {
        ObsConfig {
            enabled: false,
            detail: ObsDetail::Full,
            sample_every: 1,
        }
    }

    /// Recording on at full detail, no counter sampling.
    #[must_use]
    pub fn full() -> Self {
        ObsConfig {
            enabled: true,
            detail: ObsDetail::Full,
            sample_every: 1,
        }
    }

    /// Recording on at light detail, no counter sampling.
    #[must_use]
    pub fn light() -> Self {
        ObsConfig {
            enabled: true,
            detail: ObsDetail::Light,
            sample_every: 1,
        }
    }
}

/// What one recorded [`Event`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A closed interval starting at the event timestamp.
    Span {
        /// Duration, nanoseconds.
        dur_ns: u64,
    },
    /// A point event.
    Instant,
    /// A counter sample (the tracked value at the event timestamp).
    Counter {
        /// Sampled value.
        value: u64,
    },
}

/// One recorded event on one track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Integer virtual-time stamp, nanoseconds. Never wall-clock derived.
    pub ts_ns: u64,
    /// Index into the owning log's track table, in first-use order.
    pub track: u32,
    /// Event name (span/instant name, or the counter's series name).
    pub name: String,
    /// Span, instant, or counter sample.
    pub kind: EventKind,
}

/// The instrumentation sink. Implementations must be deterministic
/// functions of the call sequence: no clocks, no global state.
pub trait Recorder {
    /// Cheap gate for the hot paths: when `false`, every record call is a
    /// no-op and call sites should skip building names and arguments.
    fn enabled(&self) -> bool;
    /// The active detail level; sites gating high-volume tracks check this
    /// once per site, after [`Recorder::enabled`].
    fn detail(&self) -> ObsDetail;
    /// Record a closed interval `[start_ns, start_ns + dur_ns]`.
    fn span(&mut self, track: &str, name: &str, start_ns: u64, dur_ns: u64);
    /// Record a point event.
    fn instant(&mut self, track: &str, name: &str, ts_ns: u64);
    /// Record a counter sample (subject to the configured sampling stride).
    fn counter(&mut self, track: &str, name: &str, ts_ns: u64, value: u64);
}

/// The always-off recorder: [`Recorder::enabled`] is `false` and every
/// record call does nothing. The plain `simulate` entry point and
/// unrecorded `handle_burst` calls pass this, which is what "zero overhead
/// when off" means in practice.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noop;

impl Recorder for Noop {
    fn enabled(&self) -> bool {
        false
    }
    fn detail(&self) -> ObsDetail {
        ObsDetail::Light
    }
    fn span(&mut self, _track: &str, _name: &str, _start_ns: u64, _dur_ns: u64) {}
    fn instant(&mut self, _track: &str, _name: &str, _ts_ns: u64) {}
    fn counter(&mut self, _track: &str, _name: &str, _ts_ns: u64, _value: u64) {}
}

/// A structured, appendable event log. One log is one Perfetto *process*
/// row (its [`label`](EventLog::label) is the process name); each distinct
/// track becomes one thread row, numbered in first-use order so track ids
/// are a deterministic function of the call sequence alone.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog {
    label: String,
    config: ObsConfig,
    tracks: Vec<String>,
    events: Vec<Event>,
    /// Per-track counter samples seen, for the sampling stride.
    counter_seen: Vec<u64>,
}

impl EventLog {
    /// A log for one sweep point (or one service pass). `label` names the
    /// process row in the exported trace.
    #[must_use]
    pub fn for_point(config: ObsConfig, label: impl Into<String>) -> Self {
        EventLog {
            label: label.into(),
            config,
            tracks: Vec::new(),
            events: Vec::new(),
            counter_seen: Vec::new(),
        }
    }

    /// A disabled log: accepts every call, records nothing.
    #[must_use]
    pub fn off() -> Self {
        Self::for_point(ObsConfig::off(), "off")
    }

    /// The process label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Relabel the log (per-point closures name their own point).
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// Track names, in first-use order (the id space of [`Event::track`]).
    #[must_use]
    pub fn tracks(&self) -> &[String] {
        &self.tracks
    }

    /// The recorded events, in call order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Recorded spans.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Span { .. }))
            .count()
    }

    /// Recorded instants.
    #[must_use]
    pub fn instant_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Instant))
            .count()
    }

    /// Recorded counter samples (after sampling).
    #[must_use]
    pub fn counter_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Counter { .. }))
            .count()
    }

    /// Wrap the whole recorded interval in one `task` span named after the
    /// label — the per-point "executor task" row in the exported trace.
    /// Does nothing on an empty or disabled log.
    pub fn seal_task_span(&mut self) {
        if !self.config.enabled || self.events.is_empty() {
            return;
        }
        let start = self.events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
        let end = self
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::Span { dur_ns } => e.ts_ns.saturating_add(dur_ns),
                _ => e.ts_ns,
            })
            .max()
            .unwrap_or(start);
        let name = self.label.clone();
        self.span("task", &name, start, end - start);
    }

    fn track_id(&mut self, track: &str) -> u32 {
        if let Some(i) = self.tracks.iter().position(|t| t == track) {
            return i as u32;
        }
        self.tracks.push(track.to_string());
        self.counter_seen.push(0);
        (self.tracks.len() - 1) as u32
    }
}

impl Recorder for EventLog {
    fn enabled(&self) -> bool {
        self.config.enabled
    }

    fn detail(&self) -> ObsDetail {
        self.config.detail
    }

    fn span(&mut self, track: &str, name: &str, start_ns: u64, dur_ns: u64) {
        if !self.config.enabled {
            return;
        }
        let track = self.track_id(track);
        self.events.push(Event {
            ts_ns: start_ns,
            track,
            name: name.to_string(),
            kind: EventKind::Span { dur_ns },
        });
    }

    fn instant(&mut self, track: &str, name: &str, ts_ns: u64) {
        if !self.config.enabled {
            return;
        }
        let track = self.track_id(track);
        self.events.push(Event {
            ts_ns,
            track,
            name: name.to_string(),
            kind: EventKind::Instant,
        });
    }

    fn counter(&mut self, track: &str, name: &str, ts_ns: u64, value: u64) {
        if !self.config.enabled {
            return;
        }
        let track = self.track_id(track);
        let seen = self.counter_seen[track as usize];
        self.counter_seen[track as usize] = seen + 1;
        if !seen.is_multiple_of(u64::from(self.config.sample_every.max(1))) {
            return;
        }
        self.events.push(Event {
            ts_ns,
            track,
            name: name.to_string(),
            kind: EventKind::Counter { value },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::off();
        log.span("a", "s", 0, 10);
        log.instant("a", "i", 5);
        log.counter("a", "c", 5, 1);
        log.seal_task_span();
        assert!(log.events().is_empty());
        assert!(log.tracks().is_empty());
    }

    #[test]
    fn tracks_number_in_first_use_order() {
        let mut log = EventLog::for_point(ObsConfig::full(), "p");
        log.instant("beta", "x", 0);
        log.instant("alpha", "y", 1);
        log.instant("beta", "z", 2);
        assert_eq!(log.tracks(), ["beta".to_string(), "alpha".to_string()]);
        assert_eq!(log.events()[0].track, 0);
        assert_eq!(log.events()[1].track, 1);
        assert_eq!(log.events()[2].track, 0);
    }

    #[test]
    fn counter_sampling_keeps_every_nth_per_track() {
        let mut cfg = ObsConfig::full();
        cfg.sample_every = 3;
        let mut log = EventLog::for_point(cfg, "p");
        for t in 0..9 {
            log.counter("q", "depth", t, t);
        }
        let kept: Vec<u64> = log.events().iter().map(|e| e.ts_ns).collect();
        assert_eq!(kept, [0, 3, 6]);
    }

    #[test]
    fn seal_task_span_wraps_the_recorded_envelope() {
        let mut log = EventLog::for_point(ObsConfig::full(), "point-3");
        log.instant("a", "start", 100);
        log.span("b", "work", 200, 50);
        log.seal_task_span();
        let last = log.events().last().unwrap();
        assert_eq!(last.name, "point-3");
        assert_eq!(last.ts_ns, 100);
        assert_eq!(last.kind, EventKind::Span { dur_ns: 150 });
    }

    #[test]
    fn identical_call_sequences_yield_equal_logs() {
        let record = |label: &str| {
            let mut log = EventLog::for_point(ObsConfig::full(), label);
            log.span("edge-0-1", "round", 0, 600);
            log.counter("edge-0-1", "queue", 600, 4);
            log.instant("admission", "admit", 700);
            log
        };
        assert_eq!(record("p"), record("p"));
    }

    #[test]
    fn detail_tokens_round_trip() {
        for d in [ObsDetail::Light, ObsDetail::Full] {
            assert_eq!(ObsDetail::from_token(d.token()), Some(d));
        }
        assert_eq!(ObsDetail::from_token("verbose"), None);
    }
}
