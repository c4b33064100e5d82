//! Wall-clock spans recorded by the benchmark around its calls into each
//! layer (traced mode only).
//!
//! A span has a name of the form `<layer>.<operation>`, where the layer is
//! a workspace crate (`core`, `trace`, `sched`, `sim`, `serve`, ...) or
//! `bench` for the benchmark's own envelope. Spans nest through their
//! parent id; the spans of one serve request share a request id. A
//! layer's self time is the time its spans cover minus the part of that
//! interval their child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the log.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The serve request this span belongs to, if any.
    pub request: Option<u64>,
    /// `<layer>.<operation>`.
    pub name: String,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first `.`.
    #[must_use]
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// An in-memory span log. Cloning a log with [`SpanLog::fork`] gives a
/// worker thread its own buffer with the same epoch and id space; the
/// fork's spans are folded back with [`SpanLog::absorb`].
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    ids: Arc<AtomicU64>,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            ids: Arc::new(AtomicU64::new(0)),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A log for another thread whose spans nest under this log's open
    /// span.
    #[must_use]
    pub fn fork(&self) -> SpanLog {
        SpanLog {
            epoch: self.epoch,
            ids: Arc::clone(&self.ids),
            stack: self.stack.last().copied().into_iter().collect(),
            spans: Vec::new(),
        }
    }

    /// Fold a fork's spans into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        self.span_for(name, None, f)
    }

    /// Run `f` inside a span named `name` that belongs to serve request
    /// `request`.
    pub fn span_for<R>(
        &mut self,
        name: &str,
        request: Option<u64>,
        f: impl FnOnce(&mut SpanLog) -> R,
    ) -> R {
        // Relaxed: the counter only hands out unique ids and publishes no
        // other data.
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().copied();
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.stack.push(id);
        let result = f(self);
        self.stack.pop();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
        });
        result
    }

    /// Every recorded span, in completion order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The duration of the first span named `name`, in nanoseconds.
    #[must_use]
    pub fn duration_of(&self, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(Span::duration_ns)
    }

    /// Self time per layer in nanoseconds: each span's duration minus the
    /// union of its children's intervals, summed by layer.
    #[must_use]
    pub fn self_time_by_layer(&self) -> BTreeMap<String, u64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
        for s in &self.spans {
            let covered = children.get(&s.id).map_or(0, |c| union_length(c));
            *by_layer.entry(s.layer().to_string()).or_default() +=
                s.duration_ns().saturating_sub(covered);
        }
        by_layer
    }

    /// The spans as a JSON array, one object per line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{}\n",
                s.id,
                opt(s.parent),
                opt(s.request),
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

/// Total length covered by a set of (possibly overlapping) intervals.
fn union_length(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in sorted {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_length_merges_overlaps() {
        assert_eq!(union_length(&[]), 0);
        assert_eq!(union_length(&[(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_length(&[(5, 6), (0, 10)]), 10);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut log = SpanLog::new();
        log.span("bench.outer", |log| {
            log.span_for("sched.inner", Some(3), |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let outer = log.duration_of("bench.outer").unwrap();
        let inner = log.duration_of("sched.inner").unwrap();
        let layers = log.self_time_by_layer();
        assert_eq!(layers["sched"], inner);
        assert_eq!(layers["bench"], outer - inner);
        let inner_span = log
            .spans()
            .iter()
            .find(|s| s.name == "sched.inner")
            .unwrap();
        assert_eq!(inner_span.request, Some(3));
        assert!(inner_span.parent.is_some());
        assert!(log.to_json().contains("\"name\":\"sched.inner\""));
    }

    #[test]
    fn forks_nest_under_the_open_span() {
        let mut log = SpanLog::new();
        log.span("core.phase", |log| {
            let mut fork = log.fork();
            fork.span("core.point", |_| ());
            log.absorb(fork);
        });
        let phase = log.spans().iter().find(|s| s.name == "core.phase").unwrap();
        let point = log.spans().iter().find(|s| s.name == "core.point").unwrap();
        assert_eq!(point.parent, Some(phase.id));
    }
}
