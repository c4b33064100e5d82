//! The QLA stack benchmark: three workloads driven through the crates'
//! public APIs, end-to-end metrics measured with tracing off, per-layer
//! metrics from a separate traced run. See `README.md` in this directory.

pub mod factor128;
pub mod fig7;
pub mod gate;
mod layers;
pub mod mix;
mod serve_mix;
pub mod span;
mod stats;

use factor128::Factor128;
use fig7::Fig7;
use gate::Gate;
use serve_mix::ServeMix;
use span::SpanLog;
use stats::{median, percentile};
use std::time::Instant;

/// The workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["fig7", "factor128-replay", "serve-mix"];

/// Set-up samples taken before each timed pass; the median over the run
/// is reported. Spreading them over the run ties them to the same host
/// conditions as the passes: a shared host's speed can change in phases
/// of seconds, and samples taken in one burst at the start would all land
/// in whichever phase the run happened to start in.
const SETUPS_PER_PASS: usize = 4;

/// Set-ups averaged into one sample: the in-process set-ups of fig7 and
/// factor128-replay take microseconds, a serve-mix set-up (thread spawn
/// plus loopback connect) tens of microseconds. Either way the set-ups
/// before a pass take a few milliseconds.
const fn setup_batch(serve: bool) -> usize {
    if serve {
        20
    } else {
        200
    }
}

/// One unit of timed work: a fig7 run, a factor-128 replay, or a pass of
/// the serve stream.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Pass {
    /// Host time, s.
    pub wall_s: f64,
    /// Work done: trials, instructions, or requests.
    pub work: f64,
    /// Client-visible operation latencies, s (one per request for
    /// serve-mix, the whole pass otherwise).
    pub latencies_s: Vec<f64>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Attempted and failed operations.
    pub gate: Gate,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Traced run only: the census spans and the workload's own traced
    /// passes.
    pub spans: Option<(SpanLog, SpanLog)>,
}

enum Workload {
    Fig7(Fig7),
    Factor128(Factor128),
    Serve(ServeMix),
}

impl Workload {
    fn new(name: &str, seed: u64) -> Result<Self, String> {
        Ok(match name {
            "fig7" => Workload::Fig7(Fig7::new(seed)),
            "factor128-replay" => Workload::Factor128(Factor128::new(seed)?),
            "serve-mix" => Workload::Serve(ServeMix::new(seed)),
            other => {
                return Err(format!(
                    "unknown workload '{other}' (expected one of {})",
                    WORKLOADS.join(", ")
                ))
            }
        })
    }

    /// One set-up sample, s: the mean of a batch of set-ups.
    fn setup(&mut self) -> Result<f64, String> {
        let batch = setup_batch(matches!(self, Workload::Serve(_)));
        let mut total = 0.0;
        for _ in 0..batch {
            total += match self {
                Workload::Fig7(w) => w.setup()?,
                Workload::Factor128(w) => w.setup()?,
                Workload::Serve(w) => w.setup()?,
            };
        }
        Ok(total / batch as f64)
    }

    fn pass(&mut self, gate: &mut Gate) -> Pass {
        match self {
            Workload::Fig7(w) => w.pass(gate),
            Workload::Factor128(w) => w.pass(gate),
            Workload::Serve(w) => w.pass(gate),
        }
    }

    fn traced_pass(&mut self, gate: &mut Gate, log: &mut SpanLog) -> f64 {
        match self {
            Workload::Fig7(w) => w.traced_pass(gate, log).wall_s,
            Workload::Factor128(w) => w.traced_pass(gate, log).wall_s,
            Workload::Serve(w) => w.traced_pass(gate, log),
        }
    }
}

/// Run `workload` at `seed` for about `seconds` (at least one pass).
///
/// Timed mode reports the end-to-end metrics; traced mode measures every
/// layer once (the census), then alternates untraced and traced passes of
/// `workload` to price the tracing.
///
/// # Errors
/// Fails for an unknown workload or when set-up fails.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut w = Workload::new(workload, seed)?;
    let mut gate = Gate::default();
    let start = Instant::now();
    if !trace {
        let timed = Instant::now();
        let (mut setups, mut passes) = (Vec::new(), Vec::new());
        let mut rss_mb = None;
        while passes.is_empty() || timed.elapsed().as_secs_f64() < seconds {
            for _ in 0..SETUPS_PER_PASS {
                setups.push(w.setup()?);
            }
            passes.push(w.pass(&mut gate));
            if rss_mb.is_none() {
                rss_mb = stats::peak_rss_mb();
            }
        }
        let rss_mb = rss_mb.ok_or("cannot read VmHWM from /proc/self/status")?;
        let metrics = end_to_end(&setups, &passes, rss_mb);
        let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
        eprintln!("   pass walls (s): {}", walls.join(" "));
        return Ok(Outcome {
            gate,
            metrics,
            spans: None,
        });
    }

    let mut census_log = SpanLog::new();
    let mut metrics = layers::census(seed, &mut gate, &mut census_log)?;
    let mut log = SpanLog::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        untraced.push(w.pass(&mut gate).wall_s);
        traced.push(w.traced_pass(&mut gate, &mut log));
    }
    let (traced_s, untraced_s) = (median(&traced), median(&untraced));
    metrics.push(Metric {
        name: "tracing.wall_s",
        unit: "s",
        value: traced_s,
        samples: traced.len(),
    });
    metrics.push(Metric {
        name: "tracing.overhead_ms",
        unit: "ms",
        value: (traced_s - untraced_s) * 1e3,
        samples: traced.len(),
    });
    Ok(Outcome {
        gate,
        metrics,
        spans: Some((census_log, log)),
    })
}

/// The end-to-end metrics of a timed run. `rss_mb` is the peak resident
/// set after set-up and the first pass: later passes only add allocator
/// fragmentation, which would make the figure depend on the run length.
fn end_to_end(setups: &[f64], passes: &[Pass], rss_mb: f64) -> Vec<Metric> {
    // Every figure is taken within each pass, and the run reports its best
    // pass: the least time, the highest rate. On a shared host whose speed
    // swings in phases of seconds, the time a pass takes beyond the best is
    // interference from other tenants; the best pass is the program's own
    // cost, and it is far steadier from run to run than a median or mean
    // over passes. A fig7 or factor-128 pass is one operation, so both of
    // its latency percentiles equal its wall.
    let least = |values: Vec<f64>| values.into_iter().fold(f64::INFINITY, f64::min);
    let per_pass = |q: f64| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| !p.latencies_s.is_empty())
            .map(|p| percentile(&p.latencies_s, q))
            .collect()
    };
    let wall_s = least(passes.iter().map(|p| p.wall_s).collect());
    let rate = passes.iter().map(|p| p.work / p.wall_s).fold(0.0, f64::max);
    let operations: usize = passes.iter().map(|p| p.latencies_s.len()).sum();
    let metric = |name, unit, value, samples| Metric {
        name,
        unit,
        value,
        samples,
    };
    vec![
        metric("setup_s", "s", median(setups), setups.len()),
        metric("wall_s", "s", wall_s, passes.len()),
        metric("work_per_s", "1/s", rate, passes.len()),
        metric(
            "latency_p50_us",
            "us",
            least(per_pass(50.0)) * 1e6,
            operations,
        ),
        metric(
            "latency_p99_ms",
            "ms",
            least(per_pass(99.0)) * 1e3,
            operations,
        ),
        metric("peak_rss_mb", "MB", rss_mb, 1),
    ]
}

/// The result line: `correct`, `attempted`, `failed` and the metrics
/// (empty when the run failed its correctness gate, since its numbers
/// are discarded).
#[must_use]
pub fn result_json(outcome: &Outcome) -> String {
    let correct = outcome.gate.correct();
    let metrics: Vec<String> = if correct {
        outcome
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.gate.attempted,
        outcome.gate.failed,
        metrics.join(", ")
    )
}

/// A finite `f64` with all its digits; non-finite values become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
