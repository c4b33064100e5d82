//! `fig7`: the Figure 7 Monte-Carlo (`fig7-threshold` at its default
//! 160,000 trials, `expected` profile, two worker threads).
//!
//! All host time goes to `core::montecarlo`, `stabilizer::PauliFrame` and
//! ChaCha8 draws; nothing reaches sched, sim, trace or serve.

use crate::gate::{self, expect, Gate};
use crate::span::SpanLog;
use crate::Pass;
use qla_bench::experiments::fig7_threshold::{Fig7Output, Fig7Threshold};
use qla_core::ThresholdPoint;
use qla_core::{Executor, Experiment, ExperimentContext, MachineSpec, ThresholdExperiment};
use qla_report::Format;
use std::hint::black_box;
use std::time::Instant;

/// Trials per Monte-Carlo call: the experiment's default budget.
const TRIALS: usize = 160_000;
/// Worker threads for the sweep.
const JOBS: usize = 2;
/// The seed whose report digest is pinned.
const PINNED_SEED: u64 = 2005;
/// Digest of the JSON report at [`PINNED_SEED`].
pub const PINNED_DIGEST: u64 = 0x1440_0cee_17f8_3a55;
/// The paper's threshold band, (2.1 ± 1.8)e-3.
const THRESHOLD_BAND: (f64, f64) = (0.3e-3, 3.9e-3);

/// Per-layer figures from one traced sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Fig7Layers {
    /// ns per trial of the level-1 call at the lowest swept rate.
    pub trial_ns_clean: f64,
    /// ns per trial of the level-1 call at the highest swept rate.
    pub trial_ns_faulty: f64,
    /// The slowest sweep point, ms.
    pub point_ms_max: f64,
    /// Σ per-point time ÷ (jobs × sweep wall).
    pub efficiency: f64,
    /// Host time of the traced sweep, s.
    pub wall_s: f64,
}

/// The workload's state across passes.
pub(crate) struct Fig7 {
    seed: u64,
    ctx: ExperimentContext,
    digest: Option<u64>,
}

impl Fig7 {
    /// The workload at master seed `seed`.
    #[must_use]
    pub(crate) fn new(seed: u64) -> Self {
        assert_eq!(
            Experiment::default_trials(&Fig7Threshold),
            TRIALS,
            "fig7-threshold's default trial budget moved; update the benchmark"
        );
        Fig7 {
            seed,
            ctx: context(seed, MachineSpec::expected()),
            digest: None,
        }
    }

    /// One set-up: spec, validation, machine build, registry lookup and
    /// context. Returns seconds.
    pub(crate) fn setup(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        let spec = MachineSpec::expected();
        spec.validate().map_err(|e| e.to_string())?;
        let machine = spec.machine().map_err(|e| e.to_string())?;
        let experiment = qla_bench::registry::find("fig7-threshold")
            .ok_or("fig7-threshold is not registered")?;
        let ctx = context(self.seed, spec);
        let elapsed = start.elapsed().as_secs_f64();
        black_box((machine, experiment, ctx));
        Ok(elapsed)
    }

    /// One untimed-path run: `fig7-threshold` exactly as `qla-bench run`
    /// evaluates it, rendered to JSON.
    pub(crate) fn pass(&mut self, gate: &mut Gate) -> Pass {
        let start = Instant::now();
        let output = Fig7Threshold.run(&self.ctx);
        let json = render(&self.ctx, &output);
        let wall_s = start.elapsed().as_secs_f64();
        let calls = output.points.len()
            + output
                .points
                .iter()
                .filter(|p| p.level1_rate != 0.0)
                .count()
            + self.ctx.spec.sweep.threshold_scan_points;
        gate.record(self.check(&output, &json));
        Pass {
            wall_s,
            work: (calls * TRIALS) as f64,
            latencies_s: vec![wall_s],
        }
    }

    /// The same sweep driven point by point through the executor with a
    /// span around every Monte-Carlo call, checked against the untraced
    /// report.
    pub(crate) fn traced_pass(&mut self, gate: &mut Gate, log: &mut SpanLog) -> Fig7Layers {
        let spec = &self.ctx.spec;
        let experiment = ThresholdExperiment {
            trials: TRIALS,
            seed: self.seed,
            movement_error: spec.movement_error(),
        };
        let executor = Executor::from_jobs(JOBS);
        let rates = spec.sweep.component_rates.clone();
        let (lo, hi, n) = (
            spec.sweep.threshold_scan_lo,
            spec.sweep.threshold_scan_hi,
            spec.sweep.threshold_scan_points,
        );
        let start = Instant::now();
        let mut point_ns: Vec<u64> = Vec::new();
        let mut level1_ns: Vec<u64> = Vec::new();
        let (points, ratios, sweep_ns) = log.span("bench.fig7", |log| {
            let points = log.span("core.executor.sweep", |log| {
                let parent: &SpanLog = log;
                let results = executor.map(&rates, |_, &p| {
                    let mut fork = parent.fork();
                    let point = fork.span("core.montecarlo.point", |f| {
                        let level1_rate = f.span("core.montecarlo.level1", |_| {
                            experiment.level1_failure_rate(p)
                        });
                        let level2_rate = if level1_rate == 0.0 {
                            0.0
                        } else {
                            f.span("core.montecarlo.level2", |_| {
                                experiment.level1_failure_rate(level1_rate)
                            })
                        };
                        ThresholdPoint {
                            physical_rate: p,
                            level1_rate,
                            level2_rate,
                        }
                    });
                    (point, fork)
                });
                results
                    .into_iter()
                    .map(|(point, fork)| {
                        point_ns.push(fork.duration_of("core.montecarlo.point").unwrap_or(0));
                        level1_ns.push(fork.duration_of("core.montecarlo.level1").unwrap_or(0));
                        log.absorb(fork);
                        point
                    })
                    .collect::<Vec<_>>()
            });
            let ratios = log.span("core.executor.threshold_scan", |log| {
                let parent: &SpanLog = log;
                let results = executor.map_indices(n, |i| {
                    let mut fork = parent.fork();
                    let t = i as f64 / (n - 1).max(1) as f64;
                    let p = lo * (hi / lo).powf(t);
                    let ratio = fork.span("core.montecarlo.point", |_| {
                        experiment.level1_failure_rate(p) / p
                    });
                    ((p, ratio), fork)
                });
                results
                    .into_iter()
                    .map(|(pair, fork)| {
                        point_ns.push(fork.duration_of("core.montecarlo.point").unwrap_or(0));
                        log.absorb(fork);
                        pair
                    })
                    .collect::<Vec<_>>()
            });
            let sweep_ns = log.duration_of("core.executor.sweep").unwrap_or(0)
                + log.duration_of("core.executor.threshold_scan").unwrap_or(0);
            (points, ratios, sweep_ns)
        });
        let wall_s = start.elapsed().as_secs_f64();

        let empirical_threshold = ratios.windows(2).find_map(|pair| {
            let [(prev_p, prev_ratio), (p, ratio)] = pair else {
                return None;
            };
            (*prev_ratio < 1.0 && *ratio >= 1.0).then(|| (prev_p * p).sqrt())
        });
        let output = Fig7Output {
            points,
            empirical_threshold,
        };
        let json = render(&self.ctx, &output);
        gate.record(self.check(&output, &json));

        let busy: u64 = point_ns.iter().sum();
        Fig7Layers {
            trial_ns_clean: level1_ns.first().copied().unwrap_or(0) as f64 / TRIALS as f64,
            trial_ns_faulty: level1_ns.last().copied().unwrap_or(0) as f64 / TRIALS as f64,
            point_ms_max: point_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6,
            efficiency: busy as f64 / (JOBS as f64 * sweep_ns.max(1) as f64),
            wall_s,
        }
    }

    /// The correctness checks of one output.
    fn check(&mut self, output: &Fig7Output, json: &str) -> Vec<String> {
        let mut problems = Vec::new();
        if self.seed == PINNED_SEED {
            if let Err(e) = gate::check_digest("fig7 report", json, PINNED_DIGEST) {
                problems.push(e);
            }
        }
        let digest = gate::digest(json);
        let first = *self.digest.get_or_insert(digest);
        expect(&mut problems, digest == first, || {
            "fig7 report bytes changed between passes of one run".to_string()
        });
        match output.empirical_threshold {
            Some(t) => expect(
                &mut problems,
                (THRESHOLD_BAND.0..=THRESHOLD_BAND.1).contains(&t),
                || format!("fig7 threshold {t:.3e} outside the paper band"),
            ),
            None => problems.push("fig7 found no threshold crossing".to_string()),
        }
        for p in output.points.iter().take(2) {
            expect(&mut problems, p.level2_rate < p.level1_rate, || {
                format!(
                    "fig7 level-2 rate {} not below level-1 rate {} at p = {}",
                    p.level2_rate, p.level1_rate, p.physical_rate
                )
            });
        }
        problems
    }
}

fn context(seed: u64, spec: MachineSpec) -> ExperimentContext {
    ExperimentContext::new(TRIALS, seed)
        .with_spec(spec)
        .with_executor(Executor::from_jobs(JOBS))
}

/// The report exactly as the registry renders it, in JSON.
fn render(ctx: &ExperimentContext, output: &Fig7Output) -> String {
    Experiment::report(&Fig7Threshold, ctx, output)
        .with_scenario(ctx.spec.scenario())
        .render(Format::Json)
}
