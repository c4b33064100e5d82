//! Load study of the `qla-serve` evaluation service: an in-process load
//! generator drives a scripted mix of repeated and unique requests through
//! the real [`Service`] twice, and reports per-class service-time
//! percentiles, the cache hit rate and the shed rate as a normal registry
//! report.
//!
//! The mix is 96 requests over a 12-entry pool of `(experiment, scenario,
//! seed)` combinations — half pinned to the *active* context spec (so
//! `--profile`/`--spec` reaches this experiment like any other), half to
//! the built-in `current` profile — delivered in bursts of 16 against an
//! admission bound of 14, so every burst deterministically sheds its two
//! overflow requests. Pass 1 populates the cache (`cold` rows are the
//! misses); pass 2 replays the identical mix (`warm` rows are the hits);
//! the experiment asserts the two response transcripts are byte-identical,
//! which is the same property the CI soak job checks over TCP.
//!
//! Service times come from the service's [`ServiceClock`]: the default
//! virtual clock keeps this report byte-deterministic (goldens, CI
//! determinism); setting `QLA_SERVE_CLOCK=wall` measures real latencies,
//! which the soak job uses to assert the real warm/cold speed-up.

use qla_core::stats::percentile_f64;
use qla_core::{Experiment, ExperimentContext, MachineSpec};
use qla_obs::{EventLog, Recorder};
use qla_report::{json_escape, row, Column, Report};
use qla_serve::{Outcome, ServeConfig, ServedRequest, Service, ServiceClock};
use serde::Serialize;

/// Total requests per pass.
const TOTAL_REQUESTS: usize = 96;
/// Requests per burst (one `handle_burst` call).
const BURST: usize = 16;
/// Admission bound: two requests of every burst are shed.
const MAX_IN_FLIGHT: usize = 14;
/// Distinct `(experiment, scenario, seed)` combinations in the pool.
const UNIQUE_REQUESTS: usize = 12;
/// Result-cache capacity — comfortably above the distinct-request count,
/// so pass 2 is all hits.
const CACHE_CAPACITY: usize = 64;

/// Cheap analytic experiments the load generator requests. Deliberately
/// excludes `serve-load` itself (no recursion) and the Monte-Carlo heavy
/// artefacts (the load study measures the service, not the simulator).
const INNER_EXPERIMENTS: [&str; 5] = [
    "table1",
    "channel-bandwidth",
    "ecc-latency",
    "recursion-analysis",
    "fig9-connection",
];

/// The serve-load registry experiment.
pub struct ServeLoad;

/// Service-time statistics of one (pass, class) cell.
#[derive(Debug, Clone, Serialize)]
pub struct ServeLoadRow {
    /// Pass number (1 = cold cache, 2 = warm cache).
    pub pass: usize,
    /// Request class: `cold` (miss), `warm` (hit) or `shed`.
    pub class: String,
    /// Requests in the class.
    pub count: usize,
    /// Median service time, microseconds (`None` when the class is empty
    /// or the class is `shed`, which has no service time).
    pub p50_us: Option<f64>,
    /// 99th-percentile service time, microseconds.
    pub p99_us: Option<f64>,
    /// Mean service time, microseconds.
    pub mean_us: Option<f64>,
}

/// Typed output of the load study.
#[derive(Debug, Clone, Serialize)]
pub struct ServeLoadOutput {
    /// One row per (pass, class), both passes, classes in
    /// cold/warm/shed order.
    pub rows: Vec<ServeLoadRow>,
    /// Cache hit rate over both passes' accepted requests.
    pub hit_rate: f64,
    /// Fraction of issued requests shed by admission control.
    pub shed_rate: f64,
    /// Pass-1 cold p50 divided by pass-2 warm p50 — the cache speed-up.
    pub cold_over_warm_p50: f64,
    /// Whether the two passes produced byte-identical transcripts
    /// (asserted, so always true in a completed run).
    pub transcripts_identical: bool,
}

impl Experiment for ServeLoad {
    type Output = ServeLoadOutput;

    fn name(&self) -> &'static str {
        "serve-load"
    }
    fn title(&self) -> &'static str {
        "qla-serve — cached evaluation service under a scripted request mix"
    }
    fn description(&self) -> &'static str {
        "Service-time percentiles, cache hit rate and shed rate of the evaluation service"
    }
    fn default_trials(&self) -> usize {
        // The trial budget of each *inner* experiment request; small, since
        // one pass issues up to 12 distinct evaluations.
        24
    }
    fn spec_fields(&self) -> &'static [&'static str] {
        // Half the request pool embeds the active spec, so everything the
        // inner analytic experiments read flows into the cache keys and
        // reports.
        &[
            "recursion_level",
            "bandwidth",
            "tech.*",
            "interconnect.*",
            "sweep.*",
        ]
    }

    fn run(&self, ctx: &ExperimentContext) -> ServeLoadOutput {
        self.run_observed(ctx).0
    }

    fn run_observed(&self, ctx: &ExperimentContext) -> (ServeLoadOutput, Vec<EventLog>) {
        let clock = ServiceClock::from_env().unwrap_or_else(|e| panic!("{e}"));
        let service = Service::new(
            Box::new(crate::registry::find),
            ServeConfig {
                cache_capacity: CACHE_CAPACITY,
                max_in_flight: MAX_IN_FLIGHT,
                jobs: 0,
                clock,
            },
        );

        let lines = request_mix(ctx);
        let mut log1 = EventLog::for_point(ctx.obs(), "pass-1-cold");
        let pass1 = run_pass(&service, &lines, ctx, &mut log1);
        log1.seal_task_span();
        let mut log2 = EventLog::for_point(ctx.obs(), "pass-2-warm");
        let pass2 = run_pass(&service, &lines, ctx, &mut log2);
        log2.seal_task_span();

        for (index, (a, b)) in pass1.iter().zip(&pass2).enumerate() {
            assert_eq!(
                a.response, b.response,
                "response {index} differs between the cold and warm pass — \
                 the cache returned different bytes than evaluation"
            );
        }

        let mut rows = Vec::with_capacity(6);
        for (pass, served) in [(1, &pass1), (2, &pass2)] {
            for (class, outcome) in [
                ("cold", Outcome::Miss),
                ("warm", Outcome::Hit),
                ("shed", Outcome::Shed),
            ] {
                rows.push(class_row(pass, class, outcome, served));
            }
        }

        let stats = service.stats();
        let issued = (2 * TOTAL_REQUESTS) as f64;
        let cold_p50 = rows[0].p50_us.expect("pass 1 has misses");
        let warm_p50 = rows[4].p50_us.expect("pass 2 has hits");
        (
            ServeLoadOutput {
                rows,
                hit_rate: stats.hit_rate(),
                shed_rate: stats.shed as f64 / issued,
                cold_over_warm_p50: cold_p50 / warm_p50,
                transcripts_identical: true,
            },
            vec![log1, log2],
        )
    }

    fn report(&self, ctx: &ExperimentContext, output: &ServeLoadOutput) -> Report {
        let mut r = Report::new(Experiment::name(self), self.title())
            .with_param("trials", ctx.trials)
            .with_param("seed", ctx.seed)
            .with_param("requests_per_pass", TOTAL_REQUESTS)
            .with_param("unique_requests", UNIQUE_REQUESTS)
            .with_param("burst", BURST)
            .with_param("max_in_flight", MAX_IN_FLIGHT)
            .with_param("cache_capacity", CACHE_CAPACITY)
            .with_columns([
                Column::new("pass"),
                Column::new("class"),
                Column::new("count"),
                Column::with_unit("p50", "us"),
                Column::with_unit("p99", "us"),
                Column::with_unit("mean", "us"),
            ]);
        for row in &output.rows {
            r.push_row(row![
                row.pass,
                row.class.clone(),
                row.count,
                row.p50_us,
                row.p99_us,
                row.mean_us
            ]);
        }
        r.push_note(format!(
            "cache speed-up: cold p50 / warm p50 = {:.1}x (pass 1 misses vs pass 2 hits)",
            output.cold_over_warm_p50
        ));
        r.push_note(format!(
            "cache hit rate {:.3}, shed rate {:.3} over {} issued requests in bursts of {} \
             against an admission bound of {}",
            output.hit_rate,
            output.shed_rate,
            2 * TOTAL_REQUESTS,
            BURST,
            MAX_IN_FLIGHT
        ));
        r.push_note(format!(
            "transcripts byte-identical across passes: {}; service times from the {} clock \
             (set QLA_SERVE_CLOCK=wall for real latencies)",
            output.transcripts_identical,
            match ServiceClock::from_env() {
                Ok(ServiceClock::Wall) => "wall",
                _ => "deterministic virtual",
            }
        ));
        r
    }
}

/// The scripted request mix: one line per request, identical every pass.
fn request_mix(ctx: &ExperimentContext) -> Vec<String> {
    let active_spec = ctx.spec.render();
    let current = MachineSpec::current();
    let pool: Vec<String> = (0..UNIQUE_REQUESTS)
        .map(|i| {
            let experiment = INNER_EXPERIMENTS[i % INNER_EXPERIMENTS.len()];
            let seed = 101 + 7 * i as u64;
            // Even entries embed the active scenario inline; odd entries
            // name the built-in `current` profile.
            let scenario = if i % 2 == 0 {
                format!("\"spec\": {}", json_escape(&active_spec))
            } else {
                format!("\"profile\": {}", json_escape(&current.name))
            };
            format!(
                "{{\"experiment\": \"{experiment}\", {scenario}, \"seed\": {seed}, \
                 \"trials\": {}, \"format\": \"json\"}}",
                ctx.trials
            )
        })
        .collect();
    (0..TOTAL_REQUESTS)
        .map(|j| {
            // Seed-derived selection with replacement: most pool entries
            // repeat several times, so the mix has both unique and repeated
            // requests. Depends only on the context seed — the mix is the
            // same for every pass and every job count.
            let pick = ctx.derived_seed(1_000 + j as u64) as usize % pool.len();
            pool[pick].clone()
        })
        .collect()
}

/// Issue the mix in bursts through the service, mirroring each burst's
/// request lifecycle into `rec` (a no-op when recording is off).
fn run_pass(
    service: &Service,
    lines: &[String],
    ctx: &ExperimentContext,
    rec: &mut dyn Recorder,
) -> Vec<ServedRequest> {
    let mut served = Vec::with_capacity(lines.len());
    for burst in lines.chunks(BURST) {
        served.extend(service.handle_burst(burst, &ctx.executor, rec));
    }
    served
}

/// Service-time statistics of one class within one pass.
fn class_row(pass: usize, class: &str, outcome: Outcome, served: &[ServedRequest]) -> ServeLoadRow {
    let mut times_us: Vec<f64> = served
        .iter()
        .filter(|s| s.outcome == outcome)
        .map(|s| s.service_ns as f64 / 1_000.0)
        .collect();
    times_us.sort_by(|a, b| a.partial_cmp(b).expect("service times are finite"));
    let count = times_us.len();
    let stats_apply = count > 0 && outcome != Outcome::Shed;
    let percentile = |p: f64| -> Option<f64> {
        // Shared nearest-rank helper (the same one the sim and serve
        // stats use), so every percentile in the workspace agrees.
        stats_apply.then(|| percentile_f64(&times_us, p))
    };
    ServeLoadRow {
        pass,
        class: class.to_string(),
        count,
        p50_us: percentile(50.0),
        p99_us: percentile(99.0),
        mean_us: stats_apply.then(|| times_us.iter().sum::<f64>() / count as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qla_core::Executor;

    fn output(ctx: &ExperimentContext) -> ServeLoadOutput {
        ServeLoad.run(ctx)
    }

    #[test]
    fn the_mix_has_both_repeats_and_every_pool_entry() {
        let ctx = ExperimentContext::new(8, 2005);
        let lines = request_mix(&ctx);
        assert_eq!(lines.len(), TOTAL_REQUESTS);
        let mut distinct = lines.clone();
        distinct.sort();
        distinct.dedup();
        assert!(distinct.len() <= UNIQUE_REQUESTS);
        assert!(distinct.len() > 1, "a one-entry mix measures nothing");
        assert!(
            lines.len() > distinct.len(),
            "the mix must contain repeated requests"
        );
    }

    #[test]
    fn passes_are_identical_and_classes_add_up() {
        let ctx = ExperimentContext::new(4, 2005);
        let out = output(&ctx);
        assert!(out.transcripts_identical);
        assert_eq!(out.rows.len(), 6);
        for pass in [1usize, 2] {
            let total: usize = out
                .rows
                .iter()
                .filter(|r| r.pass == pass)
                .map(|r| r.count)
                .sum();
            assert_eq!(total, TOTAL_REQUESTS, "pass {pass}");
        }
        // Pass 2 never misses: the cache holds every distinct request.
        assert_eq!(out.rows[3].count, 0, "pass 2 cold count");
        // Every burst sheds its overflow in both passes.
        let shed_per_pass = TOTAL_REQUESTS - TOTAL_REQUESTS / BURST * MAX_IN_FLIGHT;
        assert_eq!(out.rows[2].count, shed_per_pass);
        assert_eq!(out.rows[5].count, shed_per_pass);
        assert!(out.shed_rate > 0.0 && out.shed_rate < 0.5);
        assert!(out.hit_rate > 0.5, "hit rate {}", out.hit_rate);
    }

    #[test]
    fn warm_p50_beats_cold_p50_by_an_order_of_magnitude() {
        // With the default virtual clock the modelled speed-up is exact;
        // the acceptance bar (>= 10x) is far below it.
        let ctx = ExperimentContext::new(4, 2005);
        let out = output(&ctx);
        assert!(
            out.cold_over_warm_p50 >= 10.0,
            "cold/warm p50 ratio {}",
            out.cold_over_warm_p50
        );
    }

    #[test]
    fn output_is_thread_count_invariant() {
        let base = ExperimentContext::new(4, 2005);
        let sequential = format!("{:?}", output(&base));
        for jobs in [2usize, 4] {
            let ctx = ExperimentContext::new(4, 2005).with_executor(Executor::from_jobs(jobs));
            assert_eq!(format!("{:?}", output(&ctx)), sequential, "{jobs} jobs");
        }
    }

    #[test]
    fn the_active_spec_reaches_the_request_pool() {
        let expected = request_mix(&ExperimentContext::new(4, 2005));
        let current_ctx = ExperimentContext::new(4, 2005).with_spec(MachineSpec::current());
        let current = request_mix(&current_ctx);
        assert_ne!(expected, current, "--profile must change the mix");
    }
}
