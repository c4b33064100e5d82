//! The traced run's layer census: every per-layer metric, each measured
//! by timing public calls into its layer on the workload it belongs to.

use crate::factor128::Factor128;
use crate::fig7::Fig7;
use crate::gate::{expect, Gate};
use crate::mix::Stream;
use crate::serve_mix::{self, ServeMix};
use crate::span::SpanLog;
use crate::stats::{mean, median};
use crate::Metric;
use qla_core::{ExperimentContext, MachineSpec};
use qla_report::{Format, Report};
use qla_stabilizer::PauliFrame;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each micro-probe; the median is reported.
const REPS: usize = 5;

/// Measure every layer. `log` receives the spans of the traced workload
/// passes; `gate` the correctness checks of every call.
///
/// # Errors
/// Fails when a workload cannot be set up.
pub fn census(seed: u64, gate: &mut Gate, log: &mut SpanLog) -> Result<Vec<Metric>, String> {
    let mut m = Vec::new();
    let mut push = |name, unit, value, samples| {
        m.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    };

    push("rand_chacha.draw_ns", "ns", draw_ns(seed), REPS);
    push("stabilizer.frame_op_ns", "ns", frame_op_ns(), REPS);

    let fig7 = Fig7::new(seed).traced_pass(gate, log);
    push(
        "core.montecarlo.trial_ns_clean",
        "ns",
        fig7.trial_ns_clean,
        1,
    );
    push(
        "core.montecarlo.trial_ns_faulty",
        "ns",
        fig7.trial_ns_faulty,
        1,
    );
    push("core.montecarlo.point_ms_max", "ms", fig7.point_ms_max, 26);
    push("core.executor.efficiency", "ratio", fig7.efficiency, 1);

    let replay = Factor128::new(seed)?.traced_pass(gate, log);
    push("trace.parse_ms", "ms", replay.parse_ms, 1);
    push("trace.lower_ms", "ms", replay.lower_ms, 1);
    push("sched.plan_ms", "ms", replay.plan_ms, 1);
    push(
        "sched.plan_us_per_request",
        "us",
        replay.plan_ms * 1e3 / replay.requests.max(1) as f64,
        replay.requests,
    );
    push("sim.replay_ms", "ms", replay.replay_ms, 1);
    push("sim.events", "count", replay.events as f64, 1);
    push(
        "sim.events_per_s",
        "1/s",
        replay.events as f64 / (replay.replay_ms / 1e3).max(1e-9),
        1,
    );
    push("sim.windows", "count", replay.sim_windows as f64, 1);

    let (render_us, parse_us) = spec_us();
    push("core.spec.render_us", "us", render_us, REPS);
    push("core.spec.parse_us", "us", parse_us, REPS);

    let workload = ServeMix::new(seed);
    let stream = workload.stream();
    push(
        "serve.json_parse_us",
        "us",
        json_parse_us(stream),
        stream.requests.len(),
    );
    let served = serve_in_process(&workload, gate);
    push("serve.hit_us", "us", served.hit_us, served.hits);
    push("serve.miss_ms", "ms", served.miss_ms, served.misses);
    push(
        "serve.hit_rate",
        "ratio",
        served.hit_rate,
        stream.requests.len(),
    );
    push("serve.evictions", "count", served.evictions as f64, 1);
    let rtts = serve_mix::stats_round_trips(400)?;
    push("serve.stats_rtt_us", "us", median(&rtts) * 1e6, rtts.len());
    gate.record_ok(1);

    let (render_us, renders) = report_render_us(seed);
    push("report.render_us", "us", render_us, renders);
    Ok(m)
}

/// ns per `ChaCha8Rng::next_u64` over a 4 M-draw stream.
fn draw_ns(seed: u64) -> f64 {
    const DRAWS: u64 = 4 << 20;
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let start = Instant::now();
            let mut acc = 0u64;
            for _ in 0..DRAWS {
                acc ^= rng.next_u64();
            }
            black_box(acc);
            start.elapsed().as_nanos() as f64 / DRAWS as f64
        })
        .collect();
    median(&samples)
}

/// ns per op of a fixed 14-qubit `PauliFrame` mask/word sequence (the
/// shapes the Steane EC trial uses: two 7-qubit blocks).
fn frame_op_ns() -> f64 {
    const ITERS: usize = 1 << 19;
    const OPS: usize = 8;
    let ancilla = [0x7Fu64 << 7];
    let pivots = [(1u64 << 10) | (1 << 8) | (1 << 7)];
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut frame = PauliFrame::new(14);
            let start = Instant::now();
            let mut acc = 0u64;
            for i in 0..ITERS {
                frame.inject_x(i % 14);
                frame.h_mask(&ancilla);
                frame.cnot_block(0, 7, 7);
                frame.prep_mask(&pivots);
                acc ^= frame.x_bits_at(0, 7);
                acc ^= u64::from(frame.z_mask_parity(&ancilla));
                frame.inject_z((i * 5) % 14);
                frame.cnot_block(7, 0, 7);
            }
            black_box((acc, &frame));
            start.elapsed().as_nanos() as f64 / (ITERS * OPS) as f64
        })
        .collect();
    median(&samples)
}

/// µs per `MachineSpec::render` and per `MachineSpec::parse` of the
/// `expected` profile.
fn spec_us() -> (f64, f64) {
    const CALLS: usize = 500;
    let spec = MachineSpec::expected();
    let text = spec.render();
    let render: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS {
                black_box(black_box(&spec).render());
            }
            start.elapsed().as_secs_f64() * 1e6 / CALLS as f64
        })
        .collect();
    let parse: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS {
                black_box(MachineSpec::parse(black_box(&text)).is_ok());
            }
            start.elapsed().as_secs_f64() * 1e6 / CALLS as f64
        })
        .collect();
    (median(&render), median(&parse))
}

/// Mean µs of `parse_command` over every line of the stream.
fn json_parse_us(stream: &Stream) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for request in &stream.requests {
                black_box(qla_serve::parse_command(request.line.trim_end()).is_ok());
            }
            start.elapsed().as_secs_f64() * 1e6 / stream.requests.len() as f64
        })
        .collect();
    median(&samples)
}

/// In-process serve figures.
struct Served {
    hit_us: f64,
    miss_ms: f64,
    hits: usize,
    misses: usize,
    hit_rate: f64,
    evictions: u64,
}

/// The stream through `Service::handle_line` without a socket: median µs
/// per hit, mean ms per miss, and the cache counters, which must match
/// the LRU replay request by request.
fn serve_in_process(workload: &ServeMix, gate: &mut Gate) -> Served {
    let service = serve_mix::service();
    let prediction = workload.prediction();
    let mut hit_s = Vec::new();
    let mut miss_s = Vec::new();
    let mut problems = Vec::new();
    for (i, request) in workload.stream().requests.iter().enumerate() {
        let before = service.stats().hits;
        let start = Instant::now();
        let response = service.handle_line(request.line.trim_end());
        let elapsed = start.elapsed().as_secs_f64();
        let hit = service.stats().hits > before;
        if hit {
            hit_s.push(elapsed);
        } else {
            miss_s.push(elapsed);
        }
        expect(
            &mut problems,
            response.body.starts_with("{\"status\":\"ok\""),
            || format!("in-process request {i} failed"),
        );
        expect(&mut problems, hit == prediction.hit[i], || {
            format!(
                "in-process request {i}: hit = {hit}, LRU replay says {}",
                prediction.hit[i]
            )
        });
    }
    let stats = service.stats();
    expect(
        &mut problems,
        stats.evictions == prediction.evictions,
        || {
            format!(
                "in-process evictions {} differ from the LRU replay {}",
                stats.evictions, prediction.evictions
            )
        },
    );
    gate.record(problems);
    Served {
        hit_us: median(&hit_s) * 1e6,
        miss_ms: mean(&miss_s) * 1e3,
        hits: hit_s.len(),
        misses: miss_s.len(),
        hit_rate: stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        evictions: stats.evictions,
    }
}

/// Mean µs of `Report::render` per format over the hot experiments'
/// reports (what a first-format cache hit pays).
fn report_render_us(seed: u64) -> (f64, usize) {
    const ROUNDS: usize = 50;
    let reports: Vec<Report> = crate::mix::HOT_EXPERIMENTS
        .iter()
        .filter_map(|&(name, trials)| {
            let experiment = qla_bench::registry::find(name)?;
            let ctx = ExperimentContext::new(trials.unwrap_or(1), seed);
            Some(experiment.run_report(&ctx))
        })
        .collect();
    let renders = reports.len() * 3 * ROUNDS;
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..ROUNDS {
                for report in &reports {
                    for format in [Format::Json, Format::Text, Format::Csv] {
                        black_box(black_box(report).render(format));
                    }
                }
            }
            start.elapsed().as_secs_f64() * 1e6 / renders as f64
        })
        .collect();
    (median(&samples), renders)
}
