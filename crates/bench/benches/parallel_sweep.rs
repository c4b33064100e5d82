//! Criterion bench: sequential vs parallel sweep execution on the two
//! heaviest experiments of the registry.
//!
//! `fig7-threshold` is the Monte-Carlo threshold sweep (12 rates × two
//! recursion levels of Pauli-frame trials) and `recursion-analysis` is the
//! Equation 2 scan — the workloads `--jobs N` exists for. The same
//! experiment runs under `Executor::SEQUENTIAL` and under thread pools of
//! 2 and 4 workers; the outputs are asserted identical (the determinism
//! contract) while only the wall-clock differs. CI uploads this harness's
//! output next to the JSON report artefacts, so the sequential-vs-parallel
//! trajectory is visible per commit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qla_bench::experiments::{Fig7Threshold, RecursionAnalysis};
use qla_core::{Executor, Experiment, ExperimentContext};
use std::hint::black_box;

/// Trial budget for the Monte-Carlo experiment: large enough that the
/// per-point work dominates the pool's scheduling overhead, small enough
/// for CI.
const FIG7_TRIALS: usize = 600;

fn bench_fig7_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_sweep/fig7_threshold");
    group.sample_size(10);
    let base = ExperimentContext::new(FIG7_TRIALS, 7);
    let sequential = Fig7Threshold.run(&base);
    for jobs in [1usize, 2, 4] {
        let ctx = base.clone().with_executor(Executor::from_jobs(jobs));
        // Parallelism must be a pure speed-up: identical points, any jobs.
        assert_eq!(Fig7Threshold.run(&ctx).points, sequential.points);
        group.bench_with_input(BenchmarkId::new("jobs", jobs), &ctx, |b, ctx| {
            b.iter(|| black_box(Fig7Threshold.run(black_box(ctx))));
        });
    }
    group.finish();
}

fn bench_recursion_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_sweep/recursion_analysis");
    group.sample_size(10);
    let base = ExperimentContext::new(1, 7);
    for jobs in [1usize, 2, 4] {
        let ctx = base.clone().with_executor(Executor::from_jobs(jobs));
        group.bench_with_input(BenchmarkId::new("jobs", jobs), &ctx, |b, ctx| {
            b.iter(|| black_box(RecursionAnalysis.run(black_box(ctx))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig7_threshold, bench_recursion_analysis);
criterion_main!(benches);
