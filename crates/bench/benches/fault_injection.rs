//! Criterion bench: fault-injection overhead of the `qla-sim` engine on a
//! 16-node (4×4) mesh — healthy timeline vs a degraded one.
//!
//! The fault hooks (time-varying channel capacity, factory outages,
//! per-tenant quotas) sit on the engine's hottest paths, so this bench
//! pins two numbers per commit: the cost of running a *zero-fault*
//! timeline through `simulate_observed` (which must track the plain
//! `simulate` cases in `sim_event_loop`), and the cost of a genuinely
//! degraded run whose dark rounds and recovery events the engine has to
//! spin through. CI uploads the output next to the other bench artefacts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qla_core::MachineSpec;
use qla_faults::FaultPlan;
use qla_obs::Noop;
use qla_sched::Mesh;
use qla_sim::{
    simulate_observed, toffoli_arrivals, toffoli_work_items, FaultTimeline, TrafficParams, WorkItem,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// Windows of offered traffic.
const HORIZON_WINDOWS: usize = 8;

/// Offered load, Toffoli gates per window.
const OFFERED_LOAD: f64 = 2.0;

fn design_point() -> (qla_sim::SimConfig, usize) {
    let spec = MachineSpec::expected();
    let machine = spec.machine().expect("expected profile builds");
    let cfg = qla_sim::SimConfig {
        window: qla_sim::SimTime::from_time(machine.ecc_window()),
        pair_service: qla_sim::SimTime::from_time(machine.epr_pair_service_time()),
        pairs_per_window: machine.epr_pairs_per_ecc_window(),
        channels_per_edge: 2 * machine.config.bandwidth,
        max_in_flight: 64,
        ancilla_capacity: 12,
        ancilla_prep: qla_sim::SimTime::from_time(machine.ecc_window()),
        measure: None,
    };
    (cfg, machine.config.bandwidth)
}

fn workload(mesh: &Mesh, cfg: &qla_sim::SimConfig) -> Vec<WorkItem> {
    let mut rng = ChaCha8Rng::seed_from_u64(2005);
    let arrivals = toffoli_arrivals(
        mesh,
        HORIZON_WINDOWS,
        &TrafficParams {
            offered_load: OFFERED_LOAD,
            burst_factor: 2.0,
            window: cfg.window,
        },
        &mut rng,
    );
    toffoli_work_items(mesh, &arrivals)
}

fn bench_fault_injection(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_injection");
    group.sample_size(10);
    let (cfg, bandwidth) = design_point();
    let mesh = Mesh::new(4, 4, bandwidth).with_pairs_per_window(cfg.pairs_per_window);
    let items = workload(&mesh, &cfg);

    // Severity 0.5 over half the edges for windows [1, 5): the same shape
    // the fault-sweep experiment scans.
    let degraded = FaultPlan::degraded("bench-degraded", &mesh, &cfg, 0.5, 0.5, 1, 4)
        .compile(&mesh, &cfg)
        .expect("plan compiles against its own mesh");
    let healthy = FaultTimeline::default();

    for (label, timeline) in [("healthy", &healthy), ("degraded", &degraded)] {
        // Determinism guard: the bench must never drift the result.
        let reference = simulate_observed(&mesh, &cfg, &items, timeline, &mut Noop);
        assert!(reference.events > 0);
        assert_eq!(
            reference,
            simulate_observed(&mesh, &cfg, &items, timeline, &mut Noop)
        );
        println!(
            "fault_injection/{label}: {} work items, {} events per run",
            items.len(),
            reference.events
        );
        group.bench_with_input(
            BenchmarkId::new("timeline", label),
            &(&mesh, &items, timeline),
            |b, (mesh, items, timeline)| {
                b.iter(|| {
                    black_box(simulate_observed(
                        black_box(mesh),
                        black_box(&cfg),
                        black_box(items),
                        black_box(timeline),
                        &mut Noop,
                    ))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fault_injection);
criterion_main!(benches);
