//! Property and acceptance tests for the `qla-sim` discrete-event engine
//! as wired to the analytic machine model.
//!
//! Two pillars:
//!
//! 1. **Uncontended convergence** (property test): with bandwidth far above
//!    demand and burst factor 1, every simulated per-request latency must
//!    equal the closed-form `pair_service_time`-based prediction *exactly*
//!    — the queueing engine collapses to the analytic service model when
//!    there is no queueing.
//! 2. **Cross-validation acceptance**: the `sim-vs-analytic` table must
//!    show exact window-count agreement in the uncontended regimes and
//!    `sim >= analytic` (with real divergence) under contention, and be
//!    byte-identical across `--jobs 1/4` and consecutive runs.

use proptest::prelude::*;
use qla_bench::experiments::sim_support::{machine_mesh, sim_config};
use qla_bench::experiments::SimVsAnalytic;
use qla_bench::registry;
use qla_core::{Executor, Experiment, ExperimentContext, MachineSpec};
use qla_report::Format;
use qla_sched::{CommRequest, Mesh};
use qla_sim::{simulate, SimTime, WorkItem};

/// The design-point engine configuration (clocks and capacities derived
/// from the `expected` machine — `pair_service_time`, the ECC window, and
/// the per-window round budget).
fn design_point() -> (qla_sim::SimConfig, qla_core::QlaMachine) {
    let spec = MachineSpec::expected();
    let machine = spec.machine().expect("expected profile builds");
    let cfg = sim_config(&machine, &spec.sweep.sim, None);
    (cfg, machine)
}

proptest! {
    // Uncontended limit: seeded request streams whose arrivals are spaced
    // at least one ECC window apart (no overlap, burst factor 1) and whose
    // demand fits the channel count (bandwidth >> demand). Every simulated
    // completion must equal the closed-form prediction, and requests that
    // fit inside their arrival window must finish after exactly one
    // `pair_service_time`.
    #[test]
    fn uncontended_latency_equals_the_pair_service_time_prediction(
        seed in 0u64..1_000_000,
        stream_len in 1usize..6,
        phase in 0.0f64..1.0,
    ) {
        let (cfg, machine) = design_point();
        let mesh = machine_mesh(&machine);
        let window_ns = cfg.window.nanos();

        // Deterministic stream from the case seed: arrival k sits in
        // window 2k at a seed-dependent phase, endpoints walk the mesh.
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        let nodes = mesh.node_count();
        let requests: Vec<(SimTime, CommRequest)> = (0..stream_len)
            .map(|k| {
                let offset = ((phase * window_ns as f64) as u64 + next() % window_ns) / 2;
                let arrival = SimTime::from_nanos(2 * k as u64 * window_ns + offset);
                let from = (next() % nodes as u64) as usize;
                let to = (next() % nodes as u64) as usize;
                // Demand at most the channel count: one service round.
                let pairs = 1 + (next() % cfg.channels_per_edge as u64) as usize;
                (arrival, CommRequest { from, to, pairs })
            })
            .collect();

        let items: Vec<WorkItem> = requests
            .iter()
            .map(|&(arrival, r)| WorkItem::request(arrival, r))
            .collect();
        let out = simulate(&mesh, &cfg, &items);
        prop_assert_eq!(out.requests.len(), requests.len());
        for (outcome, (arrival, request)) in out.requests.iter().zip(&requests) {
            // Exact agreement with the closed form, for every arrival phase
            // (including those that straddle a window boundary).
            prop_assert_eq!(
                outcome.completion,
                cfg.uncontended_completion(*arrival, request.pairs),
                "request {:?} at {:?}", request, arrival
            );
            // And when the service fits inside the arrival's window, the
            // latency is exactly one pair_service_time: the closed-form
            // constant the analytic models are built on.
            let next_slot = cfg.next_slot(*arrival);
            let fits = next_slot.nanos() / window_ns == arrival.nanos() / window_ns;
            if fits {
                prop_assert_eq!(
                    outcome.completion.saturating_since(*arrival),
                    next_slot.saturating_since(*arrival) + cfg.pair_service
                );
            }
        }
    }

    // Widening the channels (bandwidth >>) never changes the uncontended
    // single-round latency — the service time is bandwidth-independent
    // once demand fits in one round.
    #[test]
    fn extra_bandwidth_does_not_change_uncontended_latency(extra in 1usize..32) {
        let (cfg, machine) = design_point();
        let wide = qla_sim::SimConfig {
            channels_per_edge: cfg.channels_per_edge * extra,
            ..cfg
        };
        let mesh = machine_mesh(&machine);
        let request = CommRequest { from: 0, to: 21, pairs: cfg.channels_per_edge };
        let items = [WorkItem::request(SimTime::ZERO, request)];
        let narrow_run = simulate(&mesh, &cfg, &items);
        let wide_run = simulate(&mesh, &wide, &items);
        prop_assert_eq!(narrow_run.requests[0].completion, cfg.pair_service);
        prop_assert_eq!(wide_run.requests[0].completion, cfg.pair_service);
    }
}

#[test]
fn sim_vs_analytic_agrees_uncontended_and_dominates_contended() {
    // The acceptance check: exact agreement where there is no contention,
    // sim >= analytic (with real divergence) where there is.
    for profile in ["expected", "current"] {
        let spec = MachineSpec::builtin(profile).unwrap();
        let ctx = ExperimentContext::new(1, 2005).with_spec(spec);
        let output = SimVsAnalytic.run(&ctx);
        assert!(!output.rows.is_empty());
        let mut diverged = false;
        for row in &output.rows {
            assert!(
                row.light.agrees(),
                "{profile}: light regime diverged at {} cells: analytic {} vs sim {}",
                row.distance_cells,
                row.light.analytic_windows,
                row.light.sim_windows
            );
            assert!(
                row.saturated.agrees(),
                "{profile}: saturated regime diverged at {} cells: analytic {} vs sim {}",
                row.distance_cells,
                row.saturated.analytic_windows,
                row.saturated.sim_windows
            );
            assert!(
                row.saturated.analytic_windows > 1,
                "{profile}: the saturated regime must exercise multi-window agreement"
            );
            assert!(
                row.contended.sim_windows >= row.contended.analytic_windows,
                "{profile}: sim fell below the analytic bound at {} cells",
                row.distance_cells
            );
            diverged |= row.contended.sim_windows > row.contended.analytic_windows;
        }
        assert!(
            diverged,
            "{profile}: contention never diverged — the regime is not actually contended"
        );
    }
}

#[test]
fn sim_experiments_are_byte_identical_across_jobs_and_runs() {
    // The CI determinism job diffs whole run-all trees; this is the
    // in-tree version scoped to the three simulation experiments.
    for name in ["sim-offered-load", "sim-tail-latency", "sim-vs-analytic"] {
        let experiment = registry::find(name).expect("registered");
        let ctx = ExperimentContext::new(1, 7);
        let sequential = experiment.run_report(&ctx);
        let first = sequential.render(Format::Json);
        let again = experiment.run_report(&ctx).render(Format::Json);
        assert_eq!(first, again, "{name}: run-to-run drift");
        for jobs in [2usize, 4] {
            let parallel = experiment
                .run_report(&ctx.clone().with_executor(Executor::from_jobs(jobs)))
                .render(Format::Json);
            assert_eq!(first, parallel, "{name}: --jobs {jobs} changed bytes");
        }
    }
}

#[test]
fn offered_load_sweep_saturates_monotonically_in_makespan() {
    // Sanity of the queueing story: offering more load can only extend the
    // drain (makespan) and never shrinks the offered gate count.
    let ctx = ExperimentContext::new(1, 2005);
    let output = qla_bench::experiments::SimOfferedLoad.run(&ctx);
    let rows = &output.rows;
    assert!(rows.len() >= 2);
    for pair in rows.windows(2) {
        assert!(pair[1].offered_load > pair[0].offered_load);
        assert!(
            pair[1].makespan_windows >= pair[0].makespan_windows,
            "makespan shrank between loads {} and {}",
            pair[0].offered_load,
            pair[1].offered_load
        );
    }
    // The top of the default grid is past the ancilla-factory capacity:
    // saturation must be visible as a fully busy factory.
    let top = rows.last().unwrap();
    assert!(
        top.factory_utilization > 0.99,
        "factory utilisation at the top load: {}",
        top.factory_utilization
    );
    // Under the default mesh (one edge shared per round at most), channel
    // utilisation stays a sane fraction.
    for row in rows {
        assert!(row.channel_utilization >= 0.0 && row.channel_utilization <= 1.0);
        assert!(row.events > 0);
    }
}

#[test]
fn corridor_meshes_match_the_machines_window_capacity() {
    // The sim-vs-analytic corridors must share the machine's per-window
    // edge capacity, or "agreement" would be vacuous.
    let (cfg, machine) = design_point();
    let corridor = Mesh::new(10, 1, machine.bandwidth)
        .with_pairs_per_window(machine.epr_pairs_per_ecc_window());
    assert_eq!(
        corridor.edge_capacity_per_window(),
        cfg.channels_per_edge * cfg.pairs_per_window
    );
}
