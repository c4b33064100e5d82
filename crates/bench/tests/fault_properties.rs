//! Acceptance properties of the fault-injection subsystem, pinned at the
//! experiment level:
//!
//! * a zero-fault timeline (default or compiled from a healthy
//!   [`FaultPlan`]) reproduces the registered `sim-offered-load`
//!   experiment's engine outcomes *exactly* — same streams, same
//!   `SimOutcome`, bit for bit;
//! * the registered `multi-tenant-fairness` experiment reports Jain's
//!   index exactly 1.0 under equal quotas and strictly below 1.0 for
//!   every skewed quota table.

use qla_bench::experiments::sim_support::{machine_mesh, sim_config};
use qla_bench::experiments::MultiTenantFairness;
use qla_bench::registry;
use qla_core::{Experiment, ExperimentContext};
use qla_faults::FaultPlan;
use qla_obs::Noop;
use qla_sim::{
    simulate, simulate_observed, toffoli_arrivals, toffoli_work_items, FaultTimeline, TrafficParams,
};

/// Same seed the golden reports are pinned at.
const GOLDEN_SEED: u64 = 2005;

#[test]
fn zero_fault_timelines_reproduce_the_offered_load_numbers_exactly() {
    // Replay the exact per-point arrival streams the registered
    // `sim-offered-load` experiment runs (same spec, same derived RNG per
    // load index) and demand bitwise `SimOutcome` equality between the
    // plain engine and the faulted engine carrying no faults.
    let ctx = ExperimentContext::new(1, GOLDEN_SEED);
    let machine = ctx.machine();
    let sim = ctx.spec.sweep.sim.clone();
    let mesh = machine_mesh(&machine);
    let horizon = sim.warmup_windows + sim.measure_windows;
    assert!(
        !sim.offered_loads.is_empty(),
        "spec sweeps at least one offered load"
    );

    for (i, &offered_load) in sim.offered_loads.iter().enumerate() {
        let cfg = sim_config(&machine, &sim, None);
        let warm_start = cfg.window * sim.warmup_windows as u64;
        let measure_end = cfg.window * horizon as u64;
        let cfg = qla_sim::SimConfig {
            measure: Some((warm_start, measure_end)),
            ..cfg
        };
        let mut rng = ctx.rng_for_point(i as u64);
        let arrivals = toffoli_arrivals(
            &mesh,
            horizon,
            &TrafficParams {
                offered_load,
                burst_factor: sim.burst_factor,
                window: cfg.window,
            },
            &mut rng,
        );
        let items = toffoli_work_items(&mesh, &arrivals);

        let baseline = simulate(&mesh, &cfg, &items);
        assert_eq!(
            baseline,
            simulate_observed(&mesh, &cfg, &items, &FaultTimeline::default(), &mut Noop),
            "offered load {offered_load}: the default timeline changed the outcome"
        );
        let healthy = FaultPlan::healthy("healthy")
            .compile(&mesh, &cfg)
            .expect("healthy plans compile against any mesh");
        assert_eq!(
            baseline,
            simulate_observed(&mesh, &cfg, &items, &healthy, &mut Noop),
            "offered load {offered_load}: a compiled healthy plan changed the outcome"
        );
    }
}

#[test]
fn jains_index_is_exactly_one_under_equal_quotas_and_strictly_below_under_skew() {
    assert!(
        registry::find("multi-tenant-fairness").is_some(),
        "multi-tenant-fairness is registered"
    );
    let ctx = ExperimentContext::new(1, GOLDEN_SEED);
    let output = MultiTenantFairness.run(&ctx);
    let skews = &ctx.spec.sweep.fault.quota_skews;
    assert_eq!(output.rows.len(), skews.len(), "one row per spec skew");
    assert!(
        output.rows.iter().any(|r| r.skew == 1.0),
        "spec sweeps the equal-quota point"
    );
    assert!(
        output.rows.iter().any(|r| r.skew > 1.0),
        "spec sweeps at least one skewed point"
    );

    for row in &output.rows {
        if row.skew == 1.0 {
            assert_eq!(
                row.jain_index, 1.0,
                "equal quotas over symmetric tenants must be exactly fair"
            );
            assert_eq!(
                row.best_tenant_ms, row.worst_tenant_ms,
                "equal quotas: every tenant sees the same mean sojourn"
            );
        } else {
            assert!(
                row.jain_index < 1.0,
                "skew {} left Jain's index at {}",
                row.skew,
                row.jain_index
            );
            assert!(
                row.worst_tenant_ms > row.best_tenant_ms,
                "skew {} did not spread tenant sojourns",
                row.skew
            );
        }
    }
}
