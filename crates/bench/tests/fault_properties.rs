//! Acceptance properties of the fault-injection subsystem, pinned at the
//! experiment level:
//!
//! * a zero-fault timeline (the default, or the spec's fault scenario at
//!   severity 0) reproduces the registered `sim-offered-load`
//!   experiment's engine outcomes *exactly* — same streams, same
//!   `SimOutcome`, bit for bit;
//! * the registered `multi-tenant-fairness` experiment reports Jain's
//!   index exactly 1.0 under equal quotas and strictly below 1.0 for
//!   every skewed quota table.

use qla_bench::experiments::sim_support::{machine_mesh, SteadyState};
use qla_bench::experiments::MultiTenantFairness;
use qla_bench::registry;
use qla_core::{Experiment, ExperimentContext};
use qla_faults::severity_timeline;
use qla_obs::Noop;
use qla_sim::{simulate, simulate_observed, FaultTimeline};

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
    let sim = &ctx.spec.sweep.sim;
    let mesh = machine_mesh(&machine);
    let steady = SteadyState::new(&machine, sim);
    let cfg = &steady.cfg;
    assert!(
        !sim.offered_loads.is_empty(),
        "spec sweeps at least one offered load"
    );

    for (i, &offered_load) in sim.offered_loads.iter().enumerate() {
        let items = steady.toffoli_stream(&mesh, offered_load, &mut ctx.rng_for_point(i as u64));

        let baseline = simulate(&mesh, cfg, &items);
        assert_eq!(
            baseline,
            simulate_observed(&mesh, cfg, &items, &FaultTimeline::default(), &mut Noop),
            "offered load {offered_load}: the default timeline changed the outcome"
        );
        let healthy = severity_timeline(&ctx.spec.sweep.fault, &mesh, cfg, 0.0);
        assert_eq!(
            baseline,
            simulate_observed(&mesh, cfg, &items, &healthy, &mut Noop),
            "offered load {offered_load}: the severity-0 timeline changed the outcome"
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
