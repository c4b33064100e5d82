//! `multi-tenant-fairness`: Jain's fairness index vs admission-quota skew
//! on a shared QLA.
//!
//! A multi-programmed QLA serves tenants through per-tenant
//! `max_in_flight` admission quotas. This experiment isolates what the
//! quota alone does to service quality: every tenant submits the *same*
//! bursty stream of ancilla-backed teleport items on its own
//! edge-disjoint mesh row (so tenants share no channel and the ancilla
//! factory is provisioned to never queue), and only the quota table is
//! skewed. Under equal quotas the tenants' sojourn sequences are
//! identical and Jain's index is exactly 1; as the skew grows, the
//! throttled tenants' admissions slip behind the one-window ancilla prep
//! again and again, and the index falls.

use crate::experiments::round2;
use crate::experiments::sim_support::{machine_mesh, sim_config};
use qla_core::{Experiment, ExperimentContext};
use qla_faults::{symmetric_tenant_items, tenant_quotas};
use qla_obs::Noop;
use qla_report::{jains_index, row, Column, Report};
use qla_sim::{mean_nanos, simulate_observed, sorted_nanos, FaultTimeline, LatencySummary};
use serde::Serialize;

/// The quota-skew sweep. Tenant count, base quota and the skew grid come
/// from the active spec's `sweep.fault.*` section.
pub struct MultiTenantFairness;

/// One quota-skew point.
#[derive(Debug, Clone, Serialize)]
pub struct FairnessRow {
    /// Quota skew (1 = equal quotas).
    pub skew: f64,
    /// Smallest per-tenant quota in the skewed table.
    pub min_quota: usize,
    /// Jain's fairness index over per-tenant mean sojourns.
    pub jain_index: f64,
    /// Mean sojourn of the best-provisioned tenant, ms.
    pub best_tenant_ms: f64,
    /// Mean sojourn of the most-throttled tenant, ms.
    pub worst_tenant_ms: f64,
    /// 99th-percentile sojourn across all tenants, ms.
    pub p99_sojourn_ms: f64,
    /// Error-correction windows until the last item drained.
    pub makespan_windows: usize,
}

/// Typed output: one row per skew, in spec order.
#[derive(Debug, Clone, Serialize)]
pub struct FairnessOutput {
    /// Rows in `sweep.fault.quota_skews` order.
    pub rows: Vec<FairnessRow>,
    /// Tenants sharing the machine.
    pub tenants: usize,
}

impl Experiment for MultiTenantFairness {
    type Output = FairnessOutput;

    fn name(&self) -> &'static str {
        "multi-tenant-fairness"
    }
    fn title(&self) -> &'static str {
        "Multi-tenant fairness — Jain's index vs admission-quota skew"
    }
    fn description(&self) -> &'static str {
        "Symmetric tenants on edge-disjoint rows; only the per-tenant admission quota is skewed"
    }
    fn default_trials(&self) -> usize {
        1
    }
    fn spec_fields(&self) -> &'static [&'static str] {
        &[
            "bandwidth",
            "logical_qubits",
            "interconnect.*",
            "sweep.sim.*",
            "sweep.fault.*",
        ]
    }

    fn run(&self, ctx: &ExperimentContext) -> FairnessOutput {
        let machine = ctx.machine();
        let sim = &ctx.spec.sweep.sim;
        let fault = &ctx.spec.sweep.fault;
        let mesh = machine_mesh(&machine);

        // The workload is RNG-free and shared verbatim by every skew
        // point: each tenant submits `tenant_quota` single-teleport items
        // (one logical ancilla each) at the start of every window, on its
        // own interior mesh row.
        let base = sim_config(&machine, sim, None);
        let items = symmetric_tenant_items(
            &mesh,
            fault.tenants,
            sim.measure_windows,
            fault.tenant_quota,
            base.window,
        );
        // Only the per-tenant quotas may bind: the global admission limit
        // and the ancilla factory are provisioned for the whole workload
        // at once.
        let cfg = qla_sim::SimConfig {
            max_in_flight: items.len().max(1),
            ancilla_capacity: items.len().max(1),
            ..base
        };
        let rows = ctx.executor.map_indices(fault.quota_skews.len(), |i| {
            let skew = fault.quota_skews[i];
            let quotas = tenant_quotas(fault.tenant_quota, fault.tenants, skew);
            let min_quota = quotas.iter().copied().min().unwrap_or(0);
            let timeline = FaultTimeline {
                tenant_quotas: quotas,
                ..FaultTimeline::default()
            };
            let out = simulate_observed(&mesh, &cfg, &items, &timeline, &mut Noop);

            let per_tenant = out.sojourns_by_tenant(fault.tenants);
            let means_ms: Vec<f64> = per_tenant
                .iter()
                .map(|sojourns| mean_nanos(&sorted_nanos(sojourns)) / 1e6)
                .collect();
            let sojourn = LatencySummary::of(&out.sojourns());

            FairnessRow {
                skew,
                min_quota,
                jain_index: jains_index(&means_ms),
                best_tenant_ms: means_ms.iter().copied().fold(f64::INFINITY, f64::min),
                worst_tenant_ms: means_ms.iter().copied().fold(0.0, f64::max),
                p99_sojourn_ms: qla_sim::SimTime::from_nanos(sojourn.p99_ns).as_millis_f64(),
                makespan_windows: out.windows_used(cfg.window),
            }
        });
        FairnessOutput {
            rows,
            tenants: fault.tenants,
        }
    }

    fn report(&self, ctx: &ExperimentContext, output: &FairnessOutput) -> Report {
        let fault = &ctx.spec.sweep.fault;
        let mut r = Report::new(Experiment::name(self), self.title())
            .with_param("seed", ctx.seed)
            .with_param("tenants", output.tenants as u64)
            .with_param("base_quota", fault.tenant_quota as u64)
            .with_param("windows", ctx.spec.sweep.sim.measure_windows as u64)
            .with_columns([
                Column::new("skew"),
                Column::new("min quota"),
                Column::new("Jain index"),
                Column::with_unit("best tenant", "ms"),
                Column::with_unit("worst tenant", "ms"),
                Column::with_unit("p99 sojourn", "ms"),
                Column::new("makespan (windows)"),
            ]);
        for row in &output.rows {
            r.push_row(row![
                row.skew,
                row.min_quota,
                round2(row.jain_index * 100.0) / 100.0,
                round2(row.best_tenant_ms),
                round2(row.worst_tenant_ms),
                round2(row.p99_sojourn_ms),
                row.makespan_windows
            ]);
        }
        r.push_note(
            "tenants are perfectly symmetric (same arrivals, private edge-disjoint rows, \
             uncontended ancilla factory), so Jain's index over per-tenant mean sojourns is \
             exactly 1 at skew 1 and any drop below 1 is caused by the quota table alone",
        );
        r
    }
}
