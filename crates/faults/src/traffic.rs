//! Traffic matrices and multi-tenant request streams.
//!
//! The offered-load studies in `qla-bench` place traffic uniformly, like
//! the paper's scheduler study. Real machines are not uniform: compilers
//! pin hot ancilla regions, error-corrected memories cluster, and a
//! shared machine serves tenants with different admission contracts. This
//! module generates the canonical non-uniform shapes — the four classic
//! [`TrafficMatrix`] patterns at a configurable offered load, and exactly
//! symmetric per-tenant streams whose only asymmetry is the admission
//! quota, so Jain's fairness index isolates the scheduler's behaviour
//! from workload noise.

use qla_sched::{CommRequest, Mesh, PAIRS_PER_LOGICAL_TELEPORT};
use qla_sim::{paced_arrivals, SimTime, TrafficParams, WorkItem};
use rand::Rng;

/// The four canonical traffic shapes of interconnect studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficMatrix {
    /// Independent uniform source and destination.
    Uniform,
    /// Uniform sources funnel into a small corner hot-spot.
    HotSpot,
    /// Each source talks to one of its mesh neighbours.
    NearestNeighbour,
    /// Uniform over *distinct* ordered pairs (no co-located traffic).
    AllToAll,
}

impl TrafficMatrix {
    /// Every matrix, in presentation order.
    pub const ALL: [TrafficMatrix; 4] = [
        TrafficMatrix::Uniform,
        TrafficMatrix::HotSpot,
        TrafficMatrix::NearestNeighbour,
        TrafficMatrix::AllToAll,
    ];

    /// Stable kebab-case name (report rows, CLI output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TrafficMatrix::Uniform => "uniform",
            TrafficMatrix::HotSpot => "hot-spot",
            TrafficMatrix::NearestNeighbour => "nearest-neighbour",
            TrafficMatrix::AllToAll => "all-to-all",
        }
    }
}

/// Generate a bursty stream of logical-teleport requests
/// ([`PAIRS_PER_LOGICAL_TELEPORT`] pairs each) over `horizon_windows` windows with
/// endpoints drawn from `matrix`. The arrivals come from
/// [`qla_sim::paced_arrivals`], the pacer of the uniform studies' Toffoli
/// streams, so matrices differ *only* in where the traffic goes.
///
/// `hotspot_fraction` sizes the [`TrafficMatrix::HotSpot`] destination
/// set: the first `max(1, round(fraction · nodes))` node ids (a corner
/// block of the row-major grid).
///
/// # Panics
/// Panics on a `hotspot_fraction` outside `(0, 1]`, a mesh with fewer
/// than two nodes (the matrices need somewhere to send traffic), or the
/// [`qla_sim::paced_arrivals`] parameter errors.
#[must_use]
pub fn matrix_requests<R: Rng + ?Sized>(
    mesh: &Mesh,
    horizon_windows: usize,
    params: &TrafficParams,
    matrix: TrafficMatrix,
    hotspot_fraction: f64,
    rng: &mut R,
) -> Vec<(SimTime, CommRequest)> {
    assert!(
        hotspot_fraction > 0.0 && hotspot_fraction <= 1.0,
        "hotspot_fraction must lie in (0, 1], got {hotspot_fraction}"
    );
    let nodes = mesh.node_count();
    assert!(nodes >= 2, "traffic matrices need at least two nodes");
    let hotspot = ((hotspot_fraction * nodes as f64).round() as usize).clamp(1, nodes);
    paced_arrivals(horizon_windows, params, rng, |rng| {
        let (from, to) = match matrix {
            TrafficMatrix::Uniform => (rng.random_range(0..nodes), rng.random_range(0..nodes)),
            TrafficMatrix::HotSpot => (rng.random_range(0..nodes), rng.random_range(0..hotspot)),
            TrafficMatrix::NearestNeighbour => {
                let from = rng.random_range(0..nodes);
                let neighbours = mesh.neighbours(from);
                (from, neighbours[rng.random_range(0..neighbours.len())])
            }
            TrafficMatrix::AllToAll => {
                let from = rng.random_range(0..nodes);
                let to = (from + 1 + rng.random_range(0..nodes - 1)) % nodes;
                (from, to)
            }
        };
        CommRequest {
            from,
            to,
            pairs: PAIRS_PER_LOGICAL_TELEPORT,
        }
    })
}

/// The per-tenant admission quotas of a skewed population: tenant 0 keeps
/// the full `base` quota and the last tenant gets `base / skew`, with the
/// divisor interpolated linearly in between (never below 1 slot). A skew
/// of 1 gives every tenant the same quota.
///
/// # Panics
/// Panics on zero `base` or `tenants`, or a skew below 1.
#[must_use]
pub fn tenant_quotas(base: usize, tenants: usize, skew: f64) -> Vec<usize> {
    assert!(base >= 1, "base quota must be at least 1");
    assert!(tenants >= 1, "tenants must be at least 1");
    assert!(
        skew.is_finite() && skew >= 1.0,
        "skew must be at least 1, got {skew}"
    );
    (0..tenants)
        .map(|i| {
            let position = if tenants == 1 {
                0.0
            } else {
                i as f64 / (tenants - 1) as f64
            };
            let divisor = 1.0 + (skew - 1.0) * position;
            ((base as f64 / divisor).round() as usize).max(1)
        })
        .collect()
}

/// Exactly symmetric multi-tenant work: every tenant submits the same
/// burst of `burst` single-teleport items, each drawing one logical
/// ancilla, at the start of each of
/// `windows` windows, routed along its own *private interior row* of the
/// mesh (same columns, same timings for all tenants). Rows are interior
/// and pairwise distinct, and with every edge usable the route between
/// same-row endpoints is the row itself, so tenants share no edges:
/// with equal quotas their sojourn sequences are identical — Jain's
/// index is exactly 1 — and any measured unfairness is attributable to
/// the quotas alone.
///
/// # Panics
/// Panics if the mesh has fewer than 2 columns, `tenants` is zero or
/// exceeds `rows − 2` (each tenant needs its own interior row), or
/// `burst`/`windows` is zero.
#[must_use]
pub fn symmetric_tenant_items(
    mesh: &Mesh,
    tenants: usize,
    windows: usize,
    burst: usize,
    window: SimTime,
) -> Vec<WorkItem> {
    let (columns, rows) = (mesh.columns(), mesh.rows());
    assert!(columns >= 2, "tenant rows need at least two columns");
    assert!(tenants >= 1, "tenants must be at least 1");
    assert!(
        tenants <= rows.saturating_sub(2),
        "{tenants} tenants need {tenants} interior rows but the mesh only has {}",
        rows.saturating_sub(2)
    );
    assert!(burst >= 1, "burst must be at least 1");
    assert!(windows >= 1, "windows must be at least 1");
    let mut items = Vec::with_capacity(windows * tenants * burst);
    for w in 0..windows {
        let arrival = window * w as u64;
        for tenant in 0..tenants {
            // Interior row of this tenant: spread evenly over rows 1..rows-1.
            let row = 1 + tenant * (rows - 2) / tenants;
            let from = row * columns;
            let to = from + columns - 1;
            for _ in 0..burst {
                items.push(WorkItem {
                    arrival,
                    ancillas: 1,
                    requests: vec![CommRequest {
                        from,
                        to,
                        pairs: PAIRS_PER_LOGICAL_TELEPORT,
                    }],
                    tenant,
                });
            }
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn params() -> TrafficParams {
        TrafficParams {
            offered_load: 8.0,
            burst_factor: 2.0,
            window: SimTime::from_nanos(1_000),
        }
    }

    #[test]
    fn matrices_respect_their_endpoint_constraints() {
        let mesh = Mesh::new(6, 6, 2);
        let nodes = mesh.node_count();
        let hotspot = ((0.125 * nodes as f64).round() as usize).max(1);
        for matrix in TrafficMatrix::ALL {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
            let requests = matrix_requests(&mesh, 20, &params(), matrix, 0.125, &mut rng);
            assert!(!requests.is_empty(), "{}", matrix.name());
            for &(t, r) in &requests {
                assert!(t < SimTime::from_nanos(20_000));
                assert_eq!(r.pairs, PAIRS_PER_LOGICAL_TELEPORT);
                assert!(r.from < nodes && r.to < nodes);
                match matrix {
                    TrafficMatrix::HotSpot => assert!(r.to < hotspot),
                    TrafficMatrix::NearestNeighbour => {
                        assert!(mesh.neighbours(r.from).contains(&r.to));
                    }
                    TrafficMatrix::AllToAll => assert_ne!(r.from, r.to),
                    TrafficMatrix::Uniform => {}
                }
            }
        }
    }

    #[test]
    fn matrix_streams_are_seed_deterministic() {
        let mesh = Mesh::new(4, 4, 1);
        for matrix in TrafficMatrix::ALL {
            let mut a = rand_chacha::ChaCha8Rng::seed_from_u64(11);
            let mut b = rand_chacha::ChaCha8Rng::seed_from_u64(11);
            assert_eq!(
                matrix_requests(&mesh, 8, &params(), matrix, 0.2, &mut a),
                matrix_requests(&mesh, 8, &params(), matrix, 0.2, &mut b),
            );
        }
    }

    #[test]
    fn quotas_interpolate_from_base_to_base_over_skew() {
        assert_eq!(tenant_quotas(8, 4, 1.0), vec![8, 8, 8, 8]);
        assert_eq!(tenant_quotas(8, 4, 2.0), vec![8, 6, 5, 4]);
        assert_eq!(tenant_quotas(8, 2, 8.0), vec![8, 1]);
        assert_eq!(tenant_quotas(8, 1, 4.0), vec![8]);
        // Quotas never fall below one admitted item.
        assert!(tenant_quotas(2, 5, 64.0).iter().all(|&q| q >= 1));
    }

    #[test]
    fn tenant_rows_are_distinct_interior_and_edge_disjoint() {
        let mesh = Mesh::new(8, 8, 1);
        let mut topology = qla_sched::Topology::new(&mesh);
        let items = symmetric_tenant_items(&mesh, 4, 3, 2, SimTime::from_nanos(1_000));
        assert_eq!(items.len(), 3 * 4 * 2);
        let mut rows_by_tenant = std::collections::BTreeMap::new();
        for item in &items {
            let request = item.requests[0];
            let row = request.from / mesh.columns();
            assert!(row >= 1 && row < mesh.rows() - 1, "row {row} not interior");
            rows_by_tenant
                .entry(item.tenant)
                .or_insert_with(std::collections::BTreeSet::new)
                .insert(row);
            // The route stays on the tenant's row, so tenants on
            // distinct rows never contend.
            let route = topology.route(request.from, request.to).unwrap();
            assert!(route.nodes.iter().all(|&n| n / mesh.columns() == row));
        }
        let rows: Vec<_> = rows_by_tenant.values().flatten().copied().collect();
        assert_eq!(rows.len(), 4, "one row per tenant");
        let distinct: std::collections::BTreeSet<_> = rows.iter().copied().collect();
        assert_eq!(distinct.len(), 4, "tenant rows must not collide");
    }
}
