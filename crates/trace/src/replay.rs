//! Replay adapters: lower a [`Trace`] onto a mesh and drive both the
//! analytic [`GreedyScheduler`] and the `qla-sim` discrete-event engine
//! from the *same* per-layer EPR demand.
//!
//! The pipeline is `Trace` → ASAP hazard layers (ops on the same logical
//! qubit serialise; independent ops batch) → per-gate [`GateTraffic`] →
//! either a per-layer greedy window plan ([`schedule_trace`]) or an
//! arrival-paced simulator workload ([`trace_work_items`]). Because both
//! consumers see identical requests per layer, the established
//! sim ≥ analytic contention invariant carries over to traced programs:
//! the plan is a lower bound that ignores cross-layer queueing, factory
//! occupancy, and admission control, all of which the simulator charges.

use crate::format::{QubitId, Trace};
use qla_circuit::{Gate, Schedule};
use qla_sched::{
    CommRequest, GreedyScheduler, Mesh, Node, ToffoliSite, PAIRS_PER_LOGICAL_TELEPORT,
    TOFFOLI_ANCILLA_QUBITS,
};
use qla_sim::{SimTime, WorkItem};
use serde::Serialize;

/// Per-hazard-layer window budget handed to the greedy scheduler. Far
/// above anything a sane layer needs; replay panics loudly rather than
/// under-counting if a layer fails to route within it.
pub const LAYER_WINDOW_BUDGET: usize = 1_024;

/// Where each logical qubit of a trace lives on the mesh.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Placement {
    nodes: Vec<Node>,
}

impl Placement {
    /// Deterministic placement: qubits in declaration order, spread
    /// evenly over the grid via [`Mesh::spread_nodes`].
    ///
    /// # Panics
    /// Panics when the trace declares more qubits than the mesh has
    /// tiles (inherited from [`Mesh::spread_nodes`]).
    #[must_use]
    pub fn spread(mesh: &Mesh, trace: &Trace) -> Placement {
        Placement {
            nodes: mesh.spread_nodes(trace.qubit_count()),
        }
    }

    /// The mesh node hosting logical qubit `q`.
    #[must_use]
    pub fn node(&self, q: QubitId) -> Node {
        self.nodes[q]
    }

    /// All assignments, indexed by qubit id.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

/// The EPR-channel demand of one instruction within its hazard layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GateTraffic {
    /// Ancilla logical qubits the instruction consumes from a factory.
    pub ancillas: usize,
    /// The ballistic-channel requests it issues.
    pub requests: Vec<CommRequest>,
}

/// A trace lowered onto a mesh: per ASAP hazard layer, the per-gate
/// EPR demand. Layers with no communicating gate stay in the vector
/// (empty) so layer indices line up with the dependency depth.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TraceTraffic {
    /// One entry per hazard layer, in dependency order.
    pub layers: Vec<Vec<GateTraffic>>,
    /// Total instruction count of the source trace (communicating or not).
    pub gates: usize,
}

impl TraceTraffic {
    /// Lower `trace` onto `mesh` under `placement`.
    ///
    /// Traffic model, matching `qla_sched::traffic`:
    /// - a Toffoli becomes a [`ToffoliSite`] (ancillas adjacent to the
    ///   target) — six factory ancillas plus its eight teleport requests;
    /// - a two-qubit gate between distinct tiles is one logical teleport
    ///   of [`PAIRS_PER_LOGICAL_TELEPORT`] pairs;
    /// - 1q Cliffords, T gates, preparations and measurements are local
    ///   to their tile and issue no channel traffic.
    #[must_use]
    pub fn lower(trace: &Trace, mesh: &Mesh, placement: &Placement) -> TraceTraffic {
        let schedule = Schedule::asap(&trace.to_circuit());
        let layers = schedule
            .steps()
            .iter()
            .map(|step| {
                step.gates
                    .iter()
                    .filter_map(|g| gate_traffic(g, mesh, placement))
                    .collect()
            })
            .collect();
        TraceTraffic {
            layers,
            gates: trace.len(),
        }
    }

    /// Number of hazard layers that issue at least one request.
    #[must_use]
    pub fn comm_layers(&self) -> usize {
        self.layers.iter().filter(|l| !l.is_empty()).count()
    }
}

/// The demand of one gate, or `None` for tile-local operations.
fn gate_traffic(gate: &Gate, mesh: &Mesh, placement: &Placement) -> Option<GateTraffic> {
    match *gate {
        Gate::Toffoli {
            control1,
            control2,
            target,
        } => {
            let target_node = placement.node(target);
            let site = ToffoliSite {
                operands: [
                    placement.node(control1),
                    placement.node(control2),
                    target_node,
                ],
                ancilla_base: (target_node + 1) % mesh.node_count(),
            };
            Some(GateTraffic {
                ancillas: TOFFOLI_ANCILLA_QUBITS,
                requests: site.requests(mesh),
            })
        }
        g if g.is_two_qubit() => {
            let operands = g.qubits();
            let from = placement.node(operands[0]);
            let to = placement.node(operands[1]);
            (from != to).then(|| GateTraffic {
                ancillas: 0,
                requests: vec![CommRequest {
                    from,
                    to,
                    pairs: PAIRS_PER_LOGICAL_TELEPORT,
                }],
            })
        }
        // 1q Cliffords and T gates act transversally within the tile
        // (T's magic state is charged to the Toffoli model, not the
        // channels), and prep/measure are tile-local by construction.
        _ => None,
    }
}

/// The greedy scheduler's window plan for a lowered trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceSchedule {
    /// Windows the scheduler spent on each hazard layer (0 when the
    /// layer issues no requests).
    pub layer_windows: Vec<usize>,
    /// Sum of `layer_windows` — the analytic lower bound on the windows
    /// a dependency-respecting execution needs for communication.
    pub total_windows: usize,
    /// Total requests routed.
    pub requests: usize,
    /// Total EPR pairs delivered.
    pub pairs: usize,
    /// Mean channel utilisation over the layers that communicated,
    /// weighted by each layer's window count.
    pub weighted_utilization: f64,
}

/// Route every hazard layer through [`GreedyScheduler`] in dependency
/// order: a layer's requests are independent of each other (hazard-free
/// by construction) and must all land before the next layer starts.
///
/// # Panics
/// Panics when any layer fails to route within [`LAYER_WINDOW_BUDGET`]
/// windows — silently truncating a layer would corrupt every downstream
/// windows/pairs figure.
#[must_use]
pub fn schedule_trace(traffic: &TraceTraffic, mesh: &Mesh) -> TraceSchedule {
    let mut scheduler = GreedyScheduler::new(mesh.clone());
    scheduler.max_windows = LAYER_WINDOW_BUDGET;
    let mut layer_windows = Vec::with_capacity(traffic.layers.len());
    let mut requests = 0;
    let mut pairs = 0;
    let mut weighted = 0.0;
    for (index, layer) in traffic.layers.iter().enumerate() {
        let layer_requests: Vec<CommRequest> = layer
            .iter()
            .flat_map(|g| g.requests.iter().copied())
            .collect();
        if layer_requests.is_empty() {
            layer_windows.push(0);
            continue;
        }
        let result = scheduler.schedule(&layer_requests);
        assert!(
            result.fully_satisfied(),
            "hazard layer {index}: {} of {} requests unroutable within {} windows",
            result.unsatisfied.len(),
            layer_requests.len(),
            LAYER_WINDOW_BUDGET
        );
        requests += layer_requests.len();
        pairs += layer_requests.iter().map(|r| r.pairs).sum::<usize>();
        weighted += result.utilization * result.windows_used as f64;
        layer_windows.push(result.windows_used);
    }
    let total_windows: usize = layer_windows.iter().sum();
    TraceSchedule {
        layer_windows,
        total_windows,
        requests,
        pairs,
        weighted_utilization: if total_windows == 0 {
            0.0
        } else {
            weighted / total_windows as f64
        },
    }
}

/// Expand a lowered trace into simulator work items paced by the
/// analytic plan: hazard layer `l` arrives when the plan says every
/// earlier layer's communication has drained (the cumulative window
/// count times the ECC window), one [`WorkItem`] per communicating
/// gate. The simulator then re-discovers the congestion the plan
/// already accounted for — plus the queueing, factory occupancy, and
/// admission delays it cannot see — so simulated windows can only meet
/// or exceed [`TraceSchedule::total_windows`] under contention.
#[must_use]
pub fn trace_work_items(
    traffic: &TraceTraffic,
    plan: &TraceSchedule,
    window: SimTime,
) -> Vec<WorkItem> {
    assert_eq!(
        traffic.layers.len(),
        plan.layer_windows.len(),
        "plan was built from a different lowering"
    );
    let mut items = Vec::new();
    let mut start_windows = 0usize;
    for (layer, &windows) in traffic.layers.iter().zip(&plan.layer_windows) {
        let arrival = window * start_windows as u64;
        for gate in layer {
            items.push(WorkItem {
                arrival,
                ancillas: gate.ancillas,
                requests: gate.requests.clone(),
                tenant: 0,
            });
        }
        start_windows += windows;
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::qcla_adder;
    use qla_sim::{simulate, SimConfig};

    fn test_mesh() -> Mesh {
        Mesh::new(8, 8, 2).with_pairs_per_window(2)
    }

    fn test_config() -> SimConfig {
        SimConfig {
            window: SimTime::from_nanos(1_000_000),
            pair_service: SimTime::from_nanos(10_000),
            pairs_per_window: 2,
            channels_per_edge: 4,
            max_in_flight: 64,
            ancilla_capacity: 12,
            ancilla_prep: SimTime::from_nanos(1_000_000),
            measure: None,
        }
    }

    #[test]
    fn lowering_charges_toffolis_and_remote_two_qubit_gates() {
        let trace = qcla_adder(4);
        let mesh = test_mesh();
        let placement = Placement::spread(&mesh, &trace);
        let traffic = TraceTraffic::lower(&trace, &mesh, &placement);
        assert_eq!(traffic.gates, trace.len());
        let counts = trace.counts();
        // Every Toffoli contributes 6 ancillas; spread placement makes
        // every CNOT remote, so each contributes exactly one teleport.
        let ancillas: usize = traffic
            .layers
            .iter()
            .flat_map(|l| l.iter())
            .map(|g| g.ancillas)
            .sum();
        assert_eq!(ancillas, counts.toffoli * TOFFOLI_ANCILLA_QUBITS);
        let teleports = traffic
            .layers
            .iter()
            .flat_map(|l| l.iter())
            .filter(|g| g.ancillas == 0)
            .count();
        assert_eq!(teleports, counts.two_qubit);
        assert!(
            traffic.comm_layers() < traffic.layers.len(),
            "X/measure layers are silent"
        );
    }

    #[test]
    fn plan_and_work_items_stay_in_lockstep() {
        let trace = qcla_adder(4);
        let mesh = test_mesh();
        let placement = Placement::spread(&mesh, &trace);
        let traffic = TraceTraffic::lower(&trace, &mesh, &placement);
        let plan = schedule_trace(&traffic, &mesh);
        assert_eq!(plan.layer_windows.len(), traffic.layers.len());
        let requests: Vec<_> = traffic
            .layers
            .iter()
            .flatten()
            .flat_map(|g| &g.requests)
            .collect();
        assert_eq!(plan.requests, requests.len());
        assert_eq!(plan.pairs, requests.iter().map(|r| r.pairs).sum::<usize>());
        assert!(plan.total_windows > 0);
        assert!(plan.weighted_utilization > 0.0 && plan.weighted_utilization <= 1.0);

        let cfg = test_config();
        let items = trace_work_items(&traffic, &plan, cfg.window);
        let communicating: usize = traffic.layers.iter().map(Vec::len).sum();
        assert_eq!(items.len(), communicating);
        // Arrivals are non-decreasing and paced in whole windows.
        for pair in items.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        let outcome = simulate(&mesh, &cfg, &items);
        assert!(
            outcome.windows_used(cfg.window) >= plan.total_windows,
            "sim {} < analytic {}",
            outcome.windows_used(cfg.window),
            plan.total_windows
        );
    }
}
