//! Communication traffic generators for the workloads of Section 5.
//!
//! The dominant communication pattern of Shor's algorithm on the QLA is the
//! fault-tolerant Toffoli gate: three operand logical qubits plus six ancilla
//! logical qubits that must interact while the ancilla are being prepared.
//! Every two-qubit logical gate between non-adjacent tiles consumes one
//! teleported logical qubit, i.e. 49 purified EPR pairs, which the scheduler
//! must deliver while the participants sit in error correction.

use crate::mesh::Mesh;
use crate::scheduler::{CommRequest, GreedyScheduler, ScheduleResult};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// EPR pairs needed to teleport one level-2 logical qubit (one pair per data
/// ion).
pub const PAIRS_PER_LOGICAL_TELEPORT: usize = 49;

/// Ancilla logical qubits a fault-tolerant Toffoli requires (Section 5).
pub const TOFFOLI_ANCILLA_QUBITS: usize = 6;

/// The communication pattern of one fault-tolerant Toffoli gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ToffoliSite {
    /// The three operand logical qubits (node ids).
    pub operands: [usize; 3],
    /// The first of six consecutive ancilla logical qubits (node ids
    /// `ancilla_base .. ancilla_base + 6`).
    pub ancilla_base: usize,
}

impl ToffoliSite {
    /// The EPR-distribution requests of this Toffoli: each operand exchanges
    /// a teleported logical qubit with two of the ancilla blocks, and the
    /// target additionally interacts with both controls. The scheduler's
    /// optimisation of "only moving logical qubit A back if necessary" is
    /// reflected by charging one teleport (not two) per interaction.
    #[must_use]
    pub fn requests(&self, mesh: &Mesh) -> Vec<CommRequest> {
        let mut out = Vec::new();
        let nodes = mesh.node_count();
        for (i, &operand) in self.operands.iter().enumerate() {
            for j in 0..2 {
                let ancilla = (self.ancilla_base + 2 * i + j) % nodes;
                if ancilla != operand {
                    out.push(CommRequest {
                        from: operand,
                        to: ancilla,
                        pairs: PAIRS_PER_LOGICAL_TELEPORT,
                    });
                }
            }
        }
        // Control-target interactions.
        for &control in &self.operands[..2] {
            if control != self.operands[2] {
                out.push(CommRequest {
                    from: control,
                    to: self.operands[2],
                    pairs: PAIRS_PER_LOGICAL_TELEPORT,
                });
            }
        }
        out
    }
}

/// Generate a batch of Toffoli sites spread over the mesh, mimicking the
/// independent Toffoli gates executing concurrently during modular
/// exponentiation.
#[must_use]
pub fn random_toffoli_sites<R: Rng + ?Sized>(
    mesh: &Mesh,
    count: usize,
    rng: &mut R,
) -> Vec<ToffoliSite> {
    let nodes = mesh.node_count();
    (0..count)
        .map(|_| {
            let base = rng.random_range(0..nodes);
            ToffoliSite {
                operands: [base, rng.random_range(0..nodes), rng.random_range(0..nodes)],
                ancilla_base: rng.random_range(0..nodes),
            }
        })
        .collect()
}

/// Outcome of scheduling a Toffoli workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToffoliScheduleReport {
    /// The underlying schedule.
    pub result: ScheduleResult,
    /// Channel bandwidth used.
    pub bandwidth: usize,
    /// Whether every request was delivered within a single error-correction
    /// window (the paper's full-overlap condition).
    pub overlaps_with_ecc: bool,
}

impl ToffoliScheduleReport {
    /// Aggregate bandwidth utilisation as a percentage — the headline number
    /// of the paper's Section 5 scheduler study (~23% at bandwidth 2).
    #[must_use]
    pub fn utilization_percent(&self) -> f64 {
        self.result.utilization * 100.0
    }
}

/// Schedule the EPR traffic of the given Toffoli sites on a mesh with the
/// given bandwidth.
#[must_use]
pub fn schedule_toffoli_traffic(
    mesh: &Mesh,
    sites: &[ToffoliSite],
    windows_allowed: usize,
) -> ToffoliScheduleReport {
    let requests: Vec<CommRequest> = sites.iter().flat_map(|s| s.requests(mesh)).collect();
    let mut scheduler = GreedyScheduler::new(mesh.clone());
    scheduler.max_windows = windows_allowed.max(1);
    let result = scheduler.schedule(&requests);
    let overlaps_with_ecc = result.fully_satisfied() && result.windows_used <= 1;
    ToffoliScheduleReport {
        result,
        bandwidth: mesh.bandwidth,
        overlaps_with_ecc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn toffoli_requests_cover_operands_and_ancilla() {
        let mesh = Mesh::new(8, 8, 2);
        let site = ToffoliSite {
            operands: [0, 9, 18],
            ancilla_base: 30,
        };
        let reqs = site.requests(&mesh);
        assert_eq!(reqs.len(), 8); // 6 ancilla interactions + 2 control-target
        assert!(reqs.iter().all(|r| r.pairs == PAIRS_PER_LOGICAL_TELEPORT));
    }

    #[test]
    fn bandwidth_two_overlaps_a_neighbourhood_toffoli_with_ecc() {
        // Section 5: "given two channels in each direction (bandwidth of 2),
        // we could schedule communication such that it always overlapped with
        // error correction" — for a Toffoli whose operands and ancilla sit in
        // a local neighbourhood, one window suffices.
        let mesh = Mesh::new(10, 10, 2).with_pairs_per_window(70);
        let site = ToffoliSite {
            operands: [44, 45, 55],
            ancilla_base: 33,
        };
        let report = schedule_toffoli_traffic(&mesh, &[site], 1);
        assert!(report.result.fully_satisfied());
        assert!(report.overlaps_with_ecc);
    }

    #[test]
    fn utilization_is_moderate_not_saturated() {
        // The paper reports ~23% aggregate bandwidth utilisation; the exact
        // figure depends on placement, but a healthy greedy schedule should
        // neither starve (<2%) nor saturate (>90%) the mesh.
        let mesh = Mesh::new(10, 10, 2).with_pairs_per_window(70);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let sites = random_toffoli_sites(&mesh, 12, &mut rng);
        let report = schedule_toffoli_traffic(&mesh, &sites, 4);
        assert!(report.result.pairs_delivered() > 0);
        assert!(
            report.result.utilization > 0.02 && report.result.utilization < 0.9,
            "utilization {}",
            report.result.utilization
        );
    }

    #[test]
    fn higher_bandwidth_reduces_windows_for_heavy_traffic() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let narrow_mesh = Mesh::new(8, 8, 1);
        let sites = random_toffoli_sites(&narrow_mesh, 10, &mut rng);
        let narrow = schedule_toffoli_traffic(&narrow_mesh, &sites, 8);
        let wide_mesh = Mesh::new(8, 8, 4);
        let wide = schedule_toffoli_traffic(&wide_mesh, &sites, 8);
        assert!(wide.result.windows_used <= narrow.result.windows_used);
    }
}
