//! The greedy EPR-distribution scheduler of Section 5.
//!
//! "The scheduler is a heuristic greedy scheduler ... It works by grabbing
//! all available bandwidth whenever it can. However, if this means that the
//! scheduler cannot find the necessary paths, it will back off and retry with
//! a different set of start and end points." Its goal is to deliver every
//! EPR pair a two-qubit logical gate needs within the time the participating
//! logical qubits spend in error correction, so that communication never
//! appears on the critical path.

use crate::mesh::{Mesh, Node};
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// A request to deliver `pairs` purified EPR pairs between two logical
/// qubits before their next interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommRequest {
    /// Source logical qubit (node id).
    pub from: Node,
    /// Destination logical qubit (node id).
    pub to: Node,
    /// Number of EPR pairs required (49 for teleporting one level-2 logical
    /// qubit).
    pub pairs: usize,
}

/// Where the scheduler placed one batch of pairs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutedBatch {
    /// The request this batch belongs to (index into the submitted list).
    pub request: usize,
    /// The scheduling window the batch is delivered in.
    pub window: usize,
    /// The path taken (node sequence).
    pub path: Vec<Node>,
    /// Pairs delivered along this path in this window.
    pub pairs: usize,
}

/// The outcome of scheduling a set of requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleResult {
    /// Every routed batch.
    pub batches: Vec<RoutedBatch>,
    /// Number of scheduling windows used.
    pub windows_used: usize,
    /// Aggregate bandwidth utilisation: capacity consumed divided by the
    /// total capacity of the mesh over the windows used.
    pub utilization: f64,
    /// Requests that could not be fully satisfied within the window budget.
    pub unsatisfied: Vec<usize>,
}

impl ScheduleResult {
    /// True if every request was fully delivered.
    #[must_use]
    pub fn fully_satisfied(&self) -> bool {
        self.unsatisfied.is_empty()
    }

    /// Total pairs delivered.
    #[must_use]
    pub fn pairs_delivered(&self) -> usize {
        self.batches.iter().map(|b| b.pairs).sum()
    }
}

/// The greedy scheduler.
#[derive(Debug, Clone)]
pub struct GreedyScheduler {
    mesh: Mesh,
    /// Maximum scheduling windows a request may take before being reported as
    /// unsatisfied (the paper requires 1 window for full overlap with error
    /// correction; we allow callers to explore larger budgets).
    pub max_windows: usize,
}

impl GreedyScheduler {
    /// A scheduler over the given mesh.
    #[must_use]
    pub fn new(mesh: Mesh) -> Self {
        GreedyScheduler {
            mesh,
            max_windows: 8,
        }
    }

    /// Access the mesh.
    #[must_use]
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Schedule all requests, greedily filling each window before opening the
    /// next.
    ///
    /// # Panics
    /// Panics when a request names a node outside the mesh.
    #[must_use]
    pub fn schedule(&self, requests: &[CommRequest]) -> ScheduleResult {
        let mut topology = Topology::new(&self.mesh);
        for r in requests {
            topology.check_endpoints(r.from, r.to);
        }
        let mut remaining: Vec<usize> = requests.iter().map(|r| r.pairs).collect();
        let mut batches = Vec::new();
        let mut windows_used = 0usize;
        let mut capacity_consumed = 0usize;
        // Residual capacity per edge id (both directions of an edge
        // together), refilled at the start of every window; the topology
        // blocks an edge once its capacity runs out.
        let mut capacity = vec![0usize; topology.edge_count()];
        let mut exhausted = Vec::new();
        // Requests that found no route in this window. Capacity only falls
        // within a window, so they find none until the next.
        let mut stuck = vec![false; requests.len()];
        let mut order = Vec::with_capacity(requests.len());

        for window in 0..self.max_windows {
            if remaining.iter().all(|&p| p == 0) {
                break;
            }
            windows_used = window + 1;
            capacity.fill(self.mesh.edge_capacity_per_window());
            topology.unblock_all();
            stuck.fill(false);

            // Greedy pass: requests in order of decreasing remaining demand
            // (ties by index: the sort is stable), grabbing all the
            // bandwidth their best path offers; back off to the next
            // request when no path with spare capacity exists.
            loop {
                let mut progressed = false;
                order.clear();
                order.extend((0..requests.len()).filter(|&i| remaining[i] > 0 && !stuck[i]));
                order.sort_by_key(|&i| std::cmp::Reverse(remaining[i]));
                for &i in &order {
                    let req = requests[i];
                    let Some(route) = topology.route(req.from, req.to) else {
                        stuck[i] = true;
                        continue;
                    };
                    // Bottleneck capacity along the path; every edge of the
                    // route is usable, so it is positive.
                    let bottleneck = route.edges.iter().map(|&e| capacity[e]).min();
                    let send = bottleneck.expect("a route has an edge").min(remaining[i]);
                    for &e in route.edges {
                        capacity[e] -= send;
                        if capacity[e] == 0 {
                            exhausted.push(e);
                        }
                    }
                    capacity_consumed += send * route.edges.len();
                    remaining[i] -= send;
                    batches.push(RoutedBatch {
                        request: i,
                        window,
                        path: route.nodes.to_vec(),
                        pairs: send,
                    });
                    for e in exhausted.drain(..) {
                        topology.block(e);
                    }
                    progressed = true;
                }
                if !progressed {
                    break;
                }
            }
        }

        let unsatisfied: Vec<usize> = remaining
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0)
            .map(|(i, _)| i)
            .collect();
        let total_capacity = self.mesh.total_capacity_per_window() * windows_used.max(1);
        ScheduleResult {
            batches,
            windows_used,
            utilization: capacity_consumed as f64 / total_capacity as f64,
            unsatisfied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(bandwidth: usize) -> Mesh {
        Mesh::new(6, 6, bandwidth)
    }

    #[test]
    fn single_request_uses_shortest_path() {
        let s = GreedyScheduler::new(mesh(2));
        let result = s.schedule(&[CommRequest {
            from: 0,
            to: 3,
            pairs: 2,
        }]);
        assert!(result.fully_satisfied());
        assert_eq!(result.windows_used, 1);
        assert_eq!(result.pairs_delivered(), 2);
        let batch = &result.batches[0];
        assert_eq!(batch.path.len(), 4); // 3 hops
    }

    #[test]
    fn demand_beyond_one_window_spills_into_the_next() {
        // A 2x1 mesh has a single edge carrying 2 pairs per window at
        // bandwidth 1, so 10 pairs need 5 windows.
        let s = GreedyScheduler::new(Mesh::new(2, 1, 1));
        let result = s.schedule(&[CommRequest {
            from: 0,
            to: 1,
            pairs: 10,
        }]);
        assert!(result.fully_satisfied());
        assert_eq!(result.windows_used, 5);
        assert_eq!(result.pairs_delivered(), 10);
    }

    #[test]
    fn contending_requests_share_bandwidth() {
        let s = GreedyScheduler::new(mesh(2));
        let requests: Vec<CommRequest> = (0..6)
            .map(|i| CommRequest {
                from: i,
                to: 30 + i,
                pairs: 4,
            })
            .collect();
        let result = s.schedule(&requests);
        assert!(result.fully_satisfied());
        assert!(result.utilization > 0.0 && result.utilization <= 1.0);
    }

    #[test]
    fn impossible_demand_is_reported_unsatisfied() {
        let mut s = GreedyScheduler::new(mesh(1));
        s.max_windows = 1;
        let result = s.schedule(&[CommRequest {
            from: 0,
            to: 35,
            pairs: 1000,
        }]);
        assert!(!result.fully_satisfied());
        assert_eq!(result.unsatisfied, vec![0]);
    }

    #[test]
    fn colocated_requests_still_consume_bandwidth() {
        let s = GreedyScheduler::new(mesh(2));
        let result = s.schedule(&[CommRequest {
            from: 7,
            to: 7,
            pairs: 3,
        }]);
        assert!(result.fully_satisfied());
        assert!(result.pairs_delivered() >= 3);
    }

    #[test]
    fn higher_bandwidth_never_needs_more_windows() {
        let requests: Vec<CommRequest> = (0..8)
            .map(|i| CommRequest {
                from: i,
                to: 35 - i,
                pairs: 6,
            })
            .collect();
        let narrow = GreedyScheduler::new(mesh(1)).schedule(&requests);
        let wide = GreedyScheduler::new(mesh(4)).schedule(&requests);
        assert!(wide.windows_used <= narrow.windows_used);
    }

    #[test]
    #[should_panic(expected = "request endpoints (40, 3) outside the 36-node mesh")]
    fn a_foreign_source_fails_loudly() {
        let _ = GreedyScheduler::new(mesh(2)).schedule(&[CommRequest {
            from: 40,
            to: 3,
            pairs: 1,
        }]);
    }

    #[test]
    #[should_panic(expected = "request endpoints (3, 36) outside the 36-node mesh")]
    fn a_foreign_destination_fails_loudly() {
        let _ = GreedyScheduler::new(mesh(2)).schedule(&[CommRequest {
            from: 3,
            to: 36,
            pairs: 1,
        }]);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let s = GreedyScheduler::new(mesh(2));
        let requests: Vec<CommRequest> = (0..12)
            .map(|i| CommRequest {
                from: i,
                to: 24 + i,
                pairs: 8,
            })
            .collect();
        let result = s.schedule(&requests);
        assert!(result.utilization > 0.0 && result.utilization <= 1.0);
    }
}
