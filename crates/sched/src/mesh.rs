//! The interconnect mesh the scheduler routes over.
//!
//! The QLA's channels form a grid between logical-qubit tiles (Figure 1). For
//! EPR-pair distribution the relevant resource is *bandwidth*: "We define the
//! bandwidth of QLA's communication channels as the number of physical
//! channels in each direction" (Section 5) — one channel carries created
//! pairs outward and one returns used pairs, and pairs are pipelined within a
//! channel. The scheduler's job is to deliver every requested pair within one
//! level-2 error-correction window so that communication fully overlaps
//! computation.

use qla_layout::Floorplan;
use serde::{Deserialize, Serialize};

/// A node of the routing mesh: one logical-qubit site of the floorplan.
pub type Node = usize;

/// An undirected edge between two orthogonally adjacent logical-qubit sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Lower node id.
    pub a: Node,
    /// Higher node id.
    pub b: Node,
}

impl Edge {
    /// Canonical (sorted) edge between two nodes.
    #[must_use]
    pub fn new(a: Node, b: Node) -> Self {
        if a <= b {
            Edge { a, b }
        } else {
            Edge { a: b, b: a }
        }
    }
}

/// The channel mesh: grid adjacency plus per-edge bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mesh {
    columns: usize,
    rows: usize,
    /// Physical channels per direction on every edge (the paper's
    /// "bandwidth").
    pub bandwidth: usize,
    /// EPR pairs one pipelined channel can deliver within one scheduling
    /// window. One level-2 error-correction window (43 ms) divided by the
    /// per-pair purification/transport service time (~0.6 ms) gives ~70;
    /// the default of 1 keeps capacities in raw channel units for unit tests
    /// and ablations.
    pub pairs_per_window: usize,
}

impl Mesh {
    /// Build the mesh for a floorplan with the given channel bandwidth.
    #[must_use]
    pub fn from_floorplan(plan: &Floorplan, bandwidth: usize) -> Self {
        Mesh {
            columns: plan.columns,
            rows: plan.rows,
            bandwidth,
            pairs_per_window: 1,
        }
    }

    /// Build a mesh directly from grid dimensions.
    #[must_use]
    pub fn new(columns: usize, rows: usize, bandwidth: usize) -> Self {
        Mesh {
            columns,
            rows,
            bandwidth,
            pairs_per_window: 1,
        }
    }

    /// Set how many EPR pairs one pipelined channel delivers per scheduling
    /// window (the level-2 error-correction window of the waiting qubits).
    #[must_use]
    pub fn with_pairs_per_window(mut self, pairs_per_window: usize) -> Self {
        self.pairs_per_window = pairs_per_window.max(1);
        self
    }

    /// Capacity of one edge per scheduling window, both directions combined.
    #[must_use]
    pub fn edge_capacity_per_window(&self) -> usize {
        self.bandwidth * 2 * self.pairs_per_window
    }

    /// Number of columns.
    #[must_use]
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.columns * self.rows
    }

    /// The (column, row) of a node.
    #[must_use]
    pub fn coords(&self, n: Node) -> (usize, usize) {
        (n % self.columns, n / self.columns)
    }

    /// Orthogonal neighbours of a node.
    #[must_use]
    pub fn neighbours(&self, n: Node) -> Vec<Node> {
        let (c, r) = self.coords(n);
        let mut out = Vec::with_capacity(4);
        if c > 0 {
            out.push(n - 1);
        }
        if c + 1 < self.columns {
            out.push(n + 1);
        }
        if r > 0 {
            out.push(n - self.columns);
        }
        if r + 1 < self.rows {
            out.push(n + self.columns);
        }
        out
    }

    /// Number of edges, `(columns − 1)·rows + columns·(rows − 1)` in closed
    /// form (zero when either dimension is empty) — the length of
    /// [`Mesh::edges`] without building it.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.columns.saturating_sub(1) * self.rows + self.columns * self.rows.saturating_sub(1)
    }

    /// All edges of the mesh.
    #[must_use]
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::new();
        for n in 0..self.node_count() {
            let (c, r) = self.coords(n);
            if c + 1 < self.columns {
                out.push(Edge::new(n, n + 1));
            }
            if r + 1 < self.rows {
                out.push(Edge::new(n, n + self.columns));
            }
        }
        out
    }

    /// Total edge capacity available per scheduling window (both directions
    /// of every edge).
    #[must_use]
    pub fn total_capacity_per_window(&self) -> usize {
        self.edge_count() * self.edge_capacity_per_window()
    }

    /// `count` distinct node ids spread evenly over the grid in row-major
    /// order — the deterministic placement used when pinning a logical
    /// register onto the fabric. Spacing qubits out (rather than packing
    /// them into a corner) keeps the placement's traffic from collapsing
    /// onto a handful of edges.
    ///
    /// # Panics
    /// Panics when the mesh has fewer sites than `count` — a silent
    /// double-assignment would alias two logical qubits onto one tile.
    #[must_use]
    pub fn spread_nodes(&self, count: usize) -> Vec<Node> {
        assert!(
            count <= self.node_count(),
            "cannot place {count} logical qubits on a {}x{} mesh ({} sites)",
            self.columns,
            self.rows,
            self.node_count()
        );
        if count == 0 {
            return Vec::new();
        }
        let stride = self.node_count() / count;
        (0..count).map(|i| i * stride).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_adjacency() {
        let m = Mesh::new(3, 3, 2);
        assert_eq!(m.node_count(), 9);
        assert_eq!(m.neighbours(4).len(), 4); // centre
        assert_eq!(m.neighbours(0).len(), 2); // corner
        assert_eq!(m.neighbours(1).len(), 3); // edge
        assert_eq!(m.edges().len(), 12);
        assert_eq!(m.total_capacity_per_window(), 12 * 2 * 2);
        let pipelined = Mesh::new(3, 3, 2).with_pairs_per_window(64);
        assert_eq!(pipelined.edge_capacity_per_window(), 2 * 2 * 64);
        assert_eq!(pipelined.total_capacity_per_window(), 12 * 2 * 2 * 64);
    }

    #[test]
    fn edge_count_matches_the_edge_listing() {
        for columns in [0, 1, 2, 7] {
            for rows in [0, 1, 2, 5] {
                let m = Mesh::new(columns, rows, 1);
                assert_eq!(m.edge_count(), m.edges().len(), "{columns}x{rows} mesh");
            }
        }
        assert_eq!(Mesh::new(0, 4, 1).edge_count(), 0);
        assert_eq!(Mesh::new(4, 0, 1).edge_count(), 0);
        assert_eq!(Mesh::new(1, 1, 1).edge_count(), 0);
        assert_eq!(Mesh::new(1, 6, 1).edge_count(), 5);
        assert_eq!(Mesh::new(6, 1, 1).edge_count(), 5);
        assert_eq!(Mesh::new(59, 18, 1).edge_count(), 58 * 18 + 59 * 17);
    }

    #[test]
    fn spread_nodes_is_distinct_and_even() {
        let m = Mesh::new(4, 4, 1);
        assert_eq!(m.spread_nodes(0), Vec::<Node>::new());
        assert_eq!(m.spread_nodes(4), vec![0, 4, 8, 12]);
        let full = m.spread_nodes(16);
        assert_eq!(full, (0..16).collect::<Vec<_>>());
        // Never aliases two qubits onto one node, at any occupancy.
        for count in 1..=16 {
            let nodes = m.spread_nodes(count);
            let mut deduped = nodes.clone();
            deduped.dedup();
            assert_eq!(nodes.len(), count);
            assert_eq!(deduped.len(), count);
        }
    }

    #[test]
    #[should_panic(expected = "cannot place 17 logical qubits")]
    fn spread_nodes_rejects_overfull_mesh() {
        let _ = Mesh::new(4, 4, 1).spread_nodes(17);
    }

    #[test]
    fn coords_are_row_major() {
        let m = Mesh::new(5, 4, 1);
        assert_eq!(m.coords(7), (2, 1));
        assert_eq!(m.coords(0), (0, 0));
        assert_eq!(m.coords(19), (4, 3));
    }

    #[test]
    fn floorplan_conversion_preserves_shape() {
        let plan = Floorplan::new(6, 4);
        let m = Mesh::from_floorplan(&plan, 2);
        assert_eq!(m.columns(), 6);
        assert_eq!(m.rows(), 4);
    }

    #[test]
    fn edge_is_canonicalised() {
        assert_eq!(Edge::new(5, 2), Edge::new(2, 5));
    }
}
