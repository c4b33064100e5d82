//! The compiled routing topology shared by the greedy scheduler and the
//! discrete-event simulator.
//!
//! [`Mesh`] describes the grid; [`Topology`] is its dense form:
//!
//! * every undirected edge has an [`EdgeId`], and id `k` is
//!   `Mesh::edges()[k]`, so per-edge labels (`edge-N`) and fault-plan edge
//!   lookups agree with the mesh's own listing;
//! * each node's neighbours sit in one CSR array as `(node, edge id)` pairs,
//!   in the mesh's fixed left/right/up/down order.
//!
//! Per-edge state (scheduler capacity, simulator queues) then lives in plain
//! vectors indexed by edge id. [`Topology::route`] is the workspace's one
//! router: an "edge usable" test turns it into either the scheduler's
//! capacity-aware search or the simulator's static route. It returns the
//! path of a stop-at-discovery breadth-first search, but finds it with a
//! depth-first walk over the monotone steps of the endpoints' bounding box
//! whenever a usable monotone path exists (always, when every edge is
//! usable), and runs the search itself only when none does. Both run over
//! stamped scratch buffers that are reused from call to call.

use crate::mesh::{Edge, Mesh, Node};
use std::cmp::Ordering;

/// Dense index of an undirected mesh edge: its position in [`Mesh::edges`].
pub type EdgeId = usize;

/// A path found by [`Topology::route`], borrowed from the topology's
/// scratch buffers until the next search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route<'a> {
    /// The node sequence, `from` first and `to` last (`[from, n]` for
    /// co-located endpoints).
    pub nodes: &'a [Node],
    /// The edge between each consecutive pair of `nodes`.
    pub edges: &'a [EdgeId],
}

/// Dense edge ids, CSR adjacency, and the reusable search scratch.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Grid width: node `n` sits at column `n % columns`, row `n / columns`.
    columns: usize,
    edges: Vec<Edge>,
    /// `adjacency[offsets[n]..offsets[n + 1]]` are node `n`'s neighbours.
    offsets: Vec<usize>,
    adjacency: Vec<(Node, EdgeId)>,
    /// `stamp[n] == epoch` marks `n` as a dead end of the current monotone
    /// walk, or as discovered by the current breadth-first search.
    stamp: Vec<u32>,
    epoch: u32,
    /// Predecessor and connecting edge of each discovered node.
    prev: Vec<(Node, EdgeId)>,
    queue: Vec<Node>,
    path_nodes: Vec<Node>,
    path_edges: Vec<EdgeId>,
}

impl Topology {
    /// Compile a mesh.
    #[must_use]
    pub fn new(mesh: &Mesh) -> Self {
        let edges = mesh.edges();
        debug_assert_eq!(edges.len(), mesh.edge_count());
        let nodes = mesh.node_count();
        let mut offsets = Vec::with_capacity(nodes + 1);
        let mut adjacency = Vec::with_capacity(2 * mesh.edge_count());
        offsets.push(0);
        for n in 0..nodes {
            for m in mesh.neighbours(n) {
                let id = edge_id_in(&edges, Edge::new(n, m))
                    .expect("grid neighbours are joined by a mesh edge");
                adjacency.push((m, id));
            }
            offsets.push(adjacency.len());
        }
        Topology {
            columns: mesh.columns(),
            edges,
            offsets,
            adjacency,
            stamp: vec![0; nodes],
            epoch: 0,
            prev: vec![(0, 0); nodes],
            queue: Vec::with_capacity(nodes),
            path_nodes: Vec::new(),
            path_edges: Vec::new(),
        }
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The id of `edge`, or `None` when it is not an edge of the mesh.
    #[must_use]
    pub fn edge_id(&self, edge: Edge) -> Option<EdgeId> {
        edge_id_in(&self.edges, edge)
    }

    /// `(neighbour, edge id)` pairs of node `n`, in left/right/up/down order.
    #[must_use]
    pub fn neighbours(&self, n: Node) -> &[(Node, EdgeId)] {
        &self.adjacency[self.offsets[n]..self.offsets[n + 1]]
    }

    /// Shortest path from `from` to `to` over the edges that `usable`
    /// accepts, or `None` when no such path exists.
    ///
    /// The path is the one a breadth-first search returns when it expands
    /// neighbours in the fixed left/right/up/down order and stops when `to`
    /// is first discovered. Co-located endpoints route out and back through
    /// the first usable neighbour (the pair still has to leave the tile),
    /// so their route is `[from, n]`.
    ///
    /// That search returns the *lexicographically least* shortest path,
    /// reading a path as its sequence of steps ordered left < right < up <
    /// down: by induction on depth, each layer of its queue is in the lex
    /// order of the nodes' tree paths, and each node takes the
    /// earliest-queued usable neighbour as its parent. A path is
    /// *monotone* when every step moves toward `to`. When a usable
    /// monotone path exists, the shortest length is the Manhattan distance
    /// and the shortest paths are exactly the monotone ones; and as both
    /// horizontal directions sort before both vertical ones, the least of
    /// them takes the horizontal step wherever `to` is still reachable
    /// after it. So `route` first walks depth-first over the monotone
    /// steps inside the `from`/`to` bounding box, horizontal step first,
    /// stamping the nodes from which `to` cannot be reached (whether it
    /// can does not depend on how the walk got there); the first path to
    /// reach `to` is the search's answer. With every edge usable the walk
    /// never backtracks and costs O(hops); otherwise it costs at most the
    /// box's area. Only when the box holds no usable monotone path does
    /// the breadth-first search run.
    ///
    /// # Panics
    /// Panics when either endpoint lies outside the mesh.
    pub fn route(
        &mut self,
        from: Node,
        to: Node,
        mut usable: impl FnMut(EdgeId) -> bool,
    ) -> Option<Route<'_>> {
        self.check_endpoints(from, to);
        self.path_nodes.clear();
        self.path_edges.clear();
        if from == to {
            let &(n, edge) = self.neighbours(from).iter().find(|&&(_, e)| usable(e))?;
            self.path_nodes.extend([from, n]);
            self.path_edges.push(edge);
            return Some(self.last_route());
        }
        if self.monotone_walk(from, to, &mut usable) {
            return Some(self.last_route());
        }
        let epoch = self.next_epoch();
        self.stamp[from] = epoch;
        self.queue.clear();
        self.queue.push(from);
        let mut head = 0;
        'search: while let Some(&node) = self.queue.get(head) {
            head += 1;
            for &(next, edge) in &self.adjacency[self.offsets[node]..self.offsets[node + 1]] {
                if self.stamp[next] == epoch || !usable(edge) {
                    continue;
                }
                self.stamp[next] = epoch;
                self.prev[next] = (node, edge);
                if next == to {
                    break 'search;
                }
                self.queue.push(next);
            }
        }
        if self.stamp[to] != epoch {
            return None;
        }
        let mut cursor = to;
        self.path_nodes.push(to);
        while cursor != from {
            let (node, edge) = self.prev[cursor];
            self.path_edges.push(edge);
            self.path_nodes.push(node);
            cursor = node;
        }
        self.path_nodes.reverse();
        self.path_edges.reverse();
        Some(self.last_route())
    }

    /// Depth-first walk from `from` over usable steps toward `to`, the
    /// horizontal step first. Leaves the first path that reaches `to` in
    /// the path buffers and returns true, or returns false with the
    /// buffers empty when every monotone path is blocked.
    fn monotone_walk(
        &mut self,
        from: Node,
        to: Node,
        usable: &mut impl FnMut(EdgeId) -> bool,
    ) -> bool {
        let epoch = self.next_epoch();
        let columns = self.columns;
        let (to_column, to_row) = (to % columns, to / columns);
        self.path_nodes.push(from);
        while let Some(&node) = self.path_nodes.last() {
            if node == to {
                return true;
            }
            let horizontal = match (node % columns).cmp(&to_column) {
                Ordering::Less => Some(node + 1),
                Ordering::Greater => Some(node - 1),
                Ordering::Equal => None,
            };
            let vertical = match (node / columns).cmp(&to_row) {
                Ordering::Less => Some(node + columns),
                Ordering::Greater => Some(node - columns),
                Ordering::Equal => None,
            };
            let step = [horizontal, vertical]
                .into_iter()
                .flatten()
                .find_map(|next| {
                    if self.stamp[next] == epoch {
                        return None;
                    }
                    let &(_, edge) = self.neighbours(node).iter().find(|&&(m, _)| m == next)?;
                    usable(edge).then_some((next, edge))
                });
            if let Some((next, edge)) = step {
                self.path_nodes.push(next);
                self.path_edges.push(edge);
            } else {
                self.stamp[node] = epoch;
                self.path_nodes.pop();
                self.path_edges.pop();
            }
        }
        false
    }

    /// Assert that both endpoints of a request are nodes of the mesh.
    ///
    /// # Panics
    /// Panics, naming the endpoints and the mesh size, when either is not.
    pub(crate) fn check_endpoints(&self, from: Node, to: Node) {
        let nodes = self.offsets.len() - 1;
        assert!(
            from < nodes && to < nodes,
            "request endpoints ({from}, {to}) outside the {nodes}-node mesh"
        );
    }

    fn last_route(&self) -> Route<'_> {
        Route {
            nodes: &self.path_nodes,
            edges: &self.path_edges,
        }
    }

    /// A fresh discovery stamp; clears the stamps when the counter wraps.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// Binary search of the mesh's edge listing, which is sorted by `(a, b)`:
/// node by node, each node's right edge (`b = a + 1`) before its down edge
/// (`b = a + columns`).
fn edge_id_in(edges: &[Edge], edge: Edge) -> Option<EdgeId> {
    edges
        .binary_search_by_key(&(edge.a, edge.b), |e| (e.a, e.b))
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_follow_the_fixed_neighbour_order() {
        let mut t = Topology::new(&Mesh::new(3, 3, 1));
        // 0 → 4: right before down, so the path runs along row 0 first.
        let route = t.route(0, 4, |_| true).unwrap();
        assert_eq!(route.nodes, &[0, 1, 4]);
        let e01 = t.edge_id(Edge::new(0, 1)).unwrap();
        let e14 = t.edge_id(Edge::new(1, 4)).unwrap();
        assert_eq!(t.route(0, 4, |_| true).unwrap().edges, &[e01, e14]);
        // Blocking 0–1 forces the detour down the first column.
        let route = t.route(0, 4, |e| e != e01).unwrap();
        assert_eq!(route.nodes, &[0, 3, 4]);
        // Co-located endpoints leave through the first usable neighbour.
        assert_eq!(t.route(4, 4, |_| true).unwrap().nodes, &[4, 3]);
        let e34 = t.edge_id(Edge::new(3, 4)).unwrap();
        assert_eq!(t.route(4, 4, |e| e != e34).unwrap().nodes, &[4, 5]);
        // No usable edge, no route.
        assert!(t.route(0, 8, |_| false).is_none());
        assert!(t.route(4, 4, |_| false).is_none());
    }

    #[test]
    fn blocked_monotone_steps_backtrack_then_detour() {
        let mut t = Topology::new(&Mesh::new(3, 3, 1));
        let id = |t: &Topology, a, b| t.edge_id(Edge::new(a, b)).unwrap();
        // Along the row first, then down the column.
        assert_eq!(t.route(0, 8, |_| true).unwrap().nodes, &[0, 1, 2, 5, 8]);
        // 2–5 blocked: the walk reaches 2, backs up to 1 and turns down
        // there, the least monotone path left.
        let e25 = id(&t, 2, 5);
        assert_eq!(t.route(0, 8, |e| e != e25).unwrap().nodes, &[0, 1, 4, 5, 8]);
        // 1–2 blocked: 0 → 2 has no monotone path, so the breadth-first
        // search finds the least detour, which leaves rightward.
        let e12 = id(&t, 1, 2);
        assert_eq!(t.route(0, 2, |e| e != e12).unwrap().nodes, &[0, 1, 4, 5, 2]);
    }

    #[test]
    fn a_single_tile_has_no_route_out() {
        let mut t = Topology::new(&Mesh::new(1, 1, 1));
        assert_eq!(t.edge_count(), 0);
        assert!(t.route(0, 0, |_| true).is_none());
    }

    #[test]
    fn stamps_survive_epoch_wraparound() {
        let mut t = Topology::new(&Mesh::new(4, 4, 1));
        t.epoch = u32::MAX - 1;
        for _ in 0..4 {
            assert_eq!(t.route(0, 15, |_| true).unwrap().edges.len(), 6);
        }
    }

    #[test]
    #[should_panic(expected = "request endpoints (40, 0) outside the 36-node mesh")]
    fn foreign_endpoints_fail_loudly() {
        let _ = Topology::new(&Mesh::new(6, 6, 1)).route(40, 0, |_| true);
    }
}
