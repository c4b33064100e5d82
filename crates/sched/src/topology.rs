//! The compiled routing topology shared by the greedy scheduler and the
//! discrete-event simulator.
//!
//! [`Mesh`] describes the grid; [`Topology`] is its dense form, built in
//! closed form with no per-node allocation:
//!
//! * every undirected edge has an [`EdgeId`], and id `k` is
//!   `Mesh::edges()[k]`, so per-edge labels (`edge-N`) and fault-plan edge
//!   lookups agree with the mesh's own listing. That listing takes the
//!   nodes in order, each node's right edge before its down edge, so node
//!   `(r, c)` (row `r`, column `c`) has right-edge id
//!   `r·(2·columns − 1) + c·(1 + [r < rows − 1])` and down-edge id that
//!   plus `[c + 1 < columns]`;
//! * the *usable* edges are a mask of per-row bitsets, one for right edges
//!   and one for down edges, each row ⌈columns / 64⌉ words. Every edge
//!   starts usable; [`Topology::block`] takes one out and
//!   [`Topology::unblock_all`] puts them all back. The greedy scheduler
//!   unblocks at each window start and blocks an edge when its capacity
//!   runs out; the simulator and the traffic models never block one.
//!
//! Per-edge state (scheduler capacity, simulator queues) then lives in plain
//! vectors indexed by edge id. [`Topology::route`] is the workspace's one
//! router: the path of a stop-at-discovery breadth-first search over the
//! usable edges. It finds that path with a depth-first walk over the
//! monotone steps of the endpoints' bounding box whenever a usable monotone
//! path exists (always, when every edge is usable), and otherwise with a
//! bit-parallel search that grows distance layers from the destination a
//! row of bitsets at a time. Both run over scratch buffers that are reused
//! from call to call.

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

/// A grid cell as `(row, column)`.
type Cell = (usize, usize);

/// A step between neighbouring cells, in the router's tie-break order.
#[derive(Debug, Clone, Copy)]
enum Step {
    Left,
    Right,
    Up,
    Down,
}

const STEPS: [Step; 4] = [Step::Left, Step::Right, Step::Up, Step::Down];

/// Where one distance layer of the detour search is stored in
/// [`Topology::layers`]: its cells lie in rows `first..end`, and the rows
/// from `stored − PAD` on, at least `PAD` past `end` and all zero outside
/// the cells' rows, are stored from `offset`.
#[derive(Debug, Clone, Copy)]
struct Span {
    first: usize,
    end: usize,
    stored: usize,
    offset: usize,
}

/// Zero rows stored on each side of a layer's computed rows. Layer `k + 1`
/// is computed over the rows one beside layer `k`'s, and reads layer `k`
/// one row further out and layer `k − 1` on the same rows. Every cell of
/// layer `k` has a neighbour in layer `k − 1`, so layer `k − 1`'s rows
/// reach within one row of layer `k`'s; two rows of padding then cover
/// every read without a bounds test.
const PAD: usize = 2;

/// Closed-form edge ids, the usable-edge mask, and the reusable search
/// scratch.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Grid width: node `n` sits at column `n % columns`, row `n / columns`.
    columns: usize,
    rows: usize,
    /// Words per bitset row, ⌈columns / 64⌉.
    words: usize,
    edge_count: usize,
    /// Bit `c % 64` of word `r·words + c / 64` is set while the edge from
    /// `(r, c)` to `(r, c + 1)` is usable.
    right: Vec<u64>,
    /// The same for the edge from `(r, c)` to `(r + 1, c)`.
    down: Vec<u64>,
    /// `stamp[n] == epoch` marks `n` as a dead end of the current monotone
    /// walk.
    stamp: Vec<u32>,
    epoch: u32,
    /// The detour search's distance layers from the destination: layer `k`
    /// holds the cells `k` usable hops away, as bitset rows stored where
    /// `spans[k]` says.
    layers: Vec<u64>,
    spans: Vec<Span>,
    /// The monotone walk's stack of cells.
    walk: Vec<Cell>,
    path_nodes: Vec<Node>,
    path_edges: Vec<EdgeId>,
}

impl Topology {
    /// Compile a mesh, with every edge usable.
    #[must_use]
    pub fn new(mesh: &Mesh) -> Self {
        let (columns, rows) = (mesh.columns(), mesh.rows());
        let words = columns.div_ceil(64);
        let mut topology = Topology {
            columns,
            rows,
            words,
            edge_count: mesh.edge_count(),
            right: vec![0; rows * words],
            down: vec![0; rows * words],
            stamp: vec![0; mesh.node_count()],
            epoch: 0,
            layers: Vec::new(),
            spans: Vec::new(),
            walk: Vec::new(),
            path_nodes: Vec::new(),
            path_edges: Vec::new(),
        };
        topology.unblock_all();
        topology
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The id of `edge`, or `None` when it is not an edge of the mesh.
    #[must_use]
    pub fn edge_id(&self, edge: Edge) -> Option<EdgeId> {
        let Edge { a, b } = edge;
        if b >= self.columns * self.rows {
            return None;
        }
        let cell = (a / self.columns, a % self.columns);
        // On a one-column mesh `a + 1` is the node below `a`.
        if b == a + 1 && cell.1 + 1 < self.columns {
            Some(self.edge_at(cell, false))
        } else if b == a + self.columns {
            Some(self.edge_at(cell, true))
        } else {
            None
        }
    }

    /// Make every edge usable again.
    pub fn unblock_all(&mut self) {
        let words = self.words;
        for r in 0..self.rows {
            let row = r * words..(r + 1) * words;
            fill_low_bits(&mut self.right[row.clone()], self.columns.saturating_sub(1));
            let below = if r + 1 < self.rows { self.columns } else { 0 };
            fill_low_bits(&mut self.down[row], below);
        }
    }

    /// Take `edge` out of the usable set until the next
    /// [`Topology::unblock_all`].
    ///
    /// # Panics
    /// Panics when `edge` is not an edge id of the mesh.
    pub fn block(&mut self, edge: EdgeId) {
        assert!(
            edge < self.edge_count,
            "edge {edge} outside the {}-edge mesh",
            self.edge_count
        );
        // Inverts the closed form: a row of ids is `2·columns − 1` long,
        // right/down pairs but for the last column's lone down edge; the
        // last row has right edges only.
        let per_row = 2 * self.columns - 1;
        let (r, k) = (edge / per_row, edge % per_row);
        let (c, down) = if r + 1 < self.rows {
            (k / 2, k % 2 == 1 || k / 2 + 1 == self.columns)
        } else {
            (k, false)
        };
        let mask = if down {
            &mut self.down
        } else {
            &mut self.right
        };
        mask[r * self.words + c / 64] &= !(1 << (c % 64));
    }

    /// Shortest path from `from` to `to` over the usable edges, or `None`
    /// when no such path exists.
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
    /// earliest-queued usable neighbour as its parent. `route` finds the
    /// same path in one of two ways.
    ///
    /// A path is *monotone* when every step moves toward `to`. When a
    /// usable monotone path exists, the shortest length is the Manhattan
    /// distance and the shortest paths are exactly the monotone ones; and
    /// as both horizontal directions sort before both vertical ones, the
    /// least of them takes the horizontal step wherever `to` is still
    /// reachable after it. So `route` first walks depth-first over the
    /// monotone steps inside the `from`/`to` bounding box, horizontal step
    /// first, stamping the nodes from which `to` cannot be reached (whether
    /// it can does not depend on how the walk got there); the first path to
    /// reach `to` is the answer. With every edge usable the walk never
    /// backtracks and costs O(hops); otherwise it costs at most the box's
    /// area.
    ///
    /// When the box holds no usable monotone path, `route` grows distance
    /// layers from `to` over the usable edges, each a set of bitset rows:
    /// a layer's row moves one column along usable right edges by a shift
    /// each way, and one row along usable down edges from the rows beside
    /// it. The grid is bipartite, so a layer's neighbours lie in the layers
    /// just before and after it, and the next layer is the neighbours less
    /// the layer before. It stops when `from` enters a layer, or returns
    /// `None` when a layer comes out empty. The walk from `from` then
    /// takes, at each node, the first step in left/right/up/down order
    /// over a usable edge into the next layer toward `to`. That greedy
    /// choice of the least step that still lies on a shortest path is the
    /// lex-least shortest path, the search's answer again.
    ///
    /// # Panics
    /// Panics when either endpoint lies outside the mesh.
    pub fn route(&mut self, from: Node, to: Node) -> Option<Route<'_>> {
        self.check_endpoints(from, to);
        self.path_nodes.clear();
        self.path_edges.clear();
        let (from, to) = (self.cell(from), self.cell(to));
        if from == to {
            let (next, edge) = STEPS.into_iter().find_map(|step| self.step(from, step))?;
            self.path_nodes.extend([self.node(from), self.node(next)]);
            self.path_edges.push(edge);
            return Some(self.last_route());
        }
        if self.monotone_walk(from, to) || self.layered_walk(from, to) {
            Some(self.last_route())
        } else {
            None
        }
    }

    /// Depth-first walk from `from` over usable steps toward `to`, the
    /// horizontal step first. Leaves the first path that reaches `to` in
    /// the path buffers and returns true, or returns false with the
    /// buffers empty when every monotone path is blocked.
    fn monotone_walk(&mut self, from: Cell, to: Cell) -> bool {
        let epoch = self.next_epoch();
        self.walk.clear();
        self.walk.push(from);
        while let Some(&cell) = self.walk.last() {
            if cell == to {
                let columns = self.columns;
                let nodes = self.walk.iter().map(|&(r, c)| r * columns + c);
                self.path_nodes.extend(nodes);
                return true;
            }
            let horizontal = match cell.1.cmp(&to.1) {
                Ordering::Less => Some(Step::Right),
                Ordering::Greater => Some(Step::Left),
                Ordering::Equal => None,
            };
            let vertical = match cell.0.cmp(&to.0) {
                Ordering::Less => Some(Step::Down),
                Ordering::Greater => Some(Step::Up),
                Ordering::Equal => None,
            };
            let next = [horizontal, vertical]
                .into_iter()
                .flatten()
                .filter_map(|step| self.step(cell, step))
                .find(|&(next, _)| self.stamp[self.node(next)] != epoch);
            if let Some((next, edge)) = next {
                self.walk.push(next);
                self.path_edges.push(edge);
            } else {
                let node = self.node(cell);
                self.stamp[node] = epoch;
                self.walk.pop();
                self.path_edges.pop();
            }
        }
        false
    }

    /// Grow distance layers from `to` until one holds `from`, then walk
    /// from `from` down them, the first usable step into the next layer
    /// toward `to` each time. Leaves the path in the path buffers and returns
    /// true, or returns false when `to` cannot be reached.
    fn layered_walk(&mut self, from: Cell, to: Cell) -> bool {
        // Rows of one word get their own copy of the search, with the word
        // loop gone (it halves the search on the 59-column factor mesh).
        let reached = match self.words {
            1 => self.grow_layers::<true>(from, to),
            _ => self.grow_layers::<false>(from, to),
        };
        if !reached {
            return false;
        }
        let mut cell = from;
        self.path_nodes.push(self.node(cell));
        for layer in (0..self.spans.len() - 1).rev() {
            let (next, edge) = STEPS
                .into_iter()
                .filter_map(|step| self.step(cell, step))
                .find(|&(next, _)| self.in_layer(layer, next))
                .expect("a cell of layer k + 1 has a usable neighbour in layer k");
            cell = next;
            self.path_nodes.push(self.node(cell));
            self.path_edges.push(edge);
        }
        true
    }

    /// Fill `layers` and `spans` with the distance layers from `to`, up to
    /// the first that holds `from` (true) or the first that comes out empty
    /// (false).
    fn grow_layers<const ONE_WORD: bool>(&mut self, from: Cell, to: Cell) -> bool {
        let words = if ONE_WORD { 1 } else { self.words };
        // An empty layer −1, then layer 0: `to` alone.
        self.layers.clear();
        self.layers.resize(2 * (1 + 2 * PAD) * words, 0);
        self.layers[(1 + 3 * PAD) * words + to.1 / 64] = 1 << (to.1 % 64);
        let mut before = Span {
            first: to.0,
            end: to.0,
            stored: to.0,
            offset: 0,
        };
        self.spans.clear();
        self.spans.push(Span {
            first: to.0,
            end: to.0 + 1,
            stored: to.0,
            offset: (1 + 2 * PAD) * words,
        });
        loop {
            let here = *self.spans.last().expect("layer 0 is pushed first");
            let first = here.first.saturating_sub(1);
            let end = (here.end + 1).min(self.rows);
            let offset = self.layers.len();
            self.layers
                .resize(offset + (end - first + 2 * PAD) * words, 0);
            let (done, next) = self.layers.split_at_mut(offset);
            let done: &[u64] = done;
            let row = |span: Span, r: usize| {
                let start = span.offset + (r.wrapping_add(PAD) - span.stored) * words;
                &done[start..start + words]
            };
            let (mut top, mut bottom) = (usize::MAX, 0);
            let rows = next[PAD * words..].chunks_exact_mut(words);
            for (r, out) in (first..end).zip(rows) {
                let cells = row(here, r);
                // Row −1 is padding; the mask row read with it is any row.
                let (above, below) = (row(here, r.wrapping_sub(1)), row(here, r + 1));
                let seen = row(before, r);
                let right = &self.right[r * words..(r + 1) * words];
                let down = &self.down[r * words..(r + 1) * words];
                let up = r.saturating_sub(1) * words;
                let down_above = &self.down[up..up + words];
                // Rightward moves carry into the next word up, leftward
                // ones spill in from it.
                let (mut carry, mut reached) = (0, 0);
                for w in 0..words {
                    let moved = cells[w] & right[w];
                    let eastward = moved << 1 | carry;
                    carry = moved >> 63;
                    let spill = cells.get(w + 1).map_or(0, |&next| next << 63);
                    let westward = (cells[w] >> 1 | spill) & right[w];
                    let vertical = above[w] & down_above[w] | below[w] & down[w];
                    out[w] = (eastward | westward | vertical) & !seen[w];
                    reached |= out[w];
                }
                if reached != 0 {
                    top = top.min(r);
                    bottom = r;
                }
            }
            if top == usize::MAX {
                return false;
            }
            before = here;
            self.spans.push(Span {
                first: top,
                end: bottom + 1,
                stored: first,
                offset,
            });
            if self.in_layer(self.spans.len() - 1, from) {
                return true;
            }
        }
    }

    /// Whether `cell` lies in distance layer `k`.
    fn in_layer(&self, k: usize, (r, c): Cell) -> bool {
        let span = self.spans[k];
        let start = || span.offset + (r + PAD - span.stored) * self.words + c / 64;
        (span.first..span.end).contains(&r) && self.layers[start()] >> (c % 64) & 1 == 1
    }

    /// The cell one `step` from `cell` and the id of the edge to it, when
    /// that edge exists and is usable.
    fn step(&self, (r, c): Cell, step: Step) -> Option<(Cell, EdgeId)> {
        // The edge's upper-left end, and whether it is a down edge; a
        // missing right or down edge has its mask bit clear.
        let (end, down, next) = match step {
            Step::Left if c > 0 => ((r, c - 1), false, (r, c - 1)),
            Step::Right => ((r, c), false, (r, c + 1)),
            Step::Up if r > 0 => ((r - 1, c), true, (r - 1, c)),
            Step::Down => ((r, c), true, (r + 1, c)),
            Step::Left | Step::Up => return None,
        };
        let mask = if down { &self.down } else { &self.right };
        let word = mask[end.0 * self.words + end.1 / 64];
        (word >> (end.1 % 64) & 1 == 1).then(|| (next, self.edge_at(end, down)))
    }

    /// The id of the right (or, when `down`, the down) edge of `(r, c)`.
    fn edge_at(&self, (r, c): Cell, down: bool) -> EdgeId {
        let has_down = usize::from(r + 1 < self.rows);
        let right_id = r * (2 * self.columns - 1) + c * (1 + has_down);
        right_id + usize::from(down && c + 1 < self.columns)
    }

    fn cell(&self, n: Node) -> Cell {
        (n / self.columns, n % self.columns)
    }

    fn node(&self, (r, c): Cell) -> Node {
        r * self.columns + c
    }

    /// Assert that both endpoints of a request are nodes of the mesh.
    ///
    /// # Panics
    /// Panics, naming the endpoints and the mesh size, when either is not.
    pub(crate) fn check_endpoints(&self, from: Node, to: Node) {
        let nodes = self.columns * self.rows;
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

    /// A fresh dead-end stamp; clears the stamps when the counter wraps.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// Set the first `count` bits of a bitset row and clear the rest.
fn fill_low_bits(row: &mut [u64], count: usize) {
    for (w, word) in row.iter_mut().enumerate() {
        let bits = count.saturating_sub(64 * w).min(64);
        *word = if bits == 64 {
            u64::MAX
        } else {
            (1 << bits) - 1
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Leave exactly the edges between the given node pairs blocked.
    fn block_only(t: &mut Topology, pairs: &[(Node, Node)]) {
        t.unblock_all();
        for &(a, b) in pairs {
            t.block(t.edge_id(Edge::new(a, b)).unwrap());
        }
    }

    #[test]
    fn routes_follow_the_fixed_neighbour_order() {
        let mut t = Topology::new(&Mesh::new(3, 3, 1));
        // 0 → 4: right before down, so the path runs along row 0 first.
        let route = t.route(0, 4).unwrap();
        assert_eq!(route.nodes, &[0, 1, 4]);
        let e01 = t.edge_id(Edge::new(0, 1)).unwrap();
        let e14 = t.edge_id(Edge::new(1, 4)).unwrap();
        assert_eq!(t.route(0, 4).unwrap().edges, &[e01, e14]);
        // Blocking 0–1 forces the detour down the first column.
        block_only(&mut t, &[(0, 1)]);
        assert_eq!(t.route(0, 4).unwrap().nodes, &[0, 3, 4]);
        // Co-located endpoints leave through the first usable neighbour.
        t.unblock_all();
        assert_eq!(t.route(4, 4).unwrap().nodes, &[4, 3]);
        block_only(&mut t, &[(3, 4)]);
        assert_eq!(t.route(4, 4).unwrap().nodes, &[4, 5]);
        // No usable edge, no route.
        for e in 0..t.edge_count() {
            t.block(e);
        }
        assert!(t.route(0, 8).is_none());
        assert!(t.route(4, 4).is_none());
    }

    #[test]
    fn blocked_monotone_steps_backtrack_then_detour() {
        let mut t = Topology::new(&Mesh::new(3, 3, 1));
        // Along the row first, then down the column.
        assert_eq!(t.route(0, 8).unwrap().nodes, &[0, 1, 2, 5, 8]);
        // 2–5 blocked: the walk reaches 2, backs up to 1 and turns down
        // there, the least monotone path left.
        block_only(&mut t, &[(2, 5)]);
        assert_eq!(t.route(0, 8).unwrap().nodes, &[0, 1, 4, 5, 8]);
        // 1–2 blocked: 0 → 2 has no monotone path, so the layered search
        // finds the least detour, which leaves rightward.
        block_only(&mut t, &[(1, 2)]);
        assert_eq!(t.route(0, 2).unwrap().nodes, &[0, 1, 4, 5, 2]);
    }

    #[test]
    fn detours_cross_bitset_words() {
        // A 130×2 mesh with row 0 cut between columns 63 and 64: 0 → 127
        // keeps right as long as it can, drops to row 1 at column 63,
        // crosses the word boundary there, and climbs back only at the
        // end, as right sorts before up.
        let mut t = Topology::new(&Mesh::new(130, 2, 1));
        block_only(&mut t, &[(63, 64)]);
        let expected: Vec<Node> = (0..=63).chain(193..=257).chain([127]).collect();
        assert_eq!(t.route(0, 127).unwrap().nodes, expected.as_slice());
        // The reverse trip is the mirror image, leftward first.
        let back: Vec<Node> = (64..=127)
            .rev()
            .chain((130..=194).rev())
            .chain([0])
            .collect();
        assert_eq!(t.route(127, 0).unwrap().nodes, back.as_slice());
    }

    #[test]
    fn block_inverts_the_closed_form_edge_ids() {
        for (columns, rows) in [(1, 4), (4, 1), (3, 3), (65, 2), (2, 65), (129, 3)] {
            let mesh = Mesh::new(columns, rows, 1);
            let mut t = Topology::new(&mesh);
            let full = (t.right.clone(), t.down.clone());
            for (k, edge) in mesh.edges().into_iter().enumerate() {
                t.block(k);
                // Exactly the edge's own bit is cleared.
                let down = edge.b == edge.a + columns;
                let (r, c) = t.cell(edge.a);
                let bit = 1 << (c % 64);
                let (mut right, mut below) = full.clone();
                let mask = if down { &mut below } else { &mut right };
                mask[r * t.words + c / 64] &= !bit;
                assert_eq!(
                    (&t.right, &t.down),
                    (&right, &below),
                    "{columns}x{rows}, edge {k}"
                );
                t.unblock_all();
                assert_eq!((&t.right, &t.down), (&full.0, &full.1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "edge 12 outside the 12-edge mesh")]
    fn blocking_a_foreign_edge_fails_loudly() {
        Topology::new(&Mesh::new(3, 3, 1)).block(12);
    }

    #[test]
    fn a_single_tile_has_no_route_out() {
        let mut t = Topology::new(&Mesh::new(1, 1, 1));
        assert_eq!(t.edge_count(), 0);
        assert!(t.route(0, 0).is_none());
    }

    #[test]
    fn stamps_survive_epoch_wraparound() {
        let mut t = Topology::new(&Mesh::new(4, 4, 1));
        t.epoch = u32::MAX - 1;
        for _ in 0..4 {
            assert_eq!(t.route(0, 15).unwrap().edges.len(), 6);
        }
    }

    #[test]
    #[should_panic(expected = "request endpoints (40, 0) outside the 36-node mesh")]
    fn foreign_endpoints_fail_loudly() {
        let _ = Topology::new(&Mesh::new(6, 6, 1)).route(40, 0);
    }
}
