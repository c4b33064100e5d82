//! Differential tests for the dense [`Topology`]: the greedy scheduler
//! built on it must agree field for field with a reference scheduler that
//! keeps per-edge capacity in a `HashMap<Edge, usize>` and searches with a
//! `HashMap` BFS over [`Mesh::neighbours`] (the scheduler's original
//! formulation); its routes must agree with a naive BFS for every node
//! pair; and its edge ids must be positions in [`Mesh::edges`]. Widths of
//! 63, 64, 65 and 129 columns put a mesh row across one, two and three
//! words of the topology's bitsets.

use proptest::prelude::*;
use qla_sched::Topology;
use qla_sched::{CommRequest, Edge, GreedyScheduler, Mesh, Node, RoutedBatch, ScheduleResult};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, VecDeque};

/// The greedy scheduler over hash maps: capacity table rebuilt per window,
/// stop-at-pop BFS, co-located requests leave through the first neighbour
/// with spare capacity.
fn reference_schedule(mesh: &Mesh, max_windows: usize, requests: &[CommRequest]) -> ScheduleResult {
    let mut remaining: Vec<usize> = requests.iter().map(|r| r.pairs).collect();
    let mut batches = Vec::new();
    let mut windows_used = 0usize;
    let mut capacity_consumed = 0usize;
    for window in 0..max_windows {
        if remaining.iter().all(|&p| p == 0) {
            break;
        }
        windows_used = window + 1;
        let mut capacity: HashMap<Edge, usize> = mesh
            .edges()
            .into_iter()
            .map(|e| (e, mesh.edge_capacity_per_window()))
            .collect();
        loop {
            let mut progressed = false;
            let mut order: Vec<usize> = (0..requests.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(remaining[i]));
            for i in order {
                if remaining[i] == 0 {
                    continue;
                }
                let req = requests[i];
                if let Some(path) = reference_path(mesh, req.from, req.to, &capacity) {
                    let bottleneck = path
                        .windows(2)
                        .map(|w| capacity[&Edge::new(w[0], w[1])])
                        .min()
                        .unwrap_or(0);
                    if bottleneck == 0 {
                        continue;
                    }
                    let send = bottleneck.min(remaining[i]);
                    for w in path.windows(2) {
                        *capacity.get_mut(&Edge::new(w[0], w[1])).expect("edge") -= send;
                    }
                    capacity_consumed += send * (path.len() - 1);
                    remaining[i] -= send;
                    batches.push(RoutedBatch {
                        request: i,
                        window,
                        path,
                        pairs: send,
                    });
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }
    let unsatisfied = (0..requests.len()).filter(|&i| remaining[i] > 0).collect();
    let total_capacity = mesh.total_capacity_per_window() * windows_used.max(1);
    ScheduleResult {
        batches,
        windows_used,
        utilization: capacity_consumed as f64 / total_capacity as f64,
        unsatisfied,
    }
}

fn reference_path(
    mesh: &Mesh,
    from: Node,
    to: Node,
    capacity: &HashMap<Edge, usize>,
) -> Option<Vec<Node>> {
    let spare = |a: Node, b: Node| capacity.get(&Edge::new(a, b)).copied().unwrap_or(0) > 0;
    if from == to {
        return mesh
            .neighbours(from)
            .into_iter()
            .find(|&n| spare(from, n))
            .map(|n| vec![from, n]);
    }
    let mut prev: HashMap<Node, Node> = HashMap::new();
    let mut queue = VecDeque::new();
    queue.push_back(from);
    prev.insert(from, from);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![to];
            let mut cur = to;
            while cur != from {
                cur = prev[&cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for next in mesh.neighbours(n) {
            if prev.contains_key(&next) || !spare(n, next) {
                continue;
            }
            prev.insert(next, n);
            queue.push_back(next);
        }
    }
    None
}

/// Manhattan hop distance between two nodes of `mesh`.
fn hop_distance(mesh: &Mesh, a: usize, b: usize) -> usize {
    let ((ca, ra), (cb, rb)) = (mesh.coords(a), mesh.coords(b));
    ca.abs_diff(cb) + ra.abs_diff(rb)
}

/// Naive BFS over [`Mesh::neighbours`] from `from` that runs to
/// exhaustion: each discovered node's predecessor (`from` its own).
fn naive_tree(mesh: &Mesh, from: Node, usable: &dyn Fn(Edge) -> bool) -> Vec<Option<Node>> {
    let mut prev: Vec<Option<Node>> = vec![None; mesh.node_count()];
    prev[from] = Some(from);
    let mut queue = VecDeque::from([from]);
    while let Some(n) = queue.pop_front() {
        for m in mesh.neighbours(n) {
            if prev[m].is_none() && usable(Edge::new(n, m)) {
                prev[m] = Some(n);
                queue.push_back(m);
            }
        }
    }
    prev
}

/// The path from the root of `tree` to `to`, or `None` when the tree does
/// not reach it.
fn tree_path(tree: &[Option<Node>], to: Node) -> Option<Vec<Node>> {
    tree[to]?;
    let mut path = vec![to];
    loop {
        let node = *path.last().unwrap();
        let parent = tree[node].unwrap();
        if parent == node {
            break;
        }
        path.push(parent);
    }
    path.reverse();
    Some(path)
}

/// How a `from → to` route (`from ≠ to`) is found, judged from the outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// A Manhattan-length path that the greedy step "horizontal toward
    /// `to` if usable, else vertical" finds without backtracking.
    Greedy,
    /// A Manhattan-length path that needs backtracking to find.
    Backtracked,
    /// Only a path longer than the Manhattan distance.
    Detour,
    /// No path at all.
    Unreachable,
}

fn outcome(
    mesh: &Mesh,
    from: Node,
    to: Node,
    usable: &dyn Fn(Edge) -> bool,
    path: Option<&[Node]>,
) -> Outcome {
    let Some(path) = path else {
        return Outcome::Unreachable;
    };
    if path.len() - 1 > hop_distance(mesh, from, to) {
        return Outcome::Detour;
    }
    let ((tc, tr), mut node) = (mesh.coords(to), from);
    while node != to {
        let (c, r) = mesh.coords(node);
        let horizontal = (c != tc).then(|| if c < tc { node + 1 } else { node - 1 });
        let vertical = (r != tr).then(|| {
            if r < tr {
                node + mesh.columns()
            } else {
                node - mesh.columns()
            }
        });
        match [horizontal, vertical]
            .into_iter()
            .flatten()
            .find(|&next| usable(Edge::new(node, next)))
        {
            Some(next) => node = next,
            None => return Outcome::Backtracked,
        }
    }
    Outcome::Greedy
}

/// Check [`Topology::route`] against a naive exhaustive BFS tree from every
/// `stride`-th source of `mesh` to every target, with edge id `k` usable
/// when `usable[k]`; returns how many `from ≠ to` pairs fell under each
/// [`Outcome`], in declaration order.
fn check_every_pair(mesh: &Mesh, usable: &[bool], stride: usize) -> [usize; 4] {
    let mut topology = Topology::new(mesh);
    for id in (0..usable.len()).filter(|&id| !usable[id]) {
        topology.block(id);
    }
    // The reference looks edges up by position in the mesh's own listing:
    // each node's right edge and down edge.
    let mut right = vec![0; mesh.node_count()];
    let mut down = vec![0; mesh.node_count()];
    for (id, edge) in mesh.edges().into_iter().enumerate() {
        if mesh.coords(edge.a).1 == mesh.coords(edge.b).1 {
            right[edge.a] = id;
        } else {
            down[edge.a] = id;
        }
    }
    let usable_edge = |e: Edge| {
        let horizontal = mesh.coords(e.a).1 == mesh.coords(e.b).1;
        usable[if horizontal { right[e.a] } else { down[e.a] }]
    };
    let mut outcomes = [0; 4];
    for from in (0..mesh.node_count()).step_by(stride) {
        let tree = naive_tree(mesh, from, &usable_edge);
        for to in 0..mesh.node_count() {
            let route = topology.route(from, to).map(|r| r.nodes.to_vec());
            let expected = if from == to {
                mesh.neighbours(from)
                    .into_iter()
                    .find(|&n| usable_edge(Edge::new(from, n)))
                    .map(|n| vec![from, n])
            } else {
                let path = tree_path(&tree, to);
                outcomes[outcome(mesh, from, to, &usable_edge, path.as_deref()) as usize] += 1;
                path
            };
            assert_eq!(
                route,
                expected,
                "{}x{} mesh, {from} -> {to}",
                mesh.columns(),
                mesh.rows()
            );
        }
    }
    outcomes
}

/// Usable flags for `mesh`'s edges from a seeded stream: each edge is
/// blocked with probability `blocked_percent` %.
fn mask(mesh: &Mesh, seed: u64, blocked_percent: u64) -> Vec<bool> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..mesh.edge_count())
        .map(|_| rng.random_range(0..100u64) >= blocked_percent)
        .collect()
}

/// Widths whose rows fill one bitset word less one bit, exactly one word,
/// one word and a bit, and two words and a bit.
const WIDE: [usize; 4] = [63, 64, 65, 129];

/// Mesh dimensions for a shape selector: 1×1, 1×N, N×1, general, a thin
/// mesh of one of the [`WIDE`] widths, or a line of such a length.
fn dimensions(shape: usize, columns: usize, rows: usize) -> (usize, usize) {
    let wide = WIDE[columns % WIDE.len()];
    match shape {
        0 => (1, 1),
        1 => (1, rows),
        2 => (columns, 1),
        3 => (columns, rows),
        4 => (wide, 1 + rows % 3),
        _ if rows.is_multiple_of(2) => (1, wide),
        _ => (wide, 1),
    }
}

fn assert_same_schedule(mesh: &Mesh, max_windows: usize, requests: &[CommRequest]) {
    let mut scheduler = GreedyScheduler::new(mesh.clone());
    scheduler.max_windows = max_windows;
    let fast = scheduler.schedule(requests);
    let reference = reference_schedule(mesh, max_windows, requests);
    let case = || format!("{}x{} mesh, {requests:?}", mesh.columns(), mesh.rows());
    assert_eq!(fast.batches, reference.batches, "{}", case());
    assert_eq!(fast.windows_used, reference.windows_used, "{}", case());
    assert_eq!(fast.unsatisfied, reference.unsatisfied, "{}", case());
    assert_eq!(
        fast.utilization.to_bits(),
        reference.utilization.to_bits(),
        "{}",
        case()
    );
}

proptest! {
    // Mixed demand — co-located, small, saturating and unsatisfiable —
    // on meshes from a single tile up to 12×12, and on thin meshes of 70
    // to 136 columns, whose rows span two or three bitset words.
    #[test]
    fn the_scheduler_matches_the_hash_map_reference(
        shape in (0usize..5, 1usize..=12, 1usize..=12),
        capacity in (1usize..=4, 1usize..=80, 1usize..=8),
        demands in prop::collection::vec((0usize..10_000, 0usize..10_000, 0usize..4, 0usize..64), 0..16),
    ) {
        let (columns, rows) = match shape.0 {
            4 => (64 + 6 * shape.1, 1 + shape.2 % 3),
            _ => dimensions(shape.0, shape.1, shape.2),
        };
        let (bandwidth, pairs_per_window, max_windows) = capacity;
        let mesh = Mesh::new(columns, rows, bandwidth).with_pairs_per_window(pairs_per_window);
        let nodes = mesh.node_count();
        let window_capacity = mesh.edge_capacity_per_window();
        let requests: Vec<CommRequest> = demands
            .iter()
            .map(|&(from, to, kind, size)| {
                let from = from % nodes;
                match kind {
                    0 => CommRequest { from, to: from, pairs: size % 8 },
                    1 => CommRequest { from, to: to % nodes, pairs: size },
                    2 => CommRequest { from, to: to % nodes, pairs: window_capacity * (1 + size % 3) },
                    _ => CommRequest { from, to: to % nodes, pairs: window_capacity * 9 + size },
                }
            })
            .collect();
        assert_same_schedule(&mesh, max_windows, &requests);
    }

    // A random set of blocked edges, each blocked with probability 0–60 %:
    // the topology's route and a naive exhaustive BFS agree on
    // reachability and on the exact path. On the wide shapes every 11th
    // source is checked (11 is prime to every width, so every column is).
    #[test]
    fn routes_match_a_naive_bfs_under_blocked_edges(
        shape in (0usize..6, 1usize..=12, 1usize..=12),
        blocked_percent in 0u64..=60,
        seed in 0u64..u64::MAX,
    ) {
        let (columns, rows) = dimensions(shape.0, shape.1, shape.2);
        let mesh = Mesh::new(columns, rows, 1);
        let stride = if shape.0 < 4 { 1 } else { 11 };
        check_every_pair(&mesh, &mask(&mesh, seed, blocked_percent), stride);
    }
}

#[test]
fn blocked_edge_routes_cover_every_outcome() {
    // Fixed masks over a sweep of densities reach all four ways a route can
    // come out: a monotone path found straight away or after backtracking,
    // a detour longer than the Manhattan distance, and no path.
    let mesh = Mesh::new(12, 12, 1);
    let mut outcomes = [0; 4];
    for (seed, blocked_percent) in (0..13).map(|k| (k, 5 * k)) {
        let counts = check_every_pair(&mesh, &mask(&mesh, seed, blocked_percent), 1);
        for (total, count) in outcomes.iter_mut().zip(counts) {
            *total += count;
        }
    }
    assert!(
        outcomes.iter().all(|&n| n > 0),
        "outcome counts {outcomes:?}"
    );
}

#[test]
fn routes_match_a_naive_bfs_for_every_node_pair() {
    let shapes = [
        (0, 3),
        (1, 1),
        (1, 6),
        (6, 1),
        (2, 2),
        (3, 4),
        (5, 5),
        (7, 3),
    ];
    let wide = WIDE.iter().flat_map(|&n| [(n, 2), (1, n), (n, 1)]);
    for (columns, rows) in shapes.into_iter().chain(wide) {
        let mesh = Mesh::new(columns, rows, 1);
        let outcomes = check_every_pair(&mesh, &vec![true; mesh.edge_count()], 1);
        // With every edge usable, every route is a monotone path found
        // without backtracking.
        let pairs = mesh.node_count() * mesh.node_count().saturating_sub(1);
        assert_eq!(outcomes, [pairs, 0, 0, 0], "{columns}x{rows} mesh");
    }
}

#[test]
fn routes_on_the_factor_mesh_match_a_naive_bfs_tree() {
    // The 59×18 mesh of the 1,024-qubit factor-128 replay with every edge
    // usable: the simulator's and the traffic model's routes.
    let mesh = Mesh::new(59, 18, 1);
    let pairs = mesh.node_count() * (mesh.node_count() - 1);
    let all = vec![true; mesh.edge_count()];
    assert_eq!(check_every_pair(&mesh, &all, 1), [pairs, 0, 0, 0]);
}

#[test]
fn routes_on_a_loaded_factor_mesh_match_a_naive_bfs_tree() {
    // The same mesh with about 30 % of its edges blocked, as in a loaded
    // scheduler window. Most long routes detour, and a detour walks the
    // bounding box before it searches, so only every seventh source is
    // checked (still every row and, as 7 is prime to 59, every column).
    let mesh = Mesh::new(59, 18, 1);
    let outcomes = check_every_pair(&mesh, &mask(&mesh, 128, 30), 7);
    assert!(
        outcomes.iter().all(|&n| n > 0),
        "outcome counts {outcomes:?}"
    );
}

#[test]
fn route_edges_join_consecutive_route_nodes() {
    let mesh = Mesh::new(6, 4, 1);
    let mut topology = Topology::new(&mesh);
    for (from, to) in [(0, 23), (23, 0), (5, 18), (9, 9), (12, 14)] {
        let route = topology.route(from, to).unwrap();
        let (nodes, edges) = (route.nodes.to_vec(), route.edges.to_vec());
        assert_eq!(edges.len() + 1, nodes.len());
        for (k, &id) in edges.iter().enumerate() {
            assert_eq!(mesh.edges()[id], Edge::new(nodes[k], nodes[k + 1]));
        }
    }
}

#[test]
fn edge_ids_are_positions_in_the_mesh_edge_listing() {
    let shapes = [(0, 3), (1, 1), (1, 5), (5, 1), (4, 4), (59, 18)];
    let wide = WIDE.iter().flat_map(|&n| [(n, 3), (1, n), (n, 1)]);
    for (columns, rows) in shapes.into_iter().chain(wide) {
        let mesh = Mesh::new(columns, rows, 1);
        let mut topology = Topology::new(&mesh);
        let edges = mesh.edges();
        assert_eq!(topology.edge_count(), edges.len());
        for (k, &edge) in edges.iter().enumerate() {
            assert_eq!(topology.edge_id(edge), Some(k), "{columns}x{rows} mesh");
        }
        // A co-located route leaves through the mesh's first neighbour, over
        // the edge that joins them.
        for n in 0..mesh.node_count() {
            let route = topology.route(n, n);
            let first = mesh.neighbours(n).first().copied();
            assert_eq!(route.map(|r| r.nodes.to_vec()), first.map(|m| vec![n, m]));
            if let Some(route) = topology.route(n, n) {
                assert_eq!(edges[route.edges[0]], Edge::new(n, route.nodes[1]));
            }
        }
    }
    // Pairs that are not grid neighbours have no id.
    let topology = Topology::new(&Mesh::new(4, 4, 1));
    assert_eq!(topology.edge_id(Edge::new(0, 5)), None);
    assert_eq!(topology.edge_id(Edge::new(3, 4)), None);
    assert_eq!(topology.edge_id(Edge::new(40, 41)), None);
}

#[test]
fn degenerate_meshes_match_the_reference() {
    let demand = |from, to, pairs| CommRequest { from, to, pairs };
    // A single tile has no edge: even co-located demand is unsatisfiable.
    assert_same_schedule(&Mesh::new(1, 1, 2), 3, &[demand(0, 0, 4), demand(0, 0, 0)]);
    for mesh in [
        Mesh::new(1, 7, 1),
        Mesh::new(7, 1, 3).with_pairs_per_window(5),
    ] {
        let requests = [
            demand(0, 6, 9),
            demand(6, 0, 9),
            demand(3, 3, 2),
            demand(2, 5, 1_000),
            demand(1, 1, 0),
        ];
        for max_windows in 1..=8 {
            assert_same_schedule(&mesh, max_windows, &requests);
        }
    }
    // No requests at all.
    assert_same_schedule(&Mesh::new(3, 3, 1), 4, &[]);
}
