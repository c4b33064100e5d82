//! Differential tests for the dense [`Topology`]: the greedy scheduler
//! built on it must agree field for field with a reference scheduler that
//! keeps per-edge capacity in a `HashMap<Edge, usize>` and searches with a
//! `HashMap` BFS over [`Mesh::neighbours`] (the scheduler's original
//! formulation); its routes must agree with a naive BFS for every node
//! pair; and its edge ids must be positions in [`Mesh::edges`].

use proptest::prelude::*;
use qla_sched::{CommRequest, Edge, GreedyScheduler, Mesh, Node, RoutedBatch, ScheduleResult};
use qla_sched::{EdgeId, Topology};
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

/// Naive BFS over [`Mesh::neighbours`] that runs to exhaustion and
/// returns the discovery tree's path, or `None` when `to` is unreachable.
fn naive_path(
    mesh: &Mesh,
    from: Node,
    to: Node,
    usable: &dyn Fn(Edge) -> bool,
) -> Option<Vec<Node>> {
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
    prev[to]?;
    let mut path = vec![to];
    while *path.last().unwrap() != from {
        path.push(prev[*path.last().unwrap()].unwrap());
    }
    path.reverse();
    Some(path)
}

/// Mesh dimensions for a shape selector: 1×1, 1×N, N×1, or general.
fn dimensions(shape: usize, columns: usize, rows: usize) -> (usize, usize) {
    match shape {
        0 => (1, 1),
        1 => (1, rows),
        2 => (columns, 1),
        _ => (columns, rows),
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
    // on meshes from a single tile up to 12×12.
    #[test]
    fn the_scheduler_matches_the_hash_map_reference(
        shape in (0usize..4, 1usize..=12, 1usize..=12),
        capacity in (1usize..=4, 1usize..=80, 1usize..=8),
        demands in prop::collection::vec((0usize..10_000, 0usize..10_000, 0usize..4, 0usize..64), 0..16),
    ) {
        let (columns, rows) = dimensions(shape.0, shape.1, shape.2);
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

    // A random set of blocked edges: the topology's search and a naive
    // exhaustive BFS agree on reachability and on the exact path.
    #[test]
    fn routes_match_a_naive_bfs_under_blocked_edges(
        shape in (0usize..4, 1usize..=5, 1usize..=5),
        mask in 0u64..u64::MAX,
    ) {
        let (columns, rows) = dimensions(shape.0, shape.1, shape.2);
        let mesh = Mesh::new(columns, rows, 1);
        let mut topology = Topology::new(&mesh);
        let edges = mesh.edges();
        let usable = |id: EdgeId| mask >> (id % 64) & 1 == 1 || id.is_multiple_of(5);
        let usable_edge = |e: Edge| usable(edges.iter().position(|&x| x == e).unwrap());
        for from in 0..mesh.node_count() {
            for to in 0..mesh.node_count() {
                let route = topology.route(from, to, usable).map(|r| r.nodes.to_vec());
                let expected = if from == to {
                    mesh.neighbours(from)
                        .into_iter()
                        .find(|&n| usable_edge(Edge::new(from, n)))
                        .map(|n| vec![from, n])
                } else {
                    naive_path(&mesh, from, to, &usable_edge)
                };
                prop_assert_eq!(route, expected, "{}x{} mesh, {} -> {}", columns, rows, from, to);
            }
        }
    }
}

#[test]
fn routes_match_a_naive_bfs_for_every_node_pair() {
    for (columns, rows) in [(1, 1), (1, 6), (6, 1), (2, 2), (3, 4), (5, 5), (7, 3)] {
        let mesh = Mesh::new(columns, rows, 1);
        let mut topology = Topology::new(&mesh);
        for from in 0..mesh.node_count() {
            for to in 0..mesh.node_count() {
                let route = topology.route(from, to, |_| true);
                let nodes = route.map(|r| r.nodes.to_vec());
                let expected = if from == to {
                    mesh.neighbours(from).first().map(|&n| vec![from, n])
                } else {
                    naive_path(&mesh, from, to, &|_| true)
                };
                assert_eq!(nodes, expected, "{columns}x{rows} mesh, {from} -> {to}");
                if let Some(nodes) = expected {
                    assert_eq!(nodes.len() - 1, hop_distance(&mesh, from, to).max(1));
                }
            }
        }
    }
}

#[test]
fn route_edges_join_consecutive_route_nodes() {
    let mesh = Mesh::new(6, 4, 1);
    let mut topology = Topology::new(&mesh);
    for (from, to) in [(0, 23), (23, 0), (5, 18), (9, 9), (12, 14)] {
        let route = topology.route(from, to, |_| true).unwrap();
        let (nodes, edges) = (route.nodes.to_vec(), route.edges.to_vec());
        assert_eq!(edges.len() + 1, nodes.len());
        for (k, &id) in edges.iter().enumerate() {
            assert_eq!(mesh.edges()[id], Edge::new(nodes[k], nodes[k + 1]));
        }
    }
}

#[test]
fn edge_ids_are_positions_in_the_mesh_edge_listing() {
    for (columns, rows) in [(0, 3), (1, 1), (1, 5), (5, 1), (4, 4), (59, 18)] {
        let mesh = Mesh::new(columns, rows, 1);
        let topology = Topology::new(&mesh);
        let edges = mesh.edges();
        assert_eq!(topology.edge_count(), edges.len());
        for (k, &edge) in edges.iter().enumerate() {
            assert_eq!(topology.edge_id(edge), Some(k));
        }
        // Adjacency lists the mesh's neighbours in order, each with the id
        // of the edge that joins them.
        for n in 0..mesh.node_count() {
            let listed: Vec<Node> = topology.neighbours(n).iter().map(|&(m, _)| m).collect();
            assert_eq!(listed, mesh.neighbours(n));
            for &(m, id) in topology.neighbours(n) {
                assert_eq!(edges[id], Edge::new(n, m));
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
