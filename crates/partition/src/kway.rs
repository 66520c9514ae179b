//! Direct k-way Fiduccia–Mattheyses-style partitioning.
//!
//! The classic iterative-improvement loop: start from a balanced seed
//! assignment (randomized greedy bin packing by descending weight), then
//! run passes in which every vertex is moved at most once, recording the
//! cumulative gain; at the end of a pass roll back to the best prefix.
//! Repeat while a pass improves the cut, up to
//! [`PartitionConfig::max_passes`]. This is the single-move k-way
//! generalization Sanchis describes, minus the level-gain refinement
//! (the level-1 gains used here are what SIS-era partitioners shipped
//! with).
//!
//! **Move rule.** Each step of a pass moves the unlocked vertex `v` to
//! the part `to` with the largest cut gain (edge weight from `v` into
//! `to` minus edge weight into its own part) among the *admissible*
//! moves, those with `part_w[to] + w(v) ≤ max_part` under the current
//! part weights. **Tie rule:** equal gains go to the lowest `(v, to)`,
//! i.e. the first in a scan of vertices, then target parts, in index
//! order. The pass ends when no admissible move is left.
//!
//! **Cost.** The candidate moves live in one tournament tree per target
//! part (`MoveTrees`), with the vertices as leaves in ascending weight
//! order. The moves that fit into part `t` are then a prefix of its
//! leaves, so a step is k prefix-minimum queries instead of a scan of
//! all n·k pairs. A move changes only the gains of the moved vertex's
//! unlocked neighbours, and only those leaves are updated. One pass
//! costs O((n + edges) · k · log n); the all-pairs scan it replaced,
//! kept as the test oracle, cost O(n²·k).

use crate::graph::CircuitGraph;
use pf_network::{Network, SignalId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Options for [`partition_network`].
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// Allowed imbalance: part weight may reach `(1 + tolerance)` times
    /// the perfectly balanced share.
    pub tolerance: f64,
    /// Maximum improvement passes.
    pub max_passes: usize,
    /// Seed for the randomized initial assignment (results are
    /// deterministic for a fixed seed).
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            tolerance: 0.25,
            max_passes: 12,
            seed: 0xC1C_0FFEE,
        }
    }
}

/// A k-way partition of a network's internal nodes.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Number of parts.
    pub k: usize,
    /// Part of each graph vertex.
    pub assignment: Vec<usize>,
    /// The graph that was partitioned.
    pub graph: CircuitGraph,
    /// Final cut size.
    pub cut: u64,
}

impl Partition {
    /// The nodes (signal ids) of one part.
    pub fn part_nodes(&self, p: usize) -> Vec<SignalId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == p)
            .map(|(v, _)| self.graph.signal(v))
            .collect()
    }

    /// The nodes of every part, built in one pass: `parts()[q]` equals
    /// [`Partition::part_nodes`]`(q)`, in the same order.
    pub fn parts(&self) -> Vec<Vec<SignalId>> {
        let mut parts = vec![Vec::new(); self.k];
        for (v, &p) in self.assignment.iter().enumerate() {
            parts[p].push(self.graph.signal(v));
        }
        parts
    }

    /// The part of a node, if it is a graph vertex.
    pub fn part_of(&self, s: SignalId) -> Option<usize> {
        self.graph.vertex(s).map(|v| self.assignment[v])
    }

    /// Literal-count weight of each part.
    pub fn part_weights(&self) -> Vec<u64> {
        let mut w = vec![0u64; self.k];
        for (v, &p) in self.assignment.iter().enumerate() {
            w[p] += self.graph.weight(v);
        }
        w
    }
}

/// Partitions the internal nodes of `nw` into `k` parts minimizing the
/// fanin/fanout cut, with literal-count balance.
///
/// `k = 1` returns the trivial partition; `k` larger than the node count
/// leaves the surplus parts empty (they simply get no work), mirroring
/// how the paper runs 6 processors on small circuits.
pub fn partition_network(nw: &Network, k: usize, cfg: &PartitionConfig) -> Partition {
    assert!(k >= 1, "k must be positive");
    partition_graph(CircuitGraph::from_network(nw), k, cfg, fm_pass, |_| {})
}

/// One FM move: `(vertex, from, to, gain)`.
type Move = (usize, usize, usize, i64);

/// An FM pass over `(graph, k, assignment, part_w, max_part, log)`:
/// applies its moves, leaves every move it made (before the rollback)
/// in `log`, and returns whether the cut improved.
type PassFn = fn(&CircuitGraph, usize, &mut [usize], &mut [u64], u64, &mut Vec<Move>) -> bool;

/// Seeds an assignment and runs `pass` until it stops improving;
/// `on_pass` sees each pass's move log.
fn partition_graph(
    graph: CircuitGraph,
    k: usize,
    cfg: &PartitionConfig,
    pass: PassFn,
    mut on_pass: impl FnMut(&[Move]),
) -> Partition {
    let n = graph.len();
    if k == 1 || n <= 1 {
        let assignment = vec![0usize; n];
        let cut = graph.cut_size(&assignment);
        return Partition {
            k,
            assignment,
            graph,
            cut,
        };
    }

    // --- Seed: randomized greedy bin packing by descending weight. ---
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    order.shuffle(&mut rng);
    order.sort_by_key(|&v| std::cmp::Reverse(graph.weight(v)));
    let mut assignment = vec![0usize; n];
    let mut part_w = vec![0u64; k];
    for &v in &order {
        let p = (0..k).min_by_key(|&p| part_w[p]).unwrap();
        assignment[v] = p;
        part_w[p] += graph.weight(v);
    }

    let total = graph.total_weight();
    let max_part = ((total as f64 / k as f64) * (1.0 + cfg.tolerance)).ceil() as u64;

    // --- FM passes. ---
    let mut log = Vec::with_capacity(n);
    for _ in 0..cfg.max_passes {
        let improved = pass(&graph, k, &mut assignment, &mut part_w, max_part, &mut log);
        on_pass(&log);
        if !improved {
            break;
        }
    }

    let cut = graph.cut_size(&assignment);
    Partition {
        k,
        assignment,
        graph,
        cut,
    }
}

/// One FM pass; returns whether the cut improved. See the module doc
/// for the move and tie rules.
fn fm_pass(
    graph: &CircuitGraph,
    k: usize,
    assignment: &mut [usize],
    part_w: &mut [u64],
    max_part: u64,
    log: &mut Vec<Move>,
) -> bool {
    let n = graph.len();
    let mut locked = vec![false; n];
    log.clear();
    let mut cum = 0i64;
    let mut best_cum = 0i64;
    let mut best_len = 0usize;

    // Connectivity of v to each part (edge-weight sums), maintained
    // incrementally for unlocked vertices as moves are applied.
    let mut conn = vec![0i64; n * k];
    for v in 0..n {
        for &(u, w) in graph.neighbors(v) {
            conn[v * k + assignment[u]] += w as i64;
        }
    }
    // The key of move (v, to): (−gain, v).
    let key =
        |conn: &[i64], v: usize, from: usize, to: usize| (conn[v * k + from] - conn[v * k + to], v);
    let mut moves = MoveTrees::new(graph, k, |v, to| {
        if to == assignment[v] {
            MoveTrees::NONE
        } else {
            key(&conn, v, assignment[v], to)
        }
    });
    // Targets whose gain for a vertex in part `a` changes when a
    // neighbour moves `from → to`: every target if `a` is one of the
    // two parts (its own connectivity changed), else just those two.
    let touched = |a: usize, from: usize, to: usize| {
        let all = a == from || a == to;
        (0..k).filter(move |&t| t != a && (all || t == from || t == to))
    };

    loop {
        // The best admissible move into each part, then the best of
        // those: smallest (−gain, v, to) is the scan-order winner.
        let best = (0..k)
            .filter_map(|t| {
                let room = max_part.checked_sub(part_w[t])?;
                let (neg_gain, v) = moves.best_fitting(t, room);
                (v != usize::MAX).then_some((neg_gain, v, t))
            })
            .min();
        let Some((neg_gain, v, to)) = best else { break };
        let from = assignment[v];
        for t in (0..k).filter(|&t| t != from) {
            moves.set(t, v, MoveTrees::NONE);
        }
        locked[v] = true;
        assignment[v] = to;
        part_w[from] -= graph.weight(v);
        part_w[to] += graph.weight(v);
        // Locked neighbours are never candidates again this pass, so
        // their connectivity is left stale.
        for &(u, w) in graph.neighbors(v) {
            if locked[u] {
                continue;
            }
            conn[u * k + from] -= w as i64;
            conn[u * k + to] += w as i64;
            let a = assignment[u];
            for t in touched(a, from, to) {
                moves.set(t, u, key(&conn, u, a, t));
            }
        }
        let gain = -neg_gain;
        cum += gain;
        log.push((v, from, to, gain));
        if cum > best_cum {
            best_cum = cum;
            best_len = log.len();
        }
    }

    // Roll back past the best prefix.
    for &(v, from, to, _) in log[best_len..].iter().rev() {
        assignment[v] = from;
        part_w[to] -= graph.weight(v);
        part_w[from] += graph.weight(v);
    }
    best_cum > 0
}

/// The candidate moves of one pass: one tournament (min) tree per target
/// part. The leaves are the vertices in ascending weight order, and the
/// leaf of `v` in tree `t` holds the key `(−gain, v)` of the move
/// `(v, t)`, or [`MoveTrees::NONE`] when that move is not a candidate
/// (`v` is locked, or already in `t`). A move fits into `t` iff
/// `w(v) ≤ max_part − part_w[t]`, so the admissible moves into `t` are a
/// prefix of its leaves, and the best of them is one prefix-minimum
/// query.
struct MoveTrees {
    leaves: usize,
    /// Leaf index of each vertex.
    slot: Vec<usize>,
    /// Vertex weights in leaf order.
    sorted_w: Vec<u64>,
    /// `k` implicit binary trees of `2 · leaves` nodes each: node `i`
    /// has children `2i` and `2i + 1`, and leaf `j` is node `leaves + j`.
    nodes: Vec<(i64, usize)>,
}

impl MoveTrees {
    /// The key of a move that is not a candidate.
    const NONE: (i64, usize) = (i64::MAX, usize::MAX);

    /// Trees whose leaf `(t, v)` holds `key(v, t)`.
    fn new(graph: &CircuitGraph, k: usize, key: impl Fn(usize, usize) -> (i64, usize)) -> Self {
        let leaves = graph.len();
        let mut order: Vec<usize> = (0..leaves).collect();
        order.sort_by_key(|&v| graph.weight(v));
        let mut slot = vec![0; leaves];
        for (j, &v) in order.iter().enumerate() {
            slot[v] = j;
        }
        let sorted_w = order.iter().map(|&v| graph.weight(v)).collect();
        let mut nodes = vec![Self::NONE; k * 2 * leaves];
        for (t, tree) in nodes.chunks_exact_mut(2 * leaves).enumerate() {
            for (j, &v) in order.iter().enumerate() {
                tree[leaves + j] = key(v, t);
            }
            for i in (1..leaves).rev() {
                tree[i] = tree[2 * i].min(tree[2 * i + 1]);
            }
        }
        MoveTrees {
            leaves,
            slot,
            sorted_w,
            nodes,
        }
    }

    /// Sets the key of move `(v, t)`.
    fn set(&mut self, t: usize, v: usize, key: (i64, usize)) {
        let tree = &mut self.nodes[t * 2 * self.leaves..(t + 1) * 2 * self.leaves];
        let mut i = self.leaves + self.slot[v];
        tree[i] = key;
        while i > 1 {
            i /= 2;
            tree[i] = tree[2 * i].min(tree[2 * i + 1]);
        }
    }

    /// The smallest key among the moves into `t` of vertices weighing at
    /// most `room` ([`MoveTrees::NONE`] if there is none).
    fn best_fitting(&self, t: usize, room: u64) -> (i64, usize) {
        let tree = &self.nodes[t * 2 * self.leaves..(t + 1) * 2 * self.leaves];
        let fit = self.sorted_w.partition_point(|&w| w <= room);
        let (mut lo, mut hi) = (self.leaves, self.leaves + fit);
        let mut best = Self::NONE;
        while lo < hi {
            if lo & 1 == 1 {
                best = best.min(tree[lo]);
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                best = best.min(tree[hi]);
            }
            lo /= 2;
            hi /= 2;
        }
        best
    }
}

/// The all-pairs pass [`fm_pass`] replaced, kept as its oracle: each
/// step scans every unlocked vertex × every part, O(n²·k) per pass.
#[cfg(test)]
fn oracle_fm_pass(
    graph: &CircuitGraph,
    k: usize,
    assignment: &mut [usize],
    part_w: &mut [u64],
    max_part: u64,
    log: &mut Vec<Move>,
) -> bool {
    let n = graph.len();
    let mut locked = vec![false; n];
    log.clear();
    let mut cum = 0i64;
    let mut best_cum = 0i64;
    let mut best_len = 0usize;

    let mut conn = vec![0i64; n * k];
    for v in 0..n {
        for &(u, w) in graph.neighbors(v) {
            conn[v * k + assignment[u]] += w as i64;
        }
    }

    for _ in 0..n {
        // Best admissible move across all unlocked vertices.
        let mut best: Option<(i64, usize, usize)> = None; // (gain, v, to)
        for v in 0..n {
            if locked[v] {
                continue;
            }
            let from = assignment[v];
            for to in 0..k {
                if to == from {
                    continue;
                }
                if part_w[to] + graph.weight(v) > max_part {
                    continue;
                }
                let gain = conn[v * k + to] - conn[v * k + from];
                match best {
                    Some((g, _, _)) if g >= gain => {}
                    _ => best = Some((gain, v, to)),
                }
            }
        }
        let Some((gain, v, to)) = best else { break };
        let from = assignment[v];
        assignment[v] = to;
        part_w[from] -= graph.weight(v);
        part_w[to] += graph.weight(v);
        for &(u, w) in graph.neighbors(v) {
            conn[u * k + from] -= w as i64;
            conn[u * k + to] += w as i64;
        }
        locked[v] = true;
        cum += gain;
        log.push((v, from, to, gain));
        if cum > best_cum {
            best_cum = cum;
            best_len = log.len();
        }
    }

    for &(v, from, to, _) in log[best_len..].iter().rev() {
        assignment[v] = from;
        part_w[to] -= graph.weight(v);
        part_w[from] += graph.weight(v);
    }
    best_cum > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_network::Network;
    use pf_sop::{Cube, Lit, Sop};
    use proptest::prelude::*;

    fn sop_of(cubes: &[&[u32]]) -> Sop {
        Sop::from_cubes(
            cubes
                .iter()
                .map(|c| Cube::from_lits(c.iter().map(|&v| Lit::pos(v)))),
        )
    }

    /// Two 4-node "clusters" joined by one edge — the obvious min cut.
    fn two_clusters() -> Network {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        // Cluster 1: n0..n3 chained densely.
        let n0 = nw.add_node("n0", sop_of(&[&[a]])).unwrap();
        let n1 = nw.add_node("n1", sop_of(&[&[n0, a], &[n0]])).unwrap();
        let n2 = nw.add_node("n2", sop_of(&[&[n0, n1], &[n1]])).unwrap();
        let n3 = nw.add_node("n3", sop_of(&[&[n1, n2], &[n0]])).unwrap();
        // Bridge: m0 references n3 once.
        let m0 = nw.add_node("m0", sop_of(&[&[n3, a]])).unwrap();
        let m1 = nw.add_node("m1", sop_of(&[&[m0], &[m0, a]])).unwrap();
        let m2 = nw.add_node("m2", sop_of(&[&[m0, m1], &[m1]])).unwrap();
        let m3 = nw.add_node("m3", sop_of(&[&[m1, m2], &[m0]])).unwrap();
        nw.mark_output(n3).unwrap();
        nw.mark_output(m3).unwrap();
        nw
    }

    #[test]
    fn bisection_finds_the_bridge() {
        let nw = two_clusters();
        let p = partition_network(&nw, 2, &PartitionConfig::default());
        assert_eq!(p.cut, 1, "the single bridge edge is the min cut");
        // n-cluster together, m-cluster together.
        let part_n0 = p.part_of(nw.find("n0").unwrap()).unwrap();
        for name in ["n1", "n2", "n3"] {
            assert_eq!(p.part_of(nw.find(name).unwrap()).unwrap(), part_n0);
        }
        let part_m0 = p.part_of(nw.find("m0").unwrap()).unwrap();
        assert_ne!(part_m0, part_n0);
        for name in ["m1", "m2", "m3"] {
            assert_eq!(p.part_of(nw.find(name).unwrap()).unwrap(), part_m0);
        }
    }

    #[test]
    fn trivial_k1() {
        let nw = two_clusters();
        let p = partition_network(&nw, 1, &PartitionConfig::default());
        assert_eq!(p.cut, 0);
        assert!(p.assignment.iter().all(|&a| a == 0));
    }

    #[test]
    fn balance_respected() {
        let nw = two_clusters();
        let cfg = PartitionConfig::default();
        for k in [2usize, 3, 4] {
            let p = partition_network(&nw, k, &cfg);
            let total: u64 = p.part_weights().iter().sum();
            let max_allowed = ((total as f64 / k as f64) * (1.0 + cfg.tolerance)).ceil() as u64;
            for (i, w) in p.part_weights().iter().enumerate() {
                assert!(
                    *w <= max_allowed,
                    "part {i} weight {w} exceeds {max_allowed} for k={k}"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let nw = two_clusters();
        let cfg = PartitionConfig::default();
        let p1 = partition_network(&nw, 3, &cfg);
        let p2 = partition_network(&nw, 3, &cfg);
        assert_eq!(p1.assignment, p2.assignment);
    }

    #[test]
    fn k_larger_than_nodes_leaves_empty_parts() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let f = nw.add_node("f", sop_of(&[&[a]])).unwrap();
        nw.mark_output(f).unwrap();
        let p = partition_network(&nw, 6, &PartitionConfig::default());
        assert_eq!(p.k, 6);
        assert_eq!(p.part_nodes(p.assignment[0]).len(), 1);
        let nonempty: usize = (0..6).filter(|&q| !p.part_nodes(q).is_empty()).count();
        assert_eq!(nonempty, 1);
    }

    #[test]
    fn all_nodes_assigned_exactly_once() {
        let nw = two_clusters();
        let p = partition_network(&nw, 3, &PartitionConfig::default());
        let mut seen = std::collections::HashSet::new();
        for q in 0..3 {
            for s in p.part_nodes(q) {
                assert!(seen.insert(s));
            }
        }
        assert_eq!(seen.len(), nw.node_ids().count());
    }

    #[test]
    fn parts_lists_every_part_in_part_nodes_order() {
        let nw = two_clusters();
        for k in [1usize, 2, 3, 6, 12] {
            let p = partition_network(&nw, k, &PartitionConfig::default());
            let parts = p.parts();
            assert_eq!(parts.len(), k);
            for (q, part) in parts.iter().enumerate() {
                assert_eq!(part, &p.part_nodes(q), "k={k} part {q}");
            }
        }
    }

    #[test]
    fn cut_never_worse_than_seed() {
        // The FM passes only roll back to prefixes with non-negative
        // cumulative gain, so the final cut ≤ the seed cut. Verify via
        // a one-pass-only config vs many passes.
        let nw = two_clusters();
        let one = partition_network(
            &nw,
            2,
            &PartitionConfig {
                max_passes: 0,
                ..PartitionConfig::default()
            },
        );
        let many = partition_network(&nw, 2, &PartitionConfig::default());
        assert!(many.cut <= one.cut);
    }

    /// A random graph: 2–60 vertices with uneven weights (1 to 64) and
    /// up to 150 weighted edges.
    fn arb_graph() -> impl Strategy<Value = CircuitGraph> {
        (
            prop::collection::vec((1u64..=8).prop_map(|x| x * x), 2..=60usize),
            prop::collection::vec((0usize..60, 0usize..60, 1u32..=3), 0..=150usize),
        )
            .prop_map(|(weights, edges)| {
                let n = weights.len();
                let edges: Vec<_> = edges
                    .into_iter()
                    .map(|(a, b, w)| (a % n, b % n, w))
                    .collect();
                CircuitGraph::from_edges(weights, &edges)
            })
    }

    /// Runs the partitioner with `pass`, returning the partition and
    /// every pass's move log.
    fn run_with(
        graph: &CircuitGraph,
        k: usize,
        cfg: &PartitionConfig,
        pass: PassFn,
    ) -> (Partition, Vec<Vec<Move>>) {
        let mut logs = Vec::new();
        let p = partition_graph(graph.clone(), k, cfg, pass, |log| logs.push(log.to_vec()));
        (p, logs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn fm_pass_makes_the_oracles_moves(
            graph in arb_graph(),
            k_i in 0usize..4,
            tol_i in 0usize..3,
            passes_i in 0usize..2,
            seed in 0u64..1_000,
        ) {
            let k = [2, 3, 4, 6][k_i];
            let cfg = PartitionConfig {
                tolerance: [0.0, 0.05, 0.25][tol_i],
                max_passes: [1, 12][passes_i],
                seed,
            };
            let (fast, fast_logs) = run_with(&graph, k, &cfg, fm_pass);
            let (slow, slow_logs) = run_with(&graph, k, &cfg, oracle_fm_pass);
            prop_assert_eq!(fast_logs, slow_logs);
            prop_assert_eq!(&fast.assignment, &slow.assignment);
            prop_assert_eq!(fast.part_weights(), slow.part_weights());
            prop_assert_eq!(fast.cut, slow.cut);
        }
    }
}
