//! The circuit graph: internal nodes as vertices, fanin/fanout relations
//! between node pairs as weighted edges.
//!
//! Primary inputs do not become vertices (they are replicated freely in
//! any partition); an edge `u — v` exists when node `u`'s function
//! references node `v` or vice versa, with weight equal to the number of
//! such references. Vertex weight is the node's literal count, so
//! balanced partitions give each processor comparable factorization
//! work.

use pf_network::{Network, SignalId, SignalKind};
use pf_sop::fx::FxHashMap;

/// An undirected weighted graph over the internal nodes of a network.
#[derive(Clone, Debug)]
pub struct CircuitGraph {
    /// The network signal behind each vertex.
    nodes: Vec<SignalId>,
    /// Vertex index by signal id.
    index: FxHashMap<SignalId, usize>,
    /// Adjacency: `(neighbor vertex, edge weight)`, sorted by neighbor.
    adj: Vec<Vec<(usize, u32)>>,
    /// Vertex weights (literal counts, min 1).
    weights: Vec<u64>,
}

impl CircuitGraph {
    /// Builds the graph of a network.
    pub fn from_network(nw: &Network) -> Self {
        let nodes: Vec<SignalId> = nw.node_ids().collect();
        let index: FxHashMap<SignalId, usize> =
            nodes.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let mut edge_w: FxHashMap<(usize, usize), u32> = FxHashMap::default();
        for (vi, &n) in nodes.iter().enumerate() {
            // One unit of edge weight per literal reference, so nodes
            // that share many cubes are held together more strongly.
            for cube in nw.func(n).iter() {
                for lit in cube.iter() {
                    let fi = lit.var().index();
                    if fi as usize >= nw.num_signals() || nw.kind(fi) != SignalKind::Node {
                        continue;
                    }
                    let Some(&ui) = index.get(&fi) else { continue };
                    if ui == vi {
                        continue;
                    }
                    let key = (vi.min(ui), vi.max(ui));
                    *edge_w.entry(key).or_insert(0) += 1;
                }
            }
        }
        let mut adj = vec![Vec::new(); nodes.len()];
        for (&(a, b), &w) in &edge_w {
            adj[a].push((b, w));
            adj[b].push((a, w));
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        let weights = nodes
            .iter()
            .map(|&n| nw.func(n).literal_count().max(1) as u64)
            .collect();
        CircuitGraph {
            nodes,
            index,
            adj,
            weights,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The signal id of a vertex.
    pub fn signal(&self, v: usize) -> SignalId {
        self.nodes[v]
    }

    /// The vertex of a signal id, if it is an internal node.
    pub fn vertex(&self, s: SignalId) -> Option<usize> {
        self.index.get(&s).copied()
    }

    /// Neighbors of `v` with edge weights.
    pub fn neighbors(&self, v: usize) -> &[(usize, u32)] {
        &self.adj[v]
    }

    /// The weight (literal count) of a vertex.
    pub fn weight(&self, v: usize) -> u64 {
        self.weights[v]
    }

    /// Total vertex weight.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// The cut size of an assignment: total weight of edges whose
    /// endpoints lie in different parts.
    pub fn cut_size(&self, assignment: &[usize]) -> u64 {
        let mut cut = 0u64;
        for v in 0..self.len() {
            for &(u, w) in &self.adj[v] {
                if u > v && assignment[u] != assignment[v] {
                    cut += w as u64;
                }
            }
        }
        cut
    }
}

#[cfg(test)]
impl CircuitGraph {
    /// A graph from explicit vertex weights and edges `(a, b, weight)`:
    /// parallel edges merge, self-loops are dropped, and vertex `v`
    /// stands for signal `v`.
    pub(crate) fn from_edges(weights: Vec<u64>, edges: &[(usize, usize, u32)]) -> Self {
        let n = weights.len();
        let mut edge_w: std::collections::BTreeMap<(usize, usize), u32> = Default::default();
        for &(a, b, w) in edges {
            if a != b {
                *edge_w.entry((a.min(b), a.max(b))).or_insert(0) += w;
            }
        }
        let mut adj = vec![Vec::new(); n];
        for (&(a, b), &w) in &edge_w {
            adj[a].push((b, w));
            adj[b].push((a, w));
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        let nodes: Vec<SignalId> = (0..n as SignalId).collect();
        let index = nodes.iter().map(|&s| (s, s as usize)).collect();
        CircuitGraph {
            nodes,
            index,
            adj,
            weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_sop::{Cube, Lit, Sop};

    fn sop_of(cubes: &[&[u32]]) -> Sop {
        Sop::from_cubes(
            cubes
                .iter()
                .map(|c| Cube::from_lits(c.iter().map(|&v| Lit::pos(v)))),
        )
    }

    fn chain() -> (Network, Vec<SignalId>) {
        // a → n0 → n1 → n2 (a PI feeding a chain of 3 nodes)
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let n0 = nw.add_node("n0", sop_of(&[&[a]])).unwrap();
        let n1 = nw.add_node("n1", sop_of(&[&[n0, a]])).unwrap();
        let n2 = nw.add_node("n2", sop_of(&[&[n1]])).unwrap();
        nw.mark_output(n2).unwrap();
        (nw, vec![n0, n1, n2])
    }

    #[test]
    fn builds_edges_from_fanin_relations() {
        let (nw, ids) = chain();
        let g = CircuitGraph::from_network(&nw);
        assert_eq!(g.len(), 3);
        let v0 = g.vertex(ids[0]).unwrap();
        let v1 = g.vertex(ids[1]).unwrap();
        let v2 = g.vertex(ids[2]).unwrap();
        assert_eq!(g.neighbors(v0), &[(v1, 1)]);
        assert_eq!(g.neighbors(v1), &[(v0, 1), (v2, 1)]);
        assert_eq!(g.neighbors(v2), &[(v1, 1)]);
    }

    #[test]
    fn pi_connections_ignored() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let f = nw.add_node("f", sop_of(&[&[a, b]])).unwrap();
        let g = nw.add_node("g", sop_of(&[&[a], &[b]])).unwrap();
        nw.mark_output(f).unwrap();
        nw.mark_output(g).unwrap();
        let cg = CircuitGraph::from_network(&nw);
        // f and g share PIs but no node-to-node edge.
        assert_eq!(cg.len(), 2);
        assert!(cg.neighbors(0).is_empty());
        assert!(cg.neighbors(1).is_empty());
    }

    #[test]
    fn multiple_references_accumulate_weight() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let g = nw.add_node("g", sop_of(&[&[a], &[b]])).unwrap();
        // f references g in two cubes → edge weight 2.
        let f = nw.add_node("f", sop_of(&[&[g, a], &[g, b]])).unwrap();
        nw.mark_output(f).unwrap();
        let cg = CircuitGraph::from_network(&nw);
        let vf = cg.vertex(f).unwrap();
        let vg = cg.vertex(g).unwrap();
        assert_eq!(cg.neighbors(vf), &[(vg, 2)]);
    }

    #[test]
    fn cut_size_counts_cross_edges() {
        let (nw, ids) = chain();
        let g = CircuitGraph::from_network(&nw);
        let v = |s| g.vertex(s).unwrap();
        let mut assignment = vec![0usize; 3];
        assignment[v(ids[2])] = 1;
        assert_eq!(g.cut_size(&assignment), 1);
        assignment[v(ids[1])] = 1;
        assert_eq!(g.cut_size(&assignment), 1);
        let all_same = vec![0usize; 3];
        assert_eq!(g.cut_size(&all_same), 0);
    }

    #[test]
    fn vertex_weights_are_literal_counts() {
        let (nw, ids) = chain();
        let g = CircuitGraph::from_network(&nw);
        assert_eq!(g.weight(g.vertex(ids[1]).unwrap()), 2);
        assert_eq!(g.total_weight(), 4);
    }
}
