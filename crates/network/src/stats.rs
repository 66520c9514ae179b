//! Network statistics: structural depth, factored literal counts, and
//! the summary block SIS prints after synthesis (`print_stats`).

use crate::network::{Network, NetworkError, SignalKind};
use pf_sop::quick_factor;

/// Summary statistics of a network.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkStats {
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Internal nodes with non-zero functions.
    pub live_nodes: usize,
    /// SOP literal count (the paper's LC).
    pub lits_sop: usize,
    /// Factored literal count (SIS's lits(fac), via quick_factor).
    pub lits_fac: usize,
    /// Longest input-to-output path, in node levels.
    pub depth: usize,
    /// Total cubes across node functions.
    pub cubes: usize,
}

/// Structural level of every signal: inputs are level 0, a node is one
/// more than its deepest fanin.
pub fn levels(nw: &Network) -> Result<Vec<usize>, NetworkError> {
    let order = nw.topo_order()?;
    let mut level = vec![0usize; nw.num_signals()];
    for s in order {
        if nw.kind(s) != SignalKind::Node {
            continue;
        }
        let max_in = nw
            .fanins(s)
            .iter()
            .map(|&f| level[f as usize])
            .max()
            .unwrap_or(0);
        level[s as usize] = max_in + 1;
    }
    Ok(level)
}

/// The network's depth: the maximum level over the primary outputs (or
/// over all nodes when no outputs are marked).
pub fn depth(nw: &Network) -> Result<usize, NetworkError> {
    let level = levels(nw)?;
    let over_outputs = nw.outputs().iter().map(|&o| level[o as usize]).max();
    Ok(over_outputs
        .or_else(|| nw.node_ids().map(|n| level[n as usize]).max())
        .unwrap_or(0))
}

/// Factored literal count of the whole network (Σ per-node
/// `quick_factor` literal counts).
pub fn factored_literal_count(nw: &Network) -> usize {
    nw.node_ids()
        .map(|n| quick_factor(nw.func(n)).literal_count())
        .sum()
}

/// Gathers the full statistics block.
pub fn stats(nw: &Network) -> Result<NetworkStats, NetworkError> {
    Ok(NetworkStats {
        inputs: nw.input_ids().count(),
        outputs: nw.outputs().len(),
        live_nodes: nw.node_ids().filter(|&n| !nw.func(n).is_zero()).count(),
        lits_sop: nw.literal_count(),
        lits_fac: factored_literal_count(nw),
        depth: depth(nw)?,
        cubes: nw.node_ids().map(|n| nw.func(n).num_cubes()).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::example_1_1;
    use pf_sop::{Cube, Lit, Sop};

    fn sop_of(cubes: &[&[u32]]) -> Sop {
        Sop::from_cubes(
            cubes
                .iter()
                .map(|c| Cube::from_lits(c.iter().map(|&v| Lit::pos(v)))),
        )
    }

    #[test]
    fn levels_count_node_hops() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let n0 = nw.add_node("n0", sop_of(&[&[a]])).unwrap();
        let n1 = nw.add_node("n1", sop_of(&[&[n0]])).unwrap();
        let n2 = nw.add_node("n2", sop_of(&[&[n1, a]])).unwrap();
        nw.mark_output(n2).unwrap();
        let l = levels(&nw).unwrap();
        assert_eq!(l[a as usize], 0);
        assert_eq!(l[n0 as usize], 1);
        assert_eq!(l[n1 as usize], 2);
        assert_eq!(l[n2 as usize], 3);
        assert_eq!(depth(&nw).unwrap(), 3);
    }

    #[test]
    fn example_network_stats() {
        let (nw, _) = example_1_1();
        let s = stats(&nw).unwrap();
        assert_eq!(s.inputs, 7);
        assert_eq!(s.outputs, 3);
        assert_eq!(s.live_nodes, 3);
        assert_eq!(s.lits_sop, 33);
        assert!(s.lits_fac <= s.lits_sop);
        assert_eq!(s.depth, 1); // flat two-level network
        assert_eq!(s.cubes, 13);
    }

    #[test]
    fn factored_count_shrinks_after_factoring_structure() {
        // F factored is much smaller than its SOP.
        let (nw, ids) = example_1_1();
        let fac = pf_sop::quick_factor(nw.func(ids.f));
        assert!(fac.literal_count() < nw.func(ids.f).literal_count());
    }
}
