//! The multi-level Boolean network.

use pf_sop::fx::FxHashMap;
use pf_sop::{Sop, Var};
use std::fmt;

/// Index of a signal (primary input or internal node). Shares the index
/// space of [`pf_sop::Var`]: variable `i` is the output of signal `i`.
pub type SignalId = u32;

/// What a signal is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalKind {
    /// A primary input; has no function.
    PrimaryInput,
    /// An internal node with an SOP function.
    Node,
}

/// Errors reported by [`Network`] construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A node function references a signal id that does not exist.
    DanglingReference {
        /// The node whose function holds the reference.
        node: SignalId,
        /// The unknown signal id.
        referenced: u32,
    },
    /// The node dependency graph has a cycle through this signal.
    Cycle(SignalId),
    /// Duplicate signal name.
    DuplicateName(String),
    /// An operation addressed a primary input where a node was required.
    NotANode(SignalId),
    /// Signal id out of range.
    NoSuchSignal(SignalId),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::DanglingReference { node, referenced } => {
                write!(f, "node {node} references unknown signal {referenced}")
            }
            NetworkError::Cycle(s) => write!(f, "combinational cycle through signal {s}"),
            NetworkError::DuplicateName(n) => write!(f, "duplicate signal name {n:?}"),
            NetworkError::NotANode(s) => write!(f, "signal {s} is not an internal node"),
            NetworkError::NoSuchSignal(s) => write!(f, "no signal {s}"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// A multi-level combinational logic network.
///
/// Nodes hold sum-of-products functions over the variables of other
/// signals. The network designates a subset of signals as primary
/// outputs; those (and everything in their transitive fanin) are the
/// observable behaviour that optimizations must preserve.
///
/// ```
/// use pf_network::Network;
/// use pf_sop::{Cube, Lit, Sop};
///
/// let mut nw = Network::new();
/// let a = nw.add_input("a").unwrap();
/// let b = nw.add_input("b").unwrap();
/// let f = nw.add_node("f", Sop::from_cubes([
///     Cube::from_lits([Lit::pos(a)]),
///     Cube::from_lits([Lit::pos(b)]),
/// ])).unwrap();
/// nw.mark_output(f).unwrap();
/// assert_eq!(nw.literal_count(), 2);
/// assert_eq!(nw.fanins(f), vec![a, b]);
/// assert!(nw.validate().is_ok());
/// ```
#[derive(Clone, Default)]
pub struct Network {
    pub(crate) names: Vec<String>,
    pub(crate) kinds: Vec<SignalKind>,
    pub(crate) funcs: Vec<Sop>, // empty Sop for PIs (unused)
    pub(crate) outputs: Vec<SignalId>,
    pub(crate) by_name: FxHashMap<String, SignalId>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Adds a primary input. Names must be unique network-wide.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<SignalId, NetworkError> {
        self.add_signal(name.into(), SignalKind::PrimaryInput, Sop::zero())
    }

    /// Adds an internal node with function `func`.
    ///
    /// References inside `func` are *not* checked here (forward
    /// references are allowed during construction); call
    /// [`Network::validate`] once the network is complete.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        func: Sop,
    ) -> Result<SignalId, NetworkError> {
        self.add_signal(name.into(), SignalKind::Node, func)
    }

    fn add_signal(
        &mut self,
        name: String,
        kind: SignalKind,
        func: Sop,
    ) -> Result<SignalId, NetworkError> {
        if self.by_name.contains_key(&name) {
            return Err(NetworkError::DuplicateName(name));
        }
        let id = self.names.len() as SignalId;
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        self.kinds.push(kind);
        self.funcs.push(func);
        Ok(id)
    }

    /// Marks a signal as a primary output.
    pub fn mark_output(&mut self, id: SignalId) -> Result<(), NetworkError> {
        self.check_id(id)?;
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
        Ok(())
    }

    /// Number of signals (inputs + nodes).
    pub fn num_signals(&self) -> usize {
        self.names.len()
    }

    /// Ids of all signals.
    pub fn signal_ids(&self) -> impl Iterator<Item = SignalId> {
        0..self.names.len() as SignalId
    }

    /// Ids of internal nodes only.
    pub fn node_ids(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.signal_ids()
            .filter(|&s| self.kinds[s as usize] == SignalKind::Node)
    }

    /// Ids of primary inputs.
    pub fn input_ids(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.signal_ids()
            .filter(|&s| self.kinds[s as usize] == SignalKind::PrimaryInput)
    }

    /// The primary outputs, in declaration order.
    pub fn outputs(&self) -> &[SignalId] {
        &self.outputs
    }

    /// Signal kind.
    pub fn kind(&self, id: SignalId) -> SignalKind {
        self.kinds[id as usize]
    }

    /// Signal name.
    pub fn name(&self, id: SignalId) -> &str {
        &self.names[id as usize]
    }

    /// Looks a signal up by name.
    pub fn find(&self, name: &str) -> Option<SignalId> {
        self.by_name.get(name).copied()
    }

    /// The variable carrying this signal's value.
    pub fn var(&self, id: SignalId) -> Var {
        Var::new(id)
    }

    /// The function of a node.
    ///
    /// # Panics
    /// Panics when `id` is a primary input.
    pub fn func(&self, id: SignalId) -> &Sop {
        assert_eq!(
            self.kinds[id as usize],
            SignalKind::Node,
            "signal {id} is a primary input"
        );
        &self.funcs[id as usize]
    }

    /// Replaces the function of a node.
    pub fn set_func(&mut self, id: SignalId, func: Sop) -> Result<(), NetworkError> {
        self.check_id(id)?;
        if self.kinds[id as usize] != SignalKind::Node {
            return Err(NetworkError::NotANode(id));
        }
        self.funcs[id as usize] = func;
        Ok(())
    }

    /// The distinct signals referenced by a node's function (its fanins).
    pub fn fanins(&self, id: SignalId) -> Vec<SignalId> {
        if self.kinds[id as usize] != SignalKind::Node {
            return Vec::new();
        }
        let mut ids: Vec<SignalId> = self.funcs[id as usize]
            .support_lits()
            .iter()
            .map(|l| l.var().index())
            .collect();
        ids.dedup(); // support_lits is sorted by lit → vars sorted with dups adjacent
        ids
    }

    /// Fanout map: for every signal, the list of nodes whose function
    /// references it. O(total literals).
    pub fn fanout_map(&self) -> Vec<Vec<SignalId>> {
        let mut out: Vec<Vec<SignalId>> = vec![Vec::new(); self.num_signals()];
        for n in self.node_ids() {
            for cube in self.funcs[n as usize].iter() {
                for lit in cube.iter() {
                    let list = &mut out[lit.var().index() as usize];
                    // `n` ascends, so a repeat can only be the last entry.
                    if list.last() != Some(&n) {
                        list.push(n);
                    }
                }
            }
        }
        out
    }

    /// Total literal count over all internal nodes — the paper's **LC**
    /// area metric.
    pub fn literal_count(&self) -> usize {
        self.node_ids()
            .map(|n| self.funcs[n as usize].literal_count())
            .sum()
    }

    /// Topological order of all signals (inputs first, then nodes in
    /// dependency order). Fails on combinational cycles.
    pub fn topo_order(&self) -> Result<Vec<SignalId>, NetworkError> {
        let n = self.num_signals();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
        let mut order = Vec::with_capacity(n);
        // Fanin lists computed once up front; the DFS below revisits them.
        let fanins: Vec<Vec<SignalId>> = self.signal_ids().map(|s| self.fanins(s)).collect();
        // Iterative DFS to avoid stack overflow on deep networks.
        for root in self.signal_ids() {
            if state[root as usize] != 0 {
                continue;
            }
            let mut stack: Vec<(SignalId, usize)> = vec![(root, 0)];
            state[root as usize] = 1;
            while let Some(&mut (s, ref mut next)) = stack.last_mut() {
                let fis = &fanins[s as usize];
                if *next < fis.len() {
                    let child = fis[*next];
                    *next += 1;
                    if child as usize >= n {
                        return Err(NetworkError::DanglingReference {
                            node: s,
                            referenced: child,
                        });
                    }
                    match state[child as usize] {
                        0 => {
                            state[child as usize] = 1;
                            stack.push((child, 0));
                        }
                        1 => return Err(NetworkError::Cycle(child)),
                        _ => {}
                    }
                } else {
                    state[s as usize] = 2;
                    order.push(s);
                    stack.pop();
                }
            }
        }
        Ok(order)
    }

    /// Structural validation: all references resolve, no cycles.
    pub fn validate(&self) -> Result<(), NetworkError> {
        for node in self.node_ids() {
            for lit in self.funcs[node as usize].support_lits() {
                if lit.var().index() as usize >= self.num_signals() {
                    return Err(NetworkError::DanglingReference {
                        node,
                        referenced: lit.var().index(),
                    });
                }
            }
        }
        self.topo_order().map(|_| ())
    }

    fn check_id(&self, id: SignalId) -> Result<(), NetworkError> {
        if (id as usize) < self.num_signals() {
            Ok(())
        } else {
            Err(NetworkError::NoSuchSignal(id))
        }
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Network[{} inputs, {} nodes, LC={}]",
            self.input_ids().count(),
            self.node_ids().count(),
            self.literal_count()
        )?;
        for n in self.node_ids() {
            writeln!(f, "  {} = {:?}", self.name(n), self.funcs[n as usize])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_sop::{Cube, Lit};

    fn sop_of(vars: &[&[u32]]) -> Sop {
        Sop::from_cubes(
            vars.iter()
                .map(|c| Cube::from_lits(c.iter().map(|&v| Lit::pos(v)))),
        )
    }

    #[test]
    fn build_and_query() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let f = nw.add_node("f", sop_of(&[&[a, b]])).unwrap();
        nw.mark_output(f).unwrap();
        assert_eq!(nw.num_signals(), 3);
        assert_eq!(nw.kind(a), SignalKind::PrimaryInput);
        assert_eq!(nw.kind(f), SignalKind::Node);
        assert_eq!(nw.fanins(f), vec![a, b]);
        assert_eq!(nw.literal_count(), 2);
        assert_eq!(nw.find("f"), Some(f));
        assert!(nw.validate().is_ok());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut nw = Network::new();
        nw.add_input("x").unwrap();
        assert!(matches!(
            nw.add_input("x"),
            Err(NetworkError::DuplicateName(_))
        ));
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let g = nw.add_node("g", sop_of(&[&[a], &[b]])).unwrap();
        let f = nw.add_node("f", sop_of(&[&[g, a]])).unwrap();
        let order = nw.topo_order().unwrap();
        let pos = |s: SignalId| order.iter().position(|&x| x == s).unwrap();
        assert!(pos(a) < pos(g));
        assert!(pos(g) < pos(f));
    }

    #[test]
    fn cycle_detected() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        // f references g before g exists; then g references f — a cycle.
        let f = nw.add_node("f", sop_of(&[&[a, 2]])).unwrap();
        let _g = nw.add_node("g", sop_of(&[&[f]])).unwrap();
        assert!(matches!(nw.validate(), Err(NetworkError::Cycle(_))));
    }

    #[test]
    fn dangling_reference_detected() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        nw.add_node("f", sop_of(&[&[a, 99]])).unwrap();
        assert!(matches!(
            nw.validate(),
            Err(NetworkError::DanglingReference { .. })
        ));
    }

    #[test]
    fn fanout_map_inverse_of_fanins() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let g = nw.add_node("g", sop_of(&[&[a], &[b]])).unwrap();
        let f = nw.add_node("f", sop_of(&[&[g, a]])).unwrap();
        // Both phases of `a`, in two cubes: still one fanout entry.
        let h = nw
            .add_node(
                "h",
                Sop::from_cubes([
                    Cube::from_lits([Lit::pos(a), Lit::neg(b)]),
                    Cube::from_lits([Lit::neg(a)]),
                ]),
            )
            .unwrap();
        let fo = nw.fanout_map();
        assert_eq!(fo[a as usize], vec![g, f, h]);
        assert_eq!(fo[b as usize], vec![g, h]);
        assert_eq!(fo[g as usize], vec![f]);
        assert!(fo[f as usize].is_empty());
    }

    #[test]
    fn set_func_only_on_nodes() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        assert!(matches!(
            nw.set_func(a, Sop::one()),
            Err(NetworkError::NotANode(_))
        ));
    }

    #[test]
    fn negative_phase_fanins_counted_once() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let f = nw
            .add_node(
                "f",
                Sop::from_cubes([
                    Cube::from_lits([Lit::pos(a)]),
                    Cube::from_lits([Lit::neg(a)]),
                ]),
            )
            .unwrap();
        assert_eq!(nw.fanins(f), vec![a]);
        assert_eq!(nw.literal_count(), 2);
    }
}
