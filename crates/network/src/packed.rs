//! A network packed into flat, exactly sized arrays.
//!
//! A [`Network`] holds one heap `String` per signal, one `Vec` of cubes
//! per node and a name index. That shape suits editing; a copy that is
//! only kept to be rebuilt later (a memoised service input, a cached
//! result) pays for it in allocations and in slack capacity.
//! [`PackedNetwork`] keeps the same content as a handful of boxed
//! slices — literals, cube and signal offsets, name bytes — and
//! [`PackedNetwork::unpack`] rebuilds the identical network.

use crate::network::{Network, SignalId, SignalKind};
use pf_sop::{Cube, Lit, Sop};

/// A [`Network`] in flat arrays: [`Network::pack`] builds it and
/// [`PackedNetwork::unpack`] returns a network identical to the packed
/// one — same names, kinds, functions (cube for cube, in order) and
/// outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedNetwork {
    /// Every signal's name, concatenated in signal order.
    names: Box<str>,
    /// `names[name_ends[s - 1]..name_ends[s]]` is signal `s`'s name.
    name_ends: Box<[u32]>,
    /// Signal kinds, in signal order.
    kinds: Box<[SignalKind]>,
    /// `cube_ends[s - 1]..cube_ends[s]` are signal `s`'s cubes (none
    /// for a primary input).
    cube_ends: Box<[u32]>,
    /// `lits[lit_ends[c - 1]..lit_ends[c]]` are cube `c`'s literals.
    lit_ends: Box<[u32]>,
    /// The literals of every cube, in order.
    lits: Box<[Lit]>,
    /// The primary outputs, in declaration order.
    outputs: Box<[SignalId]>,
}

/// `len` as a packed offset; a network past `u32` offsets is beyond
/// every size the signal index space (`u32`) allows anyway.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("packed network offsets fit in u32")
}

/// The `i`-th range of an end-offset list.
fn span(ends: &[u32], i: usize) -> std::ops::Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    start..ends[i] as usize
}

impl Network {
    /// This network in flat arrays (see [`PackedNetwork`]).
    pub fn pack(&self) -> PackedNetwork {
        let n = self.num_signals();
        let name_bytes = self.names.iter().map(String::len).sum();
        let num_cubes = self.funcs.iter().map(Sop::num_cubes).sum();
        let num_lits = self.funcs.iter().map(Sop::literal_count).sum();
        let mut names = String::with_capacity(name_bytes);
        let mut name_ends = Vec::with_capacity(n);
        let mut cube_ends = Vec::with_capacity(n);
        let mut lit_ends = Vec::with_capacity(num_cubes);
        let mut lits = Vec::with_capacity(num_lits);
        for (name, func) in self.names.iter().zip(&self.funcs) {
            names.push_str(name);
            name_ends.push(offset(names.len()));
            for cube in func.iter() {
                lits.extend_from_slice(cube.lits());
                lit_ends.push(offset(lits.len()));
            }
            cube_ends.push(offset(lit_ends.len()));
        }
        PackedNetwork {
            names: names.into_boxed_str(),
            name_ends: name_ends.into_boxed_slice(),
            kinds: self.kinds.clone().into_boxed_slice(),
            cube_ends: cube_ends.into_boxed_slice(),
            lit_ends: lit_ends.into_boxed_slice(),
            lits: lits.into_boxed_slice(),
            outputs: self.outputs.clone().into_boxed_slice(),
        }
    }
}

impl PackedNetwork {
    /// Number of signals (inputs + nodes).
    pub fn num_signals(&self) -> usize {
        self.kinds.len()
    }

    /// Rebuilds the packed network.
    pub fn unpack(&self) -> Network {
        let n = self.num_signals();
        let mut nw = Network {
            names: Vec::with_capacity(n),
            kinds: self.kinds.to_vec(),
            funcs: Vec::with_capacity(n),
            outputs: self.outputs.to_vec(),
            by_name: Default::default(),
        };
        nw.by_name.reserve(n);
        for s in 0..n {
            let name = &self.names[span(&self.name_ends, s)];
            nw.by_name.insert(name.to_string(), s as SignalId);
            nw.names.push(name.to_string());
            let cubes = span(&self.cube_ends, s)
                .map(|c| Cube::from_sorted_slice(&self.lits[span(&self.lit_ends, c)]))
                .collect();
            // The cubes come from a network's canonical functions, in
            // their canonical order.
            nw.funcs.push(Sop::from_sorted_unchecked(cubes));
        }
        nw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::example_1_1;

    #[test]
    fn example_round_trips() {
        let (nw, _) = example_1_1();
        let back = nw.pack().unpack();
        assert_eq!(format!("{back:?}"), format!("{nw:?}"));
        assert_eq!(back.outputs(), nw.outputs());
        for s in nw.signal_ids() {
            assert_eq!(back.name(s), nw.name(s));
            assert_eq!(back.kind(s), nw.kind(s));
            assert_eq!(back.find(nw.name(s)), Some(s));
        }
        assert_eq!(back.pack(), nw.pack());
    }

    #[test]
    fn constants_negations_and_spilled_cubes_round_trip() {
        let mut nw = Network::new();
        let ins: Vec<SignalId> = (0..8)
            .map(|i| nw.add_input(format!("x{i}")).unwrap())
            .collect();
        let wide =
            Cube::from_lits(
                ins.iter()
                    .map(|&i| if i % 2 == 0 { Lit::neg(i) } else { Lit::pos(i) }),
            );
        assert!(wide.len() > Cube::INLINE);
        let f = nw
            .add_node("f", Sop::from_cubes([wide, Cube::single(Lit::neg(ins[0]))]))
            .unwrap();
        let zero = nw.add_node("zero", Sop::zero()).unwrap();
        let one = nw.add_node("one", Sop::one()).unwrap();
        for o in [one, f, zero] {
            nw.mark_output(o).unwrap();
        }
        let back = nw.pack().unpack();
        assert_eq!(format!("{back:?}"), format!("{nw:?}"));
        assert_eq!(back.outputs(), [one, f, zero]);
        assert!(back.func(zero).is_zero());
        assert!(back.func(one).is_one());
        assert_eq!(back.func(f).cubes(), nw.func(f).cubes());
    }

    #[test]
    fn empty_network_round_trips() {
        let packed = Network::new().pack();
        assert_eq!(packed.num_signals(), 0);
        assert_eq!(packed.unpack().num_signals(), 0);
    }

    #[test]
    fn packed_arrays_are_exactly_sized() {
        let (nw, _) = example_1_1();
        let p = nw.pack();
        assert_eq!(p.lits.len(), nw.literal_count());
        assert_eq!(
            p.lit_ends.len(),
            nw.node_ids().map(|n| nw.func(n).num_cubes()).sum::<usize>()
        );
        assert_eq!(p.cube_ends.len(), nw.num_signals());
        assert_eq!(p.name_ends.len(), nw.num_signals());
    }
}
