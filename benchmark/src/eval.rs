//! The benchmark's own correctness gate: a bit-parallel evaluator of
//! sum-of-products networks. It shares no code with the program under
//! test (`pf_network::sim` is code under test); the adapter only copies a
//! network into the plain [`Circuit`] below.
//!
//! Two circuits are equivalent when they have the same input and output
//! names and every output computes the same function. Up to
//! [`EXHAUSTIVE_INPUTS`] primary inputs the whole truth table is compared;
//! beyond that, [`RANDOM_VECTORS`] seeded random vectors.

use crate::inputs::SplitMix64;

/// Circuits with at most this many primary inputs are checked exactly.
pub const EXHAUSTIVE_INPUTS: usize = 16;
/// Random vectors used for wider circuits.
pub const RANDOM_VECTORS: usize = 4096;

/// A literal: signal index and whether it is complemented.
pub type FlatLit = (u32, bool);

/// One signal of a flattened network. Primary inputs have `cubes: None`;
/// a node is the OR of its cubes, a cube the AND of its literals.
#[derive(Clone, Debug, PartialEq)]
pub struct Signal {
    pub name: String,
    pub cubes: Option<Vec<Vec<FlatLit>>>,
}

/// A network as plain data: signals indexed as in the source network.
#[derive(Clone, Debug, PartialEq)]
pub struct Circuit {
    pub signals: Vec<Signal>,
    pub outputs: Vec<u32>,
}

impl Circuit {
    pub fn num_inputs(&self) -> usize {
        self.signals.iter().filter(|s| s.cubes.is_none()).count()
    }

    pub fn num_nodes(&self) -> usize {
        self.signals.len() - self.num_inputs()
    }

    pub fn literal_count(&self) -> usize {
        let lits = |cubes: &Vec<Vec<FlatLit>>| cubes.iter().map(Vec::len).sum::<usize>();
        self.signals
            .iter()
            .filter_map(|s| s.cubes.as_ref())
            .map(lits)
            .sum()
    }

    /// FNV-1a over names, structure and literal order: the content
    /// fingerprint `golden.json` pins and the verifier keys its
    /// already-verified set on.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for s in &self.signals {
            eat(s.name.as_bytes());
            eat(&[0xff]);
            for cube in s.cubes.iter().flatten() {
                for &(v, neg) in cube {
                    eat(&(v << 1 | u32::from(neg)).to_le_bytes());
                }
                eat(&[0xfe]);
            }
            eat(&[0xfd]);
        }
        for &o in &self.outputs {
            eat(&o.to_le_bytes());
        }
        h
    }

    /// Signals in an order where every node follows its fanins, or
    /// `None` when the network has a cycle or a dangling reference.
    fn topo_order(&self) -> Option<Vec<u32>> {
        let n = self.signals.len();
        let mut state = vec![0u8; n]; // 0 new, 1 on stack, 2 done
        let mut order = Vec::with_capacity(n);
        for root in 0..n as u32 {
            let mut stack = vec![(root, false)];
            while let Some((s, expanded)) = stack.pop() {
                if expanded {
                    state[s as usize] = 2;
                    order.push(s);
                    continue;
                }
                match state.get(s as usize)? {
                    2 => continue,
                    1 => return None,
                    _ => {}
                }
                state[s as usize] = 1;
                stack.push((s, true));
                for cube in self.signals[s as usize].cubes.iter().flatten() {
                    for &(v, _) in cube {
                        match state.get(v as usize)? {
                            0 => stack.push((v, false)),
                            1 => return None,
                            _ => {}
                        }
                    }
                }
            }
        }
        Some(order)
    }

    /// Input signal indices sorted by name: the order stimulus columns
    /// are assigned in, so two circuits that declare the same inputs in
    /// different orders receive the same vectors.
    fn inputs_by_name(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.signals.len() as u32)
            .filter(|&i| self.signals[i as usize].cubes.is_none())
            .collect();
        ids.sort_by(|&a, &b| {
            self.signals[a as usize]
                .name
                .cmp(&self.signals[b as usize].name)
        });
        ids
    }

    /// Output values as `(output name, packed words)`, sorted by name,
    /// under the stimulus of [`stimulus_word`].
    pub fn signature(&self, seed: u64) -> Option<Vec<(String, Vec<u64>)>> {
        let order = self.topo_order()?;
        let inputs = self.inputs_by_name();
        let exhaustive = inputs.len() <= EXHAUSTIVE_INPUTS;
        let words = if exhaustive {
            (1usize << inputs.len()).div_ceil(64)
        } else {
            RANDOM_VECTORS / 64
        };
        let mut outs: Vec<(String, Vec<u64>)> = self
            .outputs
            .iter()
            .map(|&o| {
                (
                    self.signals[o as usize].name.clone(),
                    Vec::with_capacity(words),
                )
            })
            .collect();
        let mut values = vec![0u64; self.signals.len()];
        for w in 0..words {
            for (rank, &i) in inputs.iter().enumerate() {
                values[i as usize] = stimulus_word(exhaustive, seed, rank, w);
            }
            for &s in &order {
                if let Some(cubes) = &self.signals[s as usize].cubes {
                    values[s as usize] = cubes.iter().fold(0u64, |acc, cube| {
                        acc | cube.iter().fold(!0u64, |term, &(v, neg)| {
                            term & (values[v as usize] ^ if neg { !0 } else { 0 })
                        })
                    });
                }
            }
            for (slot, &o) in outs.iter_mut().zip(&self.outputs) {
                slot.1.push(values[o as usize]);
            }
        }
        if exhaustive && inputs.len() < 6 {
            // Fewer than 64 vectors: the upper bits of the one word are
            // not vectors at all.
            let mask = (1u64 << (1 << inputs.len())) - 1;
            outs.iter_mut().for_each(|o| o.1[0] &= mask);
        }
        outs.sort();
        Some(outs)
    }

    /// Names of the primary inputs, sorted.
    pub fn input_names(&self) -> Vec<&str> {
        let ids = self.inputs_by_name();
        ids.iter()
            .map(|&i| self.signals[i as usize].name.as_str())
            .collect()
    }
}

/// The 64 stimulus bits of the input with name-rank `rank` in word `w`:
/// bit `b` belongs to vector `64 * w + b`. Exhaustive mode counts in
/// binary (input `rank` is bit `rank` of the vector number).
fn stimulus_word(exhaustive: bool, seed: u64, rank: usize, w: usize) -> u64 {
    if !exhaustive {
        return SplitMix64::new(seed ^ ((rank as u64) << 32 | w as u64)).next_u64();
    }
    const LOW: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    match LOW.get(rank) {
        Some(&pattern) => pattern,
        None if (w >> (rank - 6)) & 1 == 1 => !0,
        None => 0,
    }
}

/// A reference circuit with its output signature computed once.
pub struct Reference {
    input_names: Vec<String>,
    signature: Vec<(String, Vec<u64>)>,
    seed: u64,
}

impl Reference {
    pub fn new(circuit: &Circuit, seed: u64) -> Option<Reference> {
        Some(Reference {
            input_names: circuit
                .input_names()
                .into_iter()
                .map(String::from)
                .collect(),
            signature: circuit.signature(seed)?,
            seed,
        })
    }

    /// Whether `candidate` has the reference's interface and functions.
    pub fn matches(&self, candidate: &Circuit) -> bool {
        candidate.input_names() == self.input_names
            && candidate.signature(self.seed).as_ref() == Some(&self.signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(name: &str) -> Signal {
        Signal {
            name: name.into(),
            cubes: None,
        }
    }

    fn node(name: &str, cubes: &[&[u32]]) -> Signal {
        let cubes = cubes
            .iter()
            .map(|c| c.iter().map(|&v| (v, false)).collect())
            .collect();
        Signal {
            name: name.into(),
            cubes: Some(cubes),
        }
    }

    /// The paper's Example 1.1: inputs a..g are signals 0..6.
    ///   F = af + bf + ag + cg + ade + bde + cde
    ///   G = af + bf + ace + bce
    ///   H = ade + cde
    fn example_1_1() -> Circuit {
        let (a, b, c, d, e, f, g) = (0, 1, 2, 3, 4, 5, 6);
        let mut signals: Vec<Signal> = "abcdefg".chars().map(|ch| input(&ch.to_string())).collect();
        signals.push(node(
            "F",
            &[
                &[a, f],
                &[b, f],
                &[a, g],
                &[c, g],
                &[a, d, e],
                &[b, d, e],
                &[c, d, e],
            ],
        ));
        signals.push(node("G", &[&[a, f], &[b, f], &[a, c, e], &[b, c, e]]));
        signals.push(node("H", &[&[a, d, e], &[c, d, e]]));
        Circuit {
            signals,
            outputs: vec![7, 8, 9],
        }
    }

    /// The same functions after the paper's extractions, written by hand:
    ///   X = a + b, Y = a + c
    ///   F = fX + deX + gY + cde,  G = fX + ceX,  H = deY
    /// declared with the inputs in another order.
    fn example_1_1_factored() -> Circuit {
        let mut signals: Vec<Signal> = "gfedcba".chars().map(|ch| input(&ch.to_string())).collect();
        let (g, f, e, d, c, b, a) = (0, 1, 2, 3, 4, 5, 6);
        let (x, y) = (7, 8);
        signals.push(node("X", &[&[a], &[b]]));
        signals.push(node("Y", &[&[a], &[c]]));
        signals.push(node("F", &[&[f, x], &[d, e, x], &[g, y], &[c, d, e]]));
        signals.push(node("G", &[&[f, x], &[c, e, x]]));
        signals.push(node("H", &[&[d, e, y]]));
        Circuit {
            signals,
            outputs: vec![11, 10, 9],
        }
    }

    #[test]
    fn example_1_1_matches_a_hand_computed_table() {
        let sig = example_1_1().signature(0).unwrap();
        assert_eq!(sig.len(), 3);
        assert_eq!(sig[0].1.len(), 2, "2^7 vectors are two words");
        for v in 0..128u32 {
            let bit = |i: u32| v >> i & 1 == 1;
            let (a, b, c, d, e, f, g) = (bit(0), bit(1), bit(2), bit(3), bit(4), bit(5), bit(6));
            let want = [
                (a || b) && f || (a || c) && g || (a || b || c) && d && e,
                (a || b) && (f || c && e),
                (a || c) && d && e,
            ];
            for (k, (name, words)) in sig.iter().enumerate() {
                let got = words[v as usize / 64] >> (v % 64) & 1 == 1;
                assert_eq!(got, want[k], "{name} at vector {v}");
            }
        }
    }

    #[test]
    fn factored_form_is_equivalent_and_a_broken_one_is_not() {
        let reference = Reference::new(&example_1_1(), 0).unwrap();
        assert_eq!(example_1_1().literal_count(), 33);
        let factored = example_1_1_factored();
        assert_eq!(factored.literal_count(), 22);
        assert!(reference.matches(&factored));

        let mut broken = factored.clone();
        broken.signals[8] = node("Y", &[&[6], &[3]]); // Y = a + d
        assert!(!reference.matches(&broken));

        let mut renamed = factored;
        renamed.signals[0].name = "z".into();
        assert!(!reference.matches(&renamed), "different interface");
    }

    #[test]
    fn cycles_are_rejected_not_looped_on() {
        let mut c = example_1_1();
        c.signals[7] = node("F", &[&[8]]);
        c.signals[8] = node("G", &[&[7]]);
        assert!(c.signature(0).is_none());
    }

    #[test]
    fn wide_circuits_use_seeded_random_vectors() {
        let mut signals: Vec<Signal> = (0..20).map(|i| input(&format!("i{i:02}"))).collect();
        signals.push(node("o", &[&[0, 19], &[7]]));
        let c = Circuit {
            signals,
            outputs: vec![20],
        };
        let s1 = c.signature(1).unwrap();
        assert_eq!(s1[0].1.len(), RANDOM_VECTORS / 64);
        assert_eq!(s1, c.signature(1).unwrap());
        assert_ne!(s1, c.signature(2).unwrap());
        let mut d = c.clone();
        d.signals[20] = Signal {
            name: "o".into(),
            cubes: Some(vec![vec![(0, false), (19, true)], vec![(7, false)]]),
        };
        assert!(!Reference::new(&c, 1).unwrap().matches(&d));
    }

    #[test]
    fn fingerprint_sees_structure() {
        let a = example_1_1();
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.signals[9] = node("H", &[&[0, 3, 4], &[2, 3, 5]]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
