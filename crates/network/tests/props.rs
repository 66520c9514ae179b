//! Property tests for the network substrate: transforms preserve
//! function, sweep/eliminate shrink or hold literal count, IO round-trips.

use pf_kcmatrix::network_digest;
use pf_network::io::{read_network, write_network};
use pf_network::sim::{equivalent_random, EquivConfig};
use pf_network::transform::{eliminate_node, eliminate_value, extract_node, sweep};
use pf_network::Network;
use pf_sop::{divide, Cube, Lit, Sop};
use proptest::prelude::*;

/// Random layered network over `n_inputs` PIs and up to `n_nodes` nodes.
fn arb_network(n_inputs: usize, n_nodes: usize) -> impl Strategy<Value = Network> {
    let cube = prop::collection::btree_set(0u32..64, 1..=3usize);
    let node = prop::collection::vec(cube, 1..=5usize);
    prop::collection::vec(node, 1..=n_nodes).prop_map(move |specs| {
        let mut nw = Network::new();
        let inputs: Vec<u32> = (0..n_inputs)
            .map(|i| nw.add_input(format!("i{i}")).unwrap())
            .collect();
        let mut nodes: Vec<u32> = Vec::new();
        for (k, spec) in specs.into_iter().enumerate() {
            let cubes: Vec<Cube> = spec
                .into_iter()
                .map(|srcs| {
                    Cube::from_lits(srcs.into_iter().map(|s| {
                        let pool = inputs.len() + nodes.len();
                        let idx = (s as usize) % pool;
                        if idx < inputs.len() {
                            Lit::pos(inputs[idx])
                        } else {
                            Lit::pos(nodes[idx - inputs.len()])
                        }
                    }))
                })
                .collect();
            let id = nw
                .add_node(format!("n{k}"), Sop::from_cubes(cubes))
                .unwrap();
            nodes.push(id);
        }
        let fo = nw.fanout_map();
        for &n in &nodes {
            if fo[n as usize].is_empty() {
                nw.mark_output(n).unwrap();
            }
        }
        nw
    })
}

/// Random network for the pack round trip: negated literals, cubes
/// past [`Cube::INLINE`] literals, constant-0 and constant-1 nodes,
/// multi-byte names and arbitrary outputs.
fn arb_packable_network() -> impl Strategy<Value = Network> {
    let cube = prop::collection::btree_map(0u32..64, any::<bool>(), 0..=10usize);
    let node = (
        0u8..5,
        prop::collection::vec(cube, 1..=4usize),
        any::<bool>(),
    );
    (1usize..12, prop::collection::vec(node, 0..=12usize)).prop_map(|(n_inputs, specs)| {
        let mut nw = Network::new();
        for i in 0..n_inputs {
            nw.add_input(format!("i{i}")).unwrap();
        }
        for (k, (shape, cubes, output)) in specs.into_iter().enumerate() {
            let pool = nw.num_signals() as u32;
            let func = match shape {
                0 => Sop::zero(),
                1 => Sop::one(),
                _ => Sop::from_cubes(cubes.into_iter().map(|lits| {
                    // One phase per variable: a cube never holds both.
                    let vars: std::collections::BTreeMap<u32, bool> =
                        lits.into_iter().map(|(v, neg)| (v % pool, neg)).collect();
                    Cube::from_lits(vars.into_iter().map(|(v, neg)| {
                        if neg {
                            Lit::neg(v)
                        } else {
                            Lit::pos(v)
                        }
                    }))
                })),
            };
            let id = nw.add_node(format!("n{k}·{shape}"), func).unwrap();
            if output {
                nw.mark_output(id).unwrap();
            }
        }
        nw
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packing and unpacking returns the same network: equal content
    /// digest, equal Debug dump, equal names, kinds and outputs.
    #[test]
    fn unpack_of_pack_is_the_network(nw in arb_packable_network()) {
        let packed = nw.pack();
        let back = packed.unpack();
        prop_assert_eq!(network_digest(&back), network_digest(&nw));
        prop_assert_eq!(format!("{back:?}"), format!("{nw:?}"));
        prop_assert_eq!(back.outputs(), nw.outputs());
        for s in nw.signal_ids() {
            prop_assert_eq!(back.name(s), nw.name(s));
            prop_assert_eq!(back.kind(s), nw.kind(s));
            prop_assert_eq!(back.find(nw.name(s)), Some(s));
        }
        prop_assert_eq!(back.pack(), packed);
    }

    /// Extracting any divisor computed by algebraic division preserves
    /// the network function.
    #[test]
    fn extraction_of_any_kernel_is_safe(nw in arb_network(5, 6)) {
        let node = nw.node_ids().max_by_key(|&n| nw.func(n).literal_count()).unwrap();
        let ks = pf_sop::kernels(nw.func(node));
        prop_assume!(!ks.is_empty());
        let mut modified = nw.clone();
        let targets: Vec<u32> = modified.node_ids().collect();
        extract_node(&mut modified, "X_prop", ks[0].kernel.clone(), &targets).unwrap();
        prop_assert!(modified.validate().is_ok());
        prop_assert!(equivalent_random(&nw, &modified, &EquivConfig::default()).unwrap());
    }

    /// eliminate_value predicts the literal-count change of elimination
    /// exactly (when elimination succeeds and absorbs nothing).
    #[test]
    fn eliminate_value_bounds_the_lc_change(nw in arb_network(5, 6)) {
        for node in nw.node_ids().collect::<Vec<_>>() {
            if nw.outputs().contains(&node) {
                continue;
            }
            let Some(v) = eliminate_value(&nw, node) else { continue };
            let mut modified = nw.clone();
            let lc_before = modified.literal_count() as isize;
            if !eliminate_node(&mut modified, node).unwrap() {
                continue;
            }
            // After elimination the victim is dead; zero it like sweep would.
            modified.set_func(node, Sop::zero()).unwrap();
            let lc_after = modified.literal_count() as isize;
            // v = n·l − n − l is the no-absorption prediction; algebraic
            // composition can only absorb cubes, so Δ ≤ v.
            prop_assert!(lc_after - lc_before <= v,
                "node {node}: Δ={} v={v}", lc_after - lc_before);
            prop_assert!(equivalent_random(&nw, &modified, &EquivConfig::default()).unwrap());
        }
    }

    /// sweep never increases literal count and preserves function.
    #[test]
    fn sweep_is_safe(nw in arb_network(5, 8)) {
        let mut modified = nw.clone();
        let before = modified.literal_count();
        sweep(&mut modified).unwrap();
        prop_assert!(modified.literal_count() <= before);
        prop_assert!(equivalent_random(&nw, &modified, &EquivConfig::default()).unwrap());
    }

    /// Text IO round-trips both structure and function.
    #[test]
    fn io_roundtrip(nw in arb_network(5, 6)) {
        let text = write_network(&nw);
        let back = read_network(&text).unwrap();
        prop_assert_eq!(back.literal_count(), nw.literal_count());
        prop_assert!(equivalent_random(&nw, &back, &EquivConfig::default()).unwrap());
    }

    /// BLIF IO round-trips structure and function for arbitrary
    /// (mixed-phase-free) networks.
    #[test]
    fn blif_roundtrip(nw in arb_network(5, 6)) {
        use pf_network::blif::{read_blif, write_blif};
        let text = write_blif(&nw, "prop");
        let back = read_blif(&text).unwrap();
        prop_assert_eq!(back.literal_count(), nw.literal_count());
        prop_assert!(equivalent_random(&nw, &back, &EquivConfig::default()).unwrap());
        // Idempotent: writing the round-tripped network gives the same text.
        prop_assert_eq!(write_blif(&back, "prop"), text);
    }

    /// Resubstitution never breaks the function and never grows LC.
    #[test]
    fn resub_is_safe(nw in arb_network(5, 7)) {
        use pf_network::resub::resubstitute;
        let mut modified = nw.clone();
        let before = modified.literal_count();
        let rep = resubstitute(&mut modified).unwrap();
        prop_assert!(modified.literal_count() <= before);
        prop_assert_eq!(
            before as isize - modified.literal_count() as isize,
            rep.saved
        );
        prop_assert!(modified.validate().is_ok());
        prop_assert!(equivalent_random(&nw, &modified, &EquivConfig::default()).unwrap());
    }

    /// The indexed worklist engine is byte-identical to the all-pairs
    /// reference: same substitution count, same literals saved, and the
    /// exact same resulting network (textually).
    #[test]
    fn resub_indexed_matches_reference(nw in arb_network(5, 8)) {
        use pf_network::resub::{reference, resubstitute};
        let mut indexed = nw.clone();
        let mut oracle = nw;
        let ri = resubstitute(&mut indexed).unwrap();
        let rr = reference::resubstitute(&mut oracle).unwrap();
        prop_assert_eq!(ri.substitutions, rr.substitutions);
        prop_assert_eq!(ri.saved, rr.saved);
        prop_assert!(ri.pairs_divided >= ri.substitutions);
        prop_assert!(ri.pairs_considered >= ri.pairs_divided);
        prop_assert_eq!(write_network(&indexed), write_network(&oracle));
    }

    /// Division + recomposition via extract/eliminate is the identity on
    /// node functions.
    #[test]
    fn divide_recompose_identity(nw in arb_network(5, 5)) {
        for node in nw.node_ids().collect::<Vec<_>>() {
            let f = nw.func(node);
            for other in nw.node_ids() {
                if other == node { continue; }
                let g = nw.func(other);
                if g.is_zero() || g.is_one() { continue; }
                let d = divide(f, g);
                prop_assert_eq!(d.quotient.product(g).sum(&d.remainder), f.clone());
            }
        }
    }

    /// The fanout map lists, for every signal, exactly the nodes whose
    /// fanins contain it, each once and in ascending order.
    #[test]
    fn fanout_map_is_the_inverse_of_fanins(nw in arb_network(5, 8)) {
        let mut expect = vec![Vec::new(); nw.num_signals()];
        for n in nw.node_ids() {
            for fi in nw.fanins(n) {
                expect[fi as usize].push(n);
            }
        }
        prop_assert_eq!(nw.fanout_map(), expect);
    }

    /// Topological order always puts fanins before the node.
    #[test]
    fn topo_order_sound(nw in arb_network(5, 8)) {
        let order = nw.topo_order().unwrap();
        let pos: std::collections::HashMap<u32, usize> =
            order.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        for n in nw.node_ids() {
            for fi in nw.fanins(n) {
                prop_assert!(pos[&fi] < pos[&n]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The BLIF parser never panics on arbitrary input — it returns a
    /// network or a structured error.
    #[test]
    fn blif_parser_never_panics(text in "[ -~\n]{0,400}") {
        let _ = pf_network::blif::read_blif(&text);
    }

    /// Same for the native text reader.
    #[test]
    fn text_parser_never_panics(text in "[ -~\n]{0,400}") {
        let _ = pf_network::io::read_network(&text);
    }
}
