//! Edge-case integration tests: degenerate networks through every
//! pipeline, oracle cross-checks, and IO corner cases.

use parafactor::core::{
    extract_common_cubes, extract_kernels, independent_extract, iterative_extract, lshaped_extract,
    replicated_extract, CubeExtractConfig, ExtractConfig, IndependentConfig, IterativeConfig,
    LShapedConfig, ReplicatedConfig,
};
use parafactor::network::blif::{read_blif, write_blif};
use parafactor::network::io::{read_network, write_network};
use parafactor::network::sim::{equivalent_random, simulate, EquivConfig};
use parafactor::network::Network;
use parafactor::sop::minimize::eval_sop;
use parafactor::sop::{Cube, Lit, Sop};

fn sop_of(cubes: &[&[u32]]) -> Sop {
    Sop::from_cubes(
        cubes
            .iter()
            .map(|c| Cube::from_lits(c.iter().map(|&v| Lit::pos(v)))),
    )
}

/// A single-node network with no extractable structure.
fn trivial() -> Network {
    let mut nw = Network::new();
    let a = nw.add_input("a").unwrap();
    let b = nw.add_input("b").unwrap();
    let f = nw.add_node("f", sop_of(&[&[a, b]])).unwrap();
    nw.mark_output(f).unwrap();
    nw
}

#[test]
fn all_algorithms_handle_trivial_network() {
    let nw = trivial();
    let run = |name: &str, f: &dyn Fn(&mut Network)| {
        let mut copy = nw.clone();
        f(&mut copy);
        assert_eq!(copy.literal_count(), 2, "{name} changed a trivial network");
        assert!(
            equivalent_random(&nw, &copy, &EquivConfig::default()).unwrap(),
            "{name}"
        );
    };
    run("seq", &|n| {
        extract_kernels(n, &[], &ExtractConfig::default());
    });
    run("replicated", &|n| {
        replicated_extract(n, &ReplicatedConfig::default());
    });
    run("independent", &|n| {
        independent_extract(n, &IndependentConfig::default());
    });
    run("lshaped", &|n| {
        lshaped_extract(n, &LShapedConfig::default());
    });
    run("lshaped-seq", &|n| {
        lshaped_extract(
            n,
            &LShapedConfig {
                sequential: true,
                ..LShapedConfig::default()
            },
        );
    });
    run("iterative", &|n| {
        iterative_extract(n, &IterativeConfig::default());
    });
    run("cx", &|n| {
        extract_common_cubes(n, &[], &CubeExtractConfig::default());
    });
}

#[test]
fn lshaped_with_more_procs_than_nodes() {
    let nw = trivial();
    for procs in [3usize, 8] {
        for sequential in [true, false] {
            let mut copy = nw.clone();
            let r = lshaped_extract(
                &mut copy,
                &LShapedConfig {
                    procs,
                    sequential,
                    ..LShapedConfig::default()
                },
            );
            assert_eq!(r.lc_after, r.lc_before, "procs={procs} seq={sequential}");
            assert!(copy.validate().is_ok());
        }
    }
}

#[test]
fn network_with_no_internal_nodes() {
    let mut nw = Network::new();
    nw.add_input("a").unwrap();
    nw.add_input("b").unwrap();
    for procs in [1usize, 4] {
        let mut copy = nw.clone();
        let r = lshaped_extract(
            &mut copy,
            &LShapedConfig {
                procs,
                ..LShapedConfig::default()
            },
        );
        assert_eq!(r.extractions, 0);
        let r = independent_extract(
            &mut copy,
            &IndependentConfig {
                procs,
                ..IndependentConfig::default()
            },
        );
        assert_eq!(r.extractions, 0);
    }
}

#[test]
fn constant_function_nodes_survive_all_pipelines() {
    let mut nw = Network::new();
    let a = nw.add_input("a").unwrap();
    let one = nw.add_node("one", Sop::one()).unwrap();
    let zero = nw.add_node("zero", Sop::zero()).unwrap();
    let f = nw.add_node("f", sop_of(&[&[a, one]])).unwrap();
    nw.mark_output(f).unwrap();
    nw.mark_output(one).unwrap();
    nw.mark_output(zero).unwrap();
    let original = nw.clone();
    extract_kernels(&mut nw, &[], &ExtractConfig::default());
    assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
}

#[test]
fn eval_sop_agrees_with_bit_parallel_simulation() {
    // Two independent evaluation oracles must agree: the scalar
    // truth-table evaluator from pf-sop and the packed simulator from
    // pf-network.
    let mut nw = Network::new();
    let a = nw.add_input("a").unwrap();
    let b = nw.add_input("b").unwrap();
    let c = nw.add_input("c").unwrap();
    let f = nw
        .add_node(
            "f",
            Sop::from_cubes([
                Cube::from_lits([Lit::pos(a), Lit::neg(b)]),
                Cube::from_lits([Lit::pos(b), Lit::pos(c)]),
                Cube::from_lits([Lit::neg(a), Lit::neg(c)]),
            ]),
        )
        .unwrap();
    nw.mark_output(f).unwrap();
    // Pack all 8 assignments into one 64-bit word per input.
    let mut words = [0u64; 3];
    for m in 0..8u64 {
        for (i, w) in words.iter_mut().enumerate() {
            *w |= ((m >> i) & 1) << m;
        }
    }
    let sim = simulate(&nw, &words).unwrap();
    for m in 0..8u64 {
        let expect = eval_sop(nw.func(f), m);
        let got = (sim[f as usize] >> m) & 1 == 1;
        assert_eq!(expect, got, "assignment {m:03b}");
    }
}

#[test]
fn io_formats_cross_convert() {
    // text → network → blif → network → text, function preserved.
    let text = "
        inputs a b c
        node g = a b | ~a c
        node f = g c | a
        outputs f
    ";
    let nw = read_network(text).unwrap();
    let via_blif = read_blif(&write_blif(&nw, "x")).unwrap();
    let via_text = read_network(&write_network(&via_blif)).unwrap();
    assert!(equivalent_random(&nw, &via_text, &EquivConfig::default()).unwrap());
}

#[test]
fn deep_chain_network_no_stack_overflow() {
    // 3000-deep chain exercises the iterative DFS in topo_order and the
    // level computation.
    let mut nw = Network::new();
    let a = nw.add_input("a").unwrap();
    let mut prev = a;
    for i in 0..3000u32 {
        prev = nw.add_node(format!("n{i}"), sop_of(&[&[prev]])).unwrap();
    }
    nw.mark_output(prev).unwrap();
    assert!(nw.validate().is_ok());
    assert_eq!(parafactor::network::stats::depth(&nw).unwrap(), 3000);
}

#[test]
fn extraction_on_wide_flat_pla() {
    // A PLA-like single-output node with many cubes — the ex1010/spla
    // shape, minimally.
    let mut nw = Network::new();
    let vars: Vec<u32> = (0..10)
        .map(|i| nw.add_input(format!("v{i}")).unwrap())
        .collect();
    let mut cubes = Vec::new();
    for i in 0..8 {
        for j in 0..3 {
            cubes.push(vec![
                vars[i % 10],
                vars[(i + j + 1) % 10],
                vars[(i + 5) % 10],
            ]);
        }
    }
    let refs: Vec<&[u32]> = cubes.iter().map(|c| c.as_slice()).collect();
    let f = nw.add_node("f", sop_of(&refs)).unwrap();
    nw.mark_output(f).unwrap();
    let original = nw.clone();
    let r = extract_kernels(&mut nw, &[], &ExtractConfig::default());
    assert!(r.lc_after <= r.lc_before);
    assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
}
