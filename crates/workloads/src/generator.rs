//! The seeded circuit generator.
//!
//! A circuit is built in layers. First a pool of *planted kernels* is
//! drawn — small cube-free expressions over the primary inputs (e.g.
//! `ab + cd + e`). Node functions are then assembled from:
//!
//! * **planted products** `c · k_j`: a random co-kernel cube times a
//!   planted kernel, expanded into SOP form (these are what kernel
//!   extraction finds and shares across nodes), and
//! * **noise cubes**: random products that keep the matrix sparse and
//!   the kernels non-trivial to isolate.
//!
//! Later nodes may reference earlier nodes (positive phase), giving the
//! fanin/fanout edges the min-cut partitioner works on.

use pf_network::Network;
use pf_sop::{Cube, Lit, Sop, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Shape parameters of a generated circuit.
#[derive(Clone, Debug)]
pub struct CircuitProfile {
    /// Human-readable name (MCNC analogue, e.g. "dalu").
    pub name: String,
    /// Stop adding nodes when the literal count reaches this.
    pub target_lc: usize,
    /// Number of primary inputs.
    pub num_inputs: usize,
    /// Number of planted shared kernels.
    pub num_kernels: usize,
    /// Cubes per planted kernel, inclusive range.
    pub kernel_cubes: (usize, usize),
    /// Literals per kernel cube, inclusive range.
    pub kernel_cube_lits: (usize, usize),
    /// Planted products per node, inclusive range.
    pub plants_per_node: (usize, usize),
    /// Noise cubes per node, inclusive range.
    pub noise_cubes: (usize, usize),
    /// Literals per noise cube, inclusive range.
    pub noise_cube_lits: (usize, usize),
    /// Probability that a cube literal references an earlier node
    /// instead of a primary input.
    pub node_ref_prob: f64,
    /// RNG seed (the generator is fully deterministic given the profile).
    pub seed: u64,
}

impl CircuitProfile {
    /// A small default useful in tests.
    pub fn small(name: &str, seed: u64) -> Self {
        CircuitProfile {
            name: name.to_string(),
            target_lc: 300,
            num_inputs: 24,
            num_kernels: 6,
            kernel_cubes: (2, 3),
            kernel_cube_lits: (1, 2),
            plants_per_node: (1, 2),
            noise_cubes: (1, 3),
            noise_cube_lits: (2, 3),
            node_ref_prob: 0.15,
            seed,
        }
    }
}

fn rand_range(rng: &mut StdRng, range: (usize, usize)) -> usize {
    if range.0 >= range.1 {
        range.0
    } else {
        rng.gen_range(range.0..=range.1)
    }
}

/// Draws a cube over the given variable pool, avoiding the variables in
/// `exclude`.
fn rand_cube(rng: &mut StdRng, pool: &[u32], lits: usize, exclude: &[u32]) -> Cube {
    let mut vars: Vec<u32> = pool
        .iter()
        .copied()
        .filter(|v| !exclude.contains(v))
        .collect();
    vars.shuffle(rng);
    vars.truncate(lits.max(1));
    Cube::from_lits(vars.into_iter().map(|v| {
        // Mostly positive phase; a sprinkle of negations exercises the
        // phase handling without breaking algebraic sharing.
        if rng.gen_bool(0.12) {
            Lit::new(Var::new(v), true)
        } else {
            Lit::pos(v)
        }
    }))
}

/// Generates the network for a profile. Deterministic.
pub fn generate(profile: &CircuitProfile) -> Network {
    let mut rng = StdRng::seed_from_u64(profile.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut nw = Network::new();

    let inputs: Vec<u32> = (0..profile.num_inputs)
        .map(|i| nw.add_input(format!("i{i}")).expect("unique input name"))
        .collect();

    // Plant the shared kernels: cube-free sums over disjoint-ish input
    // subsets (positive phase only so they stay algebraically visible).
    let mut kernels: Vec<Sop> = Vec::with_capacity(profile.num_kernels);
    for _ in 0..profile.num_kernels {
        let n_cubes = rand_range(&mut rng, profile.kernel_cubes).max(2);
        let mut cubes = Vec::with_capacity(n_cubes);
        for _ in 0..n_cubes {
            let lits = rand_range(&mut rng, profile.kernel_cube_lits).max(1);
            let mut vars: Vec<u32> = inputs.clone();
            vars.shuffle(&mut rng);
            vars.truncate(lits);
            cubes.push(Cube::from_lits(vars.into_iter().map(Lit::pos)));
        }
        let k = Sop::from_cubes(cubes);
        if k.num_cubes() >= 2 && k.largest_common_cube().is_one() {
            kernels.push(k);
        }
    }
    if kernels.is_empty() {
        // Degenerate profile: fall back to one two-literal kernel.
        kernels.push(Sop::from_cubes([
            Cube::single(Lit::pos(inputs[0])),
            Cube::single(Lit::pos(inputs[1 % inputs.len()])),
        ]));
    }

    let mut node_pool: Vec<u32> = Vec::new();
    let mut node_idx = 0usize;
    // `nw.literal_count()` as a running sum, so that generation stays
    // linear in the circuit size.
    let mut lc = 0usize;
    while lc < profile.target_lc {
        // Variable pool for this node: inputs, plus earlier nodes with
        // some probability (never enough to cycle — only earlier ids).
        let mut cubes: Vec<Cube> = Vec::new();

        let n_plants = rand_range(&mut rng, profile.plants_per_node);
        for _ in 0..n_plants {
            let k = &kernels[rng.gen_range(0..kernels.len())];
            let k_support: Vec<u32> = k.support_lits().iter().map(|l| l.var().index()).collect();
            // Co-kernel: 1–2 literals, disjoint from the kernel support.
            let ck_lits = rng.gen_range(1..=2usize);
            let pool: &[u32] = if !node_pool.is_empty() && rng.gen_bool(profile.node_ref_prob) {
                &node_pool
            } else {
                &inputs
            };
            let cokernel = rand_cube(&mut rng, pool, ck_lits, &k_support);
            for kc in k.iter() {
                if let Some(p) = cokernel.product(kc) {
                    cubes.push(p);
                }
            }
        }

        let n_noise = rand_range(&mut rng, profile.noise_cubes);
        for _ in 0..n_noise {
            let lits = rand_range(&mut rng, profile.noise_cube_lits);
            let mixed: Vec<u32>;
            let pool: &[u32] = if !node_pool.is_empty() && rng.gen_bool(profile.node_ref_prob) {
                mixed = [&inputs[..], &node_pool[..]].concat();
                &mixed
            } else {
                &inputs
            };
            cubes.push(rand_cube(&mut rng, pool, lits, &[]));
        }

        if cubes.is_empty() {
            continue;
        }
        let func = Sop::from_cubes(cubes);
        if func.num_cubes() == 0 {
            continue;
        }
        lc += func.literal_count();
        let id = nw
            .add_node(format!("n{node_idx}"), func)
            .expect("unique node name");
        node_idx += 1;
        node_pool.push(id);
    }

    // All sink nodes (no fanouts) become primary outputs, plus a few
    // random internal taps so elimination cannot erase whole cones.
    let fo = nw.fanout_map();
    let node_ids: Vec<u32> = nw.node_ids().collect();
    for &n in &node_ids {
        if fo[n as usize].is_empty() {
            nw.mark_output(n).expect("valid node");
        }
    }
    nw.validate().expect("generated network is a DAG");
    nw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = CircuitProfile::small("t", 7);
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a.literal_count(), b.literal_count());
        assert_eq!(a.num_signals(), b.num_signals());
        let fa: Vec<_> = a.node_ids().map(|n| a.func(n).clone()).collect();
        let fb: Vec<_> = b.node_ids().map(|n| b.func(n).clone()).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&CircuitProfile::small("t", 1));
        let b = generate(&CircuitProfile::small("t", 2));
        let fa: Vec<_> = a.node_ids().map(|n| a.func(n).clone()).collect();
        let fb: Vec<_> = b.node_ids().map(|n| b.func(n).clone()).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn hits_target_literal_count() {
        let p = CircuitProfile::small("t", 3);
        let nw = generate(&p);
        assert!(nw.literal_count() >= p.target_lc);
        // Overshoot is bounded by one node's worth of literals.
        assert!(nw.literal_count() < p.target_lc + 200);
    }

    #[test]
    fn network_is_valid_dag_with_outputs() {
        let nw = generate(&CircuitProfile::small("t", 11));
        assert!(nw.validate().is_ok());
        assert!(!nw.outputs().is_empty());
    }

    #[test]
    fn planted_kernels_are_extractable() {
        // The whole point: sequential extraction must find real savings.
        let nw = generate(&CircuitProfile::small("t", 5));
        let mut opt = nw.clone();
        let report = pf_core::extract_kernels(&mut opt, &[], &Default::default());
        assert!(
            report.quality_ratio() < 0.9,
            "expected ≥10% reduction, got ratio {}",
            report.quality_ratio()
        );
        assert!(
            pf_network::equivalent_random(&nw, &opt, &Default::default()).unwrap(),
            "extraction must preserve function"
        );
    }

    #[test]
    fn node_references_create_partitionable_graph() {
        let p = CircuitProfile {
            node_ref_prob: 0.5,
            ..CircuitProfile::small("t", 9)
        };
        let nw = generate(&p);
        let g = pf_partition::CircuitGraph::from_network(&nw);
        let edges: usize = (0..g.len()).map(|v| g.neighbors(v).len()).sum();
        assert!(edges > 0, "expected node-to-node edges");
    }
}
