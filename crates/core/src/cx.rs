//! Common-cube extraction (`gcx`) — the *other* rectangle-cover problem
//! of §2, plus its partitioned parallel variant.
//!
//! The sequential loop mirrors kernel extraction: build the cube–literal
//! matrix, extract the maximum-valued common cube as a new node,
//! rewrite the covered cubes, repeat. The parallel variant applies the
//! paper's Algorithm I decomposition to this cover problem — the
//! conclusion's claim that "our methods can be directly applied …
//! provided the algorithms are formulated in terms of a rectangular
//! cover problem", demonstrated.

use crate::merge::{merge_worker_results, NewNode, WorkerResult};
use crate::report::{ExtractReport, PhaseTiming};
use pf_kcmatrix::CubeLitMatrix;
use pf_network::{Network, SignalId};
use pf_partition::{partition_network, PartitionConfig};
use pf_sop::fx::FxHashMap;
use pf_sop::{Cube, Sop};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Options for [`extract_common_cubes`].
#[derive(Clone, Debug)]
pub struct CubeExtractConfig {
    /// Budget for the pairwise candidate enumeration per pass.
    pub max_pairs: usize,
    /// Hard cap on extractions.
    pub max_extractions: usize,
    /// Name prefix for the extracted cube nodes.
    pub name_prefix: String,
}

impl Default for CubeExtractConfig {
    fn default() -> Self {
        CubeExtractConfig {
            max_pairs: 1 << 20,
            max_extractions: usize::MAX,
            name_prefix: "cx_".to_string(),
        }
    }
}

/// Runs common-cube extraction to completion on `targets` (all internal
/// nodes when empty).
pub fn extract_common_cubes(
    nw: &mut Network,
    targets: &[SignalId],
    cfg: &CubeExtractConfig,
) -> ExtractReport {
    let start = Instant::now();
    let lc_before = nw.literal_count();
    let mut targets: Vec<SignalId> = if targets.is_empty() {
        nw.node_ids().collect()
    } else {
        targets.to_vec()
    };
    let mut report = ExtractReport {
        lc_before,
        ..Default::default()
    };
    let mut counter = 0usize;
    let mut matrix_time = Duration::ZERO;

    while report.extractions < cfg.max_extractions {
        // Rebuild per pass: cube extraction converges in few passes and
        // the matrix is linear in the literal count.
        let build_start = Instant::now();
        let mut m = CubeLitMatrix::new();
        for &t in &targets {
            m.add_node(t, nw.func(t));
        }
        matrix_time += build_start.elapsed();
        let Some(best) = m.best_common_cube(cfg.max_pairs) else {
            break;
        };

        // Extract: X = Π cube; covered cubes become (c \ cube)·X.
        let name = loop {
            let candidate = format!("{}{}", cfg.name_prefix, counter);
            counter += 1;
            if nw.find(&candidate).is_none() {
                break candidate;
            }
        };
        let x = nw
            .add_node(name, Sop::from_cube(best.cube.clone()))
            .expect("fresh name");
        let x_cube = Cube::single(nw.var(x).lit());

        let mut by_node: FxHashMap<SignalId, Vec<Cube>> = FxHashMap::default();
        for &r in &best.rows {
            let row = &m.rows()[r];
            by_node.entry(row.node).or_default().push(row.cube.clone());
        }
        for (node, covered) in by_node {
            let f = nw.func(node);
            let rewritten = f.iter().map(|c| {
                if covered.contains(c) {
                    c.quotient(&best.cube)
                        .expect("support row is divisible")
                        .product(&x_cube)
                        .expect("fresh variable")
                } else {
                    c.clone()
                }
            });
            let f_new = Sop::from_cubes(rewritten);
            nw.set_func(node, f_new).expect("node exists");
        }
        targets.push(x);
        report.extractions += 1;
        report.total_value += best.value;
    }

    report.lc_after = nw.literal_count();
    report.elapsed = start.elapsed();
    report.setup = matrix_time;
    report.phases = vec![
        PhaseTiming::new("matrix", matrix_time),
        PhaseTiming::new("cover", report.elapsed.saturating_sub(matrix_time)),
    ];
    report
}

/// Algorithm I applied to cube extraction: min-cut partition, extract
/// common cubes independently per part, merge.
pub fn independent_extract_cubes(
    nw: &mut Network,
    procs: usize,
    cfg: &CubeExtractConfig,
    pcfg: &PartitionConfig,
) -> ExtractReport {
    let start = Instant::now();
    let p = procs.max(1);
    let lc_before = nw.literal_count();
    let n0 = nw.num_signals() as u32;
    let partition = partition_network(nw, p, pcfg);
    let parts = partition.parts();
    let partition_elapsed = start.elapsed();

    let results: Mutex<Vec<(WorkerResult, ExtractReport)>> = Mutex::new(Vec::new());
    let nw_ref: &Network = nw;
    std::thread::scope(|s| {
        for (pid, part) in parts.iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let results = &results;
            let cfg = cfg.clone();
            s.spawn(move || {
                let mut local = nw_ref.clone();
                let worker_cfg = CubeExtractConfig {
                    name_prefix: format!("p{pid}_{}", cfg.name_prefix),
                    ..cfg
                };
                let rep = extract_common_cubes(&mut local, part, &worker_cfg);
                let block_base = (pid as u32 + 1) * 10_000_000;
                let id_map: FxHashMap<u32, u32> = (n0..local.num_signals() as u32)
                    .map(|id| (id, block_base + (id - n0)))
                    .collect();
                let mut wr = WorkerResult::default();
                for &node in part.iter() {
                    if local.func(node) != nw_ref.func(node) {
                        wr.rewritten
                            .push((node, crate::merge::remap_sop(local.func(node), &id_map)));
                    }
                }
                for id in n0..local.num_signals() as u32 {
                    wr.new_nodes.push(NewNode {
                        worker_id: id_map[&id],
                        name: local.name(id).to_string(),
                        func: crate::merge::remap_sop(local.func(id), &id_map),
                    });
                }
                results.lock().unwrap().push((wr, rep));
            });
        }
    });

    let extract_elapsed = start.elapsed().saturating_sub(partition_elapsed);
    let mut worker_results = Vec::new();
    let mut extractions = 0usize;
    let mut total_value = 0i64;
    for (wr, rep) in results.into_inner().unwrap() {
        worker_results.push(wr);
        extractions += rep.extractions;
        total_value += rep.total_value;
    }
    merge_worker_results(nw, worker_results).expect("disjoint parts merge");
    let elapsed = start.elapsed();
    let merge_elapsed = elapsed.saturating_sub(partition_elapsed + extract_elapsed);

    ExtractReport {
        lc_before,
        lc_after: nw.literal_count(),
        extractions,
        total_value,
        elapsed,
        setup: partition_elapsed,
        phases: vec![
            PhaseTiming::new("partition", partition_elapsed),
            PhaseTiming::new("extract", extract_elapsed),
            PhaseTiming::new("merge", merge_elapsed),
        ],
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_network::example::example_1_1;
    use pf_network::sim::{equivalent_random, EquivConfig};
    use pf_sop::Lit;

    fn sop_of(cubes: &[&[u32]]) -> Sop {
        Sop::from_cubes(
            cubes
                .iter()
                .map(|c| Cube::from_lits(c.iter().map(|&v| Lit::pos(v)))),
        )
    }

    #[test]
    fn extracts_shared_cube_and_preserves_function() {
        // f = abc + abd + e, g = abq: cube ab shared by 3 rows.
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let c = nw.add_input("c").unwrap();
        let d = nw.add_input("d").unwrap();
        let e = nw.add_input("e").unwrap();
        let q = nw.add_input("q").unwrap();
        let f = nw
            .add_node("f", sop_of(&[&[a, b, c], &[a, b, d], &[e]]))
            .unwrap();
        let g = nw.add_node("g", sop_of(&[&[a, b, q]])).unwrap();
        nw.mark_output(f).unwrap();
        nw.mark_output(g).unwrap();
        let original = nw.clone();

        let report = extract_common_cubes(&mut nw, &[], &CubeExtractConfig::default());
        assert_eq!(report.extractions, 1);
        assert_eq!(report.total_value, 1);
        assert_eq!(
            report.lc_before as i64 - report.lc_after as i64,
            report.total_value
        );
        let x = nw.find("cx_0").unwrap();
        assert_eq!(nw.func(x).literal_count(), 2);
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn example_1_1_cube_extraction() {
        // The paper's network has the 2-literal cube "de" in 4 cubes
        // (ade, bde, cde in F and ade, cde in H — per-node cubes count
        // separately): value = n·1 − 2 with n ≥ 4 ⇒ profitable.
        let (mut nw, _) = example_1_1();
        let original = nw.clone();
        let report = extract_common_cubes(&mut nw, &[], &CubeExtractConfig::default());
        assert!(report.extractions >= 1);
        assert!(report.lc_after < report.lc_before);
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
        assert!(nw.validate().is_ok());
    }

    #[test]
    fn no_shared_cubes_no_extractions() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let f = nw.add_node("f", sop_of(&[&[a, b]])).unwrap();
        nw.mark_output(f).unwrap();
        let report = extract_common_cubes(&mut nw, &[], &CubeExtractConfig::default());
        assert_eq!(report.extractions, 0);
    }

    #[test]
    fn parallel_variant_preserves_function() {
        let (mut nw, _) = example_1_1();
        let original = nw.clone();
        let report = independent_extract_cubes(
            &mut nw,
            2,
            &CubeExtractConfig::default(),
            &PartitionConfig::default(),
        );
        assert!(report.lc_after <= report.lc_before);
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
        assert!(nw.validate().is_ok());
    }

    #[test]
    fn extraction_chains_into_extracted_nodes() {
        // After extracting abc (3 lits), the remaining abd rows still
        // share ab with the new node's body? The new node's own cubes
        // join the matrix via `targets.push(x)` — verify convergence
        // without looping forever.
        let mut nw = Network::new();
        let vars: Vec<u32> = (0..8)
            .map(|i| nw.add_input(format!("v{i}")).unwrap())
            .collect();
        let f = nw
            .add_node(
                "f",
                sop_of(&[
                    &[vars[0], vars[1], vars[2], vars[3]],
                    &[vars[0], vars[1], vars[2], vars[4]],
                    &[vars[0], vars[1], vars[2], vars[5]],
                    &[vars[0], vars[1], vars[6]],
                    &[vars[0], vars[1], vars[7]],
                ]),
            )
            .unwrap();
        nw.mark_output(f).unwrap();
        let original = nw.clone();
        let report = extract_common_cubes(&mut nw, &[], &CubeExtractConfig::default());
        assert!(report.extractions >= 1);
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
    }
}
