//! Algorithm I — kernel extraction on independent circuit partitions
//! (paper §4).
//!
//! A min-cut partitioner slices the circuit into `p` parts — row-wise
//! slices of the conceptual global KC matrix (Figure 2). Each worker
//! extracts kernels from its own part with **no interaction**: rectangles
//! spanning two parts are invisible, and the same kernel may be
//! extracted separately in several parts (Example 4.1's duplicated
//! `a + b`). In exchange the search spaces shrink super-linearly, which
//! is where the paper's super-linear speedups (16.3× on ex1010) come
//! from.

use crate::merge::{merge_worker_results, NewNode, WorkerResult};
use crate::report::{ExtractReport, PhaseTiming};
use crate::seq::{extract_kernels, ExtractConfig};
use pf_network::Network;
use pf_partition::{partition_network, PartitionConfig};
use std::time::Instant;

/// Options for [`independent_extract`].
#[derive(Clone, Debug)]
pub struct IndependentConfig {
    /// Number of partitions / workers.
    pub procs: usize,
    /// Extraction options per worker (the name prefix is extended with
    /// the worker id automatically).
    pub extract: ExtractConfig,
    /// Partitioner options.
    pub partition: PartitionConfig,
}

impl Default for IndependentConfig {
    fn default() -> Self {
        IndependentConfig {
            procs: 2,
            extract: ExtractConfig::default(),
            partition: PartitionConfig::default(),
        }
    }
}

/// Runs Algorithm I on the network, in place.
pub fn independent_extract(nw: &mut Network, cfg: &IndependentConfig) -> ExtractReport {
    // Driver-level lane: partition and merge happen here; the per-worker
    // extract spans come from each worker's nested `extract_kernels`
    // (whose config — and therefore the shared Tracer — is cloned).
    // Opened before the clock so registration cost stays out of phases.
    let mut lane = cfg.extract.trace.lane("independent");
    let start = Instant::now();
    let p = cfg.procs.max(1);
    let lc_before = nw.literal_count();
    let n0 = nw.num_signals() as u32;

    let partition_span = lane.start("partition");
    let partition = partition_network(nw, p, &cfg.partition);
    let parts = partition.parts();
    lane.end_with(partition_span, || vec![("parts", p as i64)]);
    let partition_elapsed = start.elapsed();

    let nw_ref: &Network = nw;
    // Driver-level extract span: brackets spawn + all workers + join, so
    // it matches the report's `extract` phase (worker lanes carry their
    // own nested matrix/cover spans).
    let extract_span = lane.start("extract");
    let results: Vec<(WorkerResult, ExtractReport)> = std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(parts.len());
        for (pid, part) in parts.iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let cfg = &cfg;
            workers.push(s.spawn(move || {
                // Each worker optimizes a full clone but only targets its
                // own part — exactly "each processor independently
                // creates its own KC matrix and performs kernel
                // extraction" on a row slice.
                let mut local = nw_ref.clone();
                let worker_cfg = ExtractConfig {
                    name_prefix: format!("p{pid}_{}", cfg.extract.name_prefix),
                    ..cfg.extract.clone()
                };
                // The nested run owns one resident search for its whole
                // cover loop, warmed in the run's pool phase.
                let report = extract_kernels(&mut local, part, &worker_cfg);
                // Every clone allocates new-node ids from the same point
                // (`n0`), so shift this worker's ids into a private block
                // before the merge sees them.
                let block_base = (pid as u32 + 1) * 10_000_000;
                let id_map: pf_sop::fx::FxHashMap<u32, u32> = (n0..local.num_signals() as u32)
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
                (wr, report)
            }));
        }
        // Joined in pid order, so the merge order — and with it the
        // output — does not depend on which worker finishes first.
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    lane.end_with(extract_span, || vec![("parts", p as i64)]);
    let extract_elapsed = start.elapsed().saturating_sub(partition_elapsed);

    // Between the workers' scope join and the merge: a panic injected
    // here unwinds on the driver thread only (the workers, which also
    // pass the shared handle through `seq:cover`, are already joined).
    cfg.extract.ctl.fault_point("independent:merge");

    let mut worker_results = Vec::new();
    let mut extractions = 0usize;
    let mut total_value = 0i64;
    let mut budget_exhausted = false;
    // Each worker's extract_kernels checks the shared RunCtl itself (the
    // handle inside cfg.extract is cloned, not re-created); a stop in any
    // part marks the whole run.
    let mut timed_out = false;
    let mut cancelled = false;
    let mut passes = 0usize;
    let mut batch_candidates = 0usize;
    let mut batch_accepted = 0usize;
    let mut batch_rejected = 0usize;
    for (wr, rep) in results {
        worker_results.push(wr);
        extractions += rep.extractions;
        total_value += rep.total_value;
        budget_exhausted |= rep.budget_exhausted;
        timed_out |= rep.timed_out;
        cancelled |= rep.cancelled;
        passes += rep.passes;
        batch_candidates += rep.batch_candidates;
        batch_accepted += rep.batch_accepted;
        batch_rejected += rep.batch_rejected;
    }
    // A cancellation that lands between the workers' join and the merge
    // (e.g. injected at `independent:merge`) never reaches a worker
    // report, so fold the shared flag in directly.
    cancelled |= cfg.extract.ctl.is_cancelled();
    let merge_span = lane.start("merge");
    merge_worker_results(nw, worker_results).expect("merge of disjoint parts");
    lane.end(merge_span);
    let elapsed = start.elapsed();
    let merge_elapsed = elapsed.saturating_sub(partition_elapsed + extract_elapsed);

    ExtractReport {
        lc_before,
        lc_after: nw.literal_count(),
        extractions,
        total_value,
        elapsed,
        budget_exhausted,
        shipped_rectangles: 0,
        timed_out,
        cancelled,
        degraded: false,
        recovery_rects: 0,
        passes,
        batch_candidates,
        batch_accepted,
        batch_rejected,
        resub_pairs_considered: 0,
        resub_pairs_divided: 0,
        resub_worklist_rounds: 0,
        setup: partition_elapsed,
        phases: vec![
            PhaseTiming::new("partition", partition_elapsed),
            PhaseTiming::new("extract", extract_elapsed),
            PhaseTiming::new("merge", merge_elapsed),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_network::example::example_1_1;
    use pf_network::sim::{equivalent_random, EquivConfig};

    /// `(profile, labelling, network digest, extractions)` of
    /// [`independent_extract`] at p = 2, over the profiles and
    /// labellings of `seq::tests::GOLDEN`.
    const GOLDEN_P2: [(&str, u64, &str, usize); 18] = [
        ("misex3", 0, "04879cd40fc8cc236449207258ee9f1b", 20),
        ("misex3", 1, "08901b97c2cfc312bd44ef40131f6938", 20),
        ("misex3", 2, "2319485c8be37f63c986c1adb9151285", 20),
        ("dalu", 0, "9c56ece30763f4131c76e1e6d43e94c4", 19),
        ("dalu", 1, "db1f5a46d3513c265f6999236b82cb4a", 19),
        ("dalu", 2, "0b1aa14674d14e8da02d5349111d6747", 19),
        ("des", 0, "b6400789010612b9706901c0405a6e3c", 13),
        ("des", 1, "80895d67e88741bd76d03d814f7b3448", 13),
        ("des", 2, "6595368023274c45aaac2daf9bef9be8", 13),
        ("seq", 0, "883143660f9761eb4931ec61437416ca", 18),
        ("seq", 1, "ca7bff3a2bf7f9af099a76900199b445", 18),
        ("seq", 2, "ab067c40b0964f86151da58f5dfb2776", 18),
        ("spla", 0, "c629bb3369727103b852f844abda4720", 59),
        ("spla", 1, "8a40d1007afdf34e0a42721f885c1dce", 59),
        ("spla", 2, "5419d5bcc3ee39e74c28e214d664004a", 59),
        ("ex1010", 0, "87c9f21d016e10865f25ad30a2a89941", 81),
        ("ex1010", 1, "e3dad0d87e8d2ccee824e1c6ffc32f73", 80),
        ("ex1010", 2, "a719f325d5d17b683bd18730edc791ef", 79),
    ];

    #[test]
    fn p2_reproduces_the_golden_table() {
        crate::seq::tests::assert_driver_golden(&GOLDEN_P2, |nw| {
            independent_extract(
                nw,
                &IndependentConfig {
                    procs: 2,
                    ..IndependentConfig::default()
                },
            )
        });
    }

    #[test]
    fn example_4_1_partition_quality_loss() {
        // With the {F} / {G,H} style 2-way partition the paper reaches 26
        // literals instead of the sequential 22 (our exact cover: 21).
        // The partitioner may pick either orientation; quality must land
        // strictly between the sequential optimum and the initial LC.
        let (mut nw, _) = example_1_1();
        let original = nw.clone();
        let report = independent_extract(
            &mut nw,
            &IndependentConfig {
                procs: 2,
                ..IndependentConfig::default()
            },
        );
        assert_eq!(report.lc_before, 33);
        assert!(report.lc_after < 33, "some extraction must happen");
        assert!(report.lc_after >= 21, "cannot beat the full-matrix optimum");
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
        assert!(nw.validate().is_ok());
    }

    #[test]
    fn single_part_equals_sequential() {
        let (mut a, _) = example_1_1();
        let (mut b, _) = example_1_1();
        let rep_i = independent_extract(
            &mut a,
            &IndependentConfig {
                procs: 1,
                ..IndependentConfig::default()
            },
        );
        let rep_s = extract_kernels(&mut b, &[], &ExtractConfig::default());
        assert_eq!(rep_i.lc_after, rep_s.lc_after);
        assert_eq!(rep_i.extractions, rep_s.extractions);
    }

    #[test]
    fn six_procs_on_three_nodes_works() {
        // More processors than nodes: surplus parts are empty, as when
        // the paper runs 6 CPUs on small circuits.
        let (mut nw, _) = example_1_1();
        let original = nw.clone();
        let report = independent_extract(
            &mut nw,
            &IndependentConfig {
                procs: 6,
                ..IndependentConfig::default()
            },
        );
        assert!(report.lc_after <= report.lc_before);
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn shared_ctl_stops_all_workers() {
        let (mut nw, _) = example_1_1();
        let cfg = IndependentConfig {
            procs: 2,
            ..IndependentConfig::default()
        };
        cfg.extract.ctl.cancel();
        let report = independent_extract(&mut nw, &cfg);
        assert!(report.cancelled);
        assert_eq!(report.extractions, 0);
        assert_eq!(report.lc_after, report.lc_before);
    }

    #[test]
    fn phases_partition_extract_merge() {
        let (mut nw, _) = example_1_1();
        let report = independent_extract(&mut nw, &IndependentConfig::default());
        let names: Vec<&str> = report.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["partition", "extract", "merge"]);
        assert_eq!(report.phase("partition"), Some(report.setup));
    }

    #[test]
    fn new_nodes_carry_worker_prefix() {
        let (mut nw, _) = example_1_1();
        independent_extract(
            &mut nw,
            &IndependentConfig {
                procs: 2,
                ..IndependentConfig::default()
            },
        );
        let any_prefixed = nw
            .node_ids()
            .any(|n| nw.name(n).starts_with("p0_kx_") || nw.name(n).starts_with("p1_kx_"));
        assert!(any_prefixed, "worker-created nodes are namespaced");
    }

    #[test]
    fn quality_ordering_vs_sequential() {
        // Sequential ≤ independent LC on the same circuit (the paper's
        // Table 3 quality degradation).
        let (mut s, _) = example_1_1();
        extract_kernels(&mut s, &[], &ExtractConfig::default());
        for procs in [2usize, 3] {
            let (mut i, _) = example_1_1();
            independent_extract(
                &mut i,
                &IndependentConfig {
                    procs,
                    ..IndependentConfig::default()
                },
            );
            assert!(
                s.literal_count() <= i.literal_count(),
                "procs={procs}: {} vs {}",
                s.literal_count(),
                i.literal_count()
            );
        }
    }
}
