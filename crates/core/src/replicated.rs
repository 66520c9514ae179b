//! Algorithm R — the rectangle search divided by leftmost column
//! (paper §3, Figure 1, after ProperMIS \[4\]).
//!
//! The paper gives every processor a replica of the circuit and the KC
//! matrix, divides the search by leftmost column, reduces the local
//! bests after a barrier and applies the winner on every replica. The
//! [`SearchPool`](pf_kcmatrix::SearchPool) already divides the search
//! that way on one matrix: its workers take leftmost-column tasks from
//! one queue and prune against one shared bound, and the canonical
//! (value, cols, rows) merge of their lists is the reduction. So R is
//! the sequential cover ([`crate::seq`]) with `procs` search workers;
//! the replicas, the per-pass barrier and the repeated apply are not
//! reproduced.
//!
//! R makes the extractions `seq` makes, in the same passes, at every
//! `procs`, except in a pass the search budget truncates: with two or
//! more workers, whether a pass exceeds the budget depends on when the
//! shared bound arrives, so such a run may differ from `seq` (it stays
//! functionally equivalent). At `procs = 1` it never differs.

use crate::report::{ExtractReport, PhaseTiming};
use crate::seq::{extract_kernels_warm, ExtractConfig};
use pf_network::Network;

/// Options for [`replicated_extract`].
#[derive(Clone, Debug)]
pub struct ReplicatedConfig {
    /// Number of search workers; overrides `extract.search.par_threads`.
    pub procs: usize,
    /// Extraction options; `extract.ctl` stops the run.
    pub extract: ExtractConfig,
}

impl Default for ReplicatedConfig {
    fn default() -> Self {
        ReplicatedConfig {
            procs: 2,
            extract: ExtractConfig {
                name_prefix: "rkx_".to_string(),
                ..ExtractConfig::default()
            },
        }
    }
}

/// Runs Algorithm R on the network, in place. Returns the report.
///
/// Phases: `replicate` (matrix build and search-pool warm-up, also the
/// report's `setup`) and `cover`.
pub fn replicated_extract(nw: &mut Network, cfg: &ReplicatedConfig) -> ExtractReport {
    let mut extract = cfg.extract.clone();
    extract.search.par_threads = cfg.procs.max(1);
    let mut report =
        extract_kernels_warm(nw, &[], &extract, &mut None, None, None, ["replicate"; 2]);
    let cover = report.phases.pop().expect("seq reports its cover phase");
    report.setup = report.phases_total();
    report.phases = vec![PhaseTiming::new("replicate", report.setup), cover];
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::extract_kernels;
    use pf_network::example::example_1_1;
    use pf_network::sim::{equivalent_random, EquivConfig};
    use pf_network::SignalId;
    use std::time::Duration;

    #[test]
    fn matches_sequential_quality_on_example() {
        // Same search path as sequential ⇒ identical result.
        for procs in [1usize, 2, 3, 6] {
            let (mut nw, _) = example_1_1();
            let original = nw.clone();
            let report = replicated_extract(
                &mut nw,
                &ReplicatedConfig {
                    procs,
                    ..ReplicatedConfig::default()
                },
            );
            assert_eq!(report.lc_after, 21, "procs={procs}");
            assert_eq!(report.extractions, 3);
            assert!(!report.timed_out);
            assert!(
                equivalent_random(&original, &nw, &EquivConfig::default()).unwrap(),
                "procs={procs}"
            );
        }
    }

    #[test]
    fn identical_extraction_sequence_to_sequential() {
        let (mut seq_nw, _) = example_1_1();
        let seq_report = extract_kernels(&mut seq_nw, &[], &Default::default());
        let (mut par_nw, _) = example_1_1();
        let par_report = replicated_extract(
            &mut par_nw,
            &ReplicatedConfig {
                procs: 4,
                ..ReplicatedConfig::default()
            },
        );
        assert_eq!(seq_report.lc_after, par_report.lc_after);
        assert_eq!(seq_report.total_value, par_report.total_value);
        assert_eq!(seq_report.extractions, par_report.extractions);
    }

    #[test]
    fn batched_replicated_is_proc_count_invariant() {
        // The pool's top-K is the same list at every worker count, so
        // the drained batch sequence — and the final network — are
        // identical for any `procs`, and identical to the batched
        // sequential engine. The second circuit is large enough for the
        // matrix to be compacted mid-cover.
        let dalu = pf_workloads::profile_by_name("dalu").expect("dalu profile exists");
        for (profile, topk, compacts) in [
            (pf_workloads::CircuitProfile::small("rbatch", 11), 8, false),
            (pf_workloads::scale_profile(&dalu, 0.3), 16, true),
        ] {
            let base = pf_workloads::generate(&profile);
            let mut seq_cfg = crate::seq::ExtractConfig::default();
            seq_cfg.search.topk = topk;
            let mut seq_nw = base.clone();
            let seq_report = extract_kernels(&mut seq_nw, &[], &seq_cfg);
            assert!(seq_report.extractions > 1);
            if compacts {
                let targets: Vec<SignalId> = base.node_ids().collect();
                let mut engine = crate::seq::Engine::new(&base, &targets, seq_cfg);
                let (_, compactions) = crate::seq::stepwise_cover(&mut engine, &mut base.clone());
                assert!(compactions > 0, "{} must compact mid-cover", profile.name);
            }
            for procs in [1usize, 2, 3, 4] {
                let mut cfg = ReplicatedConfig {
                    procs,
                    ..ReplicatedConfig::default()
                };
                cfg.extract.search.topk = topk;
                let mut nw = base.clone();
                let report = replicated_extract(&mut nw, &cfg);
                assert_eq!(report.lc_after, seq_report.lc_after, "procs={procs}");
                assert_eq!(report.total_value, seq_report.total_value);
                assert_eq!(report.extractions, seq_report.extractions);
                assert_eq!(report.passes, seq_report.passes);
                assert_eq!(report.batch_accepted, report.extractions);
                assert!(nw.validate().is_ok());
            }
        }
    }

    #[test]
    fn ctl_deadline_flags_timeout() {
        let (mut nw, _) = example_1_1();
        let mut cfg = ReplicatedConfig {
            procs: 2,
            ..ReplicatedConfig::default()
        };
        cfg.extract.ctl = crate::ctl::RunCtl::with_deadline(Duration::ZERO);
        let report = replicated_extract(&mut nw, &cfg);
        assert!(report.timed_out);
        assert!(!report.cancelled);
        assert_eq!(report.extractions, 0);
    }

    #[test]
    fn ctl_cancel_flags_cancelled() {
        let (mut nw, _) = example_1_1();
        let cfg = ReplicatedConfig {
            procs: 2,
            ..ReplicatedConfig::default()
        };
        cfg.extract.ctl.cancel();
        let report = replicated_extract(&mut nw, &cfg);
        assert!(report.cancelled);
        assert!(!report.timed_out);
        assert_eq!(report.extractions, 0);
        assert_eq!(report.lc_after, report.lc_before);
    }

    #[test]
    fn phases_report_replicate_and_cover() {
        let (mut nw, _) = example_1_1();
        let report = replicated_extract(&mut nw, &ReplicatedConfig::default());
        assert_eq!(report.phases[0].name, "replicate");
        assert_eq!(report.phases[1].name, "cover");
        assert_eq!(report.phase("replicate"), Some(report.setup));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// R is the sequential cover with `procs` search workers: for
        /// every paper profile and input labelling, every worker count
        /// extracts the byte-identical network `extract_kernels` does,
        /// in the same passes.
        #[test]
        fn replicated_is_byte_identical_to_sequential(labelling in 1u64..u64::MAX) {
            use crate::seq::tests::{relabel, PROFILES};
            for (name, scale) in PROFILES {
                let profile = pf_workloads::profile_by_name(name).unwrap();
                let base = pf_workloads::generate(&pf_workloads::scale_profile(&profile, scale));
                let input = relabel(&base, labelling);
                let mut seq_nw = input.clone();
                let seq = extract_kernels(&mut seq_nw, &[], &ExtractConfig::default());
                for procs in [1usize, 2, 3] {
                    let mut nw = input.clone();
                    let r = replicated_extract(
                        &mut nw,
                        &ReplicatedConfig {
                            procs,
                            extract: ExtractConfig::default(),
                        },
                    );
                    proptest::prop_assert_eq!(
                        pf_kcmatrix::network_digest(&nw),
                        pf_kcmatrix::network_digest(&seq_nw),
                        "{} procs {}", name, procs
                    );
                    proptest::prop_assert_eq!(
                        (r.extractions, r.passes, r.batch_candidates, r.batch_accepted),
                        (seq.extractions, seq.passes, seq.batch_candidates, seq.batch_accepted),
                        "{} procs {}", name, procs
                    );
                }
            }
        }
    }
}
