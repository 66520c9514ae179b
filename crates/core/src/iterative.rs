//! Iterative repartitioning — the ProperPART idea ([3] in the paper,
//! De & Banerjee, ICPP'94) layered over Algorithm I.
//!
//! The paper's related-work section: "portions of a circuit are
//! repartitioned and resynthesized along different sets of processors …
//! the overall synthesis quality is significantly improved by this
//! iterative repartitioning and resynthesis approach over the single
//! partitioned approach without any interactions." Each round here runs
//! Algorithm I under a different partitioner seed, then merges the
//! duplicated divisors the partition boundaries created (algebraic
//! resubstitution + sweep). Rectangles invisible under one partition are
//! visible under another, so quality approaches the sequential result
//! while each round stays embarrassingly parallel.
//!
//! Search state: each round's Algorithm-I workers run their own nested
//! `extract_kernels`, so every worker owns a resident `SearchPool` for
//! the round (created in that run's pool phase, dropped with its
//! engine). Rounds re-partition the circuit, so no cross-round search
//! state is carried — only the panel, ceiling and scratch reuse within
//! each round's cover loop.

use crate::independent::{independent_extract, IndependentConfig};
use crate::report::{ExtractReport, PhaseTiming};
use pf_network::resub::resubstitute;
use pf_network::transform::sweep;
use pf_network::Network;
use pf_partition::PartitionConfig;
use std::time::{Duration, Instant};

/// Options for [`iterative_extract`].
#[derive(Clone, Debug)]
pub struct IterativeConfig {
    /// Number of partition/extract/merge rounds.
    pub rounds: usize,
    /// The per-round Algorithm I configuration; the partitioner seed is
    /// varied per round.
    pub inner: IndependentConfig,
}

impl Default for IterativeConfig {
    fn default() -> Self {
        IterativeConfig {
            rounds: 3,
            inner: IndependentConfig::default(),
        }
    }
}

/// Runs `rounds` of repartition → independent extraction → resub/sweep.
pub fn iterative_extract(nw: &mut Network, cfg: &IterativeConfig) -> ExtractReport {
    let mut lane = cfg.inner.extract.trace.lane("iterative");
    let start = Instant::now();
    let lc_before = nw.literal_count();
    let mut extractions = 0usize;
    let mut total_value = 0i64;
    let mut budget_exhausted = false;
    let mut timed_out = false;
    let mut cancelled = false;
    let mut extract_time = Duration::ZERO;

    for round in 0..cfg.rounds.max(1) {
        let mut round_cfg = cfg.inner.clone();
        // A different min-cut seed exposes different cross-boundary
        // rectangles each round.
        round_cfg.partition = PartitionConfig {
            seed: cfg.inner.partition.seed.wrapping_add(round as u64 * 0x9E37),
            ..cfg.inner.partition.clone()
        };
        round_cfg.extract.name_prefix = format!("r{round}_{}", cfg.inner.extract.name_prefix);
        let before_round = nw.literal_count();
        // One driver-level span per round: the nested Algorithm-I run
        // adds its own partition/extract/merge spans on separate lanes.
        let round_span = lane.start("extract");
        let rep = independent_extract(nw, &round_cfg);
        lane.end_with(round_span, || vec![("round", round as i64)]);
        extract_time += rep.elapsed;
        extractions += rep.extractions;
        total_value += rep.total_value;
        budget_exhausted |= rep.budget_exhausted;
        timed_out |= rep.timed_out;
        cancelled |= rep.cancelled;
        // Merge duplicated kernels across the old partition boundary.
        let cleanup_span = lane.start("cleanup");
        let _ = resubstitute(nw);
        let _ = sweep(nw);
        lane.end_with(cleanup_span, || vec![("round", round as i64)]);
        if timed_out || cancelled {
            break; // the shared RunCtl stopped the round early
        }
        if nw.literal_count() >= before_round && rep.extractions == 0 {
            break; // converged
        }
    }

    let elapsed = start.elapsed();
    ExtractReport {
        lc_before,
        lc_after: nw.literal_count(),
        extractions,
        total_value,
        elapsed,
        budget_exhausted,
        timed_out,
        cancelled,
        phases: vec![
            // `extract` is the summed Algorithm-I round time; everything
            // else (resub + sweep between rounds, loop overhead) is the
            // cleanup phase, so the two always cover `elapsed`.
            PhaseTiming::new("extract", extract_time.min(elapsed)),
            PhaseTiming::new("cleanup", elapsed.saturating_sub(extract_time)),
        ],
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{extract_kernels, ExtractConfig};
    use pf_network::example::example_1_1;
    use pf_network::sim::{equivalent_random, EquivConfig};
    use pf_workloads::{generate, profile_by_name, scale_profile, CircuitProfile};

    #[test]
    fn improves_on_single_round_partitioning() {
        // The claim of [3]: iterative repartitioning beats one-shot
        // independent partitioning. Checked on a generated circuit with
        // cross-partition sharing.
        let profile = scale_profile(&profile_by_name("dalu").unwrap(), 0.08);
        let nw = generate(&profile);

        let mut single = nw.clone();
        let one = independent_extract(
            &mut single,
            &IndependentConfig {
                procs: 4,
                ..IndependentConfig::default()
            },
        );
        let mut multi = nw.clone();
        let iter = iterative_extract(
            &mut multi,
            &IterativeConfig {
                rounds: 3,
                inner: IndependentConfig {
                    procs: 4,
                    ..IndependentConfig::default()
                },
            },
        );
        assert!(
            iter.lc_after <= one.lc_after,
            "iterative {} vs single {}",
            iter.lc_after,
            one.lc_after
        );
        assert!(equivalent_random(&nw, &multi, &EquivConfig::default()).unwrap());
        assert!(multi.validate().is_ok());
    }

    #[test]
    fn never_beats_the_sequential_optimum_but_approaches_it() {
        let nw = generate(&CircuitProfile::small("iter", 33));
        let mut seq_nw = nw.clone();
        let seq = extract_kernels(&mut seq_nw, &[], &ExtractConfig::default());
        let mut it_nw = nw.clone();
        let it = iterative_extract(
            &mut it_nw,
            &IterativeConfig {
                rounds: 4,
                inner: IndependentConfig {
                    procs: 3,
                    ..IndependentConfig::default()
                },
            },
        );
        assert!(it.lc_after as f64 >= seq.lc_after as f64 * 0.98);
        assert!(equivalent_random(&nw, &it_nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn converges_and_reports_consistently() {
        let (mut nw, _) = example_1_1();
        let original = nw.clone();
        let rep = iterative_extract(&mut nw, &IterativeConfig::default());
        assert!(rep.lc_after <= rep.lc_before);
        assert!(rep.elapsed.as_nanos() > 0);
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn single_round_equals_algorithm_i_plus_cleanup() {
        let (mut a, _) = example_1_1();
        let (mut b, _) = example_1_1();
        iterative_extract(
            &mut a,
            &IterativeConfig {
                rounds: 1,
                inner: IndependentConfig {
                    procs: 2,
                    ..IndependentConfig::default()
                },
            },
        );
        independent_extract(
            &mut b,
            &IndependentConfig {
                procs: 2,
                ..IndependentConfig::default()
            },
        );
        let _ = resubstitute(&mut b);
        let _ = sweep(&mut b);
        assert_eq!(a.literal_count(), b.literal_count());
    }
}
