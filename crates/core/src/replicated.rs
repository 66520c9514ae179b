//! Algorithm R — parallel kernel extraction with a replicated circuit
//! (paper §3, after ProperMIS \[4\]).
//!
//! Every worker holds its own replica of the network and the full KC
//! matrix. The kernels are generated once: worker `p` of `n` enumerates
//! every `n`-th node's kernels, and every replica builds its matrix from
//! all `n` shares. Concurrency then comes from subdividing the rectangle
//! search: worker `p` explores the rectangles whose **leftmost column**
//! falls in its stripe (Figure 1). After one barrier per pass every
//! replica reads all per-stripe candidates, reduces them to the same
//! canonical wave — so every replica follows the exact sequential search
//! path — and applies that wave to its own copy, all replicas at once.
//! The per-pass barrier and the redundant replica maintenance are the
//! paper's explanation for this algorithm's poor speedup; both are
//! reproduced faithfully here.

use crate::ctl::StopReason;
use crate::report::{ExtractReport, PhaseTiming};
use crate::seq::{drain_wave, end_search_span, Engine, ExtractConfig, KernelShare};
use crate::trace::{Lane, Span};
use pf_kcmatrix::{canonical_top_k, Rectangle};
use pf_network::{Network, SignalId};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Options for [`replicated_extract`].
#[derive(Clone, Debug)]
pub struct ReplicatedConfig {
    /// Number of workers (replicas).
    pub procs: usize,
    /// Extraction options shared by every replica.
    pub extract: ExtractConfig,
    /// Wall-clock deadline; on expiry the run stops after the current
    /// iteration and the report is flagged `timed_out` (the paper's
    /// Table 2 marks such runs "-").
    pub deadline: Option<Duration>,
}

impl Default for ReplicatedConfig {
    fn default() -> Self {
        ReplicatedConfig {
            procs: 2,
            extract: ExtractConfig {
                name_prefix: "rkx_".to_string(),
                ..ExtractConfig::default()
            },
            deadline: None,
        }
    }
}

/// What one replica publishes after its striped search of a pass.
#[derive(Clone, Debug, Default)]
struct Post {
    /// The stripe's canonical top-K (the single best when `topk = 1`).
    rects: Vec<Rectangle>,
    /// The stripe's search ran out of budget.
    exhausted: bool,
    /// Why this replica wants the cover to end here, if it does.
    stop: Option<StopReason>,
}

/// The pass's global wave: the canonical top-`k` of every stripe's list.
/// Every global top-`k` member is in its own stripe's list, so this is
/// independent of the stripe count. Mirrors "the processor which owns the
/// root of the search tree identifies the best rectangle and broadcasts
/// it", except that every replica is that processor.
fn global_wave(posts: &[Post], k: usize) -> Vec<Rectangle> {
    let all: Vec<Rectangle> = posts.iter().flat_map(|p| p.rects.iter().cloned()).collect();
    canonical_top_k(&all, k)
}

/// What the replicas of one run share.
struct Run<'a> {
    cfg: &'a ReplicatedConfig,
    nw: &'a Network,
    targets: Vec<SignalId>,
    procs: usize,
    start: Instant,
    barrier: Barrier,
    /// `shares[pid]`: worker `pid`'s kernel generation share.
    shares: Vec<OnceLock<KernelShare>>,
    /// Per-pass posts, double-buffered by pass parity: a replica can
    /// write pass n + 1's post while a slower one still reads pass n's,
    /// but not pass n + 2's before everyone is past pass n + 1's barrier.
    posts: [Mutex<Vec<Post>>; 2],
}

/// Runs Algorithm R on the network, in place. Returns the report.
pub fn replicated_extract(nw: &mut Network, cfg: &ReplicatedConfig) -> ExtractReport {
    let start = Instant::now();
    let lc_before = nw.literal_count();
    let procs = cfg.procs.max(1);
    let run = Run {
        cfg,
        nw,
        targets: nw.node_ids().collect(),
        procs,
        start,
        barrier: Barrier::new(procs),
        shares: (0..procs).map(|_| OnceLock::new()).collect(),
        posts: std::array::from_fn(|_| Mutex::new(vec![Post::default(); procs])),
    };
    let (result, mut report, setup) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..procs)
            .map(|pid| {
                // Lane opened (and the replicate span started) driver-side,
                // so the span covers thread-spawn latency — which the report
                // attributes to the replicate phase too.
                let lane = cfg.extract.trace.lane(&format!("r{pid}"));
                let replicate_span = lane.start("replicate");
                let run = &run;
                s.spawn(move || replica(run, pid, lane, replicate_span))
            })
            .collect();
        let mut outcomes = handles.into_iter().map(|h| h.join().unwrap());
        outcomes.next().expect("worker 0 publishes its replica")
    });

    *nw = result;
    let elapsed = start.elapsed();
    report.lc_before = lc_before;
    report.lc_after = nw.literal_count();
    report.elapsed = elapsed;
    report.setup = setup;
    report.phases = vec![
        PhaseTiming::new("replicate", setup),
        PhaseTiming::new("cover", elapsed.saturating_sub(setup)),
    ];
    report
}

/// Worker `pid`: builds its replica, then runs the striped cover on it.
/// Returns the replica's network, its report (identical on every worker
/// apart from the timings the driver fills in) and its setup time.
fn replica(
    run: &Run,
    pid: usize,
    mut lane: Lane,
    replicate_span: Span,
) -> (Network, ExtractReport, Duration) {
    let cfg = &run.cfg.extract;
    // The replica: full circuit and full matrix per worker. Generation is
    // the §3 parallel scheme, run once: this worker enumerates its share,
    // and every replica merges all shares into the identical matrix.
    let mut nw = run.nw.clone();
    let share = KernelShare::generate(run.nw, &run.targets, &cfg.kernel, pid, run.procs);
    assert!(run.shares[pid].set(share).is_ok(), "one share per worker");
    run.barrier.wait();
    let shares: Vec<&KernelShare> = run.shares.iter().map(|s| s.get().unwrap()).collect();
    let mut engine = Engine::from_shares(&nw, &run.targets, cfg.clone(), &shares);
    // Pre-spawn the replica's search threads (if `search.par_threads ≥
    // 2`) inside the replicate span so no cover pass pays spawn cost. The
    // per-replica stripe is constant, so the pool's cross-pass ceilings
    // stay valid between iterations.
    engine.warm_pool();
    lane.end(replicate_span);
    let setup = run.start.elapsed();

    let cover_span = lane.start("cover");
    let mut report = ExtractReport::default();
    let stripe = Some((pid as u32, run.procs as u32));
    loop {
        let pass = lane.start("search");
        let (rects, stats) = engine.search_batch(stripe);
        end_search_span(&mut lane, pass, rects.first(), &stats);
        // Stop checks ride the per-pass barrier. Fault site too, on
        // worker 0 only: inject latency or cancel here (a panic would
        // strand the siblings at the barrier).
        if pid == 0 {
            cfg.ctl.fault_point("replicated:reduce");
        }
        let stop = match run.cfg.deadline {
            Some(d) if run.start.elapsed() > d => Some(StopReason::DeadlineExpired),
            _ => cfg.ctl.stop_reason(),
        };
        let slot = &run.posts[report.passes % 2];
        slot.lock().unwrap()[pid] = Post {
            rects,
            exhausted: stats.budget_exhausted,
            stop,
        };
        run.barrier.wait();
        report.passes += 1;
        // Every replica reads the same posts, so every replica takes the
        // same decisions from here on.
        let (wave, stop) = {
            let posts = slot.lock().unwrap();
            report.budget_exhausted |= posts.iter().any(|p| p.exhausted);
            let stop = posts.iter().find_map(|p| p.stop);
            (global_wave(&posts, cfg.search.topk), stop)
        };
        match stop {
            Some(StopReason::DeadlineExpired) => report.timed_out = true,
            Some(StopReason::Cancelled) => report.cancelled = true,
            None => {}
        }
        if stop.is_some() {
            break;
        }
        if drain_wave(&mut engine, &mut nw, wave, &mut lane, &mut report) == 0 {
            break;
        }
    }
    lane.end(cover_span);
    (nw, report, setup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::extract_kernels;
    use pf_network::example::example_1_1;
    use pf_network::sim::{equivalent_random, EquivConfig};

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
        // The per-stripe top-K lists merge to the canonical global
        // top-K (every global member survives its own stripe's list),
        // so the drained batch sequence — and the final network — are
        // identical for any stripe count, and identical to the batched
        // sequential engine. The second circuit is large enough for the
        // replicas to compact their matrices mid-cover: each decides
        // that from its own (replicated) matrix alone, so the row
        // indices of a wave keep naming the same rows on every replica.
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
                let mut engine = Engine::new(&base, &targets, seq_cfg);
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
    fn deadline_flags_timeout() {
        let (mut nw, _) = example_1_1();
        let report = replicated_extract(
            &mut nw,
            &ReplicatedConfig {
                procs: 2,
                deadline: Some(Duration::ZERO),
                ..ReplicatedConfig::default()
            },
        );
        assert!(report.timed_out);
        // Nothing extracted: the deadline fired before the first commit.
        assert_eq!(report.extractions, 0);
        assert_eq!(report.lc_after, report.lc_before);
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

        /// R is the sequential cover run on replicas: for every paper
        /// profile and input labelling, every worker count extracts the
        /// byte-identical network `extract_kernels` does, in the same
        /// passes.
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
                            deadline: None,
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

    fn post(rects: Vec<Rectangle>) -> Post {
        Post {
            rects,
            ..Post::default()
        }
    }

    #[test]
    fn global_wave_is_deterministic_on_ties() {
        let a = Rectangle {
            rows: vec![1, 2],
            cols: vec![0, 3],
            value: 5,
        };
        let b = Rectangle {
            rows: vec![0, 1],
            cols: vec![1, 2],
            value: 5,
        };
        let got1 = global_wave(&[post(vec![a.clone()]), post(vec![b.clone()])], 1);
        let got2 = global_wave(&[post(vec![b.clone()]), post(vec![a.clone()])], 1);
        assert_eq!(got1, got2);
        assert_eq!(got1[0].cols, vec![0, 3]); // smaller cols wins the tie
        assert_eq!(
            global_wave(&[post(vec![b.clone()]), post(vec![a.clone()])], 2),
            vec![a, b]
        );
    }

    #[test]
    fn global_wave_prefers_value() {
        let small = Rectangle {
            rows: vec![0],
            cols: vec![0, 1],
            value: 2,
        };
        let big = Rectangle {
            rows: vec![9],
            cols: vec![8, 9],
            value: 7,
        };
        let posts = [post(vec![small]), post(vec![big.clone()]), post(vec![])];
        assert_eq!(global_wave(&posts, 1), vec![big]);
        assert!(global_wave(&[post(vec![]), post(vec![])], 1).is_empty());
    }
}
