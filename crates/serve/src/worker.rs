//! Job execution: one queued job → one [`JobOutcome`], with panic
//! isolation so a bad job can never take a pool thread down with it.

use crate::job::{resolve_memoized, resolve_workload, Algorithm, JobOutcome, JobReport, JobSpec};
use crate::metrics::Metrics;
use pf_cache::ExtractionCache;
use pf_core::{CacheEvents, CacheHandle, ExtractReport, RunCtl, SearchPool};
use pf_network::Network;
use std::time::Instant;

/// The shared cache plus this job's admission decision, as resolved by
/// the caller (the supervisor clears `admit` once a fingerprint has any
/// poison strikes, so a quarantine-bound job can never seed the cache).
pub struct CacheCtx<'a> {
    /// The service's shared extraction cache.
    pub cache: &'a ExtractionCache,
    /// The registry the input memo's hits and misses are counted in.
    pub metrics: &'a Metrics,
    /// Whether a completed result may be admitted.
    pub admit: bool,
}

/// Runs the extraction a spec describes, observing `ctl` at the
/// driver's barrier points. Blocking; returns the driver's report plus
/// the cache activity it caused.
///
/// `pool` is this worker thread's resident [`SearchPool`] slot: a
/// `Seq` job adopts the pool left by the previous job (warmed threads,
/// retained scratch; the previous job's panel and ceilings are dropped)
/// and hands it back when done. Other algorithms own their pools per run (their engines
/// live on driver-spawned threads), so the slot passes through
/// untouched.
///
/// With a [`CacheCtx`] attached, the workload resolves through the
/// cache's input memo ([`resolve_memoized`]), and the job is keyed by
/// its parameter digest combined with the memoised content digest — two
/// workload strings that generate the same network share entries. The
/// result lookup comes before any input network is built: an exact hit
/// replays the memoized result and builds none; a miss unpacks its
/// input, runs cold (warm-started for `Seq` when hints are resident)
/// and, when admissible, memoizes. Memo entries need no admission
/// check: an input is a pure function of its key, and a panic while it
/// is generated leaves no entry.
pub fn run_extraction(
    spec: &JobSpec,
    ctl: &RunCtl,
    pool: &mut Option<SearchPool>,
    cache: Option<&CacheCtx<'_>>,
) -> Result<(ExtractReport, CacheEvents), String> {
    let (mut nw, input, handle) = match cache {
        None => {
            ctl.fault_point("serve:resolve");
            (resolve_workload(&spec.workload)?, None, None)
        }
        Some(c) => {
            let (input, _) = resolve_memoized(c.cache, c.metrics, &spec.workload, ctl)?;
            let handle = CacheHandle {
                cache: c.cache,
                key: spec.cache_param_digest().combine(input.digest),
                warm_key: input.digest,
                admit: c.admit,
            };
            (Network::new(), Some(input), Some(handle))
        }
    };
    let load = |nw: &mut Network| {
        if let Some(input) = &input {
            *nw = input.network.unpack();
        }
    };

    let extract = spec.extract_config(ctl);
    let trace = extract.trace.clone();
    Ok(match spec.algorithm {
        Algorithm::Seq => {
            pf_core::extract_kernels_cached(&mut nw, load, &[], &extract, pool, handle.as_ref())
        }
        alg => pf_core::run_cached(&mut nw, load, &trace, handle.as_ref(), |nw| {
            alg.run(nw, spec.procs, extract)
        }),
    })
}

/// Runs one job start-to-finish and classifies the outcome. `queue_wait`
/// is how long the job sat queued (measured by the caller, who owns the
/// accept timestamp). Panics inside the extraction are caught and become
/// [`JobOutcome::Failed`].
pub fn execute(spec: &JobSpec, ctl: &RunCtl, queue_wait: std::time::Duration) -> JobOutcome {
    execute_tracked(spec, ctl, queue_wait, &mut None, None).0
}

/// [`execute`], additionally reporting whether the extraction *panicked*
/// (as opposed to failing structurally) — the supervisor uses this to
/// put a poison strike on the job's fingerprint — and what the cache did
/// for the job. A panicking job reports all-zero cache activity; its
/// admission never happened (the cache is filled atomically, after the
/// run completes), so no partial entry can survive the unwind.
pub fn execute_tracked(
    spec: &JobSpec,
    ctl: &RunCtl,
    queue_wait: std::time::Duration,
    pool: &mut Option<SearchPool>,
    cache: Option<&CacheCtx<'_>>,
) -> (JobOutcome, bool, CacheEvents) {
    let started = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_extraction(spec, ctl, pool, cache)
    }));
    let run_time = started.elapsed();
    match result {
        Err(payload) => {
            // The pool may hold workers mid-pass or poisoned state from
            // the unwound job — drop it; the next job starts fresh.
            *pool = None;
            (
                JobOutcome::Failed {
                    message: panic_message(payload),
                },
                true,
                CacheEvents::default(),
            )
        }
        Ok(Err(msg)) => (
            JobOutcome::Failed { message: msg },
            false,
            CacheEvents::default(),
        ),
        Ok(Ok((report, events))) => {
            let jr = JobReport {
                report,
                queue_wait,
                run_time,
            };
            let outcome = if jr.report.cancelled {
                // Shutdown — or an injected cancellation — cancelled the
                // run; either way it drained without a usable result.
                JobOutcome::Drained
            } else if jr.report.timed_out {
                JobOutcome::TimedOut(jr)
            } else {
                JobOutcome::Completed(jr)
            };
            (outcome, false, events)
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ALGORITHMS;
    use pf_kcmatrix::SearchConfig;
    use std::time::Duration;

    #[test]
    fn every_algorithm_completes_a_small_job() {
        for alg in ALGORITHMS {
            let spec = JobSpec {
                procs: 2,
                ..JobSpec::new(alg, "gen:misex3@0.05")
            };
            match execute(&spec, &RunCtl::new(), Duration::ZERO) {
                JobOutcome::Completed(jr) => {
                    assert!(jr.report.lc_after <= jr.report.lc_before, "{alg:?}");
                    assert!(jr.run_time > Duration::ZERO);
                }
                other => panic!("{alg:?}: unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn batched_jobs_complete_and_report_pass_counters() {
        for alg in ALGORITHMS {
            let spec = JobSpec {
                procs: 2,
                search: SearchConfig {
                    topk: 8,
                    ..SearchConfig::default()
                },
                ..JobSpec::new(alg, "gen:misex3@0.05")
            };
            match execute(&spec, &RunCtl::new(), Duration::ZERO) {
                JobOutcome::Completed(jr) => {
                    assert!(jr.report.lc_after <= jr.report.lc_before, "{alg:?}");
                    assert!(jr.report.passes >= 1, "{alg:?}");
                    assert_eq!(
                        jr.report.batch_candidates,
                        jr.report.batch_accepted + jr.report.batch_rejected,
                        "{alg:?}"
                    );
                }
                other => panic!("{alg:?}: unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn expired_deadline_times_out() {
        let spec = JobSpec {
            deadline: Some(Duration::ZERO),
            ..JobSpec::new(Algorithm::Seq, "gen:dalu@0.2")
        };
        let ctl = crate::job::ctl_for(&spec);
        match execute(&spec, &ctl, Duration::ZERO) {
            JobOutcome::TimedOut(jr) => assert_eq!(jr.report.extractions, 0),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn cancelled_job_reports_drained() {
        let ctl = RunCtl::new();
        ctl.cancel();
        let spec = JobSpec::new(Algorithm::Seq, "gen:misex3@0.05");
        match execute(&spec, &ctl, Duration::ZERO) {
            JobOutcome::Drained => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn seq_pooled_jobs_reuse_the_worker_pool() {
        let spec = JobSpec {
            search: SearchConfig {
                par_threads: 2,
                ..SearchConfig::default()
            },
            ..JobSpec::new(Algorithm::Seq, "gen:misex3@0.05")
        };
        let mut pool = None;
        for _ in 0..2 {
            let (outcome, panicked, _) =
                execute_tracked(&spec, &RunCtl::new(), Duration::ZERO, &mut pool, None);
            assert!(!panicked);
            assert!(matches!(outcome, JobOutcome::Completed(_)));
        }
        // Both jobs ran through one pool: its single background worker
        // was spawned by the first job and adopted warm by the second.
        assert_eq!(pool.expect("slot refilled").spawned_threads(), 1);
    }

    #[test]
    fn cached_resubmission_replays_for_every_algorithm() {
        use pf_cache::CacheConfig;
        let cache = ExtractionCache::new(CacheConfig::default());
        let metrics = Metrics::default();
        let ctx = CacheCtx {
            cache: &cache,
            metrics: &metrics,
            admit: true,
        };
        let mut pool = None;
        for alg in ALGORITHMS {
            let spec = JobSpec {
                procs: 2,
                ..JobSpec::new(alg, "gen:misex3@0.05")
            };
            let (cold, out) =
                run_extraction(&spec, &RunCtl::new(), &mut pool, Some(&ctx)).expect("cold run");
            assert_eq!(out.misses, 1, "{alg:?}");
            assert_eq!(out.inserted, 1, "{alg:?}");
            let (hit, out2) =
                run_extraction(&spec, &RunCtl::new(), &mut pool, Some(&ctx)).expect("hit");
            assert_eq!(out2.hits, 1, "{alg:?}");
            assert_eq!(hit.lc_after, cold.lc_after, "{alg:?}");
            assert_eq!(hit.phases.len(), 1, "{alg:?}");
            assert_eq!(hit.phases[0].name, "cache");
        }
        let stats = cache.stats();
        assert!(stats.balanced());
        // One workload: generated once, then served from the memo.
        assert_eq!((stats.memo_misses, stats.memo_hits), (1, 7));
        assert_eq!(metrics.cache_memo_misses.get(), 1);
        assert_eq!(metrics.cache_memo_hits.get(), 7);
        assert_eq!(cache.memo_len(), 1);
    }

    #[test]
    fn bad_workload_fails_structurally() {
        let spec = JobSpec::new(Algorithm::Seq, "gen:nosuch@0.1");
        match execute(&spec, &RunCtl::new(), Duration::ZERO) {
            JobOutcome::Failed { message } => assert!(message.contains("nosuch")),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn panic_is_contained() {
        let spec = JobSpec::new(Algorithm::Seq, "gen:misex3@0.05");
        let outcome = std::panic::catch_unwind(|| {
            // Simulate a panicking job path through the same classifier.
            let result: Result<Result<ExtractReport, String>, _> =
                std::panic::catch_unwind(|| panic!("boom"));
            match result {
                Err(p) => JobOutcome::Failed {
                    message: panic_message(p),
                },
                _ => unreachable!(),
            }
        })
        .expect("outer context survives");
        match outcome {
            JobOutcome::Failed { message } => assert_eq!(message, "boom"),
            other => panic!("unexpected outcome {other:?}"),
        }
        let _ = spec;
    }
}
