//! Chaos suite: the service under deterministic fault injection.
//!
//! Every test drives a real `Service` (in-process client) with a
//! seeded `FaultPlan` and asserts the robustness contract:
//!
//! * **exactly one answer per accepted job** — client-side outcome
//!   tallies equal the registry's counters at quiescence;
//! * **the balance identity holds** — `submitted = accepted + rejected`
//!   (all rejection reasons, including `quarantined`) and
//!   `accepted = completed + timed_out + failed + drained`;
//! * **the pool self-heals** — after worker-fatal faults the supervisor
//!   returns the pool to configured strength.
//!
//! Fault-site safety (documented in `pf_core::fault`): `panic` rules are
//! only used at `serve:pickup` (kills the worker thread on purpose) and
//! `seq:cover` (caught by the worker's `catch_unwind`); the barrier-
//! synchronized driver (`lshaped:step`) only gets `latency`/`cancel`
//! faults, because a panic inside a barrier group would strand the
//! sibling threads, not exercise recovery.

use parafactor::core::{FaultPlan, FaultRule};
use parafactor::serve::{
    Algorithm, JobOutcome, JobSpec, Rejection, RetryPolicy, Service, ServiceConfig,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Suppresses the default panic hook's stderr spew for injected panics
/// (they are the point of this suite); real panics still print.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // An injected panic in a scoped partition thread re-raises
            // at the scope join as "a scoped thread panicked"; both the
            // original and the re-raise are expected noise here.
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("fault injected"))
                .unwrap_or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .is_some_and(|s| s.contains("a scoped thread panicked"))
                });
            if !injected {
                prev(info);
            }
        }));
    });
}

fn spec(alg: Algorithm, workload: &str) -> JobSpec {
    JobSpec {
        procs: 2,
        ..JobSpec::new(alg, workload)
    }
}

/// Polls until the pool gauge reads `n` live workers (the supervisor
/// heals asynchronously); panics after 10 s.
fn await_pool_strength(client: &parafactor::serve::Client, n: i64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.metrics().workers_alive.load(Ordering::Relaxed) != n {
        assert!(
            Instant::now() < deadline,
            "pool never returned to strength {n} (alive: {})",
            client.metrics().workers_alive.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Client-side outcome tally for comparing against the registry.
#[derive(Debug, Default)]
struct Tally {
    completed: u64,
    timed_out: u64,
    failed: u64,
    drained: u64,
    rejected_full: u64,
    rejected_shutdown: u64,
    rejected_invalid: u64,
    quarantined: u64,
}

impl Tally {
    fn absorb_outcome(&mut self, o: &JobOutcome) {
        match o {
            JobOutcome::Completed(_) => self.completed += 1,
            JobOutcome::TimedOut(_) => self.timed_out += 1,
            JobOutcome::Drained => self.drained += 1,
            JobOutcome::Failed { .. } => self.failed += 1,
        }
    }

    fn absorb_rejection(&mut self, r: &Rejection) {
        match r {
            Rejection::QueueFull { .. } => self.rejected_full += 1,
            Rejection::ShuttingDown => self.rejected_shutdown += 1,
            Rejection::Invalid(_) => self.rejected_invalid += 1,
            Rejection::Quarantined { .. } => self.quarantined += 1,
        }
    }

    fn merge(&mut self, other: &Tally) {
        self.completed += other.completed;
        self.timed_out += other.timed_out;
        self.failed += other.failed;
        self.drained += other.drained;
        self.rejected_full += other.rejected_full;
        self.rejected_shutdown += other.rejected_shutdown;
        self.rejected_invalid += other.rejected_invalid;
        self.quarantined += other.quarantined;
    }
}

/// Asserts the full contract at quiescence: client tallies equal the
/// registry counters (exactly one answer each) and the balance identity
/// holds on both sides.
fn assert_books_match(client: &parafactor::serve::Client, t: &Tally) {
    let m = client.metrics();
    assert!(m.balanced(), "balance identity broken");
    assert_eq!(m.completed.get(), t.completed, "completed tally");
    assert_eq!(m.timed_out.get(), t.timed_out, "timed_out tally");
    assert_eq!(m.failed.get(), t.failed, "failed tally");
    assert_eq!(m.drained.get(), t.drained, "drained tally");
    assert_eq!(
        m.rejected_full.get(),
        t.rejected_full,
        "rejected_full tally"
    );
    assert_eq!(
        m.rejected_shutdown.get(),
        t.rejected_shutdown,
        "rejected_shutdown tally"
    );
    assert_eq!(
        m.rejected_invalid.get(),
        t.rejected_invalid,
        "rejected_invalid tally"
    );
    assert_eq!(m.quarantined.get(), t.quarantined, "quarantined tally");
    assert_eq!(
        m.submitted.get(),
        m.accepted.get() + m.rejected(),
        "submission side"
    );
}

/// Prices how many `seq:cover` draws a job sequence makes, by running it
/// against a probe plan whose only rule is a zero-cost latency (hits ==
/// draws at probability 1). A second service can then arm an absorber
/// rule capped at exactly that count, landing the *next* fault
/// deterministically on the first cover checkpoint of the following job.
fn price_cover_draws(config: ServiceConfig, jobs: &[JobSpec]) -> u64 {
    let probe =
        Arc::new(FaultPlan::new(1).with_rule(FaultRule::latency_at("seq:cover", Duration::ZERO)));
    let service = Service::start(ServiceConfig {
        fault_plan: Some(Arc::clone(&probe)),
        ..config
    });
    let client = service.client();
    for job in jobs {
        let o = client.submit(job.clone()).expect("accepted").wait();
        assert!(matches!(o, JobOutcome::Completed(_)), "probe job: {o:?}");
    }
    service.shutdown();
    probe.hits("seq:cover")
}

/// A caught panic after a fill. The panicking job answers
/// exactly once (Failed) and admits nothing, its struck fingerprint
/// stays out of the cache on a clean rerun, and the entry filled before
/// the panic keeps serving exact hits.
#[test]
fn panic_after_a_fill_admits_nothing_and_the_entry_still_hits() {
    quiet_injected_panics();
    const FILL: &str = "gen:misex3@0.1";
    const NEXT: &str = "gen:dalu@0.2";
    let config = || ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        poison_threshold: 100,
        ..ServiceConfig::default()
    };
    let fill_draws = price_cover_draws(config(), &[spec(Algorithm::Seq, FILL)]);
    assert!(fill_draws >= 1, "the fill never reached the cover loop");

    // The absorber soaks exactly the fill's draws; the panic then lands
    // on the next job's first cover checkpoint.
    let plan = Arc::new(
        FaultPlan::new(1)
            .with_rule(FaultRule::latency_at("seq:cover", Duration::ZERO).max_hits(fill_draws))
            .with_rule(FaultRule::panic_at("seq:cover").max_hits(1)),
    );
    let service = Service::start(ServiceConfig {
        fault_plan: Some(Arc::clone(&plan)),
        ..config()
    });
    let client = service.client();
    let cache = client.cache().expect("cache enabled by default");
    let mut tally = Tally::default();

    let o = client
        .submit(spec(Algorithm::Seq, FILL))
        .expect("accepted")
        .wait();
    assert!(matches!(o, JobOutcome::Completed(_)), "{o:?}");
    tally.absorb_outcome(&o);
    assert_eq!(cache.len(), 1);

    let o = client
        .submit(spec(Algorithm::Seq, NEXT))
        .expect("accepted")
        .wait();
    assert!(
        matches!(&o, JobOutcome::Failed { message } if message.contains("fault injected")),
        "{o:?}"
    );
    tally.absorb_outcome(&o);
    assert_eq!(cache.len(), 1, "a panicking job admitted a partial entry");

    // The filled entry survived untouched: an exact-hit resubmission
    // replays from the cache — no driver run, no fault draw.
    let o = client
        .submit(spec(Algorithm::Seq, FILL))
        .expect("accepted")
        .wait();
    match &o {
        JobOutcome::Completed(jr) => assert_eq!(jr.report.phases[0].name, "cache"),
        other => panic!("cache-served rerun: {other:?}"),
    }
    tally.absorb_outcome(&o);

    // The panicked workload's rerun misses and runs clean (the panic
    // budget is spent), but its struck fingerprint keeps it out.
    let o = client
        .submit(spec(Algorithm::Seq, NEXT))
        .expect("accepted")
        .wait();
    assert!(matches!(o, JobOutcome::Completed(_)), "{o:?}");
    tally.absorb_outcome(&o);
    assert_eq!(cache.len(), 1);

    service.shutdown();
    assert_books_match(&client, &tally);
    let m = client.metrics();
    assert_eq!(m.panics.get(), 1);
    assert_eq!(
        m.cache_lookups.get(),
        3,
        "the panicked job reports no events"
    );
    assert_eq!(m.cache_hits.get(), 1);
    assert_eq!(m.cache_misses.get(), 2);
    assert_eq!(plan.hits("seq:cover"), fill_draws + 1);
}

/// A panic while a workload is being resolved (`serve:resolve`, inside
/// the job's catch) fails that job alone and leaves no input-memo entry:
/// the next identical submit generates the circuit afresh and completes,
/// and the one after it is served from the memo. The books balance.
#[test]
fn panic_while_resolving_leaves_no_memo_entry() {
    quiet_injected_panics();
    const WORKLOAD: &str = "gen:misex3@0.1";
    let plan =
        Arc::new(FaultPlan::new(1).with_rule(FaultRule::panic_at("serve:resolve").max_hits(1)));
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        poison_threshold: 100,
        fault_plan: Some(Arc::clone(&plan)),
        ..ServiceConfig::default()
    });
    let client = service.client();
    let cache = client.cache().expect("cache enabled by default");
    let mut tally = Tally::default();
    let mut submit = || {
        let o = client
            .submit(spec(Algorithm::Seq, WORKLOAD))
            .expect("accepted")
            .wait();
        tally.absorb_outcome(&o);
        o
    };

    let o = submit();
    assert!(
        matches!(&o, JobOutcome::Failed { message } if message.contains("panic at serve:resolve")),
        "{o:?}"
    );
    assert_eq!(
        cache.memo_len(),
        0,
        "a panicked resolution left a memo entry"
    );
    assert_eq!(cache.len(), 0);

    let o = submit();
    assert!(matches!(o, JobOutcome::Completed(_)), "{o:?}");
    assert_eq!(cache.memo_len(), 1);
    let stats = cache.stats();
    assert_eq!(
        (stats.memo_hits, stats.memo_misses),
        (0, 2),
        "resolved afresh"
    );

    // The memo serves the third submit. The struck fingerprint keeps its
    // results out of the result cache, so it runs again.
    let o = submit();
    assert!(matches!(o, JobOutcome::Completed(_)), "{o:?}");
    assert_eq!(cache.stats().memo_hits, 1);
    assert_eq!(cache.len(), 0);

    service.shutdown();
    assert_books_match(&client, &tally);
    let m = client.metrics();
    assert_eq!(m.panics.get(), 1);
    assert_eq!(plan.hits("serve:resolve"), 1);
    // The panicked job never looked its result up, but its memo miss is
    // counted: the registry's memo counters equal the cache's own.
    assert_eq!(m.cache_memo_misses.get(), 2);
    assert_eq!(m.cache_memo_hits.get(), 1);
    assert_eq!(m.cache_lookups.get(), 2);
    assert_eq!(m.cache_misses.get(), 2);
}

/// Satellite: chaos on the warm-start path. Capacity-1 LRU evicts the
/// first fill's result but keeps its warm hints, so its resubmission
/// takes the warm-started cold path — where an injected cancellation
/// must drain the job without admitting anything.
#[test]
fn cancelled_warm_start_jobs_drain_and_admit_nothing() {
    quiet_injected_panics();
    const A: &str = "gen:misex3@0.05";
    const B: &str = "gen:dalu@0.05";
    let config = || ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        cache_entries: 1,
        ..ServiceConfig::default()
    };
    let fills = [spec(Algorithm::Seq, A), spec(Algorithm::Seq, B)];
    let fill_draws = price_cover_draws(config(), &fills);

    let plan = Arc::new(
        FaultPlan::new(2)
            .with_rule(FaultRule::latency_at("seq:cover", Duration::ZERO).max_hits(fill_draws))
            .with_rule(FaultRule::cancel_at("seq:cover").max_hits(1)),
    );
    let service = Service::start(ServiceConfig {
        fault_plan: Some(Arc::clone(&plan)),
        ..config()
    });
    let client = service.client();
    let cache = client.cache().expect("cache enabled");
    let mut tally = Tally::default();
    for job in fills {
        let o = client.submit(job).expect("accepted").wait();
        assert!(matches!(o, JobOutcome::Completed(_)), "{o:?}");
        tally.absorb_outcome(&o);
    }
    assert_eq!(cache.len(), 1, "capacity-1 LRU holds only the second fill");

    // A's resubmission: exact miss (evicted), warm hints resident — and
    // the first cover checkpoint cancels the run.
    let o = client
        .submit(spec(Algorithm::Seq, A))
        .expect("accepted")
        .wait();
    assert!(matches!(o, JobOutcome::Drained), "{o:?}");
    tally.absorb_outcome(&o);
    assert_eq!(cache.len(), 1, "a drained warm-start run admitted an entry");

    // Rerun A clean (the cancel budget is spent): it must miss — the
    // drained run admitted nothing — then complete and be admitted,
    // because a cancellation is not a poison strike.
    let o = client
        .submit(spec(Algorithm::Seq, A))
        .expect("accepted")
        .wait();
    assert!(matches!(o, JobOutcome::Completed(_)), "{o:?}");
    tally.absorb_outcome(&o);

    service.shutdown();
    assert_books_match(&client, &tally);
    let m = client.metrics();
    assert_eq!(m.drained.get(), 1);
    assert_eq!(m.panics.get(), 0, "cancellation never panics");
    assert_eq!(m.cache_lookups.get(), 4);
    assert_eq!(m.cache_hits.get(), 0, "the drained run left nothing to hit");
    assert_eq!(m.cache_misses.get(), 4);
    assert_eq!(m.cache_warm.get(), 2, "both resubmissions warm-started");
    assert_eq!(m.cache_evictions.get(), 2);
    assert_eq!(cache.len(), 1);
}

#[test]
fn poison_job_kills_workers_quarantines_and_the_pool_heals() {
    quiet_injected_panics();
    // Every pickup of the seq fingerprint panics outside the worker's
    // catch (thread death) — twice, matching the quarantine threshold.
    let plan = FaultPlan::new(0xC0FFEE)
        .with_rule(FaultRule::panic_at("serve:pickup:seq/gen:misex3@0.05").max_hits(2));
    let service = Service::start(ServiceConfig {
        workers: 3,
        queue_capacity: 64,
        fault_plan: Some(Arc::new(plan)),
        poison_threshold: 2,
        ..ServiceConfig::default()
    });
    let client = service.client();
    let mut tally = Tally::default();

    // The poison job: two worker-fatal runs, then the door closes.
    for _ in 0..2 {
        let t = client
            .submit(spec(Algorithm::Seq, "gen:misex3@0.05"))
            .expect("accepted while below threshold");
        let o = t.wait();
        assert!(
            matches!(&o, JobOutcome::Failed { message } if message.contains("died")),
            "worker-fatal run answers failed: {o:?}"
        );
        tally.absorb_outcome(&o);
    }
    for _ in 0..4 {
        match client.submit(spec(Algorithm::Seq, "gen:misex3@0.05")) {
            Err(r @ Rejection::Quarantined { strikes }) => {
                assert_eq!(strikes, 2);
                tally.absorb_rejection(&r);
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }
    // Healthy fingerprints keep completing on the healed pool.
    for _ in 0..6 {
        let t = client
            .submit(spec(Algorithm::Independent, "gen:misex3@0.05"))
            .expect("accepted");
        let o = t.wait();
        assert!(matches!(o, JobOutcome::Completed(_)), "{o:?}");
        tally.absorb_outcome(&o);
    }

    await_pool_strength(&client, 3);
    assert!(
        client.metrics().respawns.get() >= 2,
        "two worker deaths need two respawns"
    );
    service.shutdown();
    assert_books_match(&client, &tally);
    assert_eq!(client.metrics().panics.get(), 2);
}

#[test]
fn caught_driver_panics_fail_structurally_and_spare_the_thread() {
    quiet_injected_panics();
    // seq:cover fires inside the worker's catch_unwind: jobs fail, the
    // thread survives, nothing needs respawning.
    let plan = FaultPlan::new(42).with_rule(
        FaultRule::panic_at("seq:cover")
            .probability(0.5)
            .max_hits(3),
    );
    let service = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        fault_plan: Some(Arc::new(plan)),
        // High threshold: this test wants failures, not quarantine.
        poison_threshold: 100,
        ..ServiceConfig::default()
    });
    let client = service.client();
    let mut tally = Tally::default();
    let tickets: Vec<_> = (0..10)
        .map(|_| {
            client
                .submit(spec(Algorithm::Seq, "gen:misex3@0.05"))
                .expect("accepted")
        })
        .collect();
    for t in tickets {
        tally.absorb_outcome(&t.wait());
    }
    service.shutdown();
    assert_books_match(&client, &tally);
    let m = client.metrics();
    assert_eq!(m.failed.get(), 3, "max_hits caps the injected failures");
    assert_eq!(m.panics.get(), 3);
    assert_eq!(m.respawns.get(), 0, "caught panics never kill the thread");
    assert_eq!(m.completed.get(), 7);
}

#[test]
fn latency_and_cancel_faults_at_barrier_sites_stay_accounted() {
    quiet_injected_panics();
    // Barrier-coupled drivers only get panic-safe fault kinds: latency
    // stretches lshaped steps, cancel drains independent merges.
    let plan = FaultPlan::new(7)
        .with_rule(FaultRule::latency_at("lshaped:step", Duration::from_millis(1)).max_hits(3))
        .with_rule(FaultRule::cancel_at("independent:merge").max_hits(2));
    let plan = Arc::new(plan);
    let service = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        fault_plan: Some(Arc::clone(&plan)),
        ..ServiceConfig::default()
    });
    let client = service.client();
    let mut tally = Tally::default();
    let tickets: Vec<_> = (0..4)
        .map(|_| {
            client
                .submit(spec(Algorithm::Lshaped, "gen:misex3@0.05"))
                .expect("accepted")
        })
        .chain((0..4).map(|_| {
            client
                .submit(spec(Algorithm::Independent, "gen:misex3@0.05"))
                .expect("accepted")
        }))
        .collect();
    for t in tickets {
        tally.absorb_outcome(&t.wait());
    }
    service.shutdown();
    assert_books_match(&client, &tally);
    let m = client.metrics();
    // Exactly two independent jobs hit the injected cancellation.
    assert_eq!(m.drained.get(), 2);
    assert_eq!(m.completed.get(), 6);
    assert_eq!(m.failed.get(), 0, "latency/cancel faults never fail jobs");
    assert!(plan.hits("lshaped:step") >= 1, "latency rule never fired");
    assert_eq!(plan.hits("independent:merge"), 2);
}

#[test]
fn backpressure_retry_absorbs_a_storm() {
    quiet_injected_panics();
    let service = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 2,
        ..ServiceConfig::default()
    });
    let client = service.client();
    let policy = RetryPolicy {
        max_retries: 64,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(20),
        seed: 0xFEED,
    };
    let tally = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let client = client.clone();
                let policy = RetryPolicy {
                    seed: policy.seed ^ i as u64,
                    ..policy.clone()
                };
                s.spawn(move || {
                    let mut t = Tally::default();
                    for _ in 0..5 {
                        let ticket = client
                            .submit_with_retry(spec(Algorithm::Seq, "gen:misex3@0.05"), &policy)
                            .expect("retry rides out a capacity-2 queue");
                        t.absorb_outcome(&ticket.wait());
                    }
                    t
                })
            })
            .collect();
        let mut total = Tally::default();
        for h in handles {
            total.merge(&h.join().unwrap());
        }
        total
    });
    service.shutdown();
    let m = client.metrics();
    assert!(m.balanced());
    assert_eq!(m.completed.get(), 20, "every job eventually ran");
    assert_eq!(tally.completed, 20);
    // Every backpressure bounce was followed by a retry (the final
    // attempt of each job succeeded).
    assert_eq!(m.retries.get(), m.rejected_full.get());
}

#[test]
fn chaos_storm_every_job_answered_exactly_once_and_the_pool_survives() {
    quiet_injected_panics();
    const WORKERS: usize = 3;
    // Mixed plan: worker-fatal pickups for one fingerprint, caught
    // panics in the sequential cover loop, a couple of injected
    // cancellations, and latency jitter on the L-shaped step loop.
    let plan = FaultPlan::new(0xBAD_5EED)
        .with_rule(FaultRule::panic_at("serve:pickup:replicated/gen:misex3@0.06").max_hits(2))
        .with_rule(
            FaultRule::panic_at("seq:cover")
                .probability(0.25)
                .max_hits(4),
        )
        .with_rule(FaultRule::cancel_at("independent:merge").max_hits(2))
        .with_rule(
            FaultRule::latency_at("lshaped:step", Duration::from_millis(1))
                .probability(0.5)
                .max_hits(8),
        );
    let service = Service::start(ServiceConfig {
        workers: WORKERS,
        queue_capacity: 128,
        fault_plan: Some(Arc::new(plan)),
        // Every job here shares one workload, so strikes concentrate on
        // four fingerprints; a tight threshold would quarantine them all
        // after the early panics and starve the later fault sites.
        // Quarantine has its own test — the storm wants jobs flowing.
        poison_threshold: 10,
        ..ServiceConfig::default()
    });
    let client = service.client();
    let algorithms = [
        Algorithm::Seq,
        Algorithm::Replicated,
        Algorithm::Independent,
        Algorithm::Lshaped,
    ];
    let tally = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|thread_idx| {
                let client = client.clone();
                s.spawn(move || {
                    let policy = RetryPolicy {
                        max_retries: 64,
                        base: Duration::from_millis(1),
                        cap: Duration::from_millis(20),
                        seed: 0xACE ^ thread_idx as u64,
                    };
                    let mut t = Tally::default();
                    for j in 0..8 {
                        let alg = algorithms[(thread_idx + j) % algorithms.len()];
                        match client.submit_with_retry(spec(alg, "gen:misex3@0.06"), &policy) {
                            Ok(ticket) => t.absorb_outcome(&ticket.wait()),
                            Err(r) => t.absorb_rejection(&r),
                        }
                    }
                    t
                })
            })
            .collect();
        let mut total = Tally::default();
        for h in handles {
            total.merge(&h.join().unwrap());
        }
        total
    });

    // The contract: the pool is back at configured strength…
    await_pool_strength(&client, WORKERS as i64);
    // …every submission was answered exactly once, and the books close.
    service.shutdown();
    assert_books_match(&client, &tally);
    let m = client.metrics();
    assert_eq!(
        m.submitted.get(),
        32 + m.rejected_full.get(),
        "32 jobs plus retried backpressure bounces"
    );
    assert_eq!(
        m.panics.get(),
        m.failed.get(),
        "every failure in this storm is a panic"
    );
    assert!(
        m.respawns.get() >= 2,
        "both worker-fatal pickups were healed"
    );
    assert_eq!(m.drained.get(), 2, "the two injected cancels drained");
    assert_eq!(
        m.workers_alive.load(Ordering::Relaxed),
        0,
        "shutdown joined every worker"
    );
}
