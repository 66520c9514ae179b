//! The resident service: bounded queue + supervised worker pool +
//! metrics + graceful shutdown, behind an in-process [`Client`].
//!
//! Job lifecycle:
//!
//! ```text
//! submit ──► validated ──► queued ──► running ──► completed
//!    │            │           │          │      ├─► timed_out
//!    │            │           │          │      └─► failed (panic)
//!    │            │           └──────────┴─────────► drained (shutdown)
//!    └─► rejected (invalid / quarantined)
//!                             └─► rejected (queue_full / shutting_down)
//! ```
//!
//! Every accepted job is answered exactly once — even if its worker
//! thread dies (see the `supervisor` module); the metrics
//! registry's balance identity (see [`Metrics::balanced`]) is restored
//! whenever the service quiesces. A [`FaultPlan`] attached through
//! [`ServiceConfig::fault_plan`] rides into every job's `RunCtl`, which
//! is how the chaos tests stress all of the above.

use crate::job::{
    admit_knobs, ctl_for, validate_workload, Algorithm, JobOutcome, JobSpec, JobTimeline, Rejection,
};
use crate::metrics::Metrics;
use crate::queue::{BoundedQueue, PushError};
use crate::retry::RetryPolicy;
use crate::supervisor::{self, SupervisorSignal};
use parking_lot::Mutex;
use pf_cache::{CacheConfig, ExtractionCache};
use pf_core::{FaultPlan, RunCtl};
use pf_kcmatrix::Digest;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How many finished-job timelines the service keeps for the `trace`
/// verb (a bounded ring: oldest entries fall off).
pub const TIMELINE_CAPACITY: usize = 64;

/// Service construction options.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Bounded queue capacity (backpressure beyond this).
    pub queue_capacity: usize,
    /// Hard cap on per-job `procs`; jobs asking for more are clamped.
    /// Defaults to `std::thread::available_parallelism()`.
    pub max_procs: usize,
    /// Fault plan attached to every job's `RunCtl` (chaos testing).
    /// `None` — the default — keeps the fault plane a no-op.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Panic strikes (caught or worker-fatal) a job fingerprint may
    /// accumulate before further submissions are quarantined.
    pub poison_threshold: u32,
    /// Capacity of the shared extraction cache (results memoized by
    /// content digest; exact resubmissions replay without re-running).
    /// `0` disables caching — and with it `delta_from` submissions.
    pub cache_entries: usize,
    /// Optional time-to-live for cached results; an expired entry counts
    /// as a miss and an eviction. `None` (the default) keeps entries
    /// until LRU pressure evicts them.
    pub cache_ttl: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            max_procs: default_max_procs(),
            fault_plan: None,
            poison_threshold: 2,
            cache_entries: 64,
            cache_ttl: None,
        }
    }
}

/// The host's available parallelism (1 if unknown).
pub fn default_max_procs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Validates a processor count against a cap: zero is a structured
/// error, oversized requests are clamped to the cap. Shared by the
/// service and the CLI so both speak the same rule.
pub fn validate_procs(procs: usize, max: usize) -> Result<usize, String> {
    if procs == 0 {
        return Err("procs must be at least 1".to_string());
    }
    Ok(procs.min(max.max(1)))
}

pub(crate) struct QueuedJob {
    pub(crate) id: u64,
    pub(crate) spec: JobSpec,
    pub(crate) ctl: RunCtl,
    pub(crate) accepted_at: Instant,
    pub(crate) responder: mpsc::Sender<JobOutcome>,
}

pub(crate) struct Inner {
    pub(crate) queue: BoundedQueue<QueuedJob>,
    pub(crate) metrics: Metrics,
    /// RunCtl of every currently executing job, so `shutdown_now` can
    /// cancel in-flight work cooperatively.
    pub(crate) in_flight: Mutex<HashMap<u64, RunCtl>>,
    pub(crate) next_id: AtomicU64,
    pub(crate) max_procs: usize,
    /// Configured pool size the supervisor heals back to.
    pub(crate) desired_workers: usize,
    pub(crate) fault_plan: Option<Arc<FaultPlan>>,
    pub(crate) poison_threshold: u32,
    /// Panic strikes per job-fingerprint digest (poison-pill detection).
    /// Keyed by [`JobSpec::poison_key`] — the same canonical digest
    /// machinery the cache keys off, so quarantine, caching, and any
    /// future shard routing agree on a job's identity.
    pub(crate) poison: Mutex<HashMap<Digest, u32>>,
    /// Shared extraction cache; `None` when `cache_entries` was 0.
    pub(crate) cache: Option<Arc<ExtractionCache>>,
    pub(crate) sup: SupervisorSignal,
    /// Ring of the last [`TIMELINE_CAPACITY`] finished-job timelines.
    pub(crate) timelines: Mutex<VecDeque<JobTimeline>>,
}

impl Inner {
    /// Appends a finished job to the timeline ring, evicting the oldest
    /// entry at capacity.
    pub(crate) fn record_timeline(&self, t: JobTimeline) {
        let mut ring = self.timelines.lock();
        if ring.len() == TIMELINE_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(t);
    }

    /// Records one panic strike against a fingerprint digest.
    pub(crate) fn strike(&self, key: Digest) {
        *self.poison.lock().entry(key).or_insert(0) += 1;
    }

    /// Strikes currently on record for a fingerprint digest.
    pub(crate) fn strikes(&self, key: Digest) -> u32 {
        self.poison.lock().get(&key).copied().unwrap_or(0)
    }
}

/// A handle to one submitted job; redeem it with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    /// The service-assigned job id (also echoed over the wire).
    pub id: u64,
    rx: mpsc::Receiver<JobOutcome>,
}

impl Ticket {
    /// Blocks until the job is answered.
    pub fn wait(self) -> JobOutcome {
        self.rx.recv().unwrap_or(JobOutcome::Failed {
            message: "service dropped the job".to_string(),
        })
    }

    /// Blocks up to `timeout`; `None` means still pending.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// A cheap, clonable submission handle (the in-process API).
#[derive(Clone)]
pub struct Client {
    inner: Arc<Inner>,
}

impl Client {
    /// Validates and enqueues a job. Returns a [`Ticket`] on acceptance
    /// or a structured [`Rejection`] (backpressure, shutdown, or bad
    /// spec) — never blocks on a full queue.
    pub fn submit(&self, mut spec: JobSpec) -> Result<Ticket, Rejection> {
        let m = &self.inner.metrics;
        m.submitted.inc();
        if let Err(msg) = self.admit(&mut spec) {
            m.rejected_invalid.inc();
            return Err(Rejection::Invalid(msg));
        }
        let strikes = self.inner.strikes(spec.poison_key());
        if strikes >= self.inner.poison_threshold {
            m.quarantined.inc();
            return Err(Rejection::Quarantined { strikes });
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let mut ctl = ctl_for(&spec);
        if let Some(plan) = &self.inner.fault_plan {
            ctl = ctl.with_faults(Arc::clone(plan));
        }
        let (tx, rx) = mpsc::channel();
        let job = QueuedJob {
            id,
            spec,
            ctl,
            accepted_at: Instant::now(),
            responder: tx,
        };
        match self.inner.queue.push(job) {
            Ok(()) => {
                m.accepted.inc();
                Ok(Ticket { id, rx })
            }
            Err(PushError::Full { capacity }) => {
                m.rejected_full.inc();
                Err(Rejection::QueueFull { capacity })
            }
            Err(PushError::Closed) => {
                m.rejected_shutdown.inc();
                Err(Rejection::ShuttingDown)
            }
        }
    }

    /// The checks a spec passes at the door: workload grammar, procs
    /// (capped at the host), the knobs, and the delta base if any.
    fn admit(&self, spec: &mut JobSpec) -> Result<(), String> {
        validate_workload(&spec.workload)?;
        spec.procs = validate_procs(spec.procs, self.inner.max_procs)?;
        admit_knobs(&mut spec.search, self.inner.max_procs)?;
        match &spec.delta_from {
            Some(base) => self.validate_delta(spec, base),
            None => Ok(()),
        }
    }

    /// Structural checks for a delta submission: seq-only, the cache
    /// must exist, and the base fingerprint must name a valid seq
    /// workload (either `seq/<workload>` or a bare workload spec).
    fn validate_delta(&self, spec: &JobSpec, base: &str) -> Result<(), String> {
        if spec.algorithm != Algorithm::Seq {
            return Err(format!(
                "delta_from requires algorithm seq, not {}",
                spec.algorithm.as_str()
            ));
        }
        if self.inner.cache.is_none() {
            return Err("delta_from requires the cache (cache_entries > 0)".to_string());
        }
        let base_workload = base.strip_prefix("seq/").unwrap_or(base);
        validate_workload(base_workload).map_err(|msg| format!("delta_from base: {msg}"))
    }

    /// [`submit`](Client::submit), retrying *retryable* rejections
    /// (backpressure only — see [`Rejection::retryable`]) with the
    /// policy's exponential backoff + jitter. Terminal rejections and
    /// acceptance return immediately; each sleep-and-retry bumps the
    /// `retries` counter.
    pub fn submit_with_retry(
        &self,
        spec: JobSpec,
        policy: &RetryPolicy,
    ) -> Result<Ticket, Rejection> {
        let mut attempt = 0u32;
        loop {
            match self.submit(spec.clone()) {
                Err(r) if r.retryable() && attempt < policy.max_retries => {
                    self.inner.metrics.retries.inc();
                    std::thread::sleep(policy.backoff(attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.depth()
    }

    /// The metrics registry (live counters).
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The shared extraction cache, when one is configured.
    pub fn cache(&self) -> Option<&ExtractionCache> {
        self.inner.cache.as_deref()
    }

    /// JSON snapshot of the registry plus the live queue depth.
    pub fn metrics_json(&self) -> crate::json::Json {
        self.inner.metrics.to_json(self.inner.queue.depth())
    }

    /// The last `n` finished-job timelines (oldest first), as the JSON
    /// array the `trace` wire verb answers with. `n` is clamped to the
    /// ring capacity ([`TIMELINE_CAPACITY`]).
    pub fn trace_json(&self, n: usize) -> crate::json::Json {
        let ring = self.inner.timelines.lock();
        let skip = ring.len().saturating_sub(n.min(TIMELINE_CAPACITY));
        crate::json::Json::Arr(ring.iter().skip(skip).map(JobTimeline::to_json).collect())
    }
}

/// The running service: owns the supervised worker pool. Create with
/// [`Service::start`], submit through [`Service::client`], stop with
/// [`Service::shutdown`] (drain) or [`Service::shutdown_now`] (abort).
pub struct Service {
    inner: Arc<Inner>,
    /// Shared with the supervisor thread, which reaps and respawns; kept
    /// here too so shutdown can join even if the supervisor never
    /// started.
    pool: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    supervisor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Service {
    /// Spawns the worker pool (and its supervisor) and returns the
    /// service handle. Spawn failures degrade — they are logged, and
    /// the supervisor keeps trying to bring the pool to strength —
    /// rather than panicking.
    pub fn start(cfg: ServiceConfig) -> Service {
        let inner = Arc::new(Inner {
            queue: BoundedQueue::new(cfg.queue_capacity),
            metrics: Metrics::default(),
            in_flight: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            max_procs: cfg.max_procs.max(1),
            desired_workers: cfg.workers.max(1),
            fault_plan: cfg.fault_plan.clone(),
            poison_threshold: cfg.poison_threshold.max(1),
            poison: Mutex::new(HashMap::new()),
            cache: (cfg.cache_entries > 0).then(|| {
                Arc::new(ExtractionCache::new(CacheConfig {
                    entries: cfg.cache_entries,
                    ttl: cfg.cache_ttl,
                }))
            }),
            sup: SupervisorSignal::default(),
            timelines: Mutex::new(VecDeque::with_capacity(TIMELINE_CAPACITY)),
        });
        let pool = Arc::new(Mutex::new(Vec::with_capacity(inner.desired_workers)));
        for i in 0..inner.desired_workers {
            match supervisor::spawn_worker(&inner, i) {
                Ok(h) => pool.lock().push(h),
                Err(e) => eprintln!("pf-serve: {e}"),
            }
        }
        let supervisor = {
            let inner = Arc::clone(&inner);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("pf-serve-supervisor".to_string())
                .spawn(move || supervisor::supervisor_loop(&inner, &pool))
                .map_err(|e| {
                    eprintln!(
                        "pf-serve: {} (pool will not self-heal)",
                        crate::error::ServeError::Spawn {
                            what: "supervisor",
                            source: e,
                        }
                    )
                })
                .ok()
        };
        Service {
            inner,
            pool,
            supervisor: Mutex::new(supervisor),
        }
    }

    /// An in-process submission handle.
    pub fn client(&self) -> Client {
        Client {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Graceful shutdown: stop accepting, let the pool finish everything
    /// already accepted (queued *and* running), then join the supervisor
    /// and the workers. Idempotent.
    pub fn shutdown(&self) {
        self.inner.queue.close();
        self.inner.sup.wake();
        self.join_all();
    }

    /// Abort-style shutdown: stop accepting, answer still-queued jobs as
    /// drained without running them, cooperatively cancel running jobs
    /// (they answer as drained at their next barrier point), then join.
    pub fn shutdown_now(&self) {
        self.inner.queue.close();
        for job in self.inner.queue.drain_now() {
            self.inner.metrics.drained.inc();
            let _ = job.responder.send(JobOutcome::Drained);
        }
        for ctl in self.inner.in_flight.lock().values() {
            ctl.cancel();
        }
        self.inner.sup.wake();
        self.join_all();
    }

    fn join_all(&self) {
        // Supervisor first: it exits once the queue is closed+empty and
        // the pool is reaped, so afterwards the pool Vec is (normally)
        // already drained; anything left joins here.
        if let Some(h) = self.supervisor.lock().take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self.pool.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Don't leak pool threads if the owner forgot to shut down.
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Algorithm, ALGORITHMS};
    use pf_core::FaultRule;

    fn small(alg: Algorithm) -> JobSpec {
        JobSpec {
            procs: 2,
            ..JobSpec::new(alg, "gen:misex3@0.05")
        }
    }

    #[test]
    fn submit_and_complete_every_algorithm() {
        let service = Service::start(ServiceConfig::default());
        let client = service.client();
        let tickets: Vec<_> = ALGORITHMS
            .iter()
            .map(|&alg| client.submit(small(alg)).expect("accepted"))
            .collect();
        for t in tickets {
            match t.wait() {
                JobOutcome::Completed(jr) => assert!(jr.report.lc_after <= jr.report.lc_before),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        service.shutdown();
        assert!(client.metrics().balanced());
        assert_eq!(client.metrics().completed.get(), 4);
    }

    #[test]
    fn zero_procs_is_an_invalid_spec() {
        let service = Service::start(ServiceConfig::default());
        let client = service.client();
        let mut spec = small(Algorithm::Independent);
        spec.procs = 0;
        match client.submit(spec) {
            Err(Rejection::Invalid(msg)) => assert!(msg.contains("procs")),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(client.metrics().rejected_invalid.get(), 1);
        service.shutdown();
        assert!(client.metrics().balanced());
    }

    #[test]
    fn oversized_procs_are_clamped_not_rejected() {
        let service = Service::start(ServiceConfig::default());
        let client = service.client();
        let mut spec = small(Algorithm::Independent);
        spec.procs = 10_000;
        let t = client.submit(spec).expect("clamped, not rejected");
        assert!(matches!(t.wait(), JobOutcome::Completed(_)));
        service.shutdown();
    }

    #[test]
    fn queue_full_rejects_with_backpressure() {
        // One worker, capacity 1: the worker grabs one job, one sits
        // queued, the next submission must bounce.
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let client = service.client();
        let mut accepted = Vec::new();
        let mut rejected = 0;
        for _ in 0..12 {
            match client.submit(small(Algorithm::Seq)) {
                Ok(t) => accepted.push(t),
                Err(Rejection::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(rejected > 0, "burst must overflow a capacity-1 queue");
        for t in accepted {
            t.wait();
        }
        service.shutdown();
        let m = client.metrics();
        assert!(m.balanced());
        assert_eq!(m.rejected_full.get(), rejected);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            ..ServiceConfig::default()
        });
        let client = service.client();
        let tickets: Vec<_> = (0..6)
            .map(|_| client.submit(small(Algorithm::Seq)).expect("accepted"))
            .collect();
        // Graceful: everything accepted still completes.
        service.shutdown();
        for t in tickets {
            assert!(matches!(t.wait(), JobOutcome::Completed(_)));
        }
        let m = client.metrics();
        assert!(m.balanced());
        assert_eq!(m.completed.get(), 6);
        assert_eq!(m.drained.get(), 0);
        // And new submissions bounce with the shutdown reason.
        assert!(matches!(
            client.submit(small(Algorithm::Seq)),
            Err(Rejection::ShuttingDown)
        ));
    }

    #[test]
    fn shutdown_now_drains_without_running() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 32,
            ..ServiceConfig::default()
        });
        let client = service.client();
        // Big enough that the backlog cannot clear before the abort.
        let tickets: Vec<_> = (0..8)
            .map(|_| {
                client
                    .submit(JobSpec {
                        procs: 2,
                        ..JobSpec::new(Algorithm::Lshaped, "gen:dalu@0.3")
                    })
                    .expect("accepted")
            })
            .collect();
        service.shutdown_now();
        let outcomes: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
        assert!(
            outcomes.iter().any(|o| matches!(o, JobOutcome::Drained)),
            "most of the backlog is answered drained: {outcomes:?}"
        );
        let m = client.metrics();
        assert!(m.balanced());
        assert_eq!(
            m.accepted.get(),
            m.completed.get() + m.timed_out.get() + m.failed.get() + m.drained.get()
        );
    }

    #[test]
    fn deadline_job_times_out_without_poisoning_the_pool() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let client = service.client();
        let mut doomed = JobSpec::new(Algorithm::Seq, "gen:dalu@0.3");
        doomed.deadline = Some(Duration::from_millis(1));
        let t1 = client.submit(doomed).expect("accepted");
        let t2 = client.submit(small(Algorithm::Seq)).expect("accepted");
        assert!(matches!(t1.wait(), JobOutcome::TimedOut(_)));
        // The same (only) worker still serves the next job.
        assert!(matches!(t2.wait(), JobOutcome::Completed(_)));
        service.shutdown();
        let m = client.metrics();
        assert!(m.balanced());
        assert_eq!(m.timed_out.get(), 1);
        assert_eq!(m.completed.get(), 1);
    }

    #[test]
    fn invalid_spec_is_rejected_at_the_door() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let client = service.client();
        let bad = JobSpec::new(Algorithm::Seq, "not-a-workload");
        assert!(matches!(client.submit(bad), Err(Rejection::Invalid(_))));
        let ok = client.submit(small(Algorithm::Seq)).expect("accepted");
        assert!(matches!(ok.wait(), JobOutcome::Completed(_)));
        service.shutdown();
        assert!(client.metrics().balanced());
    }

    /// Suppresses the default panic hook's stderr spew for injected
    /// panics; everything else still prints.
    fn quiet_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("fault injected"))
                    .unwrap_or(false);
                if !injected {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn worker_fatal_job_is_answered_quarantined_and_the_pool_heals() {
        quiet_injected_panics();
        // Every pickup of this fingerprint panics *outside* the worker's
        // catch — the thread dies — but only twice (the threshold).
        let plan = FaultPlan::new(7)
            .with_rule(FaultRule::panic_at("serve:pickup:seq/gen:misex3@0.05").max_hits(2));
        let service = Service::start(ServiceConfig {
            workers: 2,
            fault_plan: Some(Arc::new(plan)),
            ..ServiceConfig::default()
        });
        let client = service.client();
        for _ in 0..2 {
            let t = client.submit(small(Algorithm::Seq)).expect("accepted");
            match t.wait() {
                JobOutcome::Failed { message } => assert!(message.contains("died")),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        // Third submission is refused at the door.
        match client.submit(small(Algorithm::Seq)) {
            Err(Rejection::Quarantined { strikes }) => assert_eq!(strikes, 2),
            other => panic!("unexpected {other:?}"),
        }
        // A different fingerprint still completes on the healed pool.
        let t = client
            .submit(small(Algorithm::Independent))
            .expect("accepted");
        assert!(matches!(t.wait(), JobOutcome::Completed(_)));
        // The queue is still open, so the supervisor heals both deaths;
        // give it a bounded moment before asserting.
        let deadline = Instant::now() + Duration::from_secs(5);
        while client.metrics().respawns.get() < 2 {
            assert!(
                Instant::now() < deadline,
                "supervisor never healed the pool"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        service.shutdown();
        let m = client.metrics();
        assert!(m.balanced());
        assert_eq!(m.panics.get(), 2);
        assert_eq!(m.failed.get(), 2);
        assert_eq!(m.quarantined.get(), 1);
    }

    #[test]
    fn caught_panic_strikes_without_killing_the_worker() {
        // seq:cover fires *inside* the worker's catch: the job fails
        // structurally, the thread survives, no respawn is needed.
        let plan = FaultPlan::new(3).with_rule(FaultRule::panic_at("seq:cover").max_hits(2));
        let service = Service::start(ServiceConfig {
            workers: 1,
            fault_plan: Some(Arc::new(plan)),
            poison_threshold: 2,
            ..ServiceConfig::default()
        });
        let client = service.client();
        for _ in 0..2 {
            let t = client.submit(small(Algorithm::Seq)).expect("accepted");
            match t.wait() {
                JobOutcome::Failed { message } => assert!(message.contains("fault injected")),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(matches!(
            client.submit(small(Algorithm::Seq)),
            Err(Rejection::Quarantined { .. })
        ));
        service.shutdown();
        let m = client.metrics();
        assert!(m.balanced());
        assert_eq!(m.panics.get(), 2);
        assert_eq!(m.respawns.get(), 0, "caught panics keep the thread");
    }

    #[test]
    fn injected_cancel_reports_drained() {
        let plan = FaultPlan::new(11).with_rule(FaultRule::cancel_at("seq:cover").max_hits(1));
        let service = Service::start(ServiceConfig {
            workers: 1,
            fault_plan: Some(Arc::new(plan)),
            ..ServiceConfig::default()
        });
        let client = service.client();
        let t = client.submit(small(Algorithm::Seq)).expect("accepted");
        assert!(matches!(t.wait(), JobOutcome::Drained));
        service.shutdown();
        assert!(client.metrics().balanced());
    }

    #[test]
    fn submit_with_retry_rides_out_backpressure() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let client = service.client();
        let policy = RetryPolicy {
            max_retries: 10,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(40),
            seed: 9,
        };
        let mut tickets = Vec::new();
        for _ in 0..8 {
            tickets.push(
                client
                    .submit_with_retry(small(Algorithm::Seq), &policy)
                    .expect("retry absorbs a capacity-1 queue"),
            );
        }
        for t in tickets {
            assert!(matches!(t.wait(), JobOutcome::Completed(_)));
        }
        service.shutdown();
        let m = client.metrics();
        assert!(m.balanced());
        assert_eq!(m.completed.get(), 8);
        // Backpressure definitely happened, and every bounce was retried.
        assert_eq!(m.retries.get(), m.rejected_full.get());
    }

    #[test]
    fn terminal_rejections_are_not_retried() {
        let service = Service::start(ServiceConfig::default());
        let client = service.client();
        let policy = RetryPolicy::default();
        let bad = JobSpec::new(Algorithm::Seq, "not-a-workload");
        assert!(matches!(
            client.submit_with_retry(bad, &policy),
            Err(Rejection::Invalid(_))
        ));
        assert_eq!(client.metrics().retries.get(), 0);
        service.shutdown();
    }

    #[test]
    fn workers_alive_gauge_tracks_the_pool() {
        let service = Service::start(ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        });
        let client = service.client();
        // Spawned threads bump the gauge as they start.
        let deadline = Instant::now() + Duration::from_secs(5);
        while client.metrics().workers_alive.load(Ordering::Relaxed) < 3 {
            assert!(Instant::now() < deadline, "pool never reached strength");
            std::thread::sleep(Duration::from_millis(1));
        }
        service.shutdown();
        assert_eq!(client.metrics().workers_alive.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn timeline_ring_records_outcomes_and_is_bounded() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let client = service.client();
        let tickets: Vec<_> = (0..3)
            .map(|_| client.submit(small(Algorithm::Seq)).expect("accepted"))
            .collect();
        let mut doomed = small(Algorithm::Replicated);
        doomed.deadline = Some(Duration::ZERO);
        let t_doomed = client.submit(doomed).expect("accepted");
        for t in tickets {
            t.wait();
        }
        t_doomed.wait();
        service.shutdown();

        // Asking for more than recorded returns everything, oldest first.
        let crate::json::Json::Arr(all) = client.trace_json(100) else {
            panic!("trace_json must be an array")
        };
        assert_eq!(all.len(), 4);
        for entry in &all[..3] {
            assert_eq!(
                entry.get("status").and_then(crate::json::Json::as_str),
                Some("completed")
            );
            // Completed entries carry the driver's phase breakdown.
            assert!(matches!(
                entry.get("phases"),
                Some(crate::json::Json::Obj(members)) if !members.is_empty()
            ));
        }
        assert_eq!(
            all[3].get("status").and_then(crate::json::Json::as_str),
            Some("timed_out")
        );
        // n clamps the window to the most recent entries.
        let crate::json::Json::Arr(last) = client.trace_json(2) else {
            panic!("trace_json must be an array")
        };
        assert_eq!(last.len(), 2);
        assert_eq!(
            last[1].get("algorithm").and_then(crate::json::Json::as_str),
            Some("replicated")
        );
    }

    #[test]
    fn queue_wait_is_measured() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let client = service.client();
        let tickets: Vec<_> = (0..4)
            .map(|_| client.submit(small(Algorithm::Seq)).expect("accepted"))
            .collect();
        for t in tickets {
            t.wait();
        }
        service.shutdown();
        assert_eq!(client.metrics().queue_wait.count(), 4);
    }
}
