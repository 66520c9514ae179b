//! Worker-pool supervision: spawn, watch, respawn.
//!
//! The supervisor thread owns pool healing. Worker threads normally die
//! only when the queue closes and drains; any earlier death is a crash
//! (in practice: a fault-injected panic at the `serve:pickup` site,
//! which models a worker-fatal job). Three guarantees:
//!
//! 1. **Exactly one answer per accepted job.** A [`JobGuard`] is armed
//!    before anything that can unwind past the worker's catch; if the
//!    thread dies mid-job, the guard's `Drop` answers the job as
//!    [`JobOutcome::Failed`] and settles the metrics, so the balance
//!    identity survives the crash.
//! 2. **The pool heals.** Each worker holds an [`AliveGuard`]; its
//!    `Drop` wakes the supervisor, which reaps finished handles and
//!    respawns replacements until the queue is closed and empty.
//! 3. **Poison jobs are remembered.** Every panic — caught or
//!    worker-fatal — puts a strike on the job's fingerprint; once a
//!    fingerprint reaches the configured threshold, further submissions
//!    are rejected as `quarantined` (see [`Rejection::Quarantined`]).
//!
//! [`Rejection::Quarantined`]: crate::job::Rejection::Quarantined

use crate::error::ServeError;
use crate::job::{JobOutcome, JobTimeline};
use crate::service::{Inner, QueuedJob};
use crate::worker;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the supervisor re-checks the pool when nothing wakes it.
const TICK: Duration = Duration::from_millis(25);

/// Wake-up channel from dying workers (and shutdown) to the supervisor.
#[derive(Debug, Default)]
pub(crate) struct SupervisorSignal {
    flag: Mutex<bool>,
    cv: Condvar,
}

impl SupervisorSignal {
    /// Wakes the supervisor out of its tick sleep.
    pub(crate) fn wake(&self) {
        *self.flag.lock() = true;
        self.cv.notify_all();
    }

    /// Sleeps until woken or `timeout` elapses, consuming the wake flag.
    fn wait(&self, timeout: Duration) {
        let mut woken = self.flag.lock();
        if !*woken {
            let _ = self.cv.wait_for(&mut woken, timeout);
        }
        *woken = false;
    }
}

/// Decrements the `workers_alive` gauge and wakes the supervisor when a
/// worker thread exits — normally *or* by panic.
struct AliveGuard<'a> {
    inner: &'a Inner,
}

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.inner
            .metrics
            .workers_alive
            .fetch_sub(1, Ordering::Relaxed);
        self.inner.sup.wake();
    }
}

/// Answers the in-flight job as `Failed` if the worker thread unwinds
/// before `disarm` — the crash equivalent of the normal response path.
struct JobGuard<'a> {
    inner: &'a Inner,
    id: u64,
    fingerprint: String,
    poison_key: pf_kcmatrix::Digest,
    responder: mpsc::Sender<JobOutcome>,
    armed: bool,
}

impl<'a> JobGuard<'a> {
    fn arm(inner: &'a Inner, job: &QueuedJob) -> Self {
        JobGuard {
            inner,
            id: job.id,
            fingerprint: job.spec.fingerprint(),
            poison_key: job.spec.poison_key(),
            responder: job.responder.clone(),
            armed: true,
        }
    }

    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let m = &self.inner.metrics;
        m.panics.inc();
        m.failed.inc();
        self.inner.strike(self.poison_key);
        self.inner.in_flight.lock().remove(&self.id);
        m.in_flight.fetch_sub(1, Ordering::Relaxed);
        let _ = self.responder.send(JobOutcome::Failed {
            message: format!("worker thread died running {}", self.fingerprint),
        });
    }
}

/// Spawns one pool worker. `idx` only names the thread.
pub(crate) fn spawn_worker(inner: &Arc<Inner>, idx: usize) -> Result<JoinHandle<()>, ServeError> {
    let inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("pf-serve-worker-{idx}"))
        .spawn(move || {
            inner.metrics.workers_alive.fetch_add(1, Ordering::Relaxed);
            let _alive = AliveGuard { inner: &inner };
            worker_loop(&inner);
        })
        .map_err(|source| ServeError::Spawn {
            what: "worker",
            source,
        })
}

/// Tracks this worker thread's resident [`pf_core::SearchPool`] and
/// mirrors its background-thread count into the `search_pool_threads`
/// gauge. The `Drop` impl settles the gauge even when the worker thread
/// dies (the pool itself joins its threads on drop).
struct PoolSlot<'a> {
    pool: Option<pf_core::SearchPool>,
    reported: i64,
    metrics: &'a crate::metrics::Metrics,
}

impl PoolSlot<'_> {
    fn sync_gauge(&mut self) {
        let now = self.pool.as_ref().map_or(0, |p| p.bg_threads() as i64);
        self.metrics
            .search_pool_threads
            .fetch_add(now - self.reported, Ordering::Relaxed);
        self.reported = now;
    }
}

impl Drop for PoolSlot<'_> {
    fn drop(&mut self) {
        self.metrics
            .search_pool_threads
            .fetch_sub(self.reported, Ordering::Relaxed);
    }
}

/// The worker body: pop, run, answer, repeat until the queue closes.
fn worker_loop(inner: &Inner) {
    let m = &inner.metrics;
    // One search pool per worker thread, resident across jobs: pooled
    // Seq jobs adopt it (warm threads, retained scratch) and hand it
    // back; the gauge tracks its parked background threads.
    let mut slot = PoolSlot {
        pool: None,
        reported: 0,
        metrics: m,
    };
    while let Some(job) = inner.queue.pop() {
        let queue_wait = job.accepted_at.elapsed();
        m.queue_wait.record(queue_wait);
        m.in_flight.fetch_add(1, Ordering::Relaxed);
        inner.in_flight.lock().insert(job.id, job.ctl.clone());

        let mut guard = JobGuard::arm(inner, &job);
        // Scoped injection site, *outside* the catch below: a `panic`
        // rule here kills the worker thread itself, which is how the
        // chaos tests model a worker-fatal job. Composed only when a
        // plan is attached, so the production path stays allocation-free.
        if job.ctl.has_faults() {
            job.ctl
                .fault_point(&format!("serve:pickup:{}", job.spec.fingerprint()));
        }
        // A fingerprint with any strikes on record may still run (it is
        // quarantined only at the threshold), but its results are never
        // admitted to the cache: a job that panicked once cannot seed
        // entries future submissions would trust.
        let cache_ctx = inner.cache.as_deref().map(|cache| worker::CacheCtx {
            cache,
            metrics: m,
            admit: inner.strikes(job.spec.poison_key()) == 0,
        });
        let (outcome, panicked, cache) = worker::execute_tracked(
            &job.spec,
            &job.ctl,
            queue_wait,
            &mut slot.pool,
            cache_ctx.as_ref(),
        );
        slot.sync_gauge();
        guard.disarm();

        if panicked {
            m.panics.inc();
            inner.strike(job.spec.poison_key());
        }
        m.cache_lookups.add(cache.lookups);
        m.cache_hits.add(cache.hits);
        m.cache_misses.add(cache.misses);
        m.cache_evictions.add(cache.evicted);
        m.cache_warm.add(cache.warm);
        inner.in_flight.lock().remove(&job.id);
        m.in_flight.fetch_sub(1, Ordering::Relaxed);
        match &outcome {
            JobOutcome::Completed(jr) => {
                m.completed.inc();
                let alg = &m.per_algorithm[job.spec.algorithm.index()];
                alg.runs.inc();
                alg.wall.record(jr.run_time);
                alg.literals_saved
                    .fetch_add(jr.report.saved() as i64, Ordering::Relaxed);
                for p in &jr.report.phases {
                    alg.record_phase(p.name, p.elapsed);
                }
            }
            JobOutcome::TimedOut(_) => m.timed_out.inc(),
            JobOutcome::Drained => m.drained.inc(),
            JobOutcome::Failed { .. } => m.failed.inc(),
        }
        inner.record_timeline(timeline_for(&job, queue_wait, &outcome));
        // A client that gave up (dropped the ticket) is fine.
        let _ = job.responder.send(outcome);
    }
}

/// Builds the `trace`-verb timeline entry for a finished job. Jobs that
/// produced a report (completed / timed out) carry its phase breakdown;
/// drained and failed jobs keep an empty one.
fn timeline_for(job: &QueuedJob, queue_wait: Duration, outcome: &JobOutcome) -> JobTimeline {
    let (run_time, phases) = match outcome {
        JobOutcome::Completed(jr) | JobOutcome::TimedOut(jr) => (
            jr.run_time,
            jr.report
                .phases
                .iter()
                .map(|p| (p.name, p.elapsed))
                .collect(),
        ),
        JobOutcome::Drained | JobOutcome::Failed { .. } => (Duration::ZERO, Vec::new()),
    };
    JobTimeline {
        id: job.id,
        algorithm: job.spec.algorithm,
        workload: job.spec.workload.clone(),
        status: outcome.status(),
        queue_wait,
        run_time,
        phases,
    }
}

/// The supervisor body: reap finished workers, respawn while there is
/// (or may yet be) work, exit once the queue is closed+empty and every
/// worker has been joined.
pub(crate) fn supervisor_loop(inner: &Arc<Inner>, pool: &Mutex<Vec<JoinHandle<()>>>) {
    let mut next_idx = inner.desired_workers;
    loop {
        // Reap outside the lock so a stuck join can't block shutdown's
        // own pool access.
        let finished: Vec<JoinHandle<()>> = {
            let mut p = pool.lock();
            let mut reaped = Vec::new();
            let mut i = 0;
            while i < p.len() {
                if p[i].is_finished() {
                    reaped.push(p.remove(i));
                } else {
                    i += 1;
                }
            }
            reaped
        };
        for h in finished {
            let _ = h.join();
        }

        let done = inner.queue.is_closed() && inner.queue.depth() == 0;
        if done {
            if pool.lock().is_empty() {
                return;
            }
        } else {
            // Heal the pool back to configured strength.
            while pool.lock().len() < inner.desired_workers {
                match spawn_worker(inner, next_idx) {
                    Ok(h) => {
                        next_idx += 1;
                        inner.metrics.respawns.inc();
                        pool.lock().push(h);
                    }
                    Err(e) => {
                        // Degraded but alive: try again next tick.
                        eout!("pf-serve: supervisor: {e}");
                        break;
                    }
                }
            }
        }
        inner.sup.wait(TICK);
    }
}
