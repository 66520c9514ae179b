//! Embedded metrics registry: atomic counters plus log-bucketed latency
//! histograms, snapshot-able to JSON without stopping the world.
//!
//! The accounting identity the service maintains (and tests assert):
//!
//! ```text
//! submitted = accepted + rejected
//! accepted  = completed + timed_out + failed + drained   (once idle)
//! ```
//!
//! `rejected` splits into `rejected_full` (backpressure),
//! `rejected_shutdown`, `rejected_invalid` and `quarantined` (poison
//! jobs). `drained` counts accepted jobs that shutdown (or an injected
//! cancellation) cancelled before — or while — they ran.
//!
//! Distributed runs add a lease clause:
//!
//! ```text
//! leases_issued = leases_resolved + leases_expired        (once idle)
//! ```
//!
//! with `leases_stolen`, `failovers`, `degraded_jobs`, `recovery_rects`
//! and `stale_results` outside the identity (they describe *how* leases
//! resolved or expired, not whether).
//!
//! The self-healing counters sit outside the identity: `panics` counts
//! panic events (caught or worker-fatal), `respawns` counts workers the
//! supervisor brought back, `retries` counts in-process backpressure
//! retries, and `conn_rejected` counts connections the TCP accept gate
//! turned away; `workers_alive` is the live pool gauge.

use crate::json::Json;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` (folding per-job cache event batches in one step).
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Power-of-two-bucketed latency histogram over microseconds.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` µs (bucket 0 includes
/// zero); 40 buckets cover up to ~12.7 days. Lock-free to record,
/// approximate (within 2×) to quantile.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; Histogram::NUM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    const NUM_BUCKETS: usize = 40;

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        let bucket = (64 - us.max(1).leading_zeros() as usize - 1).min(Self::NUM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Largest sample seen, in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Approximate quantile (upper bound of the bucket holding it,
    /// clamped to the observed maximum), in microseconds. `q` in [0, 1].
    ///
    /// The clamp matters: a raw bucket upper bound (`2^(i+1)`) can exceed
    /// every recorded sample — a snapshot would then report a p50/p99
    /// *above* `max_us`. Clamping to the true maximum keeps every
    /// quantile ≤ `max_us`, and since bucket bounds grow monotonically
    /// with rank the quantiles stay monotone (p50 ≤ p90 ≤ p99 ≤ max).
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let max = self.max_us();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return (1u64 << (i + 1)).min(max);
            }
        }
        max
    }

    /// JSON snapshot: count, mean, p50/p90/p99 (approximate), max.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::u64(self.count())),
            ("mean_us", Json::u64(self.mean_us())),
            ("p50_us", Json::u64(self.quantile_us(0.50))),
            ("p90_us", Json::u64(self.quantile_us(0.90))),
            ("p99_us", Json::u64(self.quantile_us(0.99))),
            ("max_us", Json::u64(self.max_us.load(Ordering::Relaxed))),
        ])
    }
}

/// Per-algorithm run metrics.
#[derive(Debug, Default)]
pub struct AlgorithmMetrics {
    /// Completed runs.
    pub runs: Counter,
    /// Wall-clock of completed runs.
    pub wall: Histogram,
    /// Total literals saved by completed runs.
    pub literals_saved: AtomicI64,
    /// Per-phase wall-clock histograms, keyed by the driver's
    /// `PhaseTiming` names (`matrix`, `cover`, `partition`, …). The lock
    /// is held only to fetch/insert the `Arc`; recording into a
    /// histogram stays lock-free, so `to_json` snapshots can race
    /// concurrent `record_phase` calls.
    phases: Mutex<Vec<(String, Arc<Histogram>)>>,
}

impl AlgorithmMetrics {
    /// The histogram for phase `name`, created on first use. Insertion
    /// order is preserved in snapshots (drivers report phases in
    /// execution order).
    pub fn phase(&self, name: &str) -> Arc<Histogram> {
        let mut phases = self.phases.lock().expect("phase registry poisoned");
        if let Some((_, h)) = phases.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::default());
        phases.push((name.to_string(), Arc::clone(&h)));
        h
    }

    /// Records one phase duration.
    pub fn record_phase(&self, name: &str, d: Duration) {
        self.phase(name).record(d);
    }

    fn to_json(&self) -> Json {
        let phases: Vec<(String, Json)> = self
            .phases
            .lock()
            .expect("phase registry poisoned")
            .iter()
            .map(|(n, h)| (n.clone(), h.to_json()))
            .collect();
        Json::obj([
            ("runs", Json::u64(self.runs.get())),
            ("wall", self.wall.to_json()),
            (
                "literals_saved",
                Json::num(self.literals_saved.load(Ordering::Relaxed) as f64),
            ),
            ("phases", Json::Obj(phases)),
        ])
    }
}

/// The service-wide registry. One instance per [`Service`]; cheap enough
/// to snapshot on every `metrics` request.
///
/// [`Service`]: crate::service::Service
#[derive(Debug, Default)]
pub struct Metrics {
    /// Every submission attempt.
    pub submitted: Counter,
    /// Submissions the queue accepted.
    pub accepted: Counter,
    /// Backpressure rejections (queue at capacity).
    pub rejected_full: Counter,
    /// Rejections because shutdown had begun.
    pub rejected_shutdown: Counter,
    /// Rejections for malformed specs.
    pub rejected_invalid: Counter,
    /// Rejections because the job's fingerprint is quarantined (it
    /// killed workers / panicked repeatedly).
    pub quarantined: Counter,
    /// Jobs that ran to completion.
    pub completed: Counter,
    /// Jobs that hit their deadline.
    pub timed_out: Counter,
    /// Jobs whose worker panicked.
    pub failed: Counter,
    /// Accepted jobs cancelled by shutdown.
    pub drained: Counter,
    /// Time from acceptance to a worker picking the job up.
    pub queue_wait: Histogram,
    /// Panic events: jobs whose extraction panicked (caught) plus
    /// worker threads that died outright.
    pub panics: Counter,
    /// Worker threads (re)spawned by the supervisor after a death.
    pub respawns: Counter,
    /// Backpressure retries performed by the in-process client.
    pub retries: Counter,
    /// Connections the TCP accept gate rejected (overload).
    pub conn_rejected: Counter,
    /// Jobs currently executing (gauge).
    pub in_flight: AtomicI64,
    /// Worker threads currently alive (gauge; the supervisor holds this
    /// at the configured pool size).
    pub workers_alive: AtomicI64,
    /// Resident background search-pool threads across all workers
    /// (gauge; parked between pooled `Seq` jobs, reused warm).
    pub search_pool_threads: AtomicI64,
    /// Extraction-cache lookups (one per cache-eligible job). Satisfies
    /// `cache_lookups == cache_hits + cache_misses`.
    pub cache_lookups: Counter,
    /// Jobs served outright from the extraction cache.
    pub cache_hits: Counter,
    /// Cache-eligible jobs that fell through to a real run.
    pub cache_misses: Counter,
    /// Cache result entries evicted (LRU capacity or TTL expiry).
    pub cache_evictions: Counter,
    /// Cold runs that found warm-start hints and seeded the engine.
    pub cache_warm: Counter,
    /// Workloads served from the cache's input memo (no generation).
    pub cache_memo_hits: Counter,
    /// Workloads the input memo did not hold, generated and memoised.
    pub cache_memo_misses: Counter,
    /// Distributed-coordinator leases created (initial dispatches,
    /// failovers, splits, inline fallbacks). Satisfies
    /// `leases_issued == leases_resolved + leases_expired` at quiescence.
    pub leases_issued: Counter,
    /// Leases that produced the admitted sub-job result.
    pub leases_resolved: Counter,
    /// Leases that expired (deadline, worker death, failed sub-job, or
    /// coordinator wind-down) before resolving.
    pub leases_expired: Counter,
    /// Leases created by splitting a repeatedly-expiring unit in two
    /// (work stealing).
    pub leases_stolen: Counter,
    /// Failover re-dispatches after a lease expiry.
    pub failovers: Counter,
    /// Distributed units abandoned past their retry budget (result
    /// stayed correct at degraded quality).
    pub degraded_jobs: Counter,
    /// Rectangles recovered by boundary-recovery sub-jobs.
    pub recovery_rects: Counter,
    /// Recovery-shard resubstitution rewrites the coordinator dropped at
    /// merge time (claim conflict between shards, or a cycle the shard
    /// could not see).
    pub recovery_conflicts: Counter,
    /// Sub-job results that arrived for an inactive lease (late after
    /// expiry, or duplicated in flight) and were ignored.
    pub stale_results: Counter,
    /// Per-algorithm completed-run metrics, indexed by
    /// [`ALGORITHMS`](crate::job::ALGORITHMS) order.
    pub per_algorithm: [AlgorithmMetrics; 4],
}

impl Metrics {
    /// Total rejections, all reasons.
    pub fn rejected(&self) -> u64 {
        self.rejected_full.get()
            + self.rejected_shutdown.get()
            + self.rejected_invalid.get()
            + self.quarantined.get()
    }

    /// The accounting identity; holds exactly when no job is queued or
    /// in flight (e.g. after shutdown, or any quiescent moment). The
    /// cache clause is part of the identity: every cache lookup resolves
    /// to exactly one of hit or miss.
    pub fn balanced(&self) -> bool {
        self.submitted.get() == self.accepted.get() + self.rejected()
            && self.accepted.get()
                == self.completed.get()
                    + self.timed_out.get()
                    + self.failed.get()
                    + self.drained.get()
            && self.cache_lookups.get() == self.cache_hits.get() + self.cache_misses.get()
            && self.leases_issued.get() == self.leases_resolved.get() + self.leases_expired.get()
    }

    /// Folds one distributed run's lease statistics into the registry.
    pub fn record_dist(&self, stats: &pf_core::DistStats) {
        self.leases_issued.add(stats.leases_issued);
        self.leases_resolved.add(stats.leases_resolved);
        self.leases_expired.add(stats.leases_expired);
        self.leases_stolen.add(stats.leases_stolen);
        self.failovers.add(stats.failovers);
        self.degraded_jobs.add(stats.degraded_jobs);
        self.recovery_rects.add(stats.recovery_rects);
        self.recovery_conflicts.add(stats.recovery_conflicts);
        self.stale_results.add(stats.stale_results);
    }

    /// Snapshot as JSON; `queue_depth` is sampled by the caller (the
    /// queue owns that number).
    pub fn to_json(&self, queue_depth: usize) -> Json {
        Json::obj([
            ("submitted", Json::u64(self.submitted.get())),
            ("accepted", Json::u64(self.accepted.get())),
            ("rejected_full", Json::u64(self.rejected_full.get())),
            ("rejected_shutdown", Json::u64(self.rejected_shutdown.get())),
            ("rejected_invalid", Json::u64(self.rejected_invalid.get())),
            ("quarantined", Json::u64(self.quarantined.get())),
            ("completed", Json::u64(self.completed.get())),
            ("timed_out", Json::u64(self.timed_out.get())),
            ("failed", Json::u64(self.failed.get())),
            ("drained", Json::u64(self.drained.get())),
            ("panics", Json::u64(self.panics.get())),
            ("respawns", Json::u64(self.respawns.get())),
            ("retries", Json::u64(self.retries.get())),
            ("conn_rejected", Json::u64(self.conn_rejected.get())),
            ("cache_lookups", Json::u64(self.cache_lookups.get())),
            ("cache_hits", Json::u64(self.cache_hits.get())),
            ("cache_misses", Json::u64(self.cache_misses.get())),
            ("cache_evictions", Json::u64(self.cache_evictions.get())),
            ("cache_warm", Json::u64(self.cache_warm.get())),
            ("cache_memo_hits", Json::u64(self.cache_memo_hits.get())),
            ("cache_memo_misses", Json::u64(self.cache_memo_misses.get())),
            ("leases_issued", Json::u64(self.leases_issued.get())),
            ("leases_resolved", Json::u64(self.leases_resolved.get())),
            ("leases_expired", Json::u64(self.leases_expired.get())),
            ("leases_stolen", Json::u64(self.leases_stolen.get())),
            ("failovers", Json::u64(self.failovers.get())),
            ("degraded_jobs", Json::u64(self.degraded_jobs.get())),
            ("recovery_rects", Json::u64(self.recovery_rects.get())),
            (
                "recovery_conflicts",
                Json::u64(self.recovery_conflicts.get()),
            ),
            ("stale_results", Json::u64(self.stale_results.get())),
            ("queue_depth", Json::u64(queue_depth as u64)),
            (
                "in_flight",
                Json::num(self.in_flight.load(Ordering::Relaxed) as f64),
            ),
            (
                "workers_alive",
                Json::num(self.workers_alive.load(Ordering::Relaxed) as f64),
            ),
            (
                "search_pool_threads",
                Json::num(self.search_pool_threads.load(Ordering::Relaxed) as f64),
            ),
            ("queue_wait", self.queue_wait.to_json()),
            (
                "algorithms",
                Json::Obj(
                    crate::job::ALGORITHMS
                        .iter()
                        .enumerate()
                        .map(|(i, alg)| (alg.as_str().to_string(), self.per_algorithm[i].to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for us in [1u64, 2, 4, 100, 100, 100, 5000, 100_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 8);
        assert!(h.mean_us() > 0);
        // p50 of the multiset lands in the 100 µs bucket → upper bound 128.
        assert_eq!(h.quantile_us(0.5), 128);
        assert!(h.quantile_us(1.0) >= 100_000);
        assert_eq!(h.quantile_us(0.0), 2); // lowest occupied bucket bound
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_us(), 0);
        assert_eq!(h.quantile_us(0.99), 0);
    }

    #[test]
    fn zero_duration_records_into_the_first_bucket() {
        let h = Histogram::default();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        // Bucket 0's upper bound is 2 µs, but the only sample is 0 µs —
        // the clamp keeps the quantile at the observed maximum.
        assert_eq!(h.quantile_us(0.5), 0);
    }

    #[test]
    fn quantiles_never_exceed_the_observed_max() {
        // A single 3 µs sample lands in bucket 1 (upper bound 4 µs);
        // before the clamp every quantile reported 4 > max.
        let h = Histogram::default();
        h.record(Duration::from_micros(3));
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert!(h.quantile_us(q) <= h.max_us(), "q={q}");
        }
        assert_eq!(h.quantile_us(0.99), 3);
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = Histogram::default();
        for us in [1u64, 7, 33, 129, 5000, 70_000, 70_001] {
            h.record(Duration::from_micros(us));
        }
        let qs: Vec<u64> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile_us(q))
            .collect();
        for pair in qs.windows(2) {
            assert!(pair[0] <= pair[1], "quantiles out of order: {qs:?}");
        }
        assert!(*qs.last().unwrap() <= h.max_us());
    }

    #[test]
    fn balance_identity() {
        let m = Metrics::default();
        assert!(m.balanced());
        m.submitted.inc();
        m.accepted.inc();
        assert!(!m.balanced()); // job accepted but unaccounted
        m.completed.inc();
        assert!(m.balanced());
        m.submitted.inc();
        m.rejected_full.inc();
        assert!(m.balanced());
        m.submitted.inc();
        m.accepted.inc();
        m.drained.inc();
        assert!(m.balanced());
        // The cache clause: a lookup must resolve to a hit or a miss.
        m.cache_lookups.inc();
        assert!(!m.balanced());
        m.cache_hits.inc();
        assert!(m.balanced());
        m.cache_lookups.inc();
        m.cache_misses.inc();
        assert!(m.balanced());
        // Evictions, warm seeds and the input memo sit outside the
        // identity.
        m.cache_evictions.inc();
        m.cache_warm.inc();
        m.cache_memo_hits.inc();
        m.cache_memo_misses.inc();
        assert!(m.balanced());
        // The lease clause: every issued lease resolves or expires.
        m.leases_issued.inc();
        assert!(!m.balanced());
        m.leases_resolved.inc();
        assert!(m.balanced());
        m.leases_issued.inc();
        m.leases_expired.inc();
        assert!(m.balanced());
        // Splits / failovers / degradations sit outside the identity.
        m.leases_stolen.inc();
        m.failovers.inc();
        m.degraded_jobs.inc();
        m.recovery_rects.inc();
        m.stale_results.inc();
        assert!(m.balanced());
    }

    #[test]
    fn record_dist_folds_lease_stats() {
        let m = Metrics::default();
        let stats = pf_core::DistStats {
            leases_issued: 4,
            leases_resolved: 3,
            leases_expired: 1,
            leases_stolen: 2,
            failovers: 1,
            degraded_jobs: 0,
            recovery_rects: 5,
            recovery_conflicts: 2,
            stale_results: 1,
        };
        m.record_dist(&stats);
        assert!(m.balanced());
        let j = m.to_json(0);
        assert_eq!(j.get("leases_issued").and_then(Json::as_u64), Some(4));
        assert_eq!(j.get("failovers").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("recovery_rects").and_then(Json::as_u64), Some(5));
        assert_eq!(j.get("recovery_conflicts").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("stale_results").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn cache_counters_appear_in_the_snapshot() {
        let m = Metrics::default();
        m.cache_lookups.inc();
        m.cache_hits.inc();
        let j = m.to_json(0);
        for key in [
            "cache_lookups",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "cache_warm",
            "cache_memo_hits",
            "cache_memo_misses",
        ] {
            assert!(j.get(key).and_then(Json::as_u64).is_some(), "{key}");
        }
        assert_eq!(j.get("cache_hits").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn snapshot_contains_the_schema() {
        let m = Metrics::default();
        m.submitted.inc();
        m.accepted.inc();
        m.completed.inc();
        m.queue_wait.record(Duration::from_micros(42));
        m.per_algorithm[0].runs.inc();
        let j = m.to_json(3);
        assert_eq!(j.get("submitted").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("queue_depth").and_then(Json::as_u64), Some(3));
        let algs = j.get("algorithms").unwrap();
        assert_eq!(
            algs.get("seq").unwrap().get("runs").and_then(Json::as_u64),
            Some(1)
        );
        assert!(algs.get("lshaped").is_some());
        assert_eq!(
            j.get("queue_wait")
                .unwrap()
                .get("count")
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn per_phase_histograms_appear_in_the_snapshot_in_order() {
        let m = Metrics::default();
        let alg = &m.per_algorithm[2]; // independent
        alg.record_phase("partition", Duration::from_micros(10));
        alg.record_phase("extract", Duration::from_micros(500));
        alg.record_phase("merge", Duration::from_micros(20));
        alg.record_phase("extract", Duration::from_micros(700));
        let j = m.to_json(0);
        let phases = j
            .get("algorithms")
            .and_then(|a| a.get("independent"))
            .and_then(|a| a.get("phases"))
            .unwrap();
        let Json::Obj(members) = phases else {
            panic!("phases must be an object")
        };
        let names: Vec<&str> = members.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["partition", "extract", "merge"]);
        assert_eq!(
            phases
                .get("extract")
                .unwrap()
                .get("count")
                .and_then(Json::as_u64),
            Some(2)
        );
        let p99 = phases
            .get("extract")
            .unwrap()
            .get("p99_us")
            .and_then(Json::as_u64)
            .unwrap();
        let max = phases
            .get("extract")
            .unwrap()
            .get("max_us")
            .and_then(Json::as_u64)
            .unwrap();
        assert!(p99 <= max);
    }

    #[test]
    fn snapshots_race_concurrent_records_without_breaking_invariants() {
        // Writers hammer counters + histograms (preserving the balance
        // identity at every step) while a reader snapshots; afterwards
        // the registry must balance and every quantile must respect max.
        let m = Arc::new(Metrics::default());
        std::thread::scope(|s| {
            for t in 0..3usize {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..500u64 {
                        m.submitted.inc();
                        m.accepted.inc();
                        m.completed.inc();
                        let alg = &m.per_algorithm[t % 4];
                        alg.wall.record(Duration::from_micros(i * 37 % 9000));
                        alg.record_phase("extract", Duration::from_micros(i % 300));
                        m.queue_wait.record(Duration::from_micros(i % 50));
                    }
                });
            }
            let m = Arc::clone(&m);
            s.spawn(move || {
                for _ in 0..200 {
                    let j = m.to_json(0);
                    // Snapshots are well-formed mid-flight.
                    assert!(j.get("algorithms").is_some());
                    let q = j.get("queue_wait").unwrap();
                    let p99 = q.get("p99_us").and_then(Json::as_u64).unwrap();
                    let max = q.get("max_us").and_then(Json::as_u64).unwrap();
                    assert!(p99 <= max, "mid-flight snapshot: p99 {p99} > max {max}");
                }
            });
        });
        assert!(m.balanced());
        for alg in &m.per_algorithm {
            let h = alg.phase("extract");
            assert!(h.quantile_us(0.5) <= h.quantile_us(0.99));
            assert!(h.quantile_us(0.99) <= h.max_us());
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Under any random sample set, quantiles are monotone in `q`
        /// and never exceed the observed maximum.
        #[test]
        fn quantiles_monotone_and_bounded(samples in prop::collection::vec(0u64..10_000_000, 1..64)) {
            let h = Histogram::default();
            for &us in &samples {
                h.record(Duration::from_micros(us));
            }
            let true_max = *samples.iter().max().unwrap();
            prop_assert_eq!(h.max_us(), true_max);
            let mut prev = 0u64;
            for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let v = h.quantile_us(q);
                prop_assert!(v >= prev, "q={} gave {} < {}", q, v, prev);
                prop_assert!(v <= true_max, "q={} gave {} > max {}", q, v, true_max);
                prev = v;
            }
        }
    }
}
