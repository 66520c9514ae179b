//! Distributed Algorithm I — leased partition sub-jobs with failover
//! and degraded-quality boundary recovery.
//!
//! The coordinator partitions the circuit with `pf-partition`, then
//! dispatches each part as a **leased** sub-job over a [`DistTransport`]
//! (in-process worker threads here; `pf-serve`'s TCP front end in
//! `crates/serve`). A lease is a deadline-bounded claim on a unit of
//! work: workers send heartbeats while they run, each heartbeat extends
//! the lease, and a lease whose deadline passes without a result is
//! **expired** and re-dispatched to a surviving worker (failover). A
//! unit that keeps expiring is split in two and re-leased (work
//! stealing), so an oversized partition cannot stall the barrier; a
//! unit that exhausts its attempts runs inline on the coordinator so a
//! distributed run never does worse than the single-process driver.
//!
//! After every partition lands, a **boundary-recovery** stage runs in
//! two sharded, leased phases. The *frontier* phase re-extracts over the
//! nodes the partitioner cut (plus the nodes the partition phase
//! created), split into [`DistConfig::recovery_shards`] disjoint target
//! shards. The *resub* phase then collapses Algorithm I's duplicated
//! factor nodes: the duplicate candidates (frontier ∪ created nodes)
//! are sharded as *divisor* sets, each lease runs a divisor-restricted
//! incremental resubstitution (`pf_network::resub`) against the same
//! merged snapshot, and the coordinator applies the shard rewrites in
//! deterministic lease order (first claim wins, cycle-guarded) before a
//! seeded local fixpoint catches cross-shard chains; a sweep then clears
//! the dead duplicates. Recovery shards ride the same lease machinery as
//! partitions (heartbeats, expiry failover, inline fallback, exactly one
//! admitted result per lease); `recovery_shards = 1` is the legacy
//! serial path. If any recovery shard dies past its retry budget the
//! whole stage aborts: the coordinator keeps the already-correct
//! Algorithm-I-quality result (no resub, no sweep) and records
//! [`ExtractReport::degraded`] instead of failing the job.
//!
//! Recovery is skipped outright — no leases, no resub, no sweep — when
//! the frontier is empty (single effective partition): nothing was cut,
//! so there is nothing to recover.
//!
//! ## Fault sites
//!
//! | site | where |
//! |------|-------|
//! | `dist:pickup:LEASE` | worker pickup, *outside* panic isolation — a `panic` rule kills the worker thread ([`DistEvent::WorkerDied`]) |
//! | `dist:work` | inside a partition sub-job's panic isolation — a `panic` rule fails that lease only |
//! | `dist:recover:frontier` | inside a frontier-recovery shard's panic isolation (a `dist:recover` rule prefix-matches both recovery sites) |
//! | `dist:recover:resub` | inside a resub-recovery shard's panic isolation |
//! | `dist:send:wW` | coordinator → worker W: `drop` loses the job, `dup` dispatches it twice, `stall:MS` delays it |
//! | `dist:recv:wW` | worker W → coordinator: `drop` loses the result, `dup` delivers it twice, `stall:MS` delays it |
//!
//! The coordinator admits at most one result per lease (late or
//! duplicated deliveries are counted as stale and ignored), so every
//! message-plane fault resolves to either a normal completion or an
//! expiry-plus-failover — never a double merge.

use crate::fault::{splitmix64, FaultKind, FaultPlan};
use crate::merge::{merge_worker_results, remap_sop, NewNode, WorkerResult};
use crate::report::{ExtractReport, PhaseTiming};
use crate::seq::{extract_kernels, ExtractConfig};
use pf_network::resub::{resubstitute_scoped, ResubScope};
use pf_network::transform::sweep;
use pf_network::{Network, SignalId};
use pf_partition::{partition_network, Partition, PartitionConfig};
use pf_sop::fx::FxHashMap;
use pf_sop::fx::FxHashSet;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a leased sub-job does with its targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubKind {
    /// Partition extraction: extract kernels from the unit's targets.
    Extract,
    /// Frontier-recovery shard: re-extract over a disjoint slice of the
    /// frontier ∪ created nodes the partition phase left behind.
    Frontier,
    /// Resub-recovery shard: divisor-restricted incremental
    /// resubstitution — `targets` is the shard's divisor set; any node
    /// of the snapshot may be rewritten.
    Resub,
}

impl SubKind {
    /// Whether this kind belongs to the boundary-recovery stage (its
    /// abandonment degrades quality instead of falling back inline).
    pub fn is_recovery(self) -> bool {
        !matches!(self, SubKind::Extract)
    }

    /// The fault-injection site evaluated inside the sub-job's panic
    /// isolation. A `dist:recover` rule prefix-matches both recovery
    /// kinds.
    pub fn fault_site(self) -> &'static str {
        match self {
            SubKind::Extract => "dist:work",
            SubKind::Frontier => "dist:recover:frontier",
            SubKind::Resub => "dist:recover:resub",
        }
    }

    /// Stable wire name (the `sub` op's `kind` field).
    pub fn as_str(self) -> &'static str {
        match self {
            SubKind::Extract => "extract",
            SubKind::Frontier => "frontier",
            SubKind::Resub => "resub",
        }
    }

    /// Parses a wire name back; rejects unknown kinds.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "extract" => Some(SubKind::Extract),
            "frontier" => Some(SubKind::Frontier),
            "resub" => Some(SubKind::Resub),
            _ => None,
        }
    }
}

/// One leased unit of work: extract kernels from (or resubstitute the
/// divisors in) `targets` against a snapshot of the network.
#[derive(Clone)]
pub struct SubJob {
    /// Lease id — unique per dispatch attempt, never reused. Also keys
    /// the sub-job's private new-node id block and name prefix, so a
    /// re-dispatched or split unit can never collide with a stale
    /// attempt in the merge.
    pub lease: u64,
    /// The nodes this unit optimizes (divisors for [`SubKind::Resub`]).
    pub targets: Arc<Vec<SignalId>>,
    /// Snapshot the worker clones and optimizes locally.
    pub base: Arc<Network>,
    /// Extraction options (the name prefix is extended with the lease
    /// id automatically).
    pub extract: ExtractConfig,
    /// What the sub-job does with its targets.
    pub kind: SubKind,
}

impl std::fmt::Debug for SubJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubJob")
            .field("lease", &self.lease)
            .field("targets", &self.targets.len())
            .field("kind", &self.kind)
            .finish()
    }
}

/// What a transport reports back to the coordinator.
#[derive(Clone, Debug)]
pub enum DistEvent {
    /// A sub-job finished; `result` is in the lease's private id space.
    Completed {
        /// The lease the result answers.
        lease: u64,
        /// Worker that ran it.
        worker: usize,
        /// The diff to merge.
        result: Box<WorkerResult>,
        /// The worker-local extraction report.
        report: Box<ExtractReport>,
    },
    /// A sub-job panicked inside the worker's panic isolation.
    Failed {
        /// The lease that failed.
        lease: u64,
        /// Worker that ran it.
        worker: usize,
        /// Panic payload (for logs).
        message: String,
    },
    /// A worker is still executing the lease; extends its deadline.
    Heartbeat {
        /// The lease being worked on.
        lease: u64,
    },
    /// A worker thread died (its leases must fail over).
    WorkerDied {
        /// The dead worker's index.
        worker: usize,
    },
}

/// How the coordinator talks to its workers. Implementations deliver
/// [`SubJob`]s to workers and stream [`DistEvent`]s back.
pub trait DistTransport {
    /// Number of worker slots (dead workers still count).
    fn workers(&self) -> usize;
    /// Whether worker `w` is believed alive.
    fn alive(&self, w: usize) -> bool;
    /// Hands a sub-job to worker `w`. An error means the job was
    /// certainly not delivered (the lease should fail over immediately);
    /// `Ok` means it was *sent* — delivery may still be lost, which the
    /// lease deadline catches.
    fn dispatch(&self, w: usize, job: SubJob) -> Result<(), String>;
    /// Waits up to `timeout` for the next event.
    fn poll(&self, timeout: Duration) -> Option<DistEvent>;
}

/// Counters the coordinator keeps; returned next to the report so
/// `pf-serve` can fold them into its metrics registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Leases created (initial dispatches + failovers + splits + inline
    /// fallbacks).
    pub leases_issued: u64,
    /// Leases that produced the admitted result.
    pub leases_resolved: u64,
    /// Leases that expired (deadline, worker death, failed sub-job, or
    /// run wind-down) before resolving.
    pub leases_expired: u64,
    /// Leases created by splitting a repeatedly-expiring unit in two
    /// (work stealing).
    pub leases_stolen: u64,
    /// Re-dispatches after an expiry (includes inline fallbacks).
    pub failovers: u64,
    /// Units whose optimization was abandoned past the retry budget
    /// (the result stays correct; quality degrades).
    pub degraded_jobs: u64,
    /// Rectangles recovered by the boundary-recovery frontier shards.
    pub recovery_rects: u64,
    /// Results that arrived for a lease no longer active (late after
    /// expiry, or duplicated by the message plane) and were ignored.
    pub stale_results: u64,
    /// Shard rewrites the recovery merge dropped because another shard
    /// already claimed the node or applying them would close a cycle
    /// (the coordinator's seeded fixpoint re-derives what still helps).
    pub recovery_conflicts: u64,
}

impl DistStats {
    /// The lease balance identity: at quiescence every issued lease
    /// either resolved or expired.
    pub fn balanced(&self) -> bool {
        self.leases_issued == self.leases_resolved + self.leases_expired
    }
}

/// Options for [`distributed_extract`].
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Number of partitions (0 = one per transport worker).
    pub parts: usize,
    /// Extraction options for every sub-job (the coordinator's `ctl`
    /// also governs the supervision loop).
    pub extract: ExtractConfig,
    /// Partitioner options.
    pub partition: PartitionConfig,
    /// Lease deadline; each heartbeat re-arms it.
    pub lease_timeout: Duration,
    /// How long one supervision-loop poll blocks.
    pub poll_interval: Duration,
    /// Re-dispatch attempts per unit before giving up on the transport
    /// (partition units then run inline; the recovery unit degrades).
    pub max_attempts: u32,
    /// Attempts after which a multi-target unit is split in two and
    /// re-leased instead of re-dispatched whole.
    pub split_after: u32,
    /// Whether to run the boundary-recovery phase.
    pub recovery: bool,
    /// Recovery shards per recovery phase (0 = one per transport
    /// worker, capped at the host's available parallelism). `1`
    /// reproduces the legacy serial recovery lease.
    pub recovery_shards: usize,
    /// Base backoff before a failover re-dispatch (jittered up to 2x).
    pub retry_backoff: Duration,
    /// Seed for the failover jitter.
    pub seed: u64,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            parts: 0,
            extract: ExtractConfig::default(),
            partition: PartitionConfig::default(),
            lease_timeout: Duration::from_millis(2_000),
            poll_interval: Duration::from_millis(5),
            max_attempts: 3,
            split_after: 2,
            recovery: true,
            recovery_shards: 0,
            retry_backoff: Duration::from_millis(2),
            seed: 0xD15_7EA5E,
        }
    }
}

/// The private new-node id block for a lease. Worker clones allocate
/// new ids from the snapshot's tail; shifting each lease into its own
/// block keeps retried, split, and duplicated attempts collision-free
/// in [`merge_worker_results`].
pub fn block_base_for(lease: u64) -> u32 {
    (lease as u32 % 400 + 1) * 10_000_000
}

/// The nodes the partitioner cut: every node with a neighbor in another
/// part. These are the rows Algorithm I's per-part matrices can't see
/// across, so they are exactly where the dropped rectangles live.
pub fn frontier_nodes(p: &Partition) -> Vec<SignalId> {
    let g = &p.graph;
    let mut out = Vec::new();
    for v in 0..g.len() {
        let pv = p.assignment[v];
        if g.neighbors(v).iter().any(|&(u, _)| p.assignment[u] != pv) {
            out.push(g.signal(v));
        }
    }
    out
}

/// Runs one sub-job the way a worker does: clone the snapshot, run the
/// kind's optimization, and diff the clone back into a [`WorkerResult`]
/// in the lease's private id space. Shared by the in-process transport,
/// the coordinator's inline fallback, and `pf-serve`'s remote worker
/// mode.
///
/// [`SubKind::Extract`] and [`SubKind::Frontier`] extract kernels from
/// the unit's targets and diff targets plus new nodes. A
/// [`SubKind::Resub`] shard instead runs a divisor-restricted
/// incremental resubstitution: the kernels the partitioner cut were
/// usually extracted *separately* by each part (Algorithm I's
/// duplicated kernels), so after the merge the dropped cross-partition
/// rectangles live as duplicate factor nodes, not as unextracted
/// kernels — resub collapses the duplicates and rewrites the rows one
/// part left unfactored over the other part's factor node. Because
/// resub may rewrite any node, a resub result diffs the whole snapshot
/// (it never creates nodes).
pub fn execute_sub_job(job: &SubJob) -> (WorkerResult, ExtractReport) {
    job.extract.ctl.fault_point(job.kind.fault_site());
    let mut local = (*job.base).clone();
    let n0 = local.num_signals() as u32;
    let report = match job.kind {
        SubKind::Extract | SubKind::Frontier => {
            let worker_cfg = ExtractConfig {
                name_prefix: format!("d{}_{}", job.lease, job.extract.name_prefix),
                ..job.extract.clone()
            };
            extract_kernels(&mut local, &job.targets, &worker_cfg)
        }
        SubKind::Resub => {
            let start = Instant::now();
            let lc_before = local.literal_count();
            let scope = ResubScope {
                divisors: Some(job.targets.as_ref()),
                seeds: None,
            };
            let resub = resubstitute_scoped(&mut local, &scope).unwrap_or_default();
            ExtractReport {
                lc_before,
                lc_after: local.literal_count(),
                elapsed: start.elapsed(),
                resub_pairs_considered: resub.pairs_considered,
                resub_pairs_divided: resub.pairs_divided,
                resub_worklist_rounds: resub.worklist_rounds,
                ..ExtractReport::default()
            }
        }
    };
    let base = block_base_for(job.lease);
    let id_map: FxHashMap<u32, u32> = (n0..local.num_signals() as u32)
        .map(|id| (id, base + (id - n0)))
        .collect();
    let mut wr = WorkerResult::default();
    let diff_nodes: Vec<SignalId> = if job.kind == SubKind::Resub {
        job.base.node_ids().collect()
    } else {
        job.targets.as_ref().clone()
    };
    for node in diff_nodes {
        if local.func(node) != job.base.func(node) {
            wr.rewritten
                .push((node, remap_sop(local.func(node), &id_map)));
        }
    }
    for id in n0..local.num_signals() as u32 {
        wr.new_nodes.push(NewNode {
            worker_id: id_map[&id],
            name: local.name(id).to_string(),
            func: remap_sop(local.func(id), &id_map),
        });
    }
    (wr, report)
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "worker panic".to_string()
    }
}

// ---------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------

enum WorkerMsg {
    Job(Box<SubJob>),
    Die,
}

/// Announces a worker thread's death to the coordinator. Armed for the
/// whole worker loop; only a clean channel-closed exit disarms it, so
/// any panic (injected at `dist:pickup`, or a [`LocalTransport::kill_worker`]
/// poison pill) surfaces as [`DistEvent::WorkerDied`].
struct DeathGuard {
    w: usize,
    tx: Sender<DistEvent>,
    alive: Arc<AtomicBool>,
    armed: bool,
}

impl Drop for DeathGuard {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::Release);
        if self.armed {
            let _ = self.tx.send(DistEvent::WorkerDied { worker: self.w });
        }
    }
}

/// Sends `Heartbeat { lease }` every `every` until dropped, keeping the
/// lease alive while the sub-job runs.
struct HeartbeatPump {
    stop: Arc<AtomicBool>,
}

impl HeartbeatPump {
    fn start(tx: Sender<DistEvent>, lease: u64, every: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        std::thread::spawn(move || {
            let tick = every
                .min(Duration::from_millis(5))
                .max(Duration::from_millis(1));
            let mut next = Instant::now() + every;
            while !flag.load(Ordering::Acquire) {
                std::thread::sleep(tick);
                if flag.load(Ordering::Acquire) {
                    return;
                }
                if Instant::now() >= next {
                    if tx.send(DistEvent::Heartbeat { lease }).is_err() {
                        return;
                    }
                    next = Instant::now() + every;
                }
            }
        });
        HeartbeatPump { stop }
    }
}

impl Drop for HeartbeatPump {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
    }
}

/// In-process [`DistTransport`]: one OS thread per worker, channels for
/// both directions, and message-plane fault injection at the
/// `dist:send:wW` / `dist:recv:wW` boundaries.
pub struct LocalTransport {
    senders: Vec<Sender<WorkerMsg>>,
    alive: Vec<Arc<AtomicBool>>,
    events: Mutex<Receiver<DistEvent>>,
    plan: Option<Arc<FaultPlan>>,
    handles: Vec<JoinHandle<()>>,
}

impl LocalTransport {
    /// `workers` fault-free in-process workers with 100 ms heartbeats.
    pub fn new(workers: usize) -> Self {
        Self::with_faults(workers, None, Duration::from_millis(100))
    }

    /// Full-control constructor: an optional message/pickup fault plan
    /// and the heartbeat period.
    pub fn with_faults(
        workers: usize,
        plan: Option<Arc<FaultPlan>>,
        heartbeat_every: Duration,
    ) -> Self {
        let (etx, erx) = mpsc::channel::<DistEvent>();
        let mut senders = Vec::with_capacity(workers);
        let mut alive = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (jtx, jrx) = mpsc::channel::<WorkerMsg>();
            let flag = Arc::new(AtomicBool::new(true));
            let etx = etx.clone();
            let flag2 = Arc::clone(&flag);
            let plan = plan.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(w, jrx, etx, flag2, plan, heartbeat_every)
            }));
            senders.push(jtx);
            alive.push(flag);
        }
        LocalTransport {
            senders,
            alive,
            events: Mutex::new(erx),
            plan,
            handles,
        }
    }

    /// Kills worker `w` at its next message pickup (a poison pill that
    /// panics the thread, exercising the [`DistEvent::WorkerDied`]
    /// path the same way an injected `dist:pickup` panic does).
    pub fn kill_worker(&self, w: usize) {
        let _ = self.senders[w].send(WorkerMsg::Die);
    }

    /// How many workers are currently alive.
    pub fn alive_count(&self) -> usize {
        self.alive
            .iter()
            .filter(|a| a.load(Ordering::Acquire))
            .count()
    }
}

impl Drop for LocalTransport {
    fn drop(&mut self) {
        self.senders.clear(); // close job channels: workers exit cleanly
        for h in self.handles.drain(..) {
            let _ = h.join(); // a killed worker joins with Err; ignore
        }
    }
}

impl DistTransport for LocalTransport {
    fn workers(&self) -> usize {
        self.alive.len()
    }

    fn alive(&self, w: usize) -> bool {
        self.alive.get(w).is_some_and(|a| a.load(Ordering::Acquire))
    }

    fn dispatch(&self, w: usize, job: SubJob) -> Result<(), String> {
        if !self.alive(w) {
            return Err(format!("worker {w} is dead"));
        }
        let mut copies = 1usize;
        if let Some(plan) = &self.plan {
            match plan.decide(&format!("dist:send:w{w}")) {
                Some(FaultKind::Drop) => return Ok(()), // lost in flight; lease expires
                Some(FaultKind::Dup) => copies = 2,
                Some(FaultKind::Stall(d)) | Some(FaultKind::Latency(d)) => std::thread::sleep(d),
                Some(FaultKind::Panic) => return Err(format!("injected send failure to w{w}")),
                Some(FaultKind::Cancel) | None => {}
            }
        }
        for _ in 0..copies {
            self.senders[w]
                .send(WorkerMsg::Job(Box::new(job.clone())))
                .map_err(|_| format!("worker {w} hung up"))?;
        }
        Ok(())
    }

    fn poll(&self, timeout: Duration) -> Option<DistEvent> {
        self.events.lock().unwrap().recv_timeout(timeout).ok()
    }
}

fn worker_loop(
    w: usize,
    rx: Receiver<WorkerMsg>,
    tx: Sender<DistEvent>,
    alive: Arc<AtomicBool>,
    plan: Option<Arc<FaultPlan>>,
    heartbeat_every: Duration,
) {
    let mut guard = DeathGuard {
        w,
        tx: tx.clone(),
        alive,
        armed: true,
    };
    loop {
        let job = match rx.recv() {
            Ok(WorkerMsg::Job(j)) => *j,
            Ok(WorkerMsg::Die) => panic!("worker {w} killed"),
            Err(_) => {
                guard.armed = false; // clean shutdown
                return;
            }
        };
        // Pickup faults run OUTSIDE the panic isolation below: a panic
        // here takes the whole worker down (→ WorkerDied), which is how
        // chaos tests model a crashed remote process.
        if let Some(plan) = &plan {
            match plan.decide(&format!("dist:pickup:{}", job.lease)) {
                Some(FaultKind::Panic) => {
                    panic!("fault injected: panic at dist:pickup:{}", job.lease)
                }
                Some(FaultKind::Latency(d)) | Some(FaultKind::Stall(d)) => std::thread::sleep(d),
                Some(FaultKind::Cancel) => job.extract.ctl.cancel(),
                Some(FaultKind::Drop) => continue, // job vanishes after pickup
                Some(FaultKind::Dup) | None => {}
            }
        }
        let lease = job.lease;
        let hb = HeartbeatPump::start(tx.clone(), lease, heartbeat_every);
        let out = catch_unwind(AssertUnwindSafe(|| execute_sub_job(&job)));
        drop(hb);
        let ev = match out {
            Ok((wr, report)) => DistEvent::Completed {
                lease,
                worker: w,
                result: Box::new(wr),
                report: Box::new(report),
            },
            Err(e) => DistEvent::Failed {
                lease,
                worker: w,
                message: panic_message(e.as_ref()),
            },
        };
        // Result-path message faults.
        let mut copies = 1usize;
        if let Some(plan) = &plan {
            match plan.decide(&format!("dist:recv:w{w}")) {
                Some(FaultKind::Drop) => continue, // result lost; lease expires
                Some(FaultKind::Dup) => copies = 2,
                Some(FaultKind::Stall(d)) | Some(FaultKind::Latency(d)) => std::thread::sleep(d),
                _ => {}
            }
        }
        for _ in 0..copies {
            if tx.send(ev.clone()).is_err() {
                guard.armed = false; // coordinator gone
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// One leasable unit of work: a target set over a shared base network,
/// tagged with what the worker should do with it.
struct Unit {
    targets: Arc<Vec<SignalId>>,
    base: Arc<Network>,
    kind: SubKind,
}

struct LeaseInfo {
    targets: Arc<Vec<SignalId>>,
    base: Arc<Network>,
    worker: usize,
    deadline: Instant,
    attempt: u32,
    kind: SubKind,
}

struct Coordinator<'a> {
    transport: &'a dyn DistTransport,
    cfg: &'a DistConfig,
    stats: DistStats,
    next_lease: u64,
    rr: usize,
    /// Set when a unit (partition or recovery) was abandoned past its
    /// retry budget — the result is still correct, just lower quality.
    unit_abandoned: bool,
    timed_out: bool,
    cancelled: bool,
}

impl<'a> Coordinator<'a> {
    fn new(transport: &'a dyn DistTransport, cfg: &'a DistConfig) -> Self {
        Coordinator {
            transport,
            cfg,
            stats: DistStats::default(),
            next_lease: 1,
            rr: 0,
            unit_abandoned: false,
            timed_out: false,
            cancelled: false,
        }
    }

    /// Next alive worker in round-robin order, skipping `avoid` when any
    /// other worker survives.
    fn pick_worker(&mut self, avoid: Option<usize>) -> Option<usize> {
        let n = self.transport.workers();
        let mut fallback = None;
        for i in 0..n {
            let w = (self.rr + i) % n;
            if !self.transport.alive(w) {
                continue;
            }
            if Some(w) == avoid {
                fallback = Some(w);
                continue;
            }
            self.rr = w + 1;
            return Some(w);
        }
        fallback
    }

    /// Runs a unit on the coordinator thread. Last resort: counts as an
    /// issued-and-immediately-resolved (or expired) lease so the
    /// balance identity survives transport loss.
    fn run_inline(&mut self, unit: Unit, done: &mut BTreeMap<u64, (WorkerResult, ExtractReport)>) {
        let lease = self.next_lease;
        self.next_lease += 1;
        self.stats.leases_issued += 1;
        let job = SubJob {
            lease,
            targets: unit.targets,
            base: unit.base,
            extract: self.cfg.extract.clone(),
            kind: unit.kind,
        };
        match catch_unwind(AssertUnwindSafe(|| execute_sub_job(&job))) {
            Ok((wr, report)) => {
                self.stats.leases_resolved += 1;
                done.insert(lease, (wr, report));
            }
            Err(_) => {
                self.stats.leases_expired += 1;
                self.stats.degraded_jobs += 1;
                self.unit_abandoned = true;
            }
        }
    }

    fn issue(
        &mut self,
        unit: Unit,
        attempt: u32,
        avoid: Option<usize>,
        active: &mut HashMap<u64, LeaseInfo>,
        done: &mut BTreeMap<u64, (WorkerResult, ExtractReport)>,
    ) {
        if attempt > self.cfg.max_attempts {
            // Retry budget exhausted: recovery degrades (the merged
            // network is already correct); partition units fall back to
            // the coordinator so quality survives total worker loss.
            if unit.kind.is_recovery() {
                self.stats.degraded_jobs += 1;
                self.unit_abandoned = true;
            } else {
                self.stats.failovers += 1;
                self.run_inline(unit, done);
            }
            return;
        }
        let Some(w) = self.pick_worker(avoid) else {
            // No workers left at all: the coordinator does the work
            // itself (degradation is reserved for units that burned
            // their whole retry budget on a live transport).
            self.run_inline(unit, done);
            return;
        };
        let lease = self.next_lease;
        self.next_lease += 1;
        self.stats.leases_issued += 1;
        let job = SubJob {
            lease,
            targets: Arc::clone(&unit.targets),
            base: Arc::clone(&unit.base),
            extract: self.cfg.extract.clone(),
            kind: unit.kind,
        };
        match self.transport.dispatch(w, job) {
            Ok(()) => {
                active.insert(
                    lease,
                    LeaseInfo {
                        targets: unit.targets,
                        base: unit.base,
                        worker: w,
                        deadline: Instant::now() + self.cfg.lease_timeout,
                        attempt,
                        kind: unit.kind,
                    },
                );
            }
            Err(_) => {
                // Certain non-delivery: expire on the spot and retry.
                self.stats.leases_expired += 1;
                self.stats.failovers += 1;
                self.backoff(lease);
                self.issue(unit, attempt + 1, Some(w), active, done);
            }
        }
    }

    /// Jittered backoff before a failover re-dispatch (bounded by 2x
    /// the configured base, deterministic per lease for a fixed seed).
    fn backoff(&self, lease: u64) {
        let base = self.cfg.retry_backoff;
        if base.is_zero() {
            return;
        }
        let jitter = splitmix64(self.cfg.seed ^ lease) % (base.as_millis().max(1) as u64);
        std::thread::sleep(base + Duration::from_millis(jitter));
    }

    fn failover(
        &mut self,
        l: LeaseInfo,
        active: &mut HashMap<u64, LeaseInfo>,
        done: &mut BTreeMap<u64, (WorkerResult, ExtractReport)>,
    ) {
        self.stats.failovers += 1;
        let attempt = l.attempt + 1;
        if l.kind == SubKind::Extract && attempt >= self.cfg.split_after && l.targets.len() > 1 {
            // Work stealing: the unit keeps expiring, so split it in
            // two and lease the halves separately (attempt count
            // carries over; a 1-target unit can no longer split).
            let mid = l.targets.len() / 2;
            let lo = Unit {
                targets: Arc::new(l.targets[..mid].to_vec()),
                base: Arc::clone(&l.base),
                kind: SubKind::Extract,
            };
            let hi = Unit {
                targets: Arc::new(l.targets[mid..].to_vec()),
                base: l.base,
                kind: SubKind::Extract,
            };
            self.stats.leases_stolen += 2;
            self.issue(lo, attempt, Some(l.worker), active, done);
            self.issue(hi, attempt, Some(l.worker), active, done);
            return;
        }
        let lease_hint = self.next_lease;
        self.backoff(lease_hint);
        let unit = Unit {
            targets: l.targets,
            base: l.base,
            kind: l.kind,
        };
        self.issue(unit, attempt, Some(l.worker), active, done);
    }

    /// True once the caller's RunCtl asks the whole run to stop.
    fn check_stop(&mut self) -> bool {
        match self.cfg.extract.ctl.stop_reason() {
            None => false,
            Some(crate::ctl::StopReason::Cancelled) => {
                self.cancelled = true;
                true
            }
            Some(crate::ctl::StopReason::DeadlineExpired) => {
                self.timed_out = true;
                true
            }
        }
    }

    /// Issues a lease per unit and supervises until every unit resolved
    /// or was abandoned. Results come back ordered by lease id, so the
    /// downstream merge is deterministic regardless of completion order.
    fn run_phase(&mut self, units: Vec<Unit>) -> Vec<(WorkerResult, ExtractReport)> {
        self.run_phase_opts(units, false)
    }

    /// [`Self::run_phase`] with optional abort-on-abandon: when one unit
    /// burns its retry budget (`unit_abandoned`), the remaining units of
    /// the phase are not issued and outstanding leases expire. Recovery
    /// phases use this — a partially-applied recovery stage would not be
    /// the clean Algorithm-I-quality fallback the degraded contract
    /// promises, so the first abandonment aborts the whole stage.
    fn run_phase_opts(
        &mut self,
        units: Vec<Unit>,
        abort_on_abandon: bool,
    ) -> Vec<(WorkerResult, ExtractReport)> {
        let mut active: HashMap<u64, LeaseInfo> = HashMap::new();
        let mut done: BTreeMap<u64, (WorkerResult, ExtractReport)> = BTreeMap::new();
        for unit in units {
            if unit.targets.is_empty() {
                continue;
            }
            if abort_on_abandon && self.unit_abandoned {
                break;
            }
            self.issue(unit, 0, None, &mut active, &mut done);
        }
        while !active.is_empty() {
            if abort_on_abandon && self.unit_abandoned {
                self.stats.leases_expired += active.len() as u64;
                active.clear();
                break;
            }
            if self.check_stop() {
                // Wind down: outstanding leases expire so the balance
                // identity holds at quiescence; their late results (if
                // any) are never admitted.
                self.stats.leases_expired += active.len() as u64;
                active.clear();
                break;
            }
            match self.transport.poll(self.cfg.poll_interval) {
                Some(DistEvent::Completed {
                    lease,
                    result,
                    report,
                    ..
                }) => {
                    if active.remove(&lease).is_some() {
                        self.stats.leases_resolved += 1;
                        done.insert(lease, (*result, *report));
                    } else {
                        self.stats.stale_results += 1;
                    }
                }
                Some(DistEvent::Failed { lease, .. }) => {
                    if let Some(l) = active.remove(&lease) {
                        self.stats.leases_expired += 1;
                        self.failover(l, &mut active, &mut done);
                    } else {
                        self.stats.stale_results += 1;
                    }
                }
                Some(DistEvent::Heartbeat { lease }) => {
                    if let Some(l) = active.get_mut(&lease) {
                        l.deadline = Instant::now() + self.cfg.lease_timeout;
                    }
                }
                Some(DistEvent::WorkerDied { worker }) => {
                    let orphaned: Vec<u64> = active
                        .iter()
                        .filter(|(_, l)| l.worker == worker)
                        .map(|(&id, _)| id)
                        .collect();
                    for id in orphaned {
                        let l = active.remove(&id).unwrap();
                        self.stats.leases_expired += 1;
                        self.failover(l, &mut active, &mut done);
                    }
                }
                None => {}
            }
            let now = Instant::now();
            let overdue: Vec<u64> = active
                .iter()
                .filter(|(_, l)| now >= l.deadline)
                .map(|(&id, _)| id)
                .collect();
            for id in overdue {
                let l = active.remove(&id).unwrap();
                self.stats.leases_expired += 1;
                self.failover(l, &mut active, &mut done);
            }
        }
        done.into_values().collect()
    }
}

/// Runs fault-tolerant distributed Algorithm I (with boundary recovery)
/// on the network, in place. Returns the report plus the coordinator's
/// lease statistics.
pub fn distributed_extract(
    nw: &mut Network,
    transport: &dyn DistTransport,
    cfg: &DistConfig,
) -> (ExtractReport, DistStats) {
    let mut lane = cfg.extract.trace.lane("dist");
    let start = Instant::now();
    let lc_before = nw.literal_count();
    let parts_n = if cfg.parts == 0 {
        transport.workers().max(1)
    } else {
        cfg.parts
    };

    let span = lane.start("partition");
    let partition = partition_network(nw, parts_n, &cfg.partition);
    let parts = partition.parts();
    lane.end_with(span, || vec![("parts", parts_n as i64)]);
    let partition_elapsed = start.elapsed();

    let mut co = Coordinator::new(transport, cfg);
    let base = Arc::new(nw.clone());
    let span = lane.start("extract");
    let units: Vec<_> = parts
        .into_iter()
        .filter(|t| !t.is_empty())
        .map(|t| Unit {
            targets: Arc::new(t),
            base: Arc::clone(&base),
            kind: SubKind::Extract,
        })
        .collect();
    let results = co.run_phase(units);
    lane.end(span);
    let extract_elapsed = start.elapsed().saturating_sub(partition_elapsed);

    let mut extractions = 0usize;
    let mut total_value = 0i64;
    let mut budget_exhausted = false;
    let mut passes = 0usize;
    let mut batch_candidates = 0usize;
    let mut batch_accepted = 0usize;
    let mut batch_rejected = 0usize;
    let mut worker_results = Vec::with_capacity(results.len());
    for (wr, rep) in results {
        extractions += rep.extractions;
        total_value += rep.total_value;
        budget_exhausted |= rep.budget_exhausted;
        passes += rep.passes;
        batch_candidates += rep.batch_candidates;
        batch_accepted += rep.batch_accepted;
        batch_rejected += rep.batch_rejected;
        co.timed_out |= rep.timed_out;
        co.cancelled |= rep.cancelled;
        worker_results.push(wr);
    }
    let span = lane.start("merge");
    let created = merge_worker_results(nw, worker_results).expect("dist merge of leased parts");
    lane.end(span);
    let merge_elapsed = start
        .elapsed()
        .saturating_sub(partition_elapsed + extract_elapsed);

    // Boundary recovery, in two sharded leased phases over only the
    // frontier the partitioner cut (plus the nodes the partition phase
    // created) — which is where every dropped cross-partition rectangle
    // lives. An empty frontier means nothing was cut (single effective
    // partition): recovery would re-extract zero rectangles and collapse
    // zero duplicates, so it is skipped without issuing a single lease.
    let mut recovery_rects = 0usize;
    let mut degraded = false;
    let mut frontier_elapsed = Duration::ZERO;
    let mut resub_elapsed = Duration::ZERO;
    let mut resub_pairs_considered = 0usize;
    let mut resub_pairs_divided = 0usize;
    let mut resub_worklist_rounds = 0usize;
    let frontier = if cfg.recovery {
        frontier_nodes(&partition)
    } else {
        Vec::new()
    };
    if cfg.recovery && !frontier.is_empty() && !co.check_stop() {
        // Default shard count: one per worker, but never more than the
        // host has cores — each shard pays a fixed O(network) cost
        // (snapshot clone, divisor-index build), and on an oversubscribed
        // host extra shards are pure overhead with no concurrency to buy.
        let shards = if cfg.recovery_shards == 0 {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            transport.workers().min(cores).max(1)
        } else {
            cfg.recovery_shards
        };
        let before = co.unit_abandoned;
        co.unit_abandoned = false;

        // Phase 1 — frontier re-extraction, sharded by disjoint targets.
        let t_frontier = Instant::now();
        let span = lane.start("recovery:frontier");
        let mut targets: BTreeSet<SignalId> = frontier.iter().copied().collect();
        targets.extend(created.iter().copied());
        let targets: Vec<SignalId> = targets.into_iter().collect();
        let rbase = Arc::new(nw.clone());
        let units: Vec<Unit> = shard_targets(&targets, shards)
            .into_iter()
            .map(|t| Unit {
                targets: Arc::new(t),
                base: Arc::clone(&rbase),
                kind: SubKind::Frontier,
            })
            .collect();
        let fresults = co.run_phase_opts(units, true);
        if co.unit_abandoned || fresults.is_empty() {
            degraded = true;
        }
        let mut created2: Vec<SignalId> = Vec::new();
        if !degraded {
            for (wr, rep) in fresults {
                extractions += rep.extractions;
                total_value += rep.total_value;
                budget_exhausted |= rep.budget_exhausted;
                passes += rep.passes;
                batch_candidates += rep.batch_candidates;
                batch_accepted += rep.batch_accepted;
                batch_rejected += rep.batch_rejected;
                recovery_rects += rep.extractions;
                let new_ids =
                    merge_worker_results(nw, vec![wr]).expect("dist merge of frontier shard");
                created2.extend(new_ids);
            }
        }
        lane.end_with(span, || {
            vec![("rects", recovery_rects as i64), ("shards", shards as i64)]
        });
        frontier_elapsed = t_frontier.elapsed();

        // Phase 2 — duplicate collapse: the duplicate candidates
        // (frontier ∪ every node recovery or the partition phase
        // created) are sharded as divisor sets; each lease resubstitutes
        // its divisors into the same merged snapshot. The coordinator
        // applies shard rewrites in lease order (first claim per node
        // wins, cycle-guarded), then runs a seeded incremental fixpoint
        // to catch chains that crossed shard boundaries.
        if !degraded && !co.check_stop() {
            let t_resub = Instant::now();
            let span = lane.start("recovery:resub");
            let mut divisors: BTreeSet<SignalId> = frontier.iter().copied().collect();
            divisors.extend(created.iter().copied());
            divisors.extend(created2.iter().copied());
            let divisors: Vec<SignalId> = divisors
                .into_iter()
                .filter(|&d| !nw.func(d).is_zero())
                .collect();
            if !divisors.is_empty() {
                let rbase = Arc::new(nw.clone());
                let units: Vec<Unit> = shard_targets(&divisors, shards)
                    .into_iter()
                    .map(|t| Unit {
                        targets: Arc::new(t),
                        base: Arc::clone(&rbase),
                        kind: SubKind::Resub,
                    })
                    .collect();
                let rresults = co.run_phase_opts(units, true);
                if co.unit_abandoned || rresults.is_empty() {
                    degraded = true;
                } else {
                    let mut claimed: FxHashSet<SignalId> = FxHashSet::default();
                    let mut seeds: Vec<SignalId> = Vec::new();
                    for (wr, rep) in rresults {
                        resub_pairs_considered += rep.resub_pairs_considered;
                        resub_pairs_divided += rep.resub_pairs_divided;
                        resub_worklist_rounds += rep.resub_worklist_rounds;
                        let (changed, conflicted) = apply_resub_shard(
                            nw,
                            wr,
                            &mut claimed,
                            &mut co.stats.recovery_conflicts,
                        );
                        seeds.extend(changed);
                        seeds.extend(conflicted);
                    }
                    if !seeds.is_empty() {
                        let scope = ResubScope {
                            divisors: None,
                            seeds: Some(&seeds),
                        };
                        if let Ok(rep) = resubstitute_scoped(nw, &scope) {
                            resub_pairs_considered += rep.pairs_considered;
                            resub_pairs_divided += rep.pairs_divided;
                            resub_worklist_rounds += rep.worklist_rounds;
                        }
                    }
                }
            }
            lane.end_with(span, || {
                vec![
                    ("pairs", resub_pairs_considered as i64),
                    ("divided", resub_pairs_divided as i64),
                ]
            });
            resub_elapsed = t_resub.elapsed();
        }

        // The recovery resub turns duplicated factor nodes into dead
        // logic and pass-through wires; sweep them out. Skipped on
        // degraded runs so the result stays exactly the
        // Algorithm-I-quality network the parts produced.
        if !degraded {
            let span = lane.start("recovery:sweep");
            let _ = sweep(nw);
            lane.end(span);
        }
        co.unit_abandoned |= before;
    }
    co.stats.recovery_rects = recovery_rects as u64;
    degraded |= co.unit_abandoned;
    co.cancelled |= cfg.extract.ctl.is_cancelled();

    let elapsed = start.elapsed();
    // The sweep phase absorbs the remainder (trailing bookkeeping
    // included) so the per-phase breakdown still sums to `elapsed`.
    let sweep_elapsed = elapsed.saturating_sub(
        partition_elapsed + extract_elapsed + merge_elapsed + frontier_elapsed + resub_elapsed,
    );
    let report = ExtractReport {
        lc_before,
        lc_after: nw.literal_count(),
        extractions,
        total_value,
        elapsed,
        budget_exhausted,
        shipped_rectangles: 0,
        timed_out: co.timed_out,
        cancelled: co.cancelled,
        degraded,
        recovery_rects,
        passes,
        batch_candidates,
        batch_accepted,
        batch_rejected,
        resub_pairs_considered,
        resub_pairs_divided,
        resub_worklist_rounds,
        setup: partition_elapsed,
        phases: vec![
            PhaseTiming::new("partition", partition_elapsed),
            PhaseTiming::new("extract", extract_elapsed),
            PhaseTiming::new("merge", merge_elapsed),
            PhaseTiming::new("frontier", frontier_elapsed),
            PhaseTiming::new("resub", resub_elapsed),
            PhaseTiming::new("sweep", sweep_elapsed),
        ],
    };
    (report, co.stats)
}

/// Splits an id-sorted target list into at most `shards` contiguous,
/// disjoint, non-empty chunks — deterministic for a fixed list and
/// shard count.
fn shard_targets(targets: &[SignalId], shards: usize) -> Vec<Vec<SignalId>> {
    let shards = shards.max(1).min(targets.len().max(1));
    let chunk = targets.len().div_ceil(shards);
    targets.chunks(chunk.max(1)).map(|c| c.to_vec()).collect()
}

/// Applies one resub shard's rewrites to the merged network in lease
/// order: the first shard to claim a node wins (later claims count as
/// conflicts), and a rewrite that would close a cycle — possible only
/// when another shard's substitution created the path — is rolled back.
/// Returns `(changed, conflicted)`: the nodes actually rewritten and
/// the nodes whose rewrite was dropped. Both seed the coordinator's
/// cross-shard fixpoint — a dropped rewrite still marks a node whose
/// division opportunity exists in the merged network, and the seeded
/// resub re-derives it against the full divisor index instead of
/// silently losing the literals.
fn apply_resub_shard(
    nw: &mut Network,
    wr: WorkerResult,
    claimed: &mut FxHashSet<SignalId>,
    conflicts: &mut u64,
) -> (Vec<SignalId>, Vec<SignalId>) {
    let mut changed = Vec::new();
    let mut conflicted = Vec::new();
    // Batch-apply the shard's unclaimed rewrites, then run ONE cycle
    // check for the whole shard: the per-rewrite `topo_order` it
    // replaces cost O(network) per rewritten node, which dominated the
    // recovery resub phase. Cycles are the cross-shard exception, not
    // the rule, so the common case pays a single validation.
    let mut applied: Vec<SignalId> = Vec::new();
    let mut snapshots = Vec::new();
    for (node, func) in wr.rewritten {
        if !claimed.insert(node) {
            *conflicts += 1;
            conflicted.push(node);
            continue;
        }
        let snapshot = nw.func(node).clone();
        if nw.set_func(node, func).is_err() {
            *conflicts += 1;
            conflicted.push(node);
            continue;
        }
        applied.push(node);
        snapshots.push((node, snapshot));
    }
    if nw.topo_order().is_ok() {
        changed.extend(applied);
        return (changed, conflicted);
    }
    // Slow path: some rewrite closed a cycle. Roll the shard back and
    // re-apply one rewrite at a time with per-step checks so only the
    // culprits are dropped.
    let rewrites: Vec<_> = applied.iter().map(|&n| (n, nw.func(n).clone())).collect();
    for (node, snapshot) in snapshots.into_iter().rev() {
        let _ = nw.set_func(node, snapshot);
    }
    for (node, func) in rewrites {
        let snapshot = nw.func(node).clone();
        if nw.set_func(node, func).is_err() {
            *conflicts += 1;
            conflicted.push(node);
            continue;
        }
        if nw.topo_order().is_err() {
            let _ = nw.set_func(node, snapshot);
            *conflicts += 1;
            conflicted.push(node);
            continue;
        }
        changed.push(node);
    }
    (changed, conflicted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRule;
    use pf_network::example::example_1_1;
    use pf_network::sim::{equivalent_random, EquivConfig};

    /// Suppresses the default panic hook's stderr spew for injected
    /// panics and kill pills (they are the point here); real panics
    /// still print.
    fn quiet_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let expected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("fault injected") || s.contains("killed"));
                if !expected {
                    prev(info);
                }
            }));
        });
    }

    fn fast_cfg() -> DistConfig {
        DistConfig {
            lease_timeout: Duration::from_millis(1_500),
            poll_interval: Duration::from_millis(2),
            retry_backoff: Duration::from_millis(1),
            ..DistConfig::default()
        }
    }

    fn bigger_network() -> Network {
        let profile = pf_workloads::CircuitProfile::small("dist-test", 11);
        pf_workloads::generate(&profile)
    }

    #[test]
    fn two_workers_extract_and_recover() {
        let mut nw = bigger_network();
        let original = nw.clone();
        let t = LocalTransport::new(2);
        let (report, stats) = distributed_extract(&mut nw, &t, &fast_cfg());
        assert!(report.lc_after < report.lc_before, "extraction happened");
        assert!(!report.degraded);
        assert!(report.completed());
        assert!(stats.balanced(), "{stats:?}");
        // Two partition leases, then recovery sharded across the two
        // workers: two frontier shards + up to two resub shards (the
        // frontier is non-empty on this circuit).
        assert!(
            (4..=6).contains(&(stats.leases_resolved as usize)),
            "{stats:?}"
        );
        assert!(nw.validate().is_ok());
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn recovery_closes_partition_gap() {
        // Quality ordering: dist-with-recovery ≤ plain Algorithm I on
        // the same partition (recovery only ever removes literals; its
        // resub pass can even beat the extract-only seq oracle).
        let base = bigger_network();
        let mut s = base.clone();
        extract_kernels(&mut s, &[], &ExtractConfig::default());

        let mut plain = base.clone();
        let t = LocalTransport::new(2);
        let cfg = DistConfig {
            recovery: false,
            ..fast_cfg()
        };
        let (rep_plain, _) = distributed_extract(&mut plain, &t, &cfg);

        let mut rec = base.clone();
        let t2 = LocalTransport::new(2);
        let (rep_rec, stats) = distributed_extract(&mut rec, &t2, &fast_cfg());

        assert!(rep_rec.lc_after <= rep_plain.lc_after);
        // When partitioning cost anything, recovery (frontier
        // re-extraction + resubstitution + sweep) must win some of it
        // back — this is the ≥0% floor; the bench gates the real one.
        if rep_plain.lc_after > s.literal_count() {
            assert!(
                rep_rec.lc_after < rep_plain.lc_after,
                "recovery closed none of the {} literal gap",
                rep_plain.lc_after - s.literal_count()
            );
        }
        assert_eq!(rep_plain.recovery_rects, 0);
        assert_eq!(rep_rec.recovery_rects as u64, stats.recovery_rects);
        assert!(stats.balanced());
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut nw = bigger_network();
            let t = LocalTransport::new(2);
            let (report, _) = distributed_extract(&mut nw, &t, &fast_cfg());
            (report.lc_after, report.extractions, nw.literal_count())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn worker_death_fails_over() {
        quiet_injected_panics();
        let mut nw = bigger_network();
        let original = nw.clone();
        // First pickup panics the worker thread → WorkerDied → failover.
        let plan =
            Arc::new(FaultPlan::new(7).with_rule(FaultRule::panic_at("dist:pickup").max_hits(1)));
        let t = LocalTransport::with_faults(2, Some(plan), Duration::from_millis(50));
        let (report, stats) = distributed_extract(&mut nw, &t, &fast_cfg());
        assert!(report.completed());
        assert!(!report.degraded);
        assert!(stats.failovers >= 1, "{stats:?}");
        assert!(stats.leases_expired >= 1);
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(t.alive_count(), 1);
        assert!(nw.validate().is_ok());
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn failed_subjob_fails_over_without_killing_worker() {
        quiet_injected_panics();
        let mut nw = bigger_network();
        let ctl = crate::RunCtl::new().with_faults(Arc::new(
            FaultPlan::new(3).with_rule(FaultRule::panic_at("dist:work").max_hits(1)),
        ));
        let cfg = DistConfig {
            extract: ExtractConfig {
                ctl,
                ..ExtractConfig::default()
            },
            ..fast_cfg()
        };
        let t = LocalTransport::new(2);
        let (report, stats) = distributed_extract(&mut nw, &t, &cfg);
        assert!(report.completed());
        assert!(!report.degraded);
        assert!(stats.failovers >= 1);
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(
            t.alive_count(),
            2,
            "an isolated sub-job panic spares the worker"
        );
        assert!(nw.validate().is_ok());
    }

    #[test]
    fn recovery_death_degrades_gracefully() {
        quiet_injected_panics();
        let base = bigger_network();
        // Oracle: the same run with recovery disabled.
        let mut plain = base.clone();
        let t0 = LocalTransport::new(2);
        let cfg_plain = DistConfig {
            recovery: false,
            ..fast_cfg()
        };
        let (rep_plain, _) = distributed_extract(&mut plain, &t0, &cfg_plain);

        // Every recovery attempt panics (inside isolation) until the
        // retry budget is gone.
        let mut nw = base.clone();
        let ctl = crate::RunCtl::new().with_faults(Arc::new(
            FaultPlan::new(3).with_rule(FaultRule::panic_at("dist:recover")),
        ));
        let cfg = DistConfig {
            extract: ExtractConfig {
                ctl,
                ..ExtractConfig::default()
            },
            max_attempts: 2,
            ..fast_cfg()
        };
        let t = LocalTransport::new(2);
        let (report, stats) = distributed_extract(&mut nw, &t, &cfg);
        assert!(report.degraded, "recovery loss must be recorded");
        assert_eq!(report.recovery_rects, 0);
        assert_eq!(stats.degraded_jobs, 1);
        assert!(stats.balanced(), "{stats:?}");
        // Degraded output is exactly the Algorithm-I-quality result.
        assert_eq!(report.lc_after, rep_plain.lc_after);
        assert!(nw.validate().is_ok());
    }

    #[test]
    fn dropped_result_expires_and_retries() {
        let mut nw = bigger_network();
        let original = nw.clone();
        let plan =
            Arc::new(FaultPlan::new(9).with_rule(FaultRule::drop_at("dist:recv:w0").max_hits(1)));
        let t = LocalTransport::with_faults(2, Some(plan), Duration::from_millis(50));
        let cfg = DistConfig {
            lease_timeout: Duration::from_millis(250),
            ..fast_cfg()
        };
        let (report, stats) = distributed_extract(&mut nw, &t, &cfg);
        assert!(report.completed());
        assert!(stats.leases_expired >= 1, "{stats:?}");
        assert!(stats.failovers >= 1);
        assert!(stats.balanced(), "{stats:?}");
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn duplicated_result_is_admitted_once() {
        let mut nw = bigger_network();
        let original = nw.clone();
        let plan = Arc::new(FaultPlan::new(11).with_rule(FaultRule::dup_at("dist:recv")));
        let t = LocalTransport::with_faults(2, Some(plan), Duration::from_millis(50));
        let (report, stats) = distributed_extract(&mut nw, &t, &fast_cfg());
        assert!(report.completed());
        assert!(
            stats.stale_results >= 1,
            "duplicates are counted: {stats:?}"
        );
        assert!(stats.balanced(), "{stats:?}");
        assert!(nw.validate().is_ok());
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn stalled_result_fails_over_and_late_answer_is_stale() {
        let mut nw = bigger_network();
        let plan = Arc::new(FaultPlan::new(13).with_rule(
            FaultRule::stall_at("dist:recv:w0", Duration::from_millis(600)).max_hits(1),
        ));
        // Heartbeats slower than the lease: the stalled delivery cannot
        // keep its lease alive, so the coordinator must fail over.
        let t = LocalTransport::with_faults(2, Some(plan), Duration::from_millis(400));
        let cfg = DistConfig {
            lease_timeout: Duration::from_millis(200),
            ..fast_cfg()
        };
        let (report, stats) = distributed_extract(&mut nw, &t, &cfg);
        assert!(report.completed());
        assert!(stats.failovers >= 1, "{stats:?}");
        assert!(stats.balanced(), "{stats:?}");
        assert!(nw.validate().is_ok());
    }

    #[test]
    fn no_workers_runs_inline() {
        let mut nw = bigger_network();
        let original = nw.clone();
        let t = LocalTransport::new(0);
        let cfg = DistConfig {
            parts: 2,
            ..fast_cfg()
        };
        let (report, stats) = distributed_extract(&mut nw, &t, &cfg);
        assert!(report.lc_after < report.lc_before);
        assert!(!report.degraded, "inline fallback is full quality");
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(stats.failovers, 0);
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn cancelled_run_reports_cancelled() {
        let (mut nw, _) = example_1_1();
        let cfg = fast_cfg();
        cfg.extract.ctl.cancel();
        let t = LocalTransport::new(2);
        let (report, stats) = distributed_extract(&mut nw, &t, &cfg);
        assert!(report.cancelled);
        assert!(
            stats.balanced(),
            "wind-down expires outstanding leases: {stats:?}"
        );
    }

    #[test]
    fn kill_worker_mid_run_still_one_answer() {
        quiet_injected_panics();
        let mut nw = bigger_network();
        let original = nw.clone();
        // Stall worker 0's pickup long enough for the kill pill (sent
        // right after dispatch) to land while the run is in flight.
        let plan =
            Arc::new(FaultPlan::new(17).with_rule(
                FaultRule::stall_at("dist:pickup", Duration::from_millis(50)).max_hits(1),
            ));
        let t = LocalTransport::with_faults(2, Some(plan), Duration::from_millis(50));
        t.kill_worker(0);
        let cfg = DistConfig {
            lease_timeout: Duration::from_millis(400),
            ..fast_cfg()
        };
        let (report, stats) = distributed_extract(&mut nw, &t, &cfg);
        assert!(report.completed());
        assert!(stats.balanced(), "{stats:?}");
        assert!(nw.validate().is_ok());
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn single_partition_skips_recovery_entirely() {
        // Satellite of ROADMAP item 4: with one part the frontier is
        // empty, so recovery has nothing to recover — no recovery
        // leases, no resub, no sweep, zero recovery phase time.
        let mut nw = bigger_network();
        let t = LocalTransport::new(1);
        let cfg = DistConfig {
            parts: 1,
            ..fast_cfg()
        };
        let (report, stats) = distributed_extract(&mut nw, &t, &cfg);
        assert!(report.completed());
        assert!(!report.degraded);
        assert_eq!(stats.leases_issued, 1, "only the partition lease");
        assert_eq!(report.recovery_rects, 0);
        assert_eq!(report.phase("frontier"), Some(Duration::ZERO));
        assert_eq!(report.phase("resub"), Some(Duration::ZERO));
        assert_eq!(report.resub_pairs_considered, 0);
        assert!(stats.balanced(), "{stats:?}");
    }

    #[test]
    fn sharded_recovery_matches_serial_quality() {
        // The sharded recovery (one shard per worker) must land on the
        // same literal count as the legacy serial recovery lease.
        let base = bigger_network();
        let run = |shards: usize| {
            let mut nw = base.clone();
            let t = LocalTransport::new(2);
            let cfg = DistConfig {
                recovery_shards: shards,
                ..fast_cfg()
            };
            let (report, stats) = distributed_extract(&mut nw, &t, &cfg);
            assert!(report.completed() && !report.degraded);
            assert!(stats.balanced(), "{stats:?}");
            assert!(nw.validate().is_ok());
            (report.lc_after, nw)
        };
        let (lc_serial, _) = run(1);
        let (lc_sharded, nw) = run(2);
        assert_eq!(lc_sharded, lc_serial, "sharding must not cost quality");
        let original = base.clone();
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn sharded_recovery_reports_resub_counters() {
        let mut nw = bigger_network();
        let t = LocalTransport::new(2);
        let (report, _) = distributed_extract(&mut nw, &t, &fast_cfg());
        assert!(!report.degraded);
        // The recovery resub ran: it examined pairs, and every division
        // it performed is included in the considered count.
        assert!(report.resub_worklist_rounds >= 1);
        assert!(report.resub_pairs_considered >= report.resub_pairs_divided);
    }

    #[test]
    fn resub_shard_death_fails_over_and_converges() {
        quiet_injected_panics();
        let base = bigger_network();
        // Oracle: the same sharded run without faults.
        let mut clean = base.clone();
        let t0 = LocalTransport::new(2);
        let cfg0 = DistConfig {
            recovery_shards: 2,
            ..fast_cfg()
        };
        let (rep_clean, _) = distributed_extract(&mut clean, &t0, &cfg0);

        // Kill the first resub shard attempt mid-recovery; the lease
        // must fail over to a surviving worker and converge un-degraded.
        let mut nw = base.clone();
        let ctl = crate::RunCtl::new().with_faults(Arc::new(
            FaultPlan::new(5).with_rule(FaultRule::panic_at("dist:recover:resub").max_hits(1)),
        ));
        let cfg = DistConfig {
            extract: ExtractConfig {
                ctl,
                ..ExtractConfig::default()
            },
            recovery_shards: 2,
            ..fast_cfg()
        };
        let t = LocalTransport::new(2);
        let (report, stats) = distributed_extract(&mut nw, &t, &cfg);
        assert!(report.completed());
        assert!(!report.degraded, "one shard death is survivable");
        assert!(stats.failovers >= 1, "{stats:?}");
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(report.lc_after, rep_clean.lc_after);
        assert!(nw.validate().is_ok());
        assert!(equivalent_random(&base, &nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn every_resub_shard_dying_degrades_once() {
        quiet_injected_panics();
        let base = bigger_network();
        let mut plain = base.clone();
        let t0 = LocalTransport::new(2);
        let cfg_plain = DistConfig {
            recovery: false,
            ..fast_cfg()
        };
        let (rep_plain, _) = distributed_extract(&mut plain, &t0, &cfg_plain);

        // Frontier recovery succeeds; every resub shard attempt panics
        // until the retry budget is gone → the stage aborts, degraded
        // is recorded exactly once, and the network stays at (or under —
        // the frontier shards may still have extracted) Algorithm-I
        // quality while remaining valid and equivalent.
        let mut nw = base.clone();
        let ctl = crate::RunCtl::new().with_faults(Arc::new(
            FaultPlan::new(5).with_rule(FaultRule::panic_at("dist:recover:resub")),
        ));
        let cfg = DistConfig {
            extract: ExtractConfig {
                ctl,
                ..ExtractConfig::default()
            },
            max_attempts: 2,
            recovery_shards: 2,
            ..fast_cfg()
        };
        let t = LocalTransport::new(2);
        let (report, stats) = distributed_extract(&mut nw, &t, &cfg);
        assert!(report.degraded, "total resub loss must be recorded");
        assert_eq!(stats.degraded_jobs, 1, "abort counts one degradation");
        assert!(stats.balanced(), "{stats:?}");
        assert!(report.lc_after <= rep_plain.lc_after);
        assert!(nw.validate().is_ok());
        assert!(equivalent_random(&base, &nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn frontier_is_empty_for_single_part() {
        let (nw, _) = example_1_1();
        let p = partition_network(&nw, 1, &PartitionConfig::default());
        assert!(frontier_nodes(&p).is_empty());
    }

    #[test]
    fn lease_blocks_do_not_collide() {
        let seen: std::collections::HashSet<u32> = (1..200).map(block_base_for).collect();
        assert_eq!(
            seen.len(),
            199,
            "distinct blocks for realistic lease counts"
        );
        assert!(seen.iter().all(|&b| b >= 10_000_000));
    }
}
