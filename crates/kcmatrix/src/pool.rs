//! The resident rectangle search: a [`SearchPool`] owns everything one
//! search pass needs besides the matrix — the column-major tile panel,
//! the cross-pass per-column ceilings, each worker's scratch, and (with
//! `par_threads ≥ 2`) the parked worker threads.
//!
//! The extraction loop searches the same, slowly changing matrix
//! hundreds of times per circuit. Keeping this state resident makes the
//! steady-state pass spawn-free and allocation-free:
//!
//! * the panel is re-encoded only in the columns the caller declares
//!   dirty ([`CeilingUpdate::Dirty`]), not rebuilt per pass;
//! * each worker — including worker 0, which runs on the calling thread
//!   — owns one scratch for its whole life, so buffer capacities survive
//!   across passes (and across jobs, when the pool itself is reused by
//!   a resident service);
//! * a one-worker pass touches no locks, no condvars and no shared
//!   bound: it runs the worker body inline over plain `Cell` state (the
//!   task queue's claim counters are its only atomics, one uncontended
//!   `fetch_add` per chunk);
//! * background workers are spawned once ([`SearchPool::warm`], or
//!   lazily on the first pass that needs them) and park on a condvar
//!   between passes.
//!
//! # Cross-pass ceilings
//!
//! After `Engine::apply`, only the rows and columns intersecting the
//! applied rectangle change — every other leftmost-column subtree would
//! be re-explored bit-identically. The pool therefore remembers, per
//! leftmost column, a **ceiling**: a sound upper bound on the value of
//! any rectangle rooted at that column, recorded when the column's task
//! ran to completion. On the next pass the caller declares which
//! columns are dirty ([`CeilingUpdate::Dirty`]) and a surviving (clean,
//! valid) ceiling strictly below the pass's shared bound prunes the
//! whole task before it starts.
//!
//! ## Invariants
//!
//! 1. **Admissibility.** A task's recorded ceiling is the running max
//!    of `approx_value` over every expanded node of its subtree and of
//!    the admissible `ub` of every bound-pruned edge. Any positive
//!    -value rectangle in the subtree either sits at an expanded node
//!    (its exact value ≤ that node's `approx`) or below a pruned edge
//!    (its value ≤ that edge's `ub`) — so the ceiling bounds them all,
//!    regardless of how the shared bound moved while the task ran.
//! 2. **Staleness.** A ceiling is only consulted while its column's
//!    subtree is byte-identical to when it was recorded. The caller
//!    must mark dirty every column that gained or lost a row, or whose
//!    rows' values changed; [`CeilingUpdate::Off`] and truncated passes
//!    invalidate everything (a truncated pass completes no task set
//!    worth trusting, and its explored prefix is interleaving-
//!    dependent). A fingerprint of `(min_cols, stripe)` guards against
//!    config drift between passes — `approx` and task admission depend
//!    on both.
//! 3. **Determinism.** The skip test is `ceiling < bound` (strict) or
//!    `ceiling ≤ 0`: identical in spirit to the in-pass strict prune,
//!    so a subtree that could still *tie* the final winner is always
//!    re-explored and the canonical (value, cols, rows) merge sees the
//!    same candidate set as a cold pass. Warm and cold passes return
//!    byte-identical rectangles; only `SearchStats` (visited/pruned
//!    counts) differ.
//! 4. **One matrix.** The panel and the ceilings describe the matrix of
//!    the previous pass. [`SearchPool::forget_matrix`] drops both before
//!    the pool moves to another matrix (a compacted one, or another
//!    job's); a pool with no panel builds one on its next pass whatever
//!    the update says. Seeding ceilings from a snapshot drops the panel
//!    too: a snapshot vouches for ceilings, not for the matrix the pool
//!    last saw.
//!
//! The ceilings are *task-level* pruning state. They are never used to
//! seed the shared lower bound — they are upper bounds, and feeding one
//! into the bound could prune a true maximum elsewhere. The bound is
//! seeded, as always, from the re-validated previous-pass rectangle.

use crate::matrix::{ColIdx, KcMatrix};
use crate::rectangle::{
    revalidate_rectangle, row_full_values, Rectangle, SearchConfig, SearchStats,
};
use crate::registry::CubeId;
use crate::tiles::TilePanels;
use crate::worker::{
    admissible_tasks, init_bound, merge_results, run_worker, AtomicSync, CeilingsView, PassSync,
    Queue, SoloSync, WorkerResult, WorkerScratch,
};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What the matrix of a pass has in common with the previous pass's,
/// and so how the pool treats its stored panel and ceilings.
pub enum CeilingUpdate<'a> {
    /// Unknown: rebuild the panel, drop any stored ceilings and record
    /// none. For callers whose cube values can *rise* between passes
    /// (e.g. the L-shaped engine's COVERED→FREE release).
    Off,
    /// A new matrix: forget the stored panel and ceilings, then record
    /// fresh ones.
    Reset,
    /// The same matrix, changed only in these columns (and in rows
    /// appended since the last pass — the caller must include the
    /// appended rows' columns). Clean columns keep their panel words and
    /// their ceilings.
    Dirty(&'a [ColIdx]),
}

/// Type-erased pass body handed to the parked workers. The `'static` is
/// a lie told via [`std::mem::transmute`] in [`SearchPool::run_pass`],
/// made sound because the caller blocks until every participant
/// finished the pass — no borrow in the closure outlives the call.
type Job = Arc<dyn Fn(usize, &mut WorkerScratch) + Send + Sync + 'static>;

/// [`Job`] before the lifetime lie: the same closure object still
/// carrying its real borrows.
type BorrowedJob<'a> = Arc<dyn Fn(usize, &mut WorkerScratch) + Send + Sync + 'a>;

struct PoolState {
    /// Bumped once per multi-worker pass; sleeping workers wake on it.
    epoch: u64,
    job: Option<Job>,
    /// Background workers participating in the current pass. A worker
    /// with `idx > participants` skips the epoch without touching
    /// `active` (a pass may use fewer workers than exist).
    participants: usize,
    /// Participants still running the current pass.
    active: usize,
    panicked: bool,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between passes.
    work_cv: Condvar,
    /// The caller parks here until `active == 0`.
    done_cv: Condvar,
}

/// Per-column cross-pass ceilings (see the module docs).
#[derive(Default)]
struct Ceilings {
    vals: Vec<i64>,
    valid: Vec<bool>,
    /// `(min_cols, stripe)` the ceilings were recorded under; a
    /// mismatch invalidates everything.
    fingerprint: Option<(usize, Option<(u32, u32)>)>,
}

/// A portable copy of a pool's per-column ceilings, for warm-starting a
/// *different* pool over a byte-identical matrix (the cross-job half of
/// the ceiling story — see [`SearchPool::export_ceilings`]).
///
/// Soundness is the caller's contract: a snapshot may only be seeded
/// into a pass over a matrix byte-identical to the one it was recorded
/// over (content-addressing in `pf-cache` is what establishes that).
/// Config drift is still self-guarding — the embedded `(min_cols,
/// stripe)` fingerprint makes a mismatched pass reset instead of
/// consulting stale bounds — and determinism invariant 3 (strict skip
/// test) keeps seeded passes byte-identical to cold ones.
#[derive(Clone, Debug, Default)]
pub struct CeilingSnapshot {
    vals: Vec<i64>,
    valid: Vec<bool>,
    fingerprint: Option<(usize, Option<(u32, u32)>)>,
}

impl CeilingSnapshot {
    /// Number of columns with a valid (consultable) ceiling.
    pub fn valid_columns(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }
}

impl Ceilings {
    fn invalidate_all(&mut self) {
        self.valid.iter_mut().for_each(|v| *v = false);
        self.fingerprint = None;
    }

    fn reset(&mut self, ncols: usize) {
        self.vals.clear();
        self.vals.resize(ncols, 0);
        self.valid.clear();
        self.valid.resize(ncols, false);
        self.fingerprint = None;
    }
}

/// The resident rectangle search: tile panel, cross-pass ceilings,
/// per-worker scratch and parked workers (see the module docs). Create
/// one per extraction run (or adopt one per resident worker thread),
/// drive every pass through [`SearchPool::find`], and drop it when done
/// — `Drop` joins the background threads.
pub struct SearchPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Worker 0's scratch — the inline worker on the calling thread.
    solo: WorkerScratch,
    spawned: u64,
    passes: u64,
    ceil: Ceilings,
    /// Column-major tile mirror of the previous pass's matrix, kept in
    /// sync across passes by the same dirty-column bookkeeping that
    /// drives the ceilings (see [`crate::tiles`]); `None` until a pass
    /// builds it, and after [`SearchPool::forget_matrix`].
    panel: Option<TilePanels>,
    /// `tile` phase counters: full panel (re)builds and in-place
    /// column re-encodes, for observability (`tile_rebuilds` /
    /// `tile_synced_cols`).
    tile_rebuilds: u64,
    tile_synced_cols: u64,
}

impl Default for SearchPool {
    fn default() -> Self {
        SearchPool::new()
    }
}

impl SearchPool {
    /// A pool with no background threads yet; they are spawned lazily
    /// by the first pass that needs them (or eagerly by [`warm`]).
    ///
    /// [`warm`]: SearchPool::warm
    pub fn new() -> Self {
        SearchPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    participants: 0,
                    active: 0,
                    panicked: false,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            handles: Vec::new(),
            solo: WorkerScratch::default(),
            spawned: 0,
            passes: 0,
            ceil: Ceilings::default(),
            panel: None,
            tile_rebuilds: 0,
            tile_synced_cols: 0,
        }
    }

    /// Eagerly spawns the background workers an `nthreads`-wide pass
    /// will use, so the first search pays no spawn latency. Call before
    /// the measured region starts; `nthreads ≤ 1` spawns nothing.
    pub fn warm(&mut self, nthreads: usize) {
        self.ensure_bg(nthreads.saturating_sub(1));
    }

    /// Background (parked) worker threads currently alive.
    pub fn bg_threads(&self) -> usize {
        self.handles.len()
    }

    /// Total threads ever spawned by this pool — the warm-pool
    /// regression metric: repeated passes must not move it.
    pub fn spawned_threads(&self) -> u64 {
        self.spawned
    }

    /// Search passes executed through this pool.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// `tile` phase counter: full panel (re)builds this pool performed.
    /// A steady-state incremental run should pin this at 1 per matrix
    /// (the first pass) — a climbing count means the dirty contract
    /// keeps forcing rebuilds.
    pub fn tile_rebuilds(&self) -> u64 {
        self.tile_rebuilds
    }

    /// `tile` phase counter: columns re-encoded in place (dirty or
    /// appended) across all incremental panel syncs.
    pub fn tile_synced_cols(&self) -> u64 {
        self.tile_synced_cols
    }

    /// Drops the panel and the ceilings — the state that belongs to the
    /// previous pass's matrix — and keeps the threads and the scratch.
    /// Call before moving the pool to a different matrix; the next pass
    /// rebuilds both.
    pub fn forget_matrix(&mut self) {
        self.panel = None;
        self.ceil = Ceilings::default();
    }

    /// Copies the current ceilings out for cross-job warm-starting, or
    /// `None` when nothing consultable is stored (ceilings off,
    /// invalidated, or no completed pass yet).
    pub fn export_ceilings(&self) -> Option<CeilingSnapshot> {
        if self.ceil.fingerprint.is_none() || !self.ceil.valid.iter().any(|&v| v) {
            return None;
        }
        Some(CeilingSnapshot {
            vals: self.ceil.vals.clone(),
            valid: self.ceil.valid.clone(),
            fingerprint: self.ceil.fingerprint,
        })
    }

    /// Installs a snapshot exported by [`export_ceilings`], replacing
    /// any stored ceilings, and drops the panel (invariant 4). The next
    /// [`CeilingUpdate::Dirty`] pass consults the ceilings; see
    /// [`CeilingSnapshot`] for the matrix-identity contract the caller
    /// must uphold.
    ///
    /// [`export_ceilings`]: SearchPool::export_ceilings
    pub fn seed_ceilings(&mut self, snap: &CeilingSnapshot) {
        self.panel = None;
        self.ceil.vals = snap.vals.clone();
        self.ceil.valid = snap.valid.clone();
        self.ceil.fingerprint = snap.fingerprint;
    }

    /// One search pass over `m`: the canonical top `cfg.topk`
    /// rectangles under the (value, cols, rows) order, best-first,
    /// identical for every `par_threads` and every `update` mode.
    ///
    /// `value_of` maps a cube to its current value: its literal count,
    /// or 0 when it is divided or covered by another processor (the
    /// paper's `V`, read with the asking processor's identity baked in).
    ///
    /// `seed` is a rectangle from a previous pass; it is re-validated
    /// against the current matrix and, when still positive, joins the
    /// result and (with `topk = 1`) starts the pruning bound. `update`
    /// says how `m` relates to the previous pass's matrix (see
    /// [`CeilingUpdate`]).
    pub fn find(
        &mut self,
        m: &KcMatrix,
        value_of: &(dyn Fn(CubeId) -> u32 + Sync),
        cfg: &SearchConfig,
        seed: Option<&Rectangle>,
        update: CeilingUpdate<'_>,
    ) -> (Vec<Rectangle>, SearchStats) {
        let init_best = seed.and_then(|s| revalidate_rectangle(m, value_of, cfg, s));
        let ncols = m.cols().len();
        let dirty: Option<&[ColIdx]> = match update {
            CeilingUpdate::Off => None,
            CeilingUpdate::Reset => {
                self.forget_matrix();
                Some(&[])
            }
            CeilingUpdate::Dirty(dirty) => Some(dirty),
        };

        // Panel prologue: a resident panel re-encodes only the dirty and
        // appended columns; without one, or without dirty information,
        // it is built from scratch.
        match (self.panel.as_mut(), dirty) {
            (Some(panel), Some(dirty)) => {
                let appended = ncols.saturating_sub(panel.ncols());
                if panel.sync(m.rows().len(), m.cols(), cfg.tile_width, dirty) {
                    self.tile_rebuilds += 1;
                } else {
                    self.tile_synced_cols += (appended + dirty.len()) as u64;
                }
            }
            _ => {
                self.panel = Some(TilePanels::build(m.rows().len(), m.cols(), cfg.tile_width));
                self.tile_rebuilds += 1;
            }
        }

        // Ceiling prologue: decide whether this pass consults and records
        // ceilings, and apply the caller-declared invalidation.
        let enabled = match dirty {
            None => {
                self.ceil.invalidate_all();
                false
            }
            Some(dirty) => {
                let fp = Some((cfg.min_cols, cfg.stripe));
                if self.ceil.fingerprint != fp || self.ceil.vals.len() > ncols {
                    // Nothing recorded, config drift, or a shrunk matrix
                    // (should not happen — rows are tombstoned, columns
                    // appended): start over.
                    self.ceil.reset(ncols);
                } else {
                    // New columns arrive invalid; dirty columns flip off.
                    self.ceil.vals.resize(ncols, 0);
                    self.ceil.valid.resize(ncols, false);
                    for &c in dirty {
                        if let Some(v) = self.ceil.valid.get_mut(c) {
                            *v = false;
                        }
                    }
                }
                true
            }
        };

        let tasks = admissible_tasks(m, cfg);
        if tasks.is_empty() {
            // No admissible leftmost column ⇒ the greedy sweep (whose
            // rows need an admissible leftmost column too) finds nothing
            // either.
            return (init_best.into_iter().collect(), SearchStats::default());
        }
        let row_full_value = row_full_values(m, value_of);
        let nthreads = cfg.par_threads.min(tasks.len()).max(1);
        let greedy_rows = if cfg.greedy_seed { m.rows().len() } else { 0 };
        let queue = Queue::new(&tasks, nthreads, greedy_rows);
        let init_bound = init_bound(cfg, init_best.as_ref());

        // Move the ceilings and the panel out of the pool so
        // `run_pass(&mut self)` and the read-only views can coexist.
        let mut ceil = std::mem::take(&mut self.ceil);
        let panel = self.panel.take().expect("the prologue built the panel");
        self.passes += 1;
        let (results, truncated) = {
            let view = enabled.then_some(CeilingsView {
                vals: &ceil.vals,
                valid: &ceil.valid,
            });
            let view = view.as_ref();
            if nthreads == 1 {
                // Atomic-free pass straight on the caller's thread;
                // identical enumeration and pruning, so identical
                // results.
                let sync = SoloSync::new(init_bound);
                let result = run_worker(
                    m,
                    value_of,
                    cfg,
                    &row_full_value,
                    &queue,
                    &sync,
                    &mut self.solo,
                    view,
                    &panel,
                );
                (vec![result], sync.is_truncated())
            } else {
                let sync = AtomicSync::new(init_bound);
                let slots: Vec<Mutex<Option<WorkerResult>>> =
                    (0..nthreads).map(|_| Mutex::new(None)).collect();
                self.run_pass(nthreads, &|idx: usize, ws: &mut WorkerScratch| {
                    let r = run_worker(
                        m,
                        value_of,
                        cfg,
                        &row_full_value,
                        &queue,
                        &sync,
                        ws,
                        view,
                        &panel,
                    );
                    *slots[idx].lock() = Some(r);
                });
                let results = slots
                    .into_iter()
                    .map(|s| s.into_inner().expect("every pass worker reports"))
                    .collect();
                (results, sync.is_truncated())
            }
        };
        let (best, stats, ceil_out) = merge_results(results, init_best, truncated, cfg.topk);

        // Ceiling epilogue: commit the freshly recorded ceilings — unless
        // the pass truncated, in which case nothing finished cleanly and
        // every stored ceiling dies with it (invariant 2).
        if enabled {
            if truncated {
                ceil.invalidate_all();
            } else {
                for (c, v) in ceil_out {
                    ceil.vals[c] = v;
                    ceil.valid[c] = true;
                }
                ceil.fingerprint = Some((cfg.min_cols, cfg.stripe));
            }
        }
        self.ceil = ceil;
        // The panel stays valid regardless of truncation — it mirrors
        // matrix *content*, not search state.
        self.panel = Some(panel);

        (best, stats)
    }

    fn ensure_bg(&mut self, nbg: usize) {
        while self.handles.len() < nbg {
            let idx = self.handles.len() + 1; // worker 0 is inline
            let shared = Arc::clone(&self.shared);
            let start_epoch = shared.state.lock().epoch;
            self.spawned += 1;
            let h = std::thread::Builder::new()
                .name(format!("pf-search-{idx}"))
                .spawn(move || worker_loop(shared, idx, start_epoch))
                .expect("spawn search pool worker");
            self.handles.push(h);
        }
    }

    /// Runs `f(worker_index, scratch)` on `nworkers ≥ 2` workers: index
    /// 0 inline on the calling thread, the rest on parked pool threads.
    /// Blocks until all participants return. Panics (after the pass
    /// fully drains) if any worker panicked.
    fn run_pass<F>(&mut self, nworkers: usize, f: &F)
    where
        F: Fn(usize, &mut WorkerScratch) + Sync,
    {
        let nbg = nworkers.saturating_sub(1);
        self.ensure_bg(nbg);

        // Erase the closure's borrows; sound because this function does
        // not return until `active == 0` (every participant is done and
        // has dropped its clone of the job).
        let job: Job = {
            let arc: BorrowedJob<'_> = Arc::new(f);
            #[allow(clippy::missing_transmute_annotations)]
            unsafe {
                std::mem::transmute(arc)
            }
        };
        {
            let mut st = self.shared.state.lock();
            st.job = Some(job);
            st.participants = nbg;
            st.active = nbg;
            st.panicked = false;
            st.epoch += 1;
            self.shared.work_cv.notify_all();
        }

        f(0, &mut self.solo);

        let mut st = self.shared.state.lock();
        while st.active > 0 {
            self.shared.done_cv.wait(&mut st);
        }
        st.job = None;
        let panicked = st.panicked;
        drop(st);
        assert!(!panicked, "search worker panicked");
    }
}

impl Drop for SearchPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>, idx: usize, start_epoch: u64) {
    // The worker's whole point: scratch allocated once, reused across
    // every pass (and every job) until the pool is dropped.
    let mut scratch = WorkerScratch::default();
    let mut seen_epoch = start_epoch;
    loop {
        let (job, participate) = {
            let mut st = shared.state.lock();
            while !st.shutdown && st.epoch == seen_epoch {
                shared.work_cv.wait(&mut st);
            }
            if st.shutdown {
                return;
            }
            seen_epoch = st.epoch;
            // A worker past the pass's width skips without touching
            // `active` — it was never counted in.
            if idx <= st.participants {
                (st.job.clone(), true)
            } else {
                (None, false)
            }
        };
        if !participate {
            continue;
        }
        let job = job.expect("participant woken without a job");
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(idx, &mut scratch)));
        drop(job);
        let mut st = shared.state.lock();
        if outcome.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::LabelGen;
    use crate::registry::{CubeId, CubeRegistry};
    use pf_sop::kernel::KernelConfig;
    use pf_sop::{Cube, Lit, Sop};

    fn cube(ids: &[u32]) -> Cube {
        Cube::from_lits(ids.iter().map(|&i| Lit::pos(i)))
    }

    fn sop(cubes: &[&[u32]]) -> Sop {
        Sop::from_cubes(cubes.iter().map(|c| cube(c)))
    }

    /// The KC matrix of `funcs` (node ids from 10 down).
    fn matrix_of(funcs: &[Sop]) -> (KcMatrix, Vec<u32>) {
        let reg = CubeRegistry::new();
        let mut m = KcMatrix::new();
        let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let kc = KernelConfig::default();
        for (i, f) in funcs.iter().enumerate() {
            m.add_node_kernels(10 - i as u32, f, &kc, &reg, &mut rl, &mut cl);
        }
        let weights = reg.weights_snapshot();
        (m, weights)
    }

    /// The paper's network N (Eq. 1) — same fixture as the rectangle
    /// tests: F (id 10), G (id 9), H (id 8), vars a=1 … g=7.
    fn paper_matrix() -> (KcMatrix, Vec<u32>) {
        matrix_of(&[
            sop(&[
                &[1, 6],
                &[2, 6],
                &[1, 7],
                &[3, 7],
                &[1, 4, 5],
                &[2, 4, 5],
                &[3, 4, 5],
            ]),
            sop(&[&[1, 6], &[2, 6], &[1, 3, 5], &[2, 3, 5]]),
            sop(&[&[1, 4, 5], &[3, 4, 5]]),
        ])
    }

    /// One pass through `pool` over cube weights `w`;
    /// the head of the list.
    fn best(
        pool: &mut SearchPool,
        m: &KcMatrix,
        w: &[u32],
        cfg: &SearchConfig,
        seed: Option<&Rectangle>,
        update: CeilingUpdate<'_>,
    ) -> (Option<Rectangle>, SearchStats) {
        let value_of = |id: CubeId| w[id as usize];
        let (rects, stats) = pool.find(m, &value_of, cfg, seed, update);
        (rects.into_iter().next(), stats)
    }

    #[test]
    fn one_thread_pass_spawns_no_threads() {
        let (m, w) = paper_matrix();
        let mut pool = SearchPool::new();
        let cfg = SearchConfig {
            par_threads: 1,
            ..SearchConfig::default()
        };
        for _ in 0..5 {
            let _ = best(&mut pool, &m, &w, &cfg, None, CeilingUpdate::Off);
        }
        assert_eq!(pool.spawned_threads(), 0, "t1 passes must never spawn");
        assert_eq!(pool.bg_threads(), 0);
        assert_eq!(pool.passes(), 5);
    }

    #[test]
    fn warm_pool_never_respawns() {
        let (m, w) = paper_matrix();
        let mut pool = SearchPool::new();
        let cfg = SearchConfig {
            par_threads: 4,
            ..SearchConfig::default()
        };
        pool.warm(4);
        let after_warm = pool.spawned_threads();
        assert!(after_warm <= 3);
        let mut rects = Vec::new();
        for _ in 0..8 {
            let (r, _) = best(&mut pool, &m, &w, &cfg, None, CeilingUpdate::Off);
            rects.push(r);
        }
        assert_eq!(
            pool.spawned_threads(),
            after_warm,
            "warm pool must not spawn per pass"
        );
        // Every warm pass returns the same canonical rectangle.
        for r in &rects[1..] {
            assert_eq!(r, &rects[0]);
        }
    }

    #[test]
    fn ceilings_preserve_results_across_identical_passes() {
        let (m, w) = paper_matrix();
        let cfg = SearchConfig {
            par_threads: 1,
            ..SearchConfig::default()
        };
        let mut pool = SearchPool::new();
        let (cold, _) = best(&mut pool, &m, &w, &cfg, None, CeilingUpdate::Reset);
        // Nothing dirty: every surviving ceiling may prune, and the
        // result must still be byte-identical.
        let (warm, warm_stats) = best(&mut pool, &m, &w, &cfg, None, CeilingUpdate::Dirty(&[]));
        assert_eq!(cold, warm);
        // Seeding the warm pass with the cold winner makes the bound
        // tight from the start — ceilings then prune almost everything.
        let (seeded, seeded_stats) = best(
            &mut pool,
            &m,
            &w,
            &cfg,
            cold.as_ref(),
            CeilingUpdate::Dirty(&[]),
        );
        assert_eq!(cold, seeded);
        assert!(seeded_stats.visited <= warm_stats.visited);
    }

    #[test]
    fn exported_ceilings_warm_start_a_fresh_pool_identically() {
        let (m, w) = paper_matrix();
        let cfg = SearchConfig {
            par_threads: 1,
            ..SearchConfig::default()
        };
        let mut cold_pool = SearchPool::new();
        let (cold, cold_stats) = best(&mut cold_pool, &m, &w, &cfg, None, CeilingUpdate::Reset);
        let snap = cold_pool.export_ceilings().expect("completed pass records");
        assert!(snap.valid_columns() > 0);
        // A brand-new pool seeded with the snapshot over the identical
        // matrix: byte-identical winner, no more work than cold.
        let mut warm_pool = SearchPool::new();
        warm_pool.seed_ceilings(&snap);
        let (warm, warm_stats) = best(
            &mut warm_pool,
            &m,
            &w,
            &cfg,
            cold.as_ref(),
            CeilingUpdate::Dirty(&[]),
        );
        assert_eq!(cold, warm);
        assert!(warm_stats.visited <= cold_stats.visited);
        // Fresh pool with nothing stored exports nothing.
        assert!(SearchPool::new().export_ceilings().is_none());
    }

    #[test]
    fn seeded_ceilings_never_reuse_another_matrix_panel() {
        // A pool that last searched a small matrix is seeded with the
        // ceilings of a larger one and told nothing is dirty. The large
        // matrix fits the small one's padded panel, so only the rule
        // that seeding drops the panel keeps the pass from intersecting
        // against the small matrix's columns.
        let (big, wb) = paper_matrix();
        let (small, ws) = matrix_of(&[sop(&[&[1, 3], &[1, 4], &[2, 3], &[2, 4]])]);
        for threads in [1usize, 2] {
            let cfg = SearchConfig {
                par_threads: threads,
                ..SearchConfig::default()
            };
            let mut cold_pool = SearchPool::new();
            let (cold, _) = best(&mut cold_pool, &big, &wb, &cfg, None, CeilingUpdate::Reset);
            let snap = cold_pool.export_ceilings().expect("completed pass records");

            let mut pool = SearchPool::new();
            let _ = best(&mut pool, &small, &ws, &cfg, None, CeilingUpdate::Reset);
            pool.seed_ceilings(&snap);
            let (warm, _) = best(&mut pool, &big, &wb, &cfg, None, CeilingUpdate::Dirty(&[]));
            assert_eq!(warm, cold, "threads={threads}");
            assert_eq!(pool.tile_rebuilds(), 2, "seeding forces a rebuild");
        }
    }

    #[test]
    fn off_update_invalidates_stored_ceilings() {
        let (m, w) = paper_matrix();
        let cfg = SearchConfig {
            par_threads: 1,
            ..SearchConfig::default()
        };
        let mut pool = SearchPool::new();
        let _ = best(&mut pool, &m, &w, &cfg, None, CeilingUpdate::Reset);
        assert!(pool.ceil.valid.iter().any(|&v| v));
        let _ = best(&mut pool, &m, &w, &cfg, None, CeilingUpdate::Off);
        assert!(pool.ceil.valid.iter().all(|&v| !v));
    }

    #[test]
    fn fingerprint_mismatch_resets_ceilings() {
        let (m, w) = paper_matrix();
        let mut pool = SearchPool::new();
        let cfg1 = SearchConfig {
            par_threads: 1,
            min_cols: 2,
            ..SearchConfig::default()
        };
        let _ = best(&mut pool, &m, &w, &cfg1, None, CeilingUpdate::Reset);
        // min_cols changed: stored ceilings are meaningless; Dirty(&[])
        // must behave like Reset, and the result must match a fresh
        // search under the new config.
        let cfg2 = SearchConfig {
            par_threads: 1,
            min_cols: 1,
            ..SearchConfig::default()
        };
        let (warm, _) = best(&mut pool, &m, &w, &cfg2, None, CeilingUpdate::Dirty(&[]));
        let (cold, _) = best(
            &mut SearchPool::new(),
            &m,
            &w,
            &cfg2,
            None,
            CeilingUpdate::Off,
        );
        assert_eq!(warm, cold);
    }

    #[test]
    fn truncated_pass_invalidates_ceilings_and_falls_back() {
        let (m, w) = paper_matrix();
        let cfg = SearchConfig {
            par_threads: 1,
            budget: 1,
            ..SearchConfig::default()
        };
        let mut pool = SearchPool::new();
        let (rect, stats) = best(&mut pool, &m, &w, &cfg, None, CeilingUpdate::Reset);
        assert!(stats.budget_exhausted);
        // Rule 3: the greedy fallback still yields a rectangle here.
        assert!(rect.is_some());
        assert!(pool.ceil.valid.iter().all(|&v| !v));
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives_drop() {
        let mut pool = SearchPool::new();
        pool.warm(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_pass(2, &|idx, _ws| {
                if idx == 1 {
                    panic!("injected");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must still drain and drop cleanly afterwards.
        drop(pool);
    }

    #[test]
    fn surplus_workers_skip_narrow_passes() {
        // 4-wide warm pool running 2-wide passes: the two surplus
        // workers must not corrupt the active count.
        let mut pool = SearchPool::new();
        pool.warm(4);
        for _ in 0..6 {
            let hits = Mutex::new(0usize);
            pool.run_pass(2, &|_idx, _ws| {
                *hits.lock() += 1;
            });
            assert_eq!(*hits.lock(), 2);
        }
    }

    #[test]
    fn empty_matrix_returns_seed() {
        let m = KcMatrix::new();
        let mut pool = SearchPool::new();
        let cfg = SearchConfig {
            par_threads: 2,
            ..SearchConfig::default()
        };
        let (rect, stats) = best(&mut pool, &m, &[], &cfg, None, CeilingUpdate::Reset);
        assert!(rect.is_none());
        assert_eq!(stats.visited, 0);
        assert_eq!(pool.spawned_threads(), 0);
    }

    #[test]
    fn kernel_of_best_matches_reference() {
        // Smoke: the winner's kernel extraction works end to end.
        let (m, w) = paper_matrix();
        let cfg = SearchConfig {
            par_threads: 2,
            ..SearchConfig::default()
        };
        let mut pool = SearchPool::new();
        let (rect, _) = best(&mut pool, &m, &w, &cfg, None, CeilingUpdate::Reset);
        let rect = rect.expect("paper matrix has a rectangle");
        let kernel = rect.kernel(&m);
        assert!(kernel.cubes().len() >= 2);
        assert!(!kernel.cubes().iter().any(Cube::is_empty));
    }
}
