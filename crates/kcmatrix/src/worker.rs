//! The rectangle-search worker body: a chunked work queue over leftmost
//! columns, drained by one or more workers sharing a pruning bound.
//!
//! [`crate::pool::SearchPool`] runs [`run_worker`] inline on the calling
//! thread when one worker searches, and on parked pool threads beside
//! it when several do. The body is the same either way; only the
//! [`PassSync`] behind the shared bound differs.
//!
//! ## Determinism rules
//!
//! The result is identical for **any** worker count (including 1):
//!
//! 1. **Canonical winner.** Workers keep their local top-K under the
//!    total (value, cols, rows) order ([`TopK`]) and the merge applies
//!    the same order, so the reduction is independent of which worker
//!    finishes first.
//! 2. **Strict pruning.** A subtree is pruned only when its admissible
//!    bound is *strictly below* the shared bound (`ub < bound`, not
//!    `ub <= bound`). A worker publishes its local K-th best value —
//!    never exceeding the global K-th best value (its local top-K are K
//!    real rectangles at least that good) — so every member of the
//!    global canonical top-K is expanded, evaluated, and retained in
//!    some worker's local list no matter when other workers publish
//!    improvements; late bound arrival can only cost wasted work, never
//!    change the merged winners.
//! 3. **Truncation fallback.** When the shared visit budget denies an
//!    expansion, the set of visited column sets depends on thread
//!    interleaving — so partial worker bests are discarded and the
//!    search returns [`greedy_fallback`]'s list instead: the seed and
//!    every row's full column set, swept after the pass on the calling
//!    thread. The sweep is not budget-charged and always completes, so
//!    the fallback is deterministic too. A pass that completes never
//!    runs it.
//!
//! The same three rules extend to the cross-pass ceilings: a
//! leftmost-column task is skipped only when a *sound upper bound* on
//! its whole subtree (recorded on a previous pass over unchanged
//! columns) is strictly below the current shared bound, so no
//! maximum-value rectangle — and no canonical tie — is ever lost. See
//! [`crate::pool`] for the ceiling invariants.
//!
//! With several workers the shared bound is an `AtomicI64` updated with
//! `fetch_max`: any worker's improvement immediately tightens every
//! other worker's admissible prune. All atomics use relaxed ordering —
//! they carry monotone scalars, never publish memory. A one-worker pass
//! substitutes plain [`Cell`]s ([`SoloSync`]): same algorithm, same
//! enumeration order, no atomic traffic.

use crate::matrix::{ColIdx, KcMatrix, RowIdx};
use crate::rectangle::{
    approx_value, evaluate_with, greedy_row, GreedyBufs, Rectangle, SearchConfig, SearchStats, TopK,
};
use crate::registry::CubeId;
use crate::rowset::RowSet;
use crate::tiles::{TilePanels, TiledSupport};
use pf_sop::fx::FxHashSet;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// How many chunks each worker should expect to claim, on average.
/// Smaller chunks balance better (leftmost-column subtrees are wildly
/// uneven); larger chunks reduce queue contention. Four per worker is a
/// comfortable middle for matrices with hundreds of columns.
const CHUNKS_PER_WORKER: usize = 4;

/// The task queue of one pass: chunks of leftmost columns. The claim
/// counter is atomic but cold (one `fetch_add` per chunk, not per
/// expansion).
pub(crate) struct Queue<'a> {
    /// Leftmost-column explore tasks (admissible, non-empty support).
    tasks: &'a [ColIdx],
    /// Tasks claimed per `fetch_add`.
    chunk: usize,
    /// Next unclaimed task.
    next: AtomicUsize,
}

impl<'a> Queue<'a> {
    pub(crate) fn new(tasks: &'a [ColIdx], nthreads: usize) -> Self {
        Queue {
            tasks,
            chunk: (tasks.len() / (nthreads * CHUNKS_PER_WORKER)).max(1),
            next: AtomicUsize::new(0),
        }
    }
}

/// Budget tickets a worker claims at once, so the shared counter's cache
/// line does not bounce between workers on every expansion. One worker
/// is granted exactly `budget`; several may each leave up to 63 unused,
/// so whether a pass truncates depends on the interleaving there.
pub(crate) const TICKET_BLOCK: u64 = 64;

/// Per-pass synchronisation — the pruning bound, the budget ticket
/// counter and the truncation flag — abstracted so a one-worker pass
/// runs on plain cells instead of atomics. The algorithm is identical
/// either way.
pub(crate) trait PassSync {
    /// Current lower bound on the best value found anywhere.
    fn bound(&self) -> i64;
    /// Monotone max-update of the bound; whether it actually rose.
    fn raise_bound(&self, v: i64) -> bool;
    /// Claims a block of up to [`TICKET_BLOCK`] expansion tickets under
    /// `budget`; returns how many were granted (0: the budget is spent).
    fn grant(&self, budget: u64) -> u64;
    /// Whether some worker had an expansion denied by the budget.
    fn is_truncated(&self) -> bool;
    /// Records a denied expansion.
    fn set_truncated(&self);
}

/// Multi-worker [`PassSync`] over shared atomics.
pub(crate) struct AtomicSync {
    bound: AtomicI64,
    /// Budget tickets handed out so far, in blocks.
    issued: AtomicU64,
    truncated: AtomicBool,
}

impl AtomicSync {
    pub(crate) fn new(init_bound: i64) -> Self {
        AtomicSync {
            bound: AtomicI64::new(init_bound),
            issued: AtomicU64::new(0),
            truncated: AtomicBool::new(false),
        }
    }
}

impl PassSync for AtomicSync {
    #[inline]
    fn bound(&self) -> i64 {
        self.bound.load(Relaxed)
    }
    #[inline]
    fn raise_bound(&self, v: i64) -> bool {
        self.bound.fetch_max(v, Relaxed) < v
    }
    #[inline]
    fn grant(&self, budget: u64) -> u64 {
        let start = self.issued.fetch_add(TICKET_BLOCK, Relaxed);
        budget.saturating_sub(start).min(TICKET_BLOCK)
    }
    #[inline]
    fn is_truncated(&self) -> bool {
        self.truncated.load(Relaxed)
    }
    #[inline]
    fn set_truncated(&self) {
        self.truncated.store(true, Relaxed);
    }
}

/// One-worker [`PassSync`] over plain cells — no atomic traffic. Sound
/// only when exactly one worker runs the pass; results equal the atomic
/// run because the enumeration order and pruning rules are identical.
pub(crate) struct SoloSync {
    bound: Cell<i64>,
    issued: Cell<u64>,
    truncated: Cell<bool>,
}

impl SoloSync {
    pub(crate) fn new(init_bound: i64) -> Self {
        SoloSync {
            bound: Cell::new(init_bound),
            issued: Cell::new(0),
            truncated: Cell::new(false),
        }
    }
}

impl PassSync for SoloSync {
    #[inline]
    fn bound(&self) -> i64 {
        self.bound.get()
    }
    #[inline]
    fn raise_bound(&self, v: i64) -> bool {
        if v > self.bound.get() {
            self.bound.set(v);
            true
        } else {
            false
        }
    }
    #[inline]
    fn grant(&self, budget: u64) -> u64 {
        let start = self.issued.get();
        self.issued.set(start + TICKET_BLOCK);
        budget.saturating_sub(start).min(TICKET_BLOCK)
    }
    #[inline]
    fn is_truncated(&self) -> bool {
        self.truncated.get()
    }
    #[inline]
    fn set_truncated(&self) {
        self.truncated.set(true);
    }
}

/// One worker's owned buffers: the branch-and-bound column stack,
/// per-depth support and candidate pools, the exact-evaluation scratch,
/// and the greedy buffers (used only by worker 0, which runs
/// [`greedy_fallback`]). Everything here is capacity-retaining, which is
/// the point — a worker reuses its scratch across every pass of an
/// extraction run instead of reallocating per call.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    greedy: GreedyBufs,
    cols: Vec<ColIdx>,
    depths: Vec<TiledSupport>,
    cand: Vec<RowSet>,
    rows_buf: Vec<RowIdx>,
    seen: FxHashSet<CubeId>,
    root: TiledSupport,
}

/// Read-only view of the surviving per-column ceilings for one pass
/// (see [`crate::pool`]). Invalid entries force exploration.
pub(crate) struct CeilingsView<'a> {
    pub(crate) vals: &'a [i64],
    pub(crate) valid: &'a [bool],
}

impl CeilingsView<'_> {
    #[inline]
    fn get(&self, c: ColIdx) -> Option<i64> {
        if self.valid.get(c).copied().unwrap_or(false) {
            Some(self.vals[c])
        } else {
            None
        }
    }
}

/// One worker's contribution, merged canonically by [`merge_results`].
pub(crate) struct WorkerResult {
    /// Canonical top-K over the column sets this worker explored.
    found: TopK,
    /// Expansions completed (reported in [`SearchStats::visited`]).
    expansions: u64,
    /// Subtrees this worker cut with the shared bound (including whole
    /// tasks skipped via a surviving ceiling).
    pruned: u64,
    /// Times this worker actually raised the shared bound.
    bound_updates: u64,
    /// Fresh (column, ceiling) pairs for tasks this worker explored to
    /// completion — empty when ceilings are off.
    ceil_out: Vec<(ColIdx, i64)>,
}

/// The leftmost-column task list for one pass: every column with rows.
pub(crate) fn admissible_tasks(m: &KcMatrix) -> Vec<ColIdx> {
    (0..m.cols().len())
        .filter(|&c| !m.cols()[c].rows.is_empty())
        .collect()
}

/// The sound initial shared bound. The re-validated seed's value lower-
/// bounds the best rectangle, but with `topk > 1` only the K-th best
/// value may prune — one known rectangle says nothing about it, so the
/// bound starts at 0.
pub(crate) fn init_bound(cfg: &SearchConfig, seed: Option<&Rectangle>) -> i64 {
    if cfg.topk <= 1 {
        seed.map_or(0, |b| b.value)
    } else {
        0
    }
}

/// Canonical reduction over per-worker results into `acc` (which holds
/// the re-validated seed): the (value, cols, rows) top-K merge over
/// everything the workers found, and the workers' fresh ceilings. A
/// truncated pass merges nothing and records no ceiling — its explored
/// set is interleaving-dependent and its ceilings incomplete (rule 3;
/// the caller answers with [`greedy_fallback`] instead).
pub(crate) fn merge_results(
    results: Vec<WorkerResult>,
    truncated: bool,
    acc: &mut TopK,
) -> (SearchStats, Vec<(ColIdx, i64)>) {
    let stats = SearchStats {
        visited: results.iter().map(|r| r.expansions).sum(),
        budget_exhausted: truncated,
        pruned: results.iter().map(|r| r.pruned).sum(),
        bound_updates: results.iter().map(|r| r.bound_updates).sum(),
    };
    let mut ceil_out = Vec::new();
    if !truncated {
        for r in results {
            acc.merge(r.found);
            ceil_out.extend(r.ceil_out);
        }
    }
    (stats, ceil_out)
}

/// Rule 3's fallback list: every row's full column set as a candidate
/// ([`greedy_row`]), swept in row order into `acc` (which holds the
/// re-validated seed). Deterministic: the row set is fixed, nothing is
/// budget-charged, and the canonical top-K of the rows' rectangles does
/// not depend on the order they arrive in.
pub(crate) fn greedy_fallback(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
    panel: &TilePanels,
    row_full_value: &[i64],
    ws: &mut WorkerScratch,
    acc: &mut TopK,
) {
    for r in 0..m.rows().len() {
        if let Some(rect) = greedy_row(
            m,
            value_of,
            cfg,
            panel,
            row_full_value,
            r,
            &mut ws.greedy,
            acc,
        ) {
            acc.insert(rect);
        }
    }
}

/// One worker's pass: branch and bound over its claimed leftmost-column
/// tasks.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_worker<S: PassSync>(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
    row_full_value: &[i64],
    queue: &Queue<'_>,
    sync: &S,
    ws: &mut WorkerScratch,
    ceil: Option<&CeilingsView<'_>>,
    panel: &TilePanels,
) -> WorkerResult {
    let mut root = std::mem::take(&mut ws.root);
    let mut ceil_out: Vec<(ColIdx, i64)> = Vec::new();
    let mut search = Explorer {
        m,
        value_of,
        cfg,
        row_full_value,
        panel,
        sync,
        stopped: false,
        tickets: 0,
        expansions: 0,
        pruned: 0,
        bound_updates: 0,
        task_ceil: 0,
        found: TopK::new(cfg.topk),
        cols: &mut ws.cols,
        depths: &mut ws.depths,
        cand: &mut ws.cand,
        rows_buf: &mut ws.rows_buf,
        seen: &mut ws.seen,
    };
    'queue: loop {
        let start = queue.next.fetch_add(queue.chunk, Relaxed);
        if start >= queue.tasks.len() {
            break;
        }
        let end = (start + queue.chunk).min(queue.tasks.len());
        for &c0 in &queue.tasks[start..end] {
            if search.stopped || sync.is_truncated() {
                break 'queue;
            }
            if let Some(cv) = ceil.and_then(|view| view.get(c0)) {
                // Cross-pass prune: `cv` upper-bounds every rectangle
                // whose leftmost column is `c0` (the subtree is
                // unchanged since it was recorded). Strictly below the
                // bound — or unable to go positive at all — means the
                // subtree cannot hold the canonical winner nor tie it.
                // The surviving ceiling stays valid for the next pass.
                if cv <= 0 || cv < sync.bound() {
                    search.pruned += 1;
                    continue;
                }
            }
            search.task_ceil = 0;
            search.cols.clear();
            search.cols.push(c0);
            root.load_col(panel, c0);
            root = search.explore(0, root);
            if ceil.is_some() && !search.stopped {
                // Task completed: its running ceiling is a sound upper
                // bound on the whole subtree, fresh for the next pass.
                ceil_out.push((c0, search.task_ceil));
            }
        }
    }
    ws.root = root;
    WorkerResult {
        found: search.found,
        expansions: search.expansions,
        pruned: search.pruned,
        bound_updates: search.bound_updates,
        ceil_out,
    }
}

/// One worker's branch-and-bound state over its claimed tasks.
struct Explorer<'a, S: PassSync> {
    m: &'a KcMatrix,
    value_of: &'a (dyn Fn(CubeId) -> u32 + Sync),
    cfg: &'a SearchConfig,
    row_full_value: &'a [i64],
    /// Column-major tile mirror of the matrix.
    panel: &'a TilePanels,
    /// Shared bound / budget tickets / truncation flag for this pass.
    sync: &'a S,
    /// Local mirror of the truncation flag: once set, unwind without
    /// exploring.
    stopped: bool,
    /// Budget tickets granted to this worker and not yet used.
    tickets: u64,
    /// Expansions *completed* by this worker (reported in stats).
    expansions: u64,
    /// Subtrees cut by the shared-bound prune.
    pruned: u64,
    /// Times this worker's evaluations raised the shared bound.
    bound_updates: u64,
    /// Running upper bound on the best value anywhere in the current
    /// leftmost-column task's subtree: the max over every node's
    /// duplicate-blind `approx` (≥ the exact value of any rectangle on
    /// that column set) and every pruned child's admissible `ub`
    /// (≥ anything in the pruned branch). Sound regardless of
    /// bound-arrival timing — that is what makes it reusable as a
    /// cross-pass ceiling.
    task_ceil: i64,
    /// Local canonical top-K; merged across workers by the caller.
    found: TopK,
    /// Current column set (shared across the recursion as a stack).
    cols: &'a mut Vec<ColIdx>,
    /// Per-depth support buffers, reused between branches.
    depths: &'a mut Vec<TiledSupport>,
    /// Per-depth candidate-column bitsets (universe = column count).
    cand: &'a mut Vec<RowSet>,
    rows_buf: &'a mut Vec<RowIdx>,
    seen: &'a mut FxHashSet<CubeId>,
}

impl<S: PassSync> Explorer<'_, S> {
    /// Expands the current column set (`self.cols`) whose supporting
    /// rows are `rows`. `depth` indexes the scratch pools. Returns the
    /// `rows` buffer so the caller can pool it.
    fn explore(&mut self, depth: usize, rows: TiledSupport) -> TiledSupport {
        if self.sync.is_truncated() {
            self.stopped = true;
            return rows;
        }
        if self.tickets == 0 {
            self.tickets = self.sync.grant(self.cfg.budget);
            if self.tickets == 0 {
                self.sync.set_truncated();
                self.stopped = true;
                return rows;
            }
        }
        self.tickets -= 1;
        self.expansions += 1;

        if self.cols.len() >= self.cfg.min_cols {
            // Rule 2's gate counterpart: evaluate whenever the
            // duplicate-blind upper bound could *tie* the shared bound
            // (`>=`, not `>`), so every maximum-value rectangle reaches
            // the canonical merge regardless of bound timing.
            let approx = approx_value(self.m, self.value_of, self.cols, rows.iter());
            // `approx` upper-bounds every rectangle on this exact
            // column set, so it feeds the task ceiling.
            self.task_ceil = self.task_ceil.max(approx);
            if approx > 0 && approx >= self.sync.bound() {
                self.rows_buf.clear();
                rows.collect_into(self.rows_buf);
                self.seen.clear();
                if let Some(rect) =
                    evaluate_with(self.m, self.value_of, self.cols, self.rows_buf, self.seen)
                {
                    // Publish the local K-th best, never the raw value:
                    // an arbitrary rectangle's value can exceed the
                    // global K-th best and would over-prune. The local
                    // threshold is witnessed by K real rectangles, so it
                    // never does.
                    if self.found.insert(rect) && self.sync.raise_bound(self.found.threshold()) {
                        self.bound_updates += 1;
                    }
                }
            }
        }

        // Extend with columns to the right of the current rightmost. A
        // column intersects the support only if some support row has an
        // entry in it, so enumerate the rows' entries (marked into a
        // column bitset, which dedups and sorts for free) instead of
        // intersecting against every column of the matrix.
        let from = self.cols.last().copied().unwrap_or(0) + 1;
        if self.depths.len() <= depth {
            self.depths.resize_with(depth + 1, TiledSupport::default);
            self.cand.resize_with(depth + 1, RowSet::new);
        }
        let mut cand = std::mem::take(&mut self.cand[depth]);
        cand.reset(self.m.cols().len());
        for r in &rows {
            for &(c, _) in &self.m.rows()[r].entries {
                if c >= from {
                    cand.insert(c);
                }
            }
        }
        for c in &cand {
            // rows ∩ rows(c) and its admissible bound in one pass: every
            // surviving row can contribute at most its full-row value;
            // column costs only grow.
            let mut shared = std::mem::take(&mut self.depths[depth]);
            let ub = shared.and_ub_from(&rows, self.panel, c, self.row_full_value);
            // Rule 2: strict prune — subtrees that could still tie the
            // bound are kept alive. The admissible `ub` covers the
            // pruned branch in the task ceiling.
            if ub <= 0 || ub < self.sync.bound() {
                self.pruned += 1;
                self.task_ceil = self.task_ceil.max(ub);
                self.depths[depth] = shared;
                continue;
            }
            self.cols.push(c);
            let buf = self.explore(depth + 1, shared);
            self.depths[depth] = buf;
            self.cols.pop();
            if self.stopped {
                // Terminal unwind — skip restoring the candidate pool.
                return rows;
            }
        }
        self.cand[depth] = cand;
        rows
    }
}
