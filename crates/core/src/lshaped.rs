//! Algorithm L — kernel extraction with L-shaped partitioning and
//! interactions (paper §5, the paper's main contribution).
//!
//! Pipeline:
//!
//! 1. **Partition** the circuit `p` ways (min cut), one processor per
//!    part; processor `i` generates the kernels of its own nodes into a
//!    local matrix `B_i`, labeling rows/columns from `i · offset + 1`
//!    (§5.2) so identities are globally consistent.
//! 2. **Distribute cube ownership** greedily: a kernel cube belongs to
//!    the first processor (in id order) whose matrix contains it — no
//!    two processors search for kernels made of the same cubes.
//! 3. **Exchange** the overlapping blocks: `B_ij`, the entries of `B_i`
//!    in columns owned by `j`, is *copied* to `B_j`. Processor `i` keeps
//!    its full rows, so the off-diagonal blocks are replicated — the
//!    vertical leg of the "L" — and concurrent evaluation of the same
//!    cubes becomes possible.
//! 4. **Extract concurrently.** Each processor repeatedly finds its best
//!    rectangle, valuing cubes through the shared FREE/COVERED/DIVIDED
//!    table (Table 5): a cube covered by another processor's best
//!    rectangle is worth 0 to everyone else but keeps its `trueval` for
//!    the owner. Committing a rectangle claims its cubes; if the
//!    post-claim value collapses (Example 5.2's race) the claims are
//!    released and the search retried. Rows of *foreign* nodes in a
//!    committed rectangle are shipped to the owning processor, which
//!    applies the §5.3 kernel-cost-zero re-check before dividing: if the
//!    partial rectangle is still profitable with the kernel for free, it
//!    re-adds the (Boolean-redundant) covered cubes and divides; else it
//!    divides the node's existing representation algebraically.
//!
//! The same worker logic runs in two modes: `sequential = true` steps
//! the processors round-robin on the calling thread (deterministic —
//! Table 4's single-processor L-shaped results), otherwise each
//! processor is a real thread (Table 6).

use crate::ctl::StopReason;
use crate::mailbox::{Mailboxes, Step};
use crate::merge::{merge_worker_results, NewNode, WorkerResult};
use crate::report::{ExtractReport, PhaseTiming};
use crate::seq::ExtractConfig;
use crate::trace::Lane;
use parking_lot::Mutex;
use pf_kcmatrix::registry::ConcurrentCubeStates;
use pf_kcmatrix::{
    revalidate_rectangle, select_prefix_nonconflicting, CeilingUpdate, ColIdx, CubeId,
    CubeRegistry, CubeState, KcMatrix, LabelGen, ProcId, Rectangle, RowIdx, SearchPool,
};
use pf_network::{Network, SignalId};
use pf_partition::{partition_network, PartitionConfig};
use pf_sop::fx::FxHashMap;
use pf_sop::{divide, Cube, Sop};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Options for [`lshaped_extract`].
#[derive(Clone, Debug)]
pub struct LShapedConfig {
    /// Number of partitions / processors.
    pub procs: usize,
    /// Extraction options (name prefix extended per processor).
    pub extract: ExtractConfig,
    /// Partitioner options.
    pub partition: PartitionConfig,
    /// Run the processors round-robin on one thread (deterministic;
    /// paper Table 4) instead of as real threads (Table 6).
    pub sequential: bool,
    /// Row/column label block size (the paper prints 100 000).
    pub label_offset: u64,
    /// Enable the Table 5 consistency protocol (value/trueval/owner
    /// claims). Disabling it reproduces Example 5.2's double-counted
    /// savings — ablation only, never for production runs.
    pub consistency_protocol: bool,
    /// Enable the §5.3 kernel-cost-zero re-check on shipped partial
    /// rectangles. Disabling it always re-adds the covered cubes before
    /// dividing — the naive behaviour the paper improves on.
    pub division_recheck: bool,
}

impl Default for LShapedConfig {
    fn default() -> Self {
        LShapedConfig {
            procs: 2,
            extract: ExtractConfig::default(),
            partition: PartitionConfig::default(),
            sequential: false,
            label_offset: LabelGen::DEFAULT_OFFSET,
            consistency_protocol: true,
            division_recheck: true,
        }
    }
}

/// The shared FREE/COVERED/DIVIDED table — the lock-free chunked
/// variant, because the rectangle search reads a cube value per matrix
/// entry and per-read locking would serialize the processors.
type SharedStates = ConcurrentCubeStates;

/// One row of a cross-partition rectangle, shipped to the node's owner.
#[derive(Clone, Debug)]
struct ShippedRow {
    node: SignalId,
    cokernel: Cube,
    /// The covered cubes of this row: interned id + the cube itself.
    covered: Vec<(CubeId, Cube)>,
}

/// A partial rectangle shipped to another processor (§5.3).
#[derive(Clone, Debug)]
struct ShippedRect {
    /// Who extracted the rectangle (claims are in this processor's name).
    initiator: ProcId,
    /// The extracted node's variable in the initiator's id block.
    x_var: u32,
    /// The kernel that was extracted.
    kernel: Sop,
    rows: Vec<ShippedRow>,
}

/// Mailboxes + the release epoch shared by all processors.
struct Transport {
    mail: Mailboxes<ShippedRect>,
    /// Bumped whenever a processor releases claimed cubes. Divides and
    /// claims only ever *lower* the values other processors see, so a
    /// worker whose last search found nothing need not re-search until a
    /// release (or local change) happens — this is what lets idle
    /// workers actually sleep instead of re-running fruitless searches.
    releases: AtomicUsize,
}

impl Transport {
    fn new(p: usize) -> Self {
        Transport {
            mail: Mailboxes::new(p),
            releases: AtomicUsize::new(0),
        }
    }

    /// Records that `me` released claimed cubes: bumps the epoch, then
    /// wakes every other worker, so none of them can finish the run
    /// before it has searched under the new epoch.
    fn release(&self, me: ProcId) {
        self.releases.fetch_add(1, Ordering::SeqCst);
        self.mail.wake_others(me as usize);
    }
}

/// Table 5's `value` of each cube as processor `pid` sees it now.
fn cube_values<'a>(
    weights: &'a [u32],
    states: &'a SharedStates,
    pid: ProcId,
) -> impl Fn(CubeId) -> u32 + Sync + 'a {
    move |id| {
        let w = weights.get(id as usize).copied().unwrap_or(0);
        states.value_for(id, w, pid)
    }
}

/// Per-processor worker state.
struct Worker<'a> {
    pid: ProcId,
    matrix: KcMatrix,
    row_labels: LabelGen,
    col_labels: LabelGen,
    /// Functions of the nodes this processor owns (originals of its part
    /// plus the nodes it extracted), in worker id space.
    funcs: FxHashMap<u32, Sop>,
    /// Which original nodes belong to which processor.
    node_owner: &'a FxHashMap<SignalId, ProcId>,
    registry: &'a CubeRegistry,
    states: &'a SharedStates,
    transport: &'a Transport,
    weights: Vec<u32>,
    cfg: &'a LShapedConfig,
    /// Base of this worker's new-node id block.
    id_base: u32,
    new_nodes: Vec<(u32, String)>,
    rewritten: Vec<SignalId>,
    /// Set when the local matrix changed since the last fruitless
    /// search; cleared (with the observed release epoch) on Nothing.
    dirty: bool,
    /// Release epoch observed at the last fruitless search.
    seen_releases: usize,
    extractions: usize,
    total_value: i64,
    shipped: usize,
    budget_exhausted: bool,
    /// Search passes this worker ran (empty-handed ones included).
    passes: usize,
    /// Batch bookkeeping: candidates returned by the plural searches,
    /// and how conflict selection / claim races split them.
    batch_candidates: usize,
    batch_accepted: usize,
    batch_rejected: usize,
    /// Rectangle committed by this worker's previous extraction —
    /// re-validated against the current matrix to seed the next search.
    prev_best: Option<Rectangle>,
    /// The resident search: this worker's tile panel and cross-pass
    /// ceilings, scratch and parked workers. Claims and divides only
    /// *lower* the values this worker sees; only a release (COVERED →
    /// FREE) can raise one, and [`Transport::release`] bumps the epoch
    /// after it. So a search keeps the ceilings of the previous one
    /// (with `dirty_cols` invalidated) while the epoch read when that
    /// search started has not moved, and resets them otherwise.
    pool: SearchPool,
    /// Columns whose rows changed since the last search: every column
    /// of a tombstoned or appended row, as `Engine::apply` collects
    /// its own.
    dirty_cols: Vec<ColIdx>,
    /// Release epoch read at the start of the previous search (`None`
    /// before the first).
    search_epoch: Option<usize>,
    /// This processor's trace lane (`L<pid>`); inert when disarmed.
    lane: Lane,
}

impl Worker<'_> {
    /// Whether this worker owns (may mutate) the given worker-space id.
    fn owns(&self, id: u32) -> bool {
        if let Some(&owner) = self.node_owner.get(&id) {
            return owner == self.pid;
        }
        // Extracted nodes live in their creator's id block.
        self.funcs.contains_key(&id)
    }

    fn refresh_weights(&mut self) {
        self.registry.extend_weights(&mut self.weights);
        self.states.ensure(self.weights.len());
    }

    /// Marks dirty every column of the rows appended from `first` on.
    fn dirty_rows_from(&mut self, first: RowIdx) {
        for row in &self.matrix.rows()[first..] {
            self.dirty_cols.extend(row.entries.iter().map(|&(c, _)| c));
        }
    }

    /// Re-kernelizes one owned node after its function changed.
    fn rebuild_node_rows(&mut self, node: u32) {
        self.matrix
            .remove_rows_of_nodes(&[node], &mut self.dirty_cols);
        let rows_before = self.matrix.rows().len();
        self.matrix.add_node_kernels(
            node,
            &self.funcs[&node],
            &self.cfg.extract.kernel,
            self.registry,
            &mut self.row_labels,
            &mut self.col_labels,
        );
        self.dirty_rows_from(rows_before);
        self.refresh_weights();
        self.dirty = true;
    }

    /// Processes one shipped partial rectangle (§5.3).
    fn apply_shipped(&mut self, rect: ShippedRect) {
        // Several rows of one node re-kernelize it once, after the last.
        let mut changed: Vec<u32> = Vec::new();
        for row in &rect.rows {
            debug_assert!(self.owns(row.node));
            let Some(f) = self.funcs.get(&row.node) else {
                continue;
            };
            // Kernel-cost-zero profitability (§5.3): a cube counts its
            // true value only if it is still part of the node's current
            // representation and is not banked by a *third* processor
            // (the initiator's own claims are this rectangle's) nor
            // already divided out. Everything else is worth 0 — that is
            // exactly how Example 5.2's false saving is avoided.
            let mut gain0: i64 = -(row.cokernel.len() as i64 + 1);
            let mut present: Vec<Cube> = Vec::new();
            for (id, cube) in &row.covered {
                let spent = match self.states.state(*id) {
                    CubeState::Divided => true,
                    CubeState::Covered(owner) => owner != rect.initiator,
                    CubeState::Free => false,
                };
                if f.contains_cube(cube) {
                    present.push(cube.clone());
                    if !spent {
                        gain0 += cube.len() as i64;
                    }
                }
            }
            let x_cube = Cube::single(pf_sop::Var::new(rect.x_var).lit());
            let new_func = if gain0 > 0 || !self.cfg.division_recheck {
                // Profitable at kernel cost zero: (re-)complete the row
                // and divide — net effect: drop what is present, add
                // cokernel·x.
                let replacement = row
                    .cokernel
                    .product(&x_cube)
                    .expect("fresh extraction variable");
                present.sort_unstable();
                Some(f.replace(&present, vec![replacement]))
            } else if present.is_empty() && self.cfg.division_recheck {
                // The initiator's view was completely stale — nothing of
                // this partial rectangle survives in the node. Dividing
                // anyway would only churn (incidental quotients keep
                // re-structuring the node); drop it.
                None
            } else {
                // Divide the existing representation instead.
                let div = divide(f, &rect.kernel);
                if div.quotient.is_zero() {
                    None
                } else {
                    // The quotient may cover more cubes than the shipped
                    // rectangle did; mark all of them DIVIDED so stale
                    // rows on other processors stop valuing them (they
                    // would otherwise keep triggering worthless
                    // extractions of long-gone cubes).
                    for cube in div.quotient.product(&rect.kernel).iter() {
                        if let Some(id) = self.registry.lookup(row.node, cube) {
                            self.states.mark_divided(id);
                        }
                    }
                    let xq = div.quotient.product_cube(&x_cube);
                    Some(xq.sum(&div.remainder))
                }
            };
            for (id, _) in &row.covered {
                self.states.mark_divided(*id);
            }
            if let Some(func) = new_func {
                self.funcs.insert(row.node, func);
                if !changed.contains(&row.node) {
                    changed.push(row.node);
                }
            }
        }
        for node in changed {
            if self.node_owner.contains_key(&node) {
                self.rewritten.push(node);
            }
            self.rebuild_node_rows(node);
        }
    }

    /// One extraction attempt: [`Step::Progress`] when a rectangle was
    /// committed, [`Step::Conflicted`] when the claim race was lost and
    /// the search must be retried, [`Step::Nothing`] when no positive
    /// rectangle exists right now.
    fn try_extract(&mut self) -> Step {
        if self.extractions >= self.cfg.extract.max_extractions {
            return Step::Nothing;
        }
        // Nothing can have appeared since the last fruitless search
        // unless the local matrix changed or some processor released
        // cubes (divides/claims only lower values).
        let releases_now = self.transport.releases.load(Ordering::SeqCst);
        if !self.dirty && releases_now == self.seen_releases {
            return Step::Nothing;
        }
        let pass = self.lane.start("search");
        // Ceilings survive only while no release can have raised a value
        // since the previous search started (see `pool`).
        let update = if self.search_epoch == Some(releases_now) {
            self.dirty_cols.sort_unstable();
            self.dirty_cols.dedup();
            CeilingUpdate::Dirty(&self.dirty_cols)
        } else {
            CeilingUpdate::Reset
        };
        // The canonical top `search.topk` (the single winner when
        // `topk = 1`).
        let (rects, stats) = self.pool.find(
            &self.matrix,
            &cube_values(&self.weights, self.states, self.pid),
            &self.cfg.extract.search,
            self.prev_best.as_ref(),
            update,
        );
        self.dirty_cols.clear();
        self.search_epoch = Some(releases_now);
        self.passes += 1;
        self.budget_exhausted |= stats.budget_exhausted;
        crate::seq::end_search_span(&mut self.lane, pass, rects.first(), &stats);
        if rects.is_empty() {
            self.dirty = false;
            self.seen_releases = releases_now;
            return Step::Nothing;
        }

        // Drain the wave as `seq::drain_wave` does: commit the canonical
        // non-conflicting prefix (node- and column-disjoint members keep
        // each other's row/column indices and values valid), re-validate
        // the rest under the values this worker now sees, and select
        // again. A claim race lost on any member ends the wave: another
        // processor moved the landscape, which must be re-searched.
        let max = self.cfg.extract.max_extractions;
        let candidates = rects.len();
        let mut wave = rects;
        let mut committed = 0usize;
        let mut conflicted = false;
        'wave: while !wave.is_empty() && self.extractions < max {
            let selected =
                select_prefix_nonconflicting(&self.matrix, &wave, max - self.extractions);
            for rect in &selected {
                if !self.try_commit(rect) {
                    conflicted = true;
                    break 'wave;
                }
                committed += 1;
            }
            let value_of = cube_values(&self.weights, self.states, self.pid);
            wave = wave
                .into_iter()
                .filter(|c| !selected.contains(c))
                .filter_map(|c| {
                    revalidate_rectangle(&self.matrix, &value_of, &self.cfg.extract.search, &c)
                })
                .collect();
        }
        // Each re-validated candidate stands for one the search
        // returned, so `committed ≤ candidates` and candidates =
        // accepted + rejected; the subtraction saturates as seq's does.
        self.batch_candidates += candidates;
        self.batch_accepted += committed;
        self.batch_rejected += candidates.saturating_sub(committed);
        if committed > 0 {
            Step::Progress
        } else if conflicted {
            Step::Conflicted
        } else {
            Step::Nothing
        }
    }

    /// Claims, re-validates and commits one rectangle. Returns whether
    /// it was committed (`false` = lost a claim race — Example 5.2).
    fn try_commit(&mut self, rect: &Rectangle) -> bool {
        // Claim every covered cube (speculative cover, Table 5).
        let mut ids: Vec<CubeId> = Vec::new();
        for &r in &rect.rows {
            let row = &self.matrix.rows()[r];
            for &c in &rect.cols {
                ids.push(row.entry(c).expect("rectangle entry"));
            }
        }
        ids.sort_unstable();
        ids.dedup();
        let claimed: Vec<CubeId> = if self.cfg.consistency_protocol {
            ids.iter()
                .copied()
                .filter(|&id| self.states.claim(id, self.pid))
                .collect()
        } else {
            Vec::new()
        };
        // Re-validate under the claims actually held: cubes another
        // processor banked meanwhile are worth 0 now.
        let revalue = if self.cfg.consistency_protocol {
            self.revalue(rect)
        } else {
            rect.value
        };
        if revalue <= 0 {
            for &id in &claimed {
                self.states.release(id, self.pid);
            }
            if !claimed.is_empty() {
                self.transport.release(self.pid);
            }
            // Another processor banked some of these cubes between the
            // search and the claim (Example 5.2's race). Not idle — the
            // rectangle landscape has changed and must be re-searched.
            return false;
        }

        self.extract(rect, revalue);
        true
    }

    /// Exact current value of a rectangle for this processor.
    fn revalue(&self, rect: &Rectangle) -> i64 {
        let mut seen: Vec<CubeId> = Vec::new();
        let mut total: i64 = -rect
            .cols
            .iter()
            .map(|&c| self.matrix.cols()[c].cube.len() as i64)
            .sum::<i64>();
        for &r in &rect.rows {
            let row = &self.matrix.rows()[r];
            total -= row.cokernel.len() as i64 + 1;
            for &c in &rect.cols {
                let id = row.entry(c).expect("rectangle entry");
                if !seen.contains(&id) {
                    seen.push(id);
                    let w = self.weights.get(id as usize).copied().unwrap_or(0);
                    total += self.states.value_for(id, w, self.pid) as i64;
                }
            }
        }
        total
    }

    /// Commits a claimed rectangle: creates the kernel node, divides own
    /// rows, ships foreign rows to their owners.
    fn extract(&mut self, rect: &Rectangle, value: i64) {
        let apply_span = self.lane.start("apply");
        self.prev_best = Some(rect.clone());
        let kernel = rect.kernel(&self.matrix);
        let x_var = self.id_base + self.new_nodes.len() as u32;
        let name = format!(
            "L{}_{}{}",
            self.pid,
            self.cfg.extract.name_prefix,
            self.new_nodes.len()
        );
        self.new_nodes.push((x_var, name));
        self.funcs.insert(x_var, kernel.clone());
        let x_cube = Cube::single(pf_sop::Var::new(x_var).lit());

        // Partition the rectangle's rows: mine vs. per-foreign-owner.
        let mut mine: FxHashMap<u32, (Vec<Cube>, Vec<Cube>)> = FxHashMap::default();
        let mut foreign: FxHashMap<ProcId, Vec<ShippedRow>> = FxHashMap::default();
        let mut own_covered_ids: Vec<CubeId> = Vec::new();
        let mut used_foreign_rows: Vec<usize> = Vec::new();
        for &r in &rect.rows {
            let row = &self.matrix.rows()[r];
            let covered: Vec<(CubeId, Cube)> = rect
                .cols
                .iter()
                .map(|&c| {
                    let id = row.entry(c).expect("rectangle entry");
                    let cube = row
                        .cokernel
                        .product(&self.matrix.cols()[c].cube)
                        .expect("disjoint");
                    (id, cube)
                })
                .collect();
            if self.owns(row.node) {
                let e = mine.entry(row.node).or_default();
                for (id, cube) in covered {
                    own_covered_ids.push(id);
                    e.0.push(cube);
                }
                e.1.push(row.cokernel.product(&x_cube).expect("fresh var"));
            } else {
                let owner = self.node_owner[&row.node];
                foreign.entry(owner).or_default().push(ShippedRow {
                    node: row.node,
                    cokernel: row.cokernel.clone(),
                    covered,
                });
                used_foreign_rows.push(r);
            }
        }
        // A foreign row is one-shot: once shipped, the owner divides (or
        // discards) that node and our copy is obsolete — keeping it
        // would only produce further stale partial rectangles.
        for r in used_foreign_rows {
            let cols = self.matrix.rows()[r].entries.iter().map(|&(c, _)| c);
            self.dirty_cols.extend(cols);
            self.matrix.tombstone_row(r);
        }

        // Divide my own rows immediately.
        let my_nodes: Vec<u32> = mine.keys().copied().collect();
        for (node, (mut covered, additions)) in mine {
            covered.sort_unstable();
            let f_new = self.funcs[&node].replace(&covered, additions);
            self.funcs.insert(node, f_new);
            if self.node_owner.contains_key(&node) {
                self.rewritten.push(node);
            }
        }
        for &id in &own_covered_ids {
            self.states.mark_divided(id);
        }
        for node in my_nodes {
            self.rebuild_node_rows(node);
        }

        // Ship partial rectangles to the owners of foreign rows.
        for (owner, rows) in foreign {
            self.shipped += rows.len();
            self.transport.mail.send(
                owner as usize,
                ShippedRect {
                    initiator: self.pid,
                    x_var,
                    kernel: kernel.clone(),
                    rows,
                },
            );
        }

        // The new node joins this processor's search space.
        if self.cfg.extract.extract_from_new {
            let rows_before = self.matrix.rows().len();
            self.matrix.add_node_kernels(
                x_var,
                &kernel,
                &self.cfg.extract.kernel,
                self.registry,
                &mut self.row_labels,
                &mut self.col_labels,
            );
            self.dirty_rows_from(rows_before);
            self.refresh_weights();
        }

        self.extractions += 1;
        self.total_value += value;
        self.dirty = true;
        self.lane.end_with(apply_span, || vec![("value", value)]);
    }

    /// Drains the mailbox; returns whether anything was processed. A
    /// message stays in flight, holding the run open, until it has been
    /// applied.
    fn drain_queue(&mut self) -> bool {
        let mut any = false;
        while let Some(rect) = self.transport.mail.pop(self.pid as usize) {
            self.cfg.extract.ctl.fault_point("lshaped:recv");
            self.apply_shipped(rect);
            self.transport.mail.applied();
            any = true;
        }
        any
    }

    /// Final result for the merge phase.
    fn into_result(mut self) -> WorkerDone {
        self.rewritten.sort_unstable();
        self.rewritten.dedup();
        // Rewritten nodes are original ones and new nodes are not, so
        // each function moves out of `funcs` exactly once.
        let rewritten = self
            .rewritten
            .iter()
            .map(|&n| (n, self.funcs.remove(&n).expect("owned node")))
            .collect();
        let new_nodes = std::mem::take(&mut self.new_nodes)
            .into_iter()
            .map(|(id, name)| NewNode {
                worker_id: id,
                func: self.funcs.remove(&id).expect("extracted node"),
                name,
            })
            .collect();
        (
            WorkerResult {
                rewritten,
                new_nodes,
            },
            self.extractions,
            self.total_value,
            self.shipped,
            self.budget_exhausted,
            [
                self.passes,
                self.batch_candidates,
                self.batch_accepted,
                self.batch_rejected,
            ],
        )
    }
}

/// Builds the per-processor L-shaped matrices: local kernels, greedy
/// cube-ownership, `B_ij` exchange. Returns the workers (without
/// transport wiring) plus the ownership map for inspection.
fn setup<'a>(
    nw: &Network,
    parts: &[Vec<SignalId>],
    node_owner: &'a FxHashMap<SignalId, ProcId>,
    registry: &'a CubeRegistry,
    states: &'a SharedStates,
    transport: &'a Transport,
    cfg: &'a LShapedConfig,
) -> Vec<Worker<'a>> {
    let p = parts.len();
    let block = 1_000_000u32;
    let id_base0 = (nw.num_signals() as u32 / block + 1) * block;

    // Per-part matrix generation is independent — run it on threads (the
    // paper's processors generate their own B_i concurrently too; the
    // §5.2 label offsets keep identities consistent regardless of
    // interleaving).
    type BuiltPart = (usize, LabelGen, LabelGen, KcMatrix, FxHashMap<u32, Sop>);
    let built: Vec<BuiltPart> = {
        let out = Mutex::new(Vec::with_capacity(p));
        std::thread::scope(|s| {
            for (pid, part) in parts.iter().enumerate() {
                let out = &out;
                s.spawn(move || {
                    let mut row_labels = LabelGen::new(pid as u16, cfg.label_offset);
                    let mut col_labels = LabelGen::new(pid as u16, cfg.label_offset);
                    let mut matrix = KcMatrix::new();
                    let mut funcs = FxHashMap::default();
                    for &node in part {
                        funcs.insert(node, nw.func(node).clone());
                        matrix.add_node_kernels(
                            node,
                            nw.func(node),
                            &cfg.extract.kernel,
                            registry,
                            &mut row_labels,
                            &mut col_labels,
                        );
                    }
                    out.lock()
                        .push((pid, row_labels, col_labels, matrix, funcs));
                });
            }
        });
        let mut v = out.into_inner();
        v.sort_by_key(|(pid, ..)| *pid);
        v
    };

    let mut workers: Vec<Worker> = Vec::with_capacity(p);
    for (pid, row_labels, col_labels, matrix, funcs) in built {
        workers.push(Worker {
            pid: pid as ProcId,
            matrix,
            row_labels,
            col_labels,
            funcs,
            node_owner,
            registry,
            states,
            transport,
            weights: Vec::new(),
            cfg,
            id_base: id_base0 + pid as u32 * block,
            new_nodes: Vec::new(),
            rewritten: Vec::new(),
            dirty: true,
            seen_releases: 0,
            extractions: 0,
            total_value: 0,
            shipped: 0,
            budget_exhausted: false,
            passes: 0,
            batch_candidates: 0,
            batch_accepted: 0,
            batch_rejected: 0,
            prev_best: None,
            pool: {
                let mut pool = SearchPool::new();
                pool.warm(cfg.extract.search.par_threads);
                pool
            },
            dirty_cols: Vec::new(),
            search_epoch: None,
            lane: cfg.extract.trace.lane(&format!("L{pid}")),
        });
    }

    // Distribute cube ownership greedily over processors in id order.
    let mut cube_owner: FxHashMap<Cube, ProcId> = FxHashMap::default();
    for (pid, w) in workers.iter().enumerate() {
        for col in w.matrix.cols() {
            cube_owner.entry(col.cube.clone()).or_insert(pid as ProcId);
        }
    }

    // Exchange the B_ij blocks: entries of B_i in columns owned by j are
    // copied to B_j (B_i keeps them — the replicated overlap).
    type RawRow = (u64, u32, Cube, Vec<(Cube, CubeId)>);
    let mut shipments: Vec<Vec<RawRow>> = vec![Vec::new(); p];
    for (i, w) in workers.iter().enumerate() {
        for row in w.matrix.rows() {
            let mut per_owner: FxHashMap<ProcId, Vec<(Cube, CubeId)>> = FxHashMap::default();
            for &(c, id) in &row.entries {
                let cube = &w.matrix.cols()[c].cube;
                let owner = cube_owner[cube];
                if owner as usize != i {
                    per_owner.entry(owner).or_default().push((cube.clone(), id));
                }
            }
            for (owner, entries) in per_owner {
                shipments[owner as usize].push((
                    row.label,
                    row.node,
                    row.cokernel.clone(),
                    entries,
                ));
            }
        }
    }
    for (j, rows) in shipments.into_iter().enumerate() {
        let w = &mut workers[j];
        for (label, node, cokernel, entries) in rows {
            w.matrix
                .add_row_with_entries(label, node, cokernel, entries, &mut w.col_labels);
        }
    }

    states.ensure(registry.len());
    for w in &mut workers {
        w.refresh_weights();
    }
    workers
}

/// Runs Algorithm L on the network, in place.
pub fn lshaped_extract(nw: &mut Network, cfg: &LShapedConfig) -> ExtractReport {
    let mut lane = cfg.extract.trace.lane("lshaped");
    let start = Instant::now();
    let p = cfg.procs.max(1);
    let lc_before = nw.literal_count();

    let setup_span = lane.start("setup");
    let partition = partition_network(nw, p, &cfg.partition);
    let parts = partition.parts();
    let node_owner: FxHashMap<SignalId, ProcId> = parts
        .iter()
        .enumerate()
        .flat_map(|(pid, ns)| ns.iter().map(move |&n| (n, pid as ProcId)))
        .collect();

    let registry = CubeRegistry::new();
    let states = SharedStates::new();
    let transport = Transport::new(p);
    let workers = setup(nw, &parts, &node_owner, &registry, &states, &transport, cfg);
    lane.end_with(setup_span, || vec![("parts", p as i64)]);
    let setup_elapsed = start.elapsed();

    let extract_span = lane.start("extract");
    let (results, stopped) = if cfg.sequential {
        run_sequential(workers, &transport)
    } else {
        run_threaded(workers)
    };
    lane.end_with(extract_span, || vec![("parts", p as i64)]);
    let extract_elapsed = start.elapsed().saturating_sub(setup_elapsed);

    let mut extractions = 0;
    let mut total_value = 0;
    let mut shipped = 0;
    let mut exhausted = false;
    let mut passes = 0usize;
    let mut batch_counts = [0usize; 3];
    let mut worker_results = Vec::new();
    for (wr, e, v, s, b, [ps, bc, ba, br]) in results {
        worker_results.push(wr);
        extractions += e;
        total_value += v;
        shipped += s;
        exhausted |= b;
        passes += ps;
        batch_counts[0] += bc;
        batch_counts[1] += ba;
        batch_counts[2] += br;
    }
    let merge_span = lane.start("merge");
    let created = merge_worker_results(nw, worker_results).expect("L-shaped merge");
    // A kernel node whose cross-partition divisions all came up empty is
    // dead logic; SIS's scripts would sweep it, we do it here.
    crate::merge::remove_dead_nodes(nw, &created);
    lane.end(merge_span);

    // `stopped` is what the workers actually observed; the reason comes
    // from the control handle (re-read here, after the fact, which is
    // fine: neither flag can un-set itself).
    let (timed_out, cancelled) = if stopped {
        match cfg.extract.ctl.stop_reason() {
            Some(StopReason::Cancelled) => (false, true),
            _ => (true, false),
        }
    } else {
        (false, false)
    };
    let elapsed = start.elapsed();
    let merge_elapsed = elapsed.saturating_sub(setup_elapsed + extract_elapsed);

    ExtractReport {
        lc_before,
        lc_after: nw.literal_count(),
        extractions,
        total_value,
        elapsed,
        budget_exhausted: exhausted,
        shipped_rectangles: shipped,
        timed_out,
        cancelled,
        degraded: false,
        recovery_rects: 0,
        passes,
        batch_candidates: batch_counts[0],
        batch_accepted: batch_counts[1],
        batch_rejected: batch_counts[2],
        resub_pairs_considered: 0,
        resub_pairs_divided: 0,
        resub_worklist_rounds: 0,
        setup: setup_elapsed,
        phases: vec![
            PhaseTiming::new("setup", setup_elapsed),
            PhaseTiming::new("extract", extract_elapsed),
            PhaseTiming::new("merge", merge_elapsed),
        ],
    }
}

/// Deterministic round-robin driver (Table 4 mode). The second return
/// is whether the run was stopped early by its [`RunCtl`](crate::ctl::RunCtl).
/// Per-worker completion record: the worker's result plus its
/// extraction count, value, shipped-rectangle count, budget flag, and
/// `[passes, batch_candidates, batch_accepted, batch_rejected]`.
type WorkerDone = (WorkerResult, usize, i64, usize, bool, [usize; 4]);

fn run_sequential(mut workers: Vec<Worker<'_>>, transport: &Transport) -> (Vec<WorkerDone>, bool) {
    let mut stopped = false;
    loop {
        if let Some(w) = workers.first() {
            w.cfg.extract.ctl.fault_point("lshaped:step");
        }
        if workers
            .first()
            .is_some_and(|w| w.cfg.extract.ctl.should_stop())
        {
            stopped = true;
            break;
        }
        let mut progress = false;
        for w in &mut workers {
            progress |= w.drain_queue();
            // Conflicts cannot happen round-robin (claims are never held
            // across steps), so a commit is the only progress signal.
            progress |= w.try_extract() == Step::Progress;
        }
        if !progress && transport.mail.all_empty() {
            break;
        }
    }
    (
        workers.into_iter().map(Worker::into_result).collect(),
        stopped,
    )
}

/// Threaded driver (Table 6 mode). The second return is whether the run
/// was stopped early by its [`RunCtl`](crate::ctl::RunCtl).
fn run_threaded(workers: Vec<Worker<'_>>) -> (Vec<WorkerDone>, bool) {
    let out: Mutex<Vec<(usize, WorkerDone)>> = Mutex::new(Vec::new());
    let any_stopped = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        for mut w in workers {
            let out = &out;
            let any_stopped = &any_stopped;
            s.spawn(move || {
                let pid = w.pid as usize;
                let (cfg, transport) = (w.cfg, w.transport);
                let stop = || {
                    // Every worker shares the handle, so all of them
                    // stop together and none is left waiting on a
                    // departed thread. Fault site: latency and cancel
                    // are safe here; a panic would strand the others.
                    cfg.extract.ctl.fault_point("lshaped:step");
                    let stop = cfg.extract.ctl.should_stop();
                    if stop {
                        any_stopped.store(true, Ordering::SeqCst);
                    }
                    stop
                };
                transport.mail.drive(pid, stop, || {
                    let drained_any = w.drain_queue();
                    let outcome = w.try_extract();
                    if drained_any {
                        Step::Progress
                    } else {
                        outcome
                    }
                });
                out.lock().push((pid, w.into_result()));
            });
        }
    });
    let mut v = out.into_inner();
    v.sort_by_key(|(pid, _)| *pid);
    (
        v.into_iter().map(|(_, r)| r).collect(),
        any_stopped.load(Ordering::SeqCst),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::extract_kernels;
    use pf_kcmatrix::SearchConfig;
    use pf_network::example::example_1_1;
    use pf_network::sim::{equivalent_random, EquivConfig};

    fn seq_cfg(procs: usize) -> LShapedConfig {
        LShapedConfig {
            procs,
            sequential: true,
            ..LShapedConfig::default()
        }
    }

    /// `(profile, labelling, network digest, extractions)` of
    /// [`lshaped_extract`] in sequential mode (paper Table 4) at p = 2,
    /// over the profiles and labellings of `seq::tests::GOLDEN`.
    const GOLDEN_SEQUENTIAL_P2: [(&str, u64, &str, usize); 18] = [
        ("misex3", 0, "1015255ddf6f30361f638959e3c370eb", 19),
        ("misex3", 1, "d67d27f4aa5d74bf86927506c0866e38", 19),
        ("misex3", 2, "7db9b97c25c249a0605fed90a7691624", 19),
        ("dalu", 0, "ed31578e66b3a82fbb4d5a0eef55a8eb", 14),
        ("dalu", 1, "0f7109fe174e1fb2ea4a629fa944cfa4", 14),
        ("dalu", 2, "a03f98b02c6d9470bc28db28ce778b63", 14),
        ("des", 0, "232bda4fd0927829003e37d7cc8fd00f", 7),
        ("des", 1, "963334415bad00c5c0b77302a47c6279", 7),
        ("des", 2, "1a2133035b9fc70b73308b81ab2ff0c4", 7),
        ("seq", 0, "c97abc56c15f95c5ca72c60fac26793f", 16),
        ("seq", 1, "ff36749ad52d4ac27e7a1801ceb5d732", 16),
        ("seq", 2, "7af5b06918ba89a7a2ce14cdb6339607", 16),
        ("spla", 0, "46e84fa47e2d25e7f16f8ceb4a529f60", 63),
        ("spla", 1, "93260d3fc145fc4a70406f3415d9a490", 62),
        ("spla", 2, "2fd3ddf853f7438fb05b06330ef06acf", 62),
        ("ex1010", 0, "15797cd93c7e83e7be73c2a470b33bf0", 90),
        ("ex1010", 1, "e61369becdef7b5b2822cd5a67d76de4", 89),
        ("ex1010", 2, "1cb739fab06ce819ed7ea5a618939052", 88),
    ];

    #[test]
    fn sequential_p2_reproduces_the_golden_table() {
        crate::seq::tests::assert_driver_golden(&GOLDEN_SEQUENTIAL_P2, |nw| {
            lshaped_extract(nw, &seq_cfg(2))
        });
    }

    #[test]
    fn single_proc_sequential_matches_baseline() {
        let (mut a, _) = example_1_1();
        let (mut b, _) = example_1_1();
        let rep_l = lshaped_extract(&mut a, &seq_cfg(1));
        let rep_s = extract_kernels(&mut b, &[], &ExtractConfig::default());
        assert_eq!(rep_l.lc_after, rep_s.lc_after);
        assert_eq!(rep_l.shipped_rectangles, 0);
    }

    #[test]
    fn two_way_sequential_quality_close_to_sis() {
        // Table 4's claim: L-shaped partitioning degrades quality only
        // negligibly versus the full sequential run.
        let (mut nw, _) = example_1_1();
        let original = nw.clone();
        let report = lshaped_extract(&mut nw, &seq_cfg(2));
        assert_eq!(report.lc_before, 33);
        assert!(report.lc_after <= 25, "lc_after = {}", report.lc_after);
        assert!(report.lc_after >= 21);
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
        assert!(nw.validate().is_ok());
    }

    #[test]
    fn ctl_cancel_stops_both_driver_modes() {
        for sequential in [true, false] {
            let (mut nw, _) = example_1_1();
            let cfg = LShapedConfig {
                procs: 2,
                sequential,
                ..LShapedConfig::default()
            };
            cfg.extract.ctl.cancel();
            let report = lshaped_extract(&mut nw, &cfg);
            assert!(report.cancelled, "sequential={sequential}");
            assert!(!report.timed_out);
            assert_eq!(report.extractions, 0, "sequential={sequential}");
            assert!(nw.validate().is_ok());
        }
    }

    #[test]
    fn phases_setup_extract_merge() {
        let (mut nw, _) = example_1_1();
        let report = lshaped_extract(&mut nw, &seq_cfg(2));
        let names: Vec<&str> = report.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["setup", "extract", "merge"]);
        assert_eq!(report.phase("setup"), Some(report.setup));
    }

    #[test]
    fn sequential_mode_is_deterministic() {
        let run = || {
            let (mut nw, _) = example_1_1();
            let r = lshaped_extract(&mut nw, &seq_cfg(2));
            (r.lc_after, r.extractions, r.shipped_rectangles)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn threaded_mode_preserves_function() {
        use crate::seq::tests::{relabel, PROFILES};
        let check = |input: &Network, procs: usize, which: &str| {
            let mut nw = input.clone();
            let report = lshaped_extract(
                &mut nw,
                &LShapedConfig {
                    procs,
                    sequential: false,
                    ..LShapedConfig::default()
                },
            );
            assert!(report.lc_after <= report.lc_before, "{which}");
            assert_eq!(
                report.batch_candidates,
                report.batch_accepted + report.batch_rejected,
                "{which}"
            );
            assert!(
                equivalent_random(input, &nw, &EquivConfig::default()).unwrap(),
                "{which}"
            );
            assert!(nw.validate().is_ok(), "{which}");
        };
        let (example, _) = example_1_1();
        for procs in [2usize, 3, 4] {
            check(&example, procs, &format!("example 1.1 procs={procs}"));
        }
        for (name, scale) in PROFILES {
            let profile = pf_workloads::profile_by_name(name).unwrap();
            let base = pf_workloads::generate(&pf_workloads::scale_profile(&profile, scale));
            for labelling in 0..3u64 {
                let input = relabel(&base, labelling);
                for procs in [2usize, 3] {
                    check(
                        &input,
                        procs,
                        &format!("{name} labelling {labelling} procs={procs}"),
                    );
                }
            }
        }
    }

    #[test]
    fn slow_apply_of_a_shipped_rectangle_does_not_end_the_run_early() {
        // A worker that pops a shipped rectangle keeps the run open until
        // it has applied it. If a peer could leave while the apply is
        // still running, the receiver might then ship rows back to the
        // departed peer and wait forever for them to be processed. The
        // run is watched from outside so that a hang fails the test.
        use crate::ctl::RunCtl;
        use crate::fault::{FaultPlan, FaultRule};
        use std::sync::{mpsc, Arc};
        use std::time::Duration;
        let plan = Arc::new(FaultPlan::new(3).with_rule(FaultRule::latency_at(
            "lshaped:recv",
            Duration::from_millis(15),
        )));
        let (tx, rx) = mpsc::channel();
        let worker_plan = Arc::clone(&plan);
        std::thread::spawn(move || {
            for (seed, procs) in [(13, 2), (17, 2), (13, 3), (21, 4)] {
                let profile = pf_workloads::CircuitProfile::small("lrecv", seed);
                let mut nw = pf_workloads::generate(&profile);
                let original = nw.clone();
                let mut cfg = LShapedConfig {
                    procs,
                    sequential: false,
                    ..LShapedConfig::default()
                };
                cfg.extract.ctl = RunCtl::new().with_faults(Arc::clone(&worker_plan));
                let report = lshaped_extract(&mut nw, &cfg);
                let _ = tx.send((seed, procs, report, original, nw));
            }
        });
        for _ in 0..4 {
            let (seed, procs, report, original, nw) = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("threaded Algorithm L did not terminate");
            assert!(!report.timed_out && !report.cancelled);
            assert!(report.lc_after <= report.lc_before);
            assert!(
                equivalent_random(&original, &nw, &EquivConfig::default()).unwrap(),
                "seed={seed} procs={procs}"
            );
        }
        assert!(plan.hits("lshaped:recv") >= 1, "no rectangle was shipped");
    }

    #[test]
    fn quality_at_least_as_good_as_independent_on_average_case() {
        // The L-shape sees cross-partition rectangles that Algorithm I
        // cannot; on the paper's example it must not do worse.
        use crate::independent::{independent_extract, IndependentConfig};
        let (mut l, _) = example_1_1();
        lshaped_extract(&mut l, &seq_cfg(2));
        let (mut i, _) = example_1_1();
        independent_extract(
            &mut i,
            &IndependentConfig {
                procs: 2,
                ..IndependentConfig::default()
            },
        );
        assert!(
            l.literal_count() <= i.literal_count(),
            "L {} vs I {}",
            l.literal_count(),
            i.literal_count()
        );
    }

    #[test]
    fn cross_partition_rectangles_are_shipped() {
        // Force the partition that separates F from {G, H}: the a+b
        // rectangle spans both parts, so at least one partial rectangle
        // must travel (unless the partitioner found the other split —
        // then the overlap is still exercised through ownership).
        let (mut nw, _) = example_1_1();
        let report = lshaped_extract(&mut nw, &seq_cfg(2));
        // The example is tiny; just assert the machinery ran and the
        // result is sane. Ship count is partition-dependent.
        assert!(report.extractions >= 1);
    }

    #[test]
    fn paper_label_offsets_in_figure_4_setup() {
        // Example 5.1: processor 1's first kernel row is labeled 100001
        // when the paper's offset is used.
        let (nw, _) = example_1_1();
        let cfg = LShapedConfig {
            procs: 2,
            sequential: true,
            label_offset: LabelGen::PAPER_OFFSET,
            ..LShapedConfig::default()
        };
        let partition = partition_network(&nw, 2, &cfg.partition);
        let parts = partition.parts();
        let node_owner: FxHashMap<SignalId, ProcId> = parts
            .iter()
            .enumerate()
            .flat_map(|(pid, ns)| ns.iter().map(move |&n| (n, pid as ProcId)))
            .collect();
        let registry = CubeRegistry::new();
        let states = SharedStates::new();
        let transport = Transport::new(2);
        let workers = setup(
            &nw,
            &parts,
            &node_owner,
            &registry,
            &states,
            &transport,
            &cfg,
        );
        assert!(workers[1]
            .matrix
            .rows()
            .iter()
            .all(|r| r.label > 100_000 || !parts[1].contains(&r.node)));
        // Worker 0's matrix contains shipped rows from worker 1 (or vice
        // versa): at least one matrix has rows from both id spaces
        // unless no cube overlap exists (not the case for Eq. 1).
        let mixed = workers.iter().any(|w| {
            let has_own = w.matrix.rows().iter().any(|r| r.label < 100_000);
            let has_foreign = w.matrix.rows().iter().any(|r| r.label > 100_000);
            has_own && has_foreign
        });
        assert!(mixed, "the L-shape must mix rows of both processors");
    }

    #[test]
    fn b_ij_blocks_are_identical_on_both_processors() {
        // §5.2: "the overlapping portions, i.e. the non-diagonal blocks
        // B_ij, have to be same in all of them." For every worker i and
        // every entry of B_i whose kernel cube is owned by j ≠ i, worker
        // j must hold a row with the same label containing the same
        // (kernel cube, interned cube id) entry.
        let (nw, _) = example_1_1();
        for procs in [2usize, 3] {
            let cfg = LShapedConfig {
                procs,
                sequential: true,
                ..LShapedConfig::default()
            };
            let partition = partition_network(&nw, procs, &cfg.partition);
            let parts = partition.parts();
            let node_owner: FxHashMap<SignalId, ProcId> = parts
                .iter()
                .enumerate()
                .flat_map(|(pid, ns)| ns.iter().map(move |&n| (n, pid as ProcId)))
                .collect();
            let registry = CubeRegistry::new();
            let states = SharedStates::new();
            let transport = Transport::new(procs);
            let workers = setup(
                &nw,
                &parts,
                &node_owner,
                &registry,
                &states,
                &transport,
                &cfg,
            );
            // Recompute greedy first-seen cube ownership the way setup
            // does: over each worker's *own* columns in processor order.
            // Own columns are exactly the kernels of its part nodes.
            let mut cube_owner: FxHashMap<Cube, usize> = FxHashMap::default();
            for (pid, part) in parts.iter().enumerate() {
                for &n in part {
                    for pair in pf_sop::kernels(nw.func(n)) {
                        for kc in pair.kernel.iter() {
                            cube_owner.entry(kc.clone()).or_insert(pid);
                        }
                    }
                }
            }
            for (i, wi) in workers.iter().enumerate() {
                for row in wi.matrix.rows() {
                    // Only this worker's own rows (its part's nodes).
                    if node_owner.get(&row.node) != Some(&(i as ProcId)) {
                        continue;
                    }
                    for &(c, id) in &row.entries {
                        let cube = &wi.matrix.cols()[c].cube;
                        let j = cube_owner[cube];
                        if j == i {
                            continue;
                        }
                        let wj = &workers[j];
                        let found = wj.matrix.rows().iter().any(|rj| {
                            rj.label == row.label
                                && rj.node == row.node
                                && rj.entries.iter().any(|&(cj, idj)| {
                                    idj == id && &wj.matrix.cols()[cj].cube == cube
                                })
                        });
                        assert!(
                            found,
                            "procs={procs}: B_{i}{j} entry (row {}, cube {cube}) \
                             missing on processor {j}",
                            row.label
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_lshaped_keeps_quality_and_counts() {
        // Batched L-shaped workers pull top-K per search and commit the
        // non-conflicting subset via claim/revalue, so quality must stay
        // within tolerance of the one-per-pass run and the batch
        // counters must balance (candidates = accepted + rejected).
        let profile = pf_workloads::CircuitProfile::small("lbatch", 13);
        let base = pf_workloads::generate(&profile);

        let mut classic_nw = base.clone();
        let mut classic_cfg = seq_cfg(2);
        classic_cfg.extract.search = SearchConfig::classic();
        let classic = lshaped_extract(&mut classic_nw, &classic_cfg);
        assert!(classic.extractions >= 1);

        for topk in [4usize, 16] {
            let mut nw = base.clone();
            let original = nw.clone();
            let mut cfg = seq_cfg(2);
            cfg.extract.search.topk = topk;
            let report = lshaped_extract(&mut nw, &cfg);
            assert!(nw.validate().is_ok(), "topk={topk}");
            assert!(
                equivalent_random(&original, &nw, &EquivConfig::default()).unwrap(),
                "topk={topk}"
            );
            assert!(report.passes >= 1, "topk={topk}");
            assert_eq!(
                report.batch_candidates,
                report.batch_accepted + report.batch_rejected,
                "topk={topk}"
            );
            assert!(
                report.batch_accepted >= report.extractions.min(1),
                "topk={topk}"
            );
            // Quality tolerance: within 1% of the one-per-pass L-shaped run.
            let tol = classic.lc_after + classic.lc_after.div_ceil(100);
            assert!(
                report.lc_after <= tol,
                "topk={topk}: lc {} vs classic {}",
                report.lc_after,
                classic.lc_after
            );
        }
    }
}
