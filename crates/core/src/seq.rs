//! Sequential kernel extraction — the SIS `gkx` equivalent baseline.
//!
//! The greedy rectangle-cover loop of §2/§3: build the co-kernel cube
//! matrix for the candidate nodes, find the maximum-valued rectangle,
//! extract it (create a node for the kernel, rewrite the covered rows),
//! refresh the affected rows, and repeat until no rectangle has positive
//! value. The [`Engine`] exposes the individual steps so Algorithm R can
//! drive the same loop with a striped search and replicated state.

use crate::ctl::RunCtl;
use crate::report::{ExtractReport, PhaseTiming};
use crate::trace::{Lane, Tracer};
use pf_cache::WarmStart;
use pf_kcmatrix::{
    revalidate_rectangle, select_prefix_nonconflicting, CeilingSnapshot, CeilingUpdate, ColIdx,
    CubeRegistry, KcMatrix, LabelGen, Rectangle, SearchConfig, SearchPool, SearchStats,
};
use pf_network::{Network, SignalId};
use pf_sop::fx::{FxHashMap, FxHashSet};
use pf_sop::kernel::{kernels_config, CoKernelPair, KernelConfig};
use pf_sop::{Cube, Sop};
use std::time::Instant;

/// Options for the sequential extractor.
#[derive(Clone, Debug)]
pub struct ExtractConfig {
    /// Kernel enumeration options.
    pub kernel: KernelConfig,
    /// Rectangle search options.
    pub search: SearchConfig,
    /// Hard cap on extractions (safety valve; the loop terminates on its
    /// own because every extraction strictly reduces the literal count).
    pub max_extractions: usize,
    /// Name prefix for extracted nodes (`[prefix]0`, `[prefix]1`, …).
    pub name_prefix: String,
    /// Whether freshly extracted nodes join the candidate set and are
    /// themselves mined for kernels (SIS does this).
    pub extract_from_new: bool,
    /// Cooperative stop control (deadline / external cancellation),
    /// checked at the cover-loop head. Cloning the config shares the
    /// handle, so every worker of a parallel driver stops together.
    pub ctl: RunCtl,
    /// Span/event recorder. Disarmed by default (every hook is one
    /// branch); cloning the config shares the trace, so nested and
    /// parallel drivers all record into the same timeline.
    pub trace: Tracer,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        ExtractConfig {
            kernel: KernelConfig::default(),
            search: SearchConfig::default(),
            max_extractions: usize::MAX,
            name_prefix: "kx_".to_string(),
            extract_from_new: true,
            ctl: RunCtl::new(),
            trace: Tracer::disarmed(),
        }
    }
}

/// The stepwise extraction engine: matrix + registry + label state.
pub struct Engine {
    matrix: KcMatrix,
    registry: CubeRegistry,
    weights: Vec<u32>,
    row_labels: LabelGen,
    col_labels: LabelGen,
    targets: Vec<SignalId>,
    cfg: ExtractConfig,
    counter: usize,
    applied: usize,
    /// Best rectangle applied in the previous pass of this engine's
    /// cover loop — re-validated against the current matrix and used to
    /// seed the next search's pruning bound.
    prev_best: Option<Rectangle>,
    /// The resident search: this matrix's tile panel and cross-pass
    /// per-column ceilings, worker scratch, and parked threads when
    /// `search.par_threads ≥ 2`.
    pool: SearchPool,
    /// Columns invalidated by [`Engine::apply`] since the last search —
    /// the dirty set for the pool's panel and ceilings.
    dirty_cols: Vec<ColIdx>,
    /// Rows are compacted at a search head once the tombstones exceed
    /// this many times the alive rows. Result-invariant, so not a
    /// config field; tests set `0` (compact whenever a tombstone
    /// exists) or `usize::MAX` (never) to prove that.
    pub(crate) compact_dead_per_alive: usize,
}

/// Starts the fresh-name counter past every `{prefix}{N}` already in the
/// network, so [`Engine::apply`] almost never probes occupied names
/// (each probe used to cost a `format!` + lookup per collision).
fn counter_past_existing(nw: &Network, prefix: &str) -> usize {
    let mut next = 0usize;
    for id in nw.signal_ids() {
        if let Some(tail) = nw.name(id).strip_prefix(prefix) {
            if let Ok(n) = tail.parse::<usize>() {
                next = next.max(n + 1);
            }
        }
    }
    next
}

/// One generator's share of the §3 *parallel generation* scheme: the
/// kernels of every `procs`-th target, starting at target `pid`, with
/// rows labelled from generator `pid`'s [`LabelGen`] block.
pub struct KernelShare {
    /// Per owned target, in target order: its `(label, co-kernel pair)`
    /// rows in enumeration order.
    per_target: Vec<Vec<(u64, CoKernelPair)>>,
}

impl KernelShare {
    /// Enumerates the kernels of generator `pid` of `procs`.
    pub fn generate(
        nw: &Network,
        targets: &[SignalId],
        kernel: &KernelConfig,
        pid: usize,
        procs: usize,
    ) -> Self {
        let mut labels = LabelGen::new(pid as u16, LabelGen::DEFAULT_OFFSET);
        let per_target = targets
            .iter()
            .skip(pid)
            .step_by(procs.max(1))
            .map(|&t| {
                kernels_config(nw.func(t), kernel)
                    .into_iter()
                    .map(|pair| (labels.next(), pair))
                    .collect()
            })
            .collect();
        KernelShare { per_target }
    }
}

impl Engine {
    /// Builds the matrix over `targets` (internal nodes of `nw`).
    pub fn new(nw: &Network, targets: &[SignalId], cfg: ExtractConfig) -> Self {
        let registry = CubeRegistry::new();
        let mut matrix = KcMatrix::new();
        let mut row_labels = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let mut col_labels = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        for &t in targets {
            matrix.add_node_kernels(
                t,
                nw.func(t),
                &cfg.kernel,
                &registry,
                &mut row_labels,
                &mut col_labels,
            );
        }
        Engine::assemble(nw, targets, cfg, matrix, registry, row_labels, col_labels)
    }

    /// Builds the matrix from the [`KernelShare`]s of the §3 parallel
    /// generation, `shares[pid]` being generator `pid`'s. The rows are
    /// merged in target order, so every replica that merges the same
    /// shares holds the same matrix, and that matrix is [`Engine::new`]'s
    /// row for row and column for column: only the row labels differ,
    /// and no search or apply reads a label. Algorithm R therefore makes
    /// exactly the extractions the sequential cover makes.
    pub fn from_shares(
        nw: &Network,
        targets: &[SignalId],
        cfg: ExtractConfig,
        shares: &[&KernelShare],
    ) -> Self {
        let procs = shares.len();
        let registry = CubeRegistry::new();
        let mut matrix = KcMatrix::new();
        // Fresh kernels after extraction get labels from a dedicated
        // high block so they never collide with the generators'.
        let row_labels = LabelGen::new(procs as u16 + 1, LabelGen::DEFAULT_OFFSET);
        let mut col_labels = LabelGen::new(procs as u16 + 1, LabelGen::DEFAULT_OFFSET);
        for (k, &node) in targets.iter().enumerate() {
            for (label, pair) in &shares[k % procs].per_target[k / procs] {
                matrix.add_row(
                    *label,
                    node,
                    pair.cokernel.clone(),
                    &pair.kernel,
                    &registry,
                    &mut col_labels,
                );
            }
        }
        Engine::assemble(nw, targets, cfg, matrix, registry, row_labels, col_labels)
    }

    fn assemble(
        nw: &Network,
        targets: &[SignalId],
        cfg: ExtractConfig,
        matrix: KcMatrix,
        registry: CubeRegistry,
        row_labels: LabelGen,
        col_labels: LabelGen,
    ) -> Self {
        let weights = registry.weights_snapshot();
        let counter = counter_past_existing(nw, &cfg.name_prefix);
        Engine {
            matrix,
            registry,
            weights,
            row_labels,
            col_labels,
            targets: targets.to_vec(),
            cfg,
            counter,
            applied: 0,
            prev_best: None,
            pool: SearchPool::new(),
            dirty_cols: Vec::new(),
            compact_dead_per_alive: 1,
        }
    }

    /// Pre-spawns the pool's background workers (no-op for
    /// `par_threads ≤ 1`). Drivers call this before their measured
    /// cover loop so no pass pays spawn latency.
    pub fn warm_pool(&mut self) {
        self.pool.warm(self.cfg.search.par_threads);
    }

    /// Hands an existing pool to this engine in place of its own,
    /// reusing its warmed threads and scratch. Its panel and ceilings
    /// describe another matrix and are dropped.
    pub fn adopt_pool(&mut self, mut pool: SearchPool) {
        pool.forget_matrix();
        self.pool = pool;
    }

    /// The engine's pool, for the next job on this worker thread.
    pub fn into_pool(self) -> SearchPool {
        self.pool
    }

    /// The pool's `tile` phase counters: full panel (re)builds and
    /// incrementally re-encoded columns so far.
    pub fn tile_counters(&self) -> (u64, u64) {
        (self.pool.tile_rebuilds(), self.pool.tile_synced_cols())
    }

    /// The matrix (for inspection / rendering).
    pub fn matrix(&self) -> &KcMatrix {
        &self.matrix
    }

    /// Searches for the best rectangle — the head of
    /// [`Engine::search_batch`]'s list; `stripe` optionally restricts
    /// the leftmost column as in Algorithm R. Returns the full
    /// [`SearchStats`] (visited / pruned / bound-update counters) so
    /// callers can trace per-pass search behaviour.
    pub fn search(&mut self, stripe: Option<(u32, u32)>) -> (Option<Rectangle>, SearchStats) {
        let (rects, stats) = self.search_batch(stripe);
        (rects.into_iter().next(), stats)
    }

    /// Collects the canonical top `search.topk` rectangles of this
    /// pass, best-first.
    ///
    /// No rectangle of an earlier pass is outstanding at a search head
    /// (every driver applies or drops its wave before searching again),
    /// so this is also where tombstoned rows are compacted away.
    pub fn search_batch(&mut self, stripe: Option<(u32, u32)>) -> (Vec<Rectangle>, SearchStats) {
        self.compact_sparse_rows();
        let cfg = SearchConfig {
            stripe,
            ..self.cfg.search.clone()
        };
        // Only the columns `apply` dirtied are re-encoded and lose their
        // ceilings, so unchanged leftmost-column subtrees prune from
        // their surviving ceilings immediately. A wave applies many
        // rectangles per pass; deduplicating once here, not per apply,
        // keeps apply's cost independent of the wave size.
        self.dirty_cols.sort_unstable();
        self.dirty_cols.dedup();
        let weights = &self.weights;
        let out = self.pool.find(
            &self.matrix,
            &|id| weights[id as usize],
            &cfg,
            self.prev_best.as_ref(),
            CeilingUpdate::Dirty(&self.dirty_cols),
        );
        self.dirty_cols.clear();
        out
    }

    /// Drops the tombstoned rows once they outnumber the alive ones, so
    /// a pass costs what is alive, not everything the run ever created.
    /// Order-preserving, hence result-invariant (see
    /// [`KcMatrix::compact_rows`]); `prev_best` survives because a seed
    /// is re-validated from its columns alone. The pool's panel and
    /// ceilings are row-indexed state of the old numbering and restart.
    fn compact_sparse_rows(&mut self) {
        let alive = self.matrix.num_alive_rows();
        let dead = self.matrix.rows().len() - alive;
        if dead > alive.saturating_mul(self.compact_dead_per_alive) {
            self.matrix.compact_rows();
            self.pool.forget_matrix();
            self.dirty_cols.clear();
        }
    }

    /// Canonical non-conflicting *prefix* of `candidates` against the
    /// engine's current matrix (see [`pf_kcmatrix::conflict`]), at most
    /// `max` rectangles, in canonical order.
    ///
    /// This is the batched cover's wave selection: it stops at the first
    /// conflict rather than skipping over it, because the callers
    /// re-validate and re-rank the survivors before the next wave.
    /// Skip-over selection (`select_nonconflicting`) applied stale
    /// post-conflict candidates and inflated the extraction count over
    /// the one-per-pass engine (e.g. gen:dalu@1 with `topk 16`: 22
    /// extractions / LC 2131 vs the singular 18 / 2130; the prefix rule
    /// restores 18 / 2130 at 4.5 rectangles per search pass).
    pub fn select_batch(&self, candidates: &[Rectangle], max: usize) -> Vec<Rectangle> {
        select_prefix_nonconflicting(&self.matrix, candidates, max)
    }

    /// Re-validates a candidate's column set against the current matrix
    /// (maximal support, exact value) — `None` when it no longer denotes
    /// a positive-value extraction. Lets the batched cover loop drain
    /// conflict-rejected candidates after a batch apply without another
    /// search pass.
    pub fn revalidate(&self, rect: &Rectangle) -> Option<Rectangle> {
        let weights = &self.weights;
        revalidate_rectangle(
            &self.matrix,
            &|id| weights[id as usize],
            &self.cfg.search,
            rect,
        )
    }

    /// Applies a rectangle: creates the kernel node, rewrites every
    /// covered row's node, refreshes the affected matrix rows. Returns
    /// the new node id.
    ///
    /// The literal count drops by exactly `rect.value` (checked in debug
    /// builds).
    pub fn apply(&mut self, nw: &mut Network, rect: &Rectangle) -> SignalId {
        #[cfg(debug_assertions)]
        let lc_before = nw.literal_count();

        let kernel = rect.kernel(&self.matrix);
        // Skip names already taken (e.g. from a previous extraction pass
        // over the same network).
        let name = loop {
            let candidate = format!("{}{}", self.cfg.name_prefix, self.counter);
            self.counter += 1;
            if nw.find(&candidate).is_none() {
                break candidate;
            }
        };
        let x = nw
            .add_node(name, kernel.clone())
            .expect("extracted node name is fresh");
        let x_lit = nw.var(x).lit();

        // Group chosen rows by node: covered cubes (hashed — the filter
        // below probes once per remaining cube) and replacement cubes.
        let mut by_node: FxHashMap<SignalId, (FxHashSet<Cube>, Vec<Cube>)> = FxHashMap::default();
        for &r in &rect.rows {
            let row = &self.matrix.rows()[r];
            let entry = by_node.entry(row.node).or_default();
            for &c in &rect.cols {
                let covered = row
                    .cokernel
                    .product(&self.matrix.cols()[c].cube)
                    .expect("disjoint by construction");
                entry.0.insert(covered);
            }
            entry.1.push(
                row.cokernel
                    .product(&Cube::single(x_lit))
                    .expect("fresh variable"),
            );
        }

        let mut affected: Vec<SignalId> = Vec::with_capacity(by_node.len());
        for (node, (covered, additions)) in by_node {
            let f = nw.func(node);
            let remaining = f
                .iter()
                .filter(|c| !covered.contains(*c))
                .cloned()
                .chain(additions);
            let f_new = Sop::from_cubes(remaining);
            nw.set_func(node, f_new).expect("node exists");
            affected.push(node);
        }

        // Panel and ceiling bookkeeping: every column with an entry in a
        // row about to be tombstoned goes dirty now, and every column of
        // a row appended below goes dirty after. Clean columns keep
        // byte-identical subtrees — their support rows, entry cubes and
        // values are all untouched — so their ceilings stay sound.
        let rows_before = self.matrix.rows().len();
        for &n in &affected {
            for &r in self.matrix.node_rows(n) {
                let entries = &self.matrix.rows()[r].entries;
                self.dirty_cols.extend(entries.iter().map(|&(c, _)| c));
            }
        }

        // Refresh matrix rows for the affected nodes…
        for &n in &affected {
            self.matrix.remove_node_rows(n);
            self.matrix.add_node_kernels(
                n,
                nw.func(n),
                &self.cfg.kernel,
                &self.registry,
                &mut self.row_labels,
                &mut self.col_labels,
            );
        }
        // …and mine the new node too, if configured.
        if self.cfg.extract_from_new {
            self.targets.push(x);
            self.matrix.add_node_kernels(
                x,
                nw.func(x),
                &self.cfg.kernel,
                &self.registry,
                &mut self.row_labels,
                &mut self.col_labels,
            );
        }
        for row in &self.matrix.rows()[rows_before..] {
            for &(c, _) in &row.entries {
                self.dirty_cols.push(c);
            }
        }
        self.registry.extend_weights(&mut self.weights);

        #[cfg(debug_assertions)]
        {
            let lc_after = nw.literal_count();
            debug_assert_eq!(
                lc_before as i64 - lc_after as i64,
                rect.value,
                "rectangle value must equal the literal saving"
            );
        }
        self.applied += 1;
        self.prev_best = Some(rect.clone());
        x
    }

    /// Number of extractions applied so far.
    pub fn extractions(&self) -> usize {
        self.applied
    }

    /// Seeds the engine from another run's warm-start hints, valid only
    /// when this engine's matrix is byte-identical to the one the hints
    /// were captured over (the cache guarantees this by keying hints on
    /// the network content digest). Ceilings seed the pool (config
    /// drift self-guards via the snapshot's embedded fingerprint; the
    /// pool builds its panel from this matrix on the first search);
    /// `best` seeds the first search's pruning bound exactly like a
    /// previous pass's winner would — it is re-validated against the
    /// matrix before use, and because it *is* the first-pass winner of
    /// an identical matrix, the seeded search returns the identical
    /// rectangle.
    pub fn seed_warm_start(&mut self, ceilings: Option<&CeilingSnapshot>, best: Option<Rectangle>) {
        if let Some(snap) = ceilings {
            self.pool.seed_ceilings(snap);
        }
        if best.is_some() {
            self.prev_best = best;
        }
    }

    /// Exports the pool's current per-column ceilings for a future
    /// warm start (`None` before any search). Meaningful as hints only
    /// right after the *first* search pass — later passes describe the
    /// partially rewritten matrix.
    pub fn export_warm_ceilings(&self) -> Option<CeilingSnapshot> {
        self.pool.export_ceilings()
    }
}

/// Ends a per-pass `search` span, attaching the chosen rectangle's
/// value/dims and the search counters. Shared by every driver so the
/// span vocabulary stays identical (docs/OBSERVABILITY.md).
pub(crate) fn end_search_span(
    lane: &mut Lane,
    span: crate::trace::Span,
    rect: Option<&Rectangle>,
    stats: &SearchStats,
) {
    lane.end_with(span, || {
        let mut args = vec![
            ("visited", stats.visited as i64),
            ("pruned", stats.pruned as i64),
            ("bound_updates", stats.bound_updates as i64),
        ];
        if let Some(r) = rect {
            args.push(("value", r.value));
            args.push(("rows", r.rows.len() as i64));
            args.push(("cols", r.cols.len() as i64));
        }
        args
    });
}

/// Applies one pass's canonical candidates (`wave`, best first) without
/// another search: select the canonical non-conflicting *prefix*, apply
/// it, *re-validate* the survivors against the updated matrix (their
/// column sets survive; supports and values are recomputed exactly), and
/// select again until none is left or the engine reaches
/// `max_extractions`. Each round applies at least one rectangle, because
/// the canonical best never conflicts with the empty selection. Returns
/// the number applied; their values and count go into `report`, and
/// with batching (K > 1) so do the batch counters and the `batch` event.
///
/// The prefix rule (stop at the first conflict instead of skipping over
/// it) keeps the extraction count honest: the conflict winner's apply
/// rewrites the loser's rows, which can shrink every candidate ranked
/// below it, so applying post-conflict candidates blind re-extracts
/// already-covered kernels as small flat extractions the one-per-pass
/// cover never makes. With the prefix rule every round is ranked against
/// a fully re-validated wave, and the batched cover reproduces the
/// one-per-pass trajectory while applying several rectangles per search.
pub(crate) fn drain_wave(
    engine: &mut Engine,
    nw: &mut Network,
    mut wave: Vec<Rectangle>,
    lane: &mut Lane,
    report: &mut ExtractReport,
) -> usize {
    let max_extractions = engine.cfg.max_extractions;
    let candidates = wave.len();
    let mut applied = 0;
    while !wave.is_empty() && engine.extractions() < max_extractions {
        let selected = engine.select_batch(&wave, max_extractions - engine.extractions());
        for rect in &selected {
            let apply_span = lane.start("apply");
            engine.apply(nw, rect);
            lane.end_with(apply_span, || vec![("value", rect.value)]);
            report.total_value += rect.value;
            report.extractions += 1;
        }
        applied += selected.len();
        wave = wave
            .into_iter()
            .filter(|c| !selected.contains(c))
            .filter_map(|c| engine.revalidate(&c))
            .collect();
    }
    if engine.cfg.search.topk > 1 {
        report.batch_candidates += candidates;
        report.batch_accepted += applied;
        // A drained wave can apply more rectangles than the search
        // returned candidates (a re-validated candidate applies under a
        // fresh support), so the rejected count saturates.
        report.batch_rejected += candidates.saturating_sub(applied);
        lane.event("batch", || {
            vec![
                ("candidates", candidates as i64),
                ("accepted", applied as i64),
            ]
        });
    }
    applied
}

/// Runs kernel extraction to completion on `targets` (or on all internal
/// nodes when `targets` is empty). Returns the report.
///
/// ```
/// use pf_core::{extract_kernels, ExtractConfig};
/// use pf_network::example::example_1_1;
///
/// // The paper's Example 1.1 network: 33 literals before, 21 after the
/// // exact greedy rectangle cover (the paper's own SIS run stops at 22).
/// let (mut nw, _) = example_1_1();
/// let report = extract_kernels(&mut nw, &[], &ExtractConfig::default());
/// assert_eq!((report.lc_before, report.lc_after), (33, 21));
/// assert_eq!(report.extractions, 3);
/// ```
pub fn extract_kernels(
    nw: &mut Network,
    targets: &[SignalId],
    cfg: &ExtractConfig,
) -> ExtractReport {
    let mut pool = None;
    extract_kernels_pooled(nw, targets, cfg, &mut pool)
}

/// [`extract_kernels`] with an externally owned [`SearchPool`] slot: a
/// pool left in `*pool` is adopted (reusing its warmed threads and
/// scratch across jobs — the resident-service pattern), and the engine's
/// pool is handed back through the slot when the run ends.
///
/// Phases: `matrix` (build), `pool` (pool adoption + worker pre-spawn,
/// before the cover clock starts), `cover` (the extraction loop).
pub fn extract_kernels_pooled(
    nw: &mut Network,
    targets: &[SignalId],
    cfg: &ExtractConfig,
    pool: &mut Option<SearchPool>,
) -> ExtractReport {
    extract_kernels_warm(nw, targets, cfg, pool, None, None)
}

/// [`extract_kernels_pooled`] with warm-start plumbing: `warm` seeds the
/// engine (first-pass ceilings + previous winner) before the cover loop,
/// and `capture` receives this run's own hints right after the first
/// pass — the only moment the ceilings describe the initial matrix. Both
/// are correctness-neutral: a warm-seeded run extracts the byte-identical
/// network a cold run would (see [`Engine::seed_warm_start`]).
pub(crate) fn extract_kernels_warm(
    nw: &mut Network,
    targets: &[SignalId],
    cfg: &ExtractConfig,
    pool: &mut Option<SearchPool>,
    warm: Option<&WarmStart>,
    mut capture: Option<&mut Option<WarmStart>>,
) -> ExtractReport {
    let targets: Vec<SignalId> = if targets.is_empty() {
        nw.node_ids().collect()
    } else {
        targets.to_vec()
    };
    // Lane registration is profiling-harness cost, not driver cost:
    // open it before the clock starts so traced runs keep phase spans
    // covering essentially all of `elapsed`.
    let mut lane = cfg.trace.lane(&cfg.name_prefix);
    let start = Instant::now();
    let lc_before = nw.literal_count();
    let mut report = ExtractReport {
        lc_before,
        lc_after: lc_before,
        ..Default::default()
    };
    // A job whose deadline already passed (e.g. it sat in a queue) skips
    // even the matrix build. Still report well-formed phases: everything
    // spent so far was pre-matrix bookkeeping.
    if report.note_stop(&cfg.ctl) {
        report.elapsed = start.elapsed();
        report.phases = vec![
            PhaseTiming::new("matrix", report.elapsed),
            PhaseTiming::new("pool", std::time::Duration::ZERO),
            PhaseTiming::new("cover", std::time::Duration::ZERO),
        ];
        return report;
    }
    let matrix_span = lane.start("matrix");
    let mut engine = Engine::new(nw, &targets, cfg.clone());
    lane.end(matrix_span);
    let matrix_elapsed = start.elapsed();
    // Pool setup is deliberately its own phase, outside the cover clock:
    // adopting a still-warm pool from the previous job (or pre-spawning
    // this run's workers) is exactly the setup cost the persistent
    // executor amortizes away.
    let pool_span = lane.start("pool");
    if let Some(prev) = pool.take() {
        engine.adopt_pool(prev);
    }
    engine.warm_pool();
    if let Some(w) = warm {
        engine.seed_warm_start(w.ceilings.as_ref(), Some(w.best.clone()));
    }
    lane.end(pool_span);
    let pool_elapsed = start.elapsed().saturating_sub(matrix_elapsed);
    let cover_span = lane.start("cover");
    // Each pass collects the canonical top-K rectangles and drains them
    // (see [`drain_wave`]) before searching again. Fewer passes than the
    // one-per-pass cover (K = 1), same greedy-first guarantee: the
    // canonical best of each pass is always applied first.
    while engine.extractions() < cfg.max_extractions {
        // The cover-loop head is the driver's barrier checkpoint, and
        // therefore also its fault-injection site.
        cfg.ctl.fault_point("seq:cover");
        if report.note_stop(&cfg.ctl) {
            break;
        }
        report.passes += 1;
        let pass = lane.start("search");
        let (cands, stats) = engine.search_batch(None);
        report.budget_exhausted |= stats.budget_exhausted;
        end_search_span(&mut lane, pass, cands.first(), &stats);
        if report.passes == 1 {
            if let (Some(cap), Some(r)) = (capture.as_deref_mut(), cands.first()) {
                *cap = Some(WarmStart {
                    ceilings: engine.export_warm_ceilings(),
                    best: r.clone(),
                });
            }
        }
        if cands.is_empty() {
            break;
        }
        drain_wave(&mut engine, nw, cands, &mut lane, &mut report);
    }
    lane.end(cover_span);
    // `tile` phase counters: how the resident panel mirror was kept in
    // sync across the cover's passes (full rebuilds vs incrementally
    // re-encoded columns). Emitted once per run — the counters are
    // cumulative over the pool's passes.
    let (rebuilds, synced_cols) = engine.tile_counters();
    lane.event("tile", || {
        vec![
            ("rebuilds", rebuilds as i64),
            ("synced_cols", synced_cols as i64),
        ]
    });
    report.lc_after = nw.literal_count();
    report.elapsed = start.elapsed();
    report.setup = matrix_elapsed;
    report.phases = vec![
        PhaseTiming::new("matrix", matrix_elapsed),
        PhaseTiming::new("pool", pool_elapsed),
        PhaseTiming::new(
            "cover",
            report.elapsed.saturating_sub(matrix_elapsed + pool_elapsed),
        ),
    ];
    // Handing the pool back drops the engine (matrix, registry): off
    // the clock, like the drop of any other run's working state.
    *pool = Some(engine.into_pool());
    report
}

/// The cover loop of [`extract_kernels`] over a caller-built engine, so
/// a test can set [`Engine::compact_dead_per_alive`] first. Returns the
/// extractions applied and the search heads that compacted the matrix.
#[cfg(test)]
pub(crate) fn stepwise_cover(engine: &mut Engine, nw: &mut Network) -> (usize, usize) {
    let mut lane = Tracer::disarmed().lane("stepwise");
    let mut report = ExtractReport::default();
    let mut compactions = 0;
    loop {
        let rows_before = engine.matrix().rows().len();
        let (wave, _) = engine.search_batch(None);
        compactions += usize::from(engine.matrix().rows().len() < rows_before);
        if wave.is_empty() {
            return (engine.extractions(), compactions);
        }
        drain_wave(engine, nw, wave, &mut lane, &mut report);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pf_network::example::example_1_1;
    use pf_network::sim::{equivalent_random, EquivConfig};

    /// The one-rectangle-per-pass engine: the quality oracle.
    fn classic_config() -> ExtractConfig {
        ExtractConfig {
            search: SearchConfig::classic(),
            ..ExtractConfig::default()
        }
    }

    #[test]
    fn example_1_1_reaches_21_literals() {
        // Greedy maximum-rectangle extraction on the paper's network:
        // 33 → 25 (X = a+b, value 8) → 22 (Y = a+c, value 3)
        //    → 21 (Z = X+c, value 1). SIS's gkx stops at 22; the exact
        // rectangle cover finds one more single-row factor.
        let (mut nw, _ids) = example_1_1();
        let original = nw.clone();
        let report = extract_kernels(&mut nw, &[], &ExtractConfig::default());
        assert_eq!(report.lc_before, 33);
        assert_eq!(report.lc_after, 21);
        assert_eq!(report.extractions, 3);
        assert_eq!(report.total_value, 12);
        assert!(!report.budget_exhausted);
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
        assert!(nw.validate().is_ok());
    }

    #[test]
    fn first_extraction_is_a_plus_b() {
        let (mut nw, ids) = example_1_1();
        let cfg = ExtractConfig {
            max_extractions: 1,
            ..ExtractConfig::default()
        };
        let report = extract_kernels(&mut nw, &[], &cfg);
        assert_eq!(report.lc_after, 25);
        assert_eq!(report.total_value, 8);
        let x = nw.find("kx_0").unwrap();
        // X = a + b
        assert_eq!(nw.func(x).num_cubes(), 2);
        assert_eq!(nw.func(x).literal_count(), 2);
        // F and G use it, H doesn't.
        assert!(nw.fanins(ids.f).contains(&x));
        assert!(nw.fanins(ids.g).contains(&x));
        assert!(!nw.fanins(ids.h).contains(&x));
    }

    #[test]
    fn targets_restrict_the_candidate_set() {
        // Only F: the a+b rectangle over F alone has value
        // 10 − 5 − 2 = 3; the best F-only rectangle overall is checked
        // just for positivity and that G, H stay untouched.
        let (mut nw, ids) = example_1_1();
        let g_before = nw.func(ids.g).clone();
        let h_before = nw.func(ids.h).clone();
        let report = extract_kernels(&mut nw, &[ids.f], &ExtractConfig::default());
        assert!(report.lc_after < report.lc_before);
        assert_eq!(nw.func(ids.g), &g_before);
        assert_eq!(nw.func(ids.h), &h_before);
    }

    #[test]
    fn no_kernels_means_no_extractions() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let f = nw
            .add_node(
                "f",
                Sop::from_cubes([Cube::from_lits([pf_sop::Lit::pos(a), pf_sop::Lit::pos(b)])]),
            )
            .unwrap();
        nw.mark_output(f).unwrap();
        let report = extract_kernels(&mut nw, &[], &ExtractConfig::default());
        assert_eq!(report.extractions, 0);
        assert_eq!(report.lc_before, report.lc_after);
    }

    #[test]
    fn expired_deadline_stops_before_any_extraction() {
        let (mut nw, _) = example_1_1();
        let cfg = ExtractConfig {
            ctl: RunCtl::with_deadline(std::time::Duration::ZERO),
            ..ExtractConfig::default()
        };
        let report = extract_kernels(&mut nw, &[], &cfg);
        assert!(report.timed_out);
        assert!(!report.cancelled);
        assert_eq!(report.extractions, 0);
        assert_eq!(report.lc_after, report.lc_before);
    }

    #[test]
    fn cancelled_ctl_stops_and_reports() {
        let (mut nw, _) = example_1_1();
        let cfg = ExtractConfig::default();
        cfg.ctl.cancel();
        let report = extract_kernels(&mut nw, &[], &cfg);
        assert!(report.cancelled);
        assert!(!report.timed_out);
        assert_eq!(report.extractions, 0);
    }

    #[test]
    fn phases_cover_elapsed() {
        let (mut nw, _) = example_1_1();
        let report = extract_kernels(&mut nw, &[], &ExtractConfig::default());
        assert_eq!(report.phases.len(), 3);
        assert_eq!(report.phases[0].name, "matrix");
        assert_eq!(report.phases[1].name, "pool");
        assert_eq!(report.phases[2].name, "cover");
        let sum: std::time::Duration = report.phases.iter().map(|p| p.elapsed).sum();
        assert!(sum <= report.elapsed + std::time::Duration::from_millis(1));
    }

    #[test]
    fn pooled_engine_matches_classic_across_thread_counts() {
        // Byte-identical extraction across worker counts: the inline
        // search (par_threads = 0) vs parked workers at several widths,
        // on the one-per-pass cover of the paper network.
        let (classic_nw, _) = example_1_1();
        let mut classic = classic_nw.clone();
        let classic_report = extract_kernels(&mut classic, &[], &classic_config());
        for threads in [1usize, 2, 4] {
            let mut cfg = classic_config();
            cfg.search.par_threads = threads;
            let (mut nw, _) = example_1_1();
            let report = extract_kernels(&mut nw, &[], &cfg);
            assert_eq!(
                report.lc_after, classic_report.lc_after,
                "threads={threads}"
            );
            assert_eq!(report.total_value, classic_report.total_value);
            assert_eq!(report.extractions, classic_report.extractions);
            // Byte-identical networks: same nodes, names and functions.
            let dump = |n: &Network| {
                let mut v: Vec<String> = n
                    .node_ids()
                    .map(|id| format!("{}={:?}", n.name(id), n.func(id)))
                    .collect();
                v.sort();
                v
            };
            assert_eq!(dump(&nw), dump(&classic), "threads={threads}");
        }
    }

    #[test]
    fn pooled_run_reuses_one_pool_and_never_respawns_mid_cover() {
        let mut cfg = ExtractConfig::default();
        cfg.search.par_threads = 2;
        let (mut nw, _) = example_1_1();
        let mut pool = None;
        let report = extract_kernels_pooled(&mut nw, &[], &cfg, &mut pool);
        assert_eq!(report.lc_after, 21);
        let pool = pool.expect("pooled run hands the pool back");
        // One background worker for a 2-wide run, spawned exactly once
        // (in the pool phase), however many passes the cover loop ran.
        assert_eq!(pool.spawned_threads(), 1);
        assert!(pool.passes() >= report.extractions as u64);
    }

    #[test]
    fn pool_slot_survives_across_jobs() {
        let mut cfg = ExtractConfig::default();
        cfg.search.par_threads = 2;
        let mut pool = None;
        let mut last_lc = 0;
        for _ in 0..3 {
            let (mut nw, _) = example_1_1();
            let report = extract_kernels_pooled(&mut nw, &[], &cfg, &mut pool);
            last_lc = report.lc_after;
        }
        assert_eq!(last_lc, 21);
        // Three jobs, one pool, one spawn: jobs 2 and 3 adopted it warm.
        assert_eq!(pool.expect("slot refilled").spawned_threads(), 1);
    }

    #[test]
    fn fresh_name_counter_skips_existing_extraction_names() {
        // A network that already contains kx_0/kx_7 (e.g. from an earlier
        // extraction pass) must not make apply probe 8 occupied names.
        let (mut nw, _) = example_1_1();
        let report1 = extract_kernels(&mut nw, &[], &ExtractConfig::default());
        assert!(report1.extractions > 0);
        // Second run over the already-extracted network: new names start
        // past the existing kx_* block and extraction still converges.
        let report2 = extract_kernels(&mut nw, &[], &ExtractConfig::default());
        assert!(report2.lc_after <= report1.lc_after);
        assert!(nw.validate().is_ok());
    }

    #[test]
    fn max_extractions_caps_the_loop() {
        let (mut nw, _) = example_1_1();
        let cfg = ExtractConfig {
            max_extractions: 2,
            ..ExtractConfig::default()
        };
        let report = extract_kernels(&mut nw, &[], &cfg);
        assert_eq!(report.extractions, 2);
        assert_eq!(report.lc_after, 22); // the SIS stopping point
    }

    #[test]
    fn lc_drop_matches_total_value() {
        let (mut nw, _) = example_1_1();
        let report = extract_kernels(&mut nw, &[], &ExtractConfig::default());
        assert_eq!(
            report.lc_before as i64 - report.lc_after as i64,
            report.total_value
        );
    }

    #[test]
    fn extract_from_new_false_skips_new_nodes() {
        let (mut nw, _) = example_1_1();
        let cfg = ExtractConfig {
            extract_from_new: false,
            ..ExtractConfig::default()
        };
        let report = extract_kernels(&mut nw, &[], &cfg);
        // Same result here (new nodes are tiny), but the engine must not
        // crash and must still converge.
        assert!(report.lc_after <= 25);
    }

    #[test]
    fn engine_stepwise_matches_batch() {
        let (mut nw1, _) = example_1_1();
        let (mut nw2, _) = example_1_1();
        let targets: Vec<SignalId> = nw1.node_ids().collect();
        let mut engine = Engine::new(&nw1, &targets, ExtractConfig::default());
        while let (Some(rect), _) = engine.search(None) {
            engine.apply(&mut nw1, &rect);
        }
        extract_kernels(&mut nw2, &[], &ExtractConfig::default());
        assert_eq!(nw1.literal_count(), nw2.literal_count());
    }

    #[test]
    fn batched_cover_keeps_quality_and_counts_passes() {
        let (mut nw0, _) = example_1_1();
        let oracle = extract_kernels(&mut nw0, &[], &classic_config());
        assert_eq!(oracle.passes, oracle.extractions + 1);
        assert_eq!(oracle.batch_candidates, 0);
        for topk in [2usize, 4, 16] {
            let mut cfg = ExtractConfig::default();
            cfg.search.topk = topk;
            let (mut nw, _) = example_1_1();
            let original = nw.clone();
            let report = extract_kernels(&mut nw, &[], &cfg);
            // The tiny paper network: every candidate overlaps F/G/H, so
            // batching converges to the byte-same 21-literal result.
            assert_eq!(report.lc_after, oracle.lc_after, "topk={topk}");
            assert!(report.passes <= oracle.passes);
            assert_eq!(report.batch_accepted, report.extractions);
            assert_eq!(
                report.batch_candidates,
                report.batch_accepted + report.batch_rejected
            );
            assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
            assert!(nw.validate().is_ok());
        }
    }

    #[test]
    fn batch_drain_cuts_passes_on_planted_kernels() {
        // A network with node-disjoint planted kernels batches several
        // extractions per pass; the drain loop re-validates rejected
        // candidates so a pass keeps applying until the pool is dry.
        let profile = pf_workloads::CircuitProfile::small("batchtest", 7);
        let mut cfg = classic_config();
        let mut nw = pf_workloads::generate(&profile);
        let oracle = extract_kernels(&mut nw, &[], &cfg);
        assert!(oracle.extractions >= 4, "workload must have extractions");

        cfg.search.topk = 16;
        let mut nwb = pf_workloads::generate(&profile);
        let report = extract_kernels(&mut nwb, &[], &cfg);
        assert!(
            report.passes < oracle.passes,
            "batching must cut passes: {} vs {}",
            report.passes,
            oracle.passes
        );
        assert!(report.rects_per_pass() > 1.0);
        // Quality parity within 1% of the one-per-pass oracle.
        let tol = (oracle.lc_after as f64 * 0.01).ceil() as usize;
        assert!(
            report.lc_after <= oracle.lc_after + tol,
            "batched {} vs oracle {}",
            report.lc_after,
            oracle.lc_after
        );
        assert!(nwb.validate().is_ok());
    }

    #[test]
    fn batched_extractions_never_inflate_over_singular() {
        // Regression: the wave-drain loop used to re-validate conflict
        // losers whose kernel columns an earlier wave of the same pass
        // had already extracted. A loser could come back with a smaller
        // live support and positive value, re-extracting an
        // already-covered kernel into a duplicate node — more
        // extractions than the one-per-pass path for the same (or
        // worse) final literal count. With the applied-column dedupe,
        // batching can only merge passes, never invent extractions.
        for seed in [7u64, 13, 29] {
            let mut profile = pf_workloads::scale_profile(
                &pf_workloads::profile_by_name("dalu").expect("dalu profile exists"),
                0.35,
            );
            profile.seed = seed;
            let mut nw1 = pf_workloads::generate(&profile);
            let oracle = extract_kernels(&mut nw1, &[], &classic_config());
            for topk in [4usize, 16] {
                let mut cfg = ExtractConfig::default();
                cfg.search.topk = topk;
                let mut nwb = pf_workloads::generate(&profile);
                let report = extract_kernels(&mut nwb, &[], &cfg);
                assert!(
                    report.extractions <= oracle.extractions,
                    "seed={seed} topk={topk}: batched {} extractions vs singular {}",
                    report.extractions,
                    oracle.extractions
                );
                assert!(
                    report.lc_after <= oracle.lc_after,
                    "seed={seed} topk={topk}: batched lc {} vs singular {}",
                    report.lc_after,
                    oracle.lc_after
                );
                assert!(nwb.validate().is_ok());
            }
        }
    }

    #[test]
    fn batched_max_extractions_still_caps() {
        let (mut nw, _) = example_1_1();
        let mut cfg = ExtractConfig {
            max_extractions: 2,
            ..ExtractConfig::default()
        };
        cfg.search.topk = 8;
        let report = extract_kernels(&mut nw, &[], &cfg);
        assert!(report.extractions <= 2);
    }

    /// The §3 parallel generation, its `procs` generators run in turn.
    fn generated_engine(nw: &Network, targets: &[SignalId], procs: usize) -> Engine {
        let cfg = ExtractConfig::default();
        let shares: Vec<KernelShare> = (0..procs)
            .map(|pid| KernelShare::generate(nw, targets, &cfg.kernel, pid, procs))
            .collect();
        Engine::from_shares(nw, targets, cfg, &shares.iter().collect::<Vec<_>>())
    }

    #[test]
    fn parallel_generation_matches_sequential_matrix() {
        // §3's labeled parallel generation must produce the serial
        // build's rows and columns, in the serial order, for any
        // generator count.
        let base = pf_workloads::generate(&pf_workloads::CircuitProfile::small("gen", 5));
        let (paper, _) = example_1_1();
        for nw in [paper, base] {
            let targets: Vec<SignalId> = nw.node_ids().collect();
            let serial = Engine::new(&nw, &targets, ExtractConfig::default());
            let rows = |e: &Engine| -> Vec<(u32, Cube, Vec<ColIdx>)> {
                e.matrix()
                    .rows()
                    .iter()
                    .map(|r| {
                        let cols = r.entries.iter().map(|&(c, _)| c).collect();
                        (r.node, r.cokernel.clone(), cols)
                    })
                    .collect()
            };
            let cols = |e: &Engine| -> Vec<Cube> {
                e.matrix().cols().iter().map(|c| c.cube.clone()).collect()
            };
            for procs in [1usize, 2, 3, 7] {
                let par = generated_engine(&nw, &targets, procs);
                assert_eq!(rows(&par), rows(&serial), "procs={procs}");
                assert_eq!(cols(&par), cols(&serial), "procs={procs}");
            }
        }
    }

    #[test]
    fn parallel_generation_extraction_reaches_same_quality() {
        let (mut nw, _) = example_1_1();
        let targets: Vec<SignalId> = nw.node_ids().collect();
        let mut engine = generated_engine(&nw, &targets, 3);
        while let (Some(rect), _) = engine.search(None) {
            engine.apply(&mut nw, &rect);
        }
        assert_eq!(nw.literal_count(), 21);
    }

    #[test]
    fn parallel_generation_is_deterministic_across_proc_counts_labels() {
        // Rows generated by processor p carry labels in p's block.
        let (nw, _) = example_1_1();
        let targets: Vec<SignalId> = nw.node_ids().collect();
        let par = generated_engine(&nw, &targets, 2);
        let blocks: std::collections::BTreeSet<u64> = par
            .matrix()
            .rows()
            .iter()
            .map(|r| r.label / pf_kcmatrix::LabelGen::DEFAULT_OFFSET)
            .collect();
        assert!(blocks.len() >= 2, "both generator blocks used: {blocks:?}");
    }

    /// The six paper profiles at unit-test scale.
    pub(crate) const PROFILES: [(&str, f64); 6] = [
        ("misex3", 0.3),
        ("dalu", 0.3),
        ("des", 0.1),
        ("seq", 0.1),
        ("spla", 0.05),
        ("ex1010", 0.1),
    ];

    /// `base` with its primary inputs declared in a seeded random order
    /// (seed 0 keeps it): same functions, other signal ids — and with
    /// them another kernel enumeration order, column order and set of
    /// tie-breaks.
    pub(crate) fn relabel(base: &Network, seed: u64) -> Network {
        let slots: Vec<SignalId> = base.input_ids().collect();
        let mut shuffled = slots.clone();
        let mut state = seed;
        for i in (1..shuffled.len()).rev() {
            if seed == 0 {
                break;
            }
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut new_id: Vec<SignalId> = base.signal_ids().collect();
        for (&slot, &old) in slots.iter().zip(&shuffled) {
            new_id[old as usize] = slot;
        }
        let mut old_at = new_id.clone();
        for (old, &new) in new_id.iter().enumerate() {
            old_at[new as usize] = old as SignalId;
        }
        let mut nw = Network::new();
        for &old in &old_at {
            let name = base.name(old).to_string();
            if base.input_ids().any(|i| i == old) {
                nw.add_input(name).unwrap();
                continue;
            }
            let cubes = base.func(old).iter().map(|cube| {
                Cube::from_lits(cube.iter().map(|l| {
                    let var = pf_sop::Var::new(new_id[l.var().index() as usize]);
                    pf_sop::Lit::new(var, l.is_negated())
                }))
            });
            nw.add_node(name, Sop::from_cubes(cubes)).unwrap();
        }
        for &out in base.outputs() {
            nw.mark_output(new_id[out as usize]).unwrap();
        }
        nw.validate().unwrap();
        nw
    }

    #[test]
    fn forced_row_compaction_is_byte_identical_to_none() {
        for (name, scale) in PROFILES {
            let profile = pf_workloads::profile_by_name(name).unwrap();
            let base = pf_workloads::generate(&pf_workloads::scale_profile(&profile, scale));
            for labelling in 0..3u64 {
                let input = relabel(&base, labelling);
                // K inline, plus K = 16 on parked threads; the resident
                // panel and ceilings must restart at every compaction.
                for (topk, tile_width, par_threads) in [(1, 4, 0), (16, 4, 0), (16, 4, 2)] {
                    let mut cfg = ExtractConfig::default();
                    cfg.search.topk = topk;
                    cfg.search.tile_width = tile_width;
                    cfg.search.par_threads = par_threads;
                    let cover = |compact_dead_per_alive: usize| {
                        let mut nw = input.clone();
                        let targets: Vec<SignalId> = nw.node_ids().collect();
                        let mut engine = Engine::new(&nw, &targets, cfg.clone());
                        engine.compact_dead_per_alive = compact_dead_per_alive;
                        let (extractions, compactions) = stepwise_cover(&mut engine, &mut nw);
                        (pf_kcmatrix::network_digest(&nw), extractions, compactions)
                    };
                    let which = format!(
                        "{name} labelling {labelling} K {topk} tile {tile_width} threads {par_threads}"
                    );
                    let never = cover(usize::MAX);
                    let always = cover(0);
                    assert_eq!(never.2, 0, "{which}");
                    assert!(always.2 > 0, "{which}: every apply leaves tombstones");
                    assert_eq!((always.0, always.1), (never.0, never.1), "{which}");
                    // The shipped threshold, through the shipped loop.
                    let mut nw = input.clone();
                    let report = extract_kernels(&mut nw, &[], &cfg);
                    let shipped = (pf_kcmatrix::network_digest(&nw), report.extractions);
                    assert_eq!(shipped, (never.0, never.1), "{which}");
                }
            }
        }
    }

    /// Runs `run` on every [`PROFILES`] circuit under labellings 0..3 and
    /// asserts `(profile, labelling, network digest, extractions)` per
    /// case equals `golden`, in table order — the per-driver golden
    /// tables' check.
    pub(crate) fn assert_driver_golden(
        golden: &[(&str, u64, &str, usize)],
        run: impl Fn(&mut Network) -> ExtractReport,
    ) {
        let mut got = Vec::new();
        for (name, scale) in PROFILES {
            let profile = pf_workloads::profile_by_name(name).unwrap();
            let base = pf_workloads::generate(&pf_workloads::scale_profile(&profile, scale));
            for labelling in 0..3u64 {
                let mut nw = relabel(&base, labelling);
                let report = run(&mut nw);
                let digest = pf_kcmatrix::network_digest(&nw).to_hex();
                got.push((name, labelling, digest, report.extractions));
            }
        }
        let want: Vec<_> = golden
            .iter()
            .map(|&(name, labelling, digest, n)| (name, labelling, digest.to_string(), n))
            .collect();
        assert_eq!(got, want);
    }

    /// `(profile, labelling, K, network digest, extractions)` of
    /// [`extract_kernels`] at the default settings with `search.topk = K`,
    /// recorded from the search engines this crate shipped before they
    /// were folded into one (run with `par_threads = 1`, which at K = 16
    /// matched the then-default inline engine digest for digest).
    const GOLDEN: [(&str, u64, usize, &str, usize); 36] = [
        ("misex3", 0, 1, "aaa181e026b547e096ea7c571a9307d9", 15),
        ("misex3", 0, 16, "3d136f9b59209d949cc4c3a4fad3afbb", 17),
        ("misex3", 1, 1, "05285a286dad401be67ac768e2f94a4d", 15),
        ("misex3", 1, 16, "e2df7409fc05a15bc069272db0c4625d", 17),
        ("misex3", 2, 1, "d0133c8b30b1f93e7a9a04629965ea93", 15),
        ("misex3", 2, 16, "9a5e1165c0553a11830ea17f3dcd00c0", 17),
        ("dalu", 0, 1, "2e639f2c611effbd0d45f44be8ee5e00", 11),
        ("dalu", 0, 16, "ad11a0c0cae9709607fa1903c57e6f5b", 11),
        ("dalu", 1, 1, "40bca8942e5c831276c3073432caa75e", 11),
        ("dalu", 1, 16, "d7b95aa3ee5cfb91e9b3d83c549aca5e", 11),
        ("dalu", 2, 1, "014c68add38bdac72f9f02eb55fd89ba", 11),
        ("dalu", 2, 16, "e2adef7d6f7d20361ea09dc5cd7c9ff7", 11),
        ("des", 0, 1, "6a84ca02af50062c427c07e363efb12a", 7),
        ("des", 0, 16, "6a84ca02af50062c427c07e363efb12a", 7),
        ("des", 1, 1, "3a53a1b45581975175aa5f575adab70f", 7),
        ("des", 1, 16, "3a53a1b45581975175aa5f575adab70f", 7),
        ("des", 2, 1, "9127e24dc6c0df2316685ae68637b1e0", 7),
        ("des", 2, 16, "9127e24dc6c0df2316685ae68637b1e0", 7),
        ("seq", 0, 1, "76f3d14bc28ecb57a3be29bb3ba33bc2", 13),
        ("seq", 0, 16, "76f3d14bc28ecb57a3be29bb3ba33bc2", 13),
        ("seq", 1, 1, "2a6af7968854040a723a605764c75218", 13),
        ("seq", 1, 16, "2a6af7968854040a723a605764c75218", 13),
        ("seq", 2, 1, "3356fd04eab832e0dc8203ac81653141", 13),
        ("seq", 2, 16, "3356fd04eab832e0dc8203ac81653141", 13),
        ("spla", 0, 1, "911dd512630ca7865078fc5df37b717b", 54),
        ("spla", 0, 16, "5e68b55dcbf1012432febb07afa5cd8d", 54),
        ("spla", 1, 1, "40f7ec9b62ee7f371ea537f12ab650d6", 53),
        ("spla", 1, 16, "edee8ff5c26c64eae8e644957ef8a8a1", 53),
        ("spla", 2, 1, "5efe9dd59c7530dfae6a9ceff66fc999", 53),
        ("spla", 2, 16, "4a6a18848b4f241702f04c86deda9cff", 53),
        ("ex1010", 0, 1, "ff88ee3dbc73bf403478195ba5725843", 77),
        ("ex1010", 0, 16, "487c1db087835a6dc2019f86eee4104e", 77),
        ("ex1010", 1, 1, "e86049f6cb1bb1c9ee73ee4bc0e67efd", 77),
        ("ex1010", 1, 16, "37a14935a32a1748a926d820e5f28f24", 77),
        ("ex1010", 2, 1, "691ef5d323c51c235965a00577a468cf", 77),
        ("ex1010", 2, 16, "cf73e524b20928d4cbeb4fe6350dd74a", 77),
    ];

    #[test]
    fn extraction_reproduces_the_golden_table_at_every_worker_count() {
        for (name, scale) in PROFILES {
            let profile = pf_workloads::profile_by_name(name).unwrap();
            let base = pf_workloads::generate(&pf_workloads::scale_profile(&profile, scale));
            for labelling in 0..3u64 {
                let input = relabel(&base, labelling);
                for topk in [1usize, 16] {
                    let &(.., digest, extractions) = GOLDEN
                        .iter()
                        .find(|g| (g.0, g.1, g.2) == (name, labelling, topk))
                        .expect("every case is in the table");
                    for par_threads in [0usize, 1, 2] {
                        let mut cfg = ExtractConfig::default();
                        cfg.search.topk = topk;
                        cfg.search.par_threads = par_threads;
                        let mut nw = input.clone();
                        let report = extract_kernels(&mut nw, &[], &cfg);
                        assert_eq!(
                            (
                                pf_kcmatrix::network_digest(&nw).to_hex(),
                                report.extractions
                            ),
                            (digest.to_string(), extractions),
                            "{name} labelling {labelling} K {topk} threads {par_threads}"
                        );
                    }
                }
            }
        }
    }

    use pf_network::Network;
    use pf_sop::{Cube, Sop};
}
