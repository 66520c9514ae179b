//! Best-rectangle search over the KC matrix.
//!
//! A rectangle `(R, C)` selects rows and columns whose intersections are
//! all `1` entries; extracting it creates the node `X = Σ_{c∈C} cube_c`
//! and rewrites every row's node. Its **value** is the literal saving
//! (Brayton–Rudell):
//!
//! ```text
//! value(R, C) = Σ_{distinct cubes covered} v(cube)
//!             − Σ_{r∈R} (|cokernel_r| + 1)      (replacement cubes cok·X)
//!             − Σ_{c∈C} |cube_c|                 (the new node's body)
//! ```
//!
//! where `v(cube)` is the cube's current value — the weight for FREE
//! cubes, 0 for cubes covered by another processor or already divided
//! (paper §5.3). The search enumerates column sets ordered by **leftmost
//! column** (exactly the decomposition Figure 1 splits across
//! processors), keeps for each column set the optimal row subset (rows
//! with positive contribution), prunes with an admissible bound, and
//! degrades to a per-row greedy sweep when a visit budget is exhausted.
//!
//! Row supports are dense [`RowSet`] bitsets: intersecting a candidate's
//! support with a column is a handful of word `AND`s instead of a sorted
//! merge. With `par_threads >= 1` the leftmost-column loop runs on a
//! chunked work queue drained by scoped threads sharing an atomic
//! pruning bound; see [`crate::par_search`] for the determinism rules.
//! The legacy `Vec<RowIdx>` implementation survives in
//! [`crate::reference`] as a differential-testing oracle.

use crate::matrix::{ColIdx, KcMatrix, RowIdx};
use crate::pool::{CeilingUpdate, SearchPool};
use crate::registry::CubeId;
use crate::rowset::RowSet;
use crate::tiles::{TilePanels, TiledSupport};
use pf_sop::fx::FxHashSet;
use pf_sop::Sop;

/// A candidate extraction: chosen rows, chosen columns, literal saving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rectangle {
    /// Row indices into the matrix (alive rows only).
    pub rows: Vec<RowIdx>,
    /// Column indices, ascending.
    pub cols: Vec<ColIdx>,
    /// Exact literal saving of extracting this rectangle now.
    pub value: i64,
}

impl Rectangle {
    /// The kernel this rectangle extracts: the sum of its column cubes.
    pub fn kernel(&self, m: &KcMatrix) -> Sop {
        Sop::from_cubes(self.cols.iter().map(|&c| m.cols()[c].cube.clone()))
    }
}

/// `a` beats `b` under the canonical (value, cols, rows) order: higher
/// value first, then lexicographically smaller column set, then
/// lexicographically smaller row set. Total over distinct rectangles, so
/// the parallel merge is independent of worker arrival order.
pub(crate) fn canonical_better(a: &Rectangle, b: &Rectangle) -> bool {
    match a.value.cmp(&b.value) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => (&a.cols, &a.rows) < (&b.cols, &b.rows),
    }
}

/// Bounded canonical-best list: at most `k` distinct rectangles, sorted
/// best-first under [`canonical_better`]. The pruning threshold is the
/// K-th (worst kept) value once full — any subtree whose bound is
/// strictly below it provably holds no top-K member. Equal rectangles
/// are deduplicated at insert (the greedy sweep and the exact search can
/// find the same rectangle).
#[derive(Clone, Debug)]
pub(crate) struct TopK {
    k: usize,
    /// Sorted best-first; `items.len() <= k`; all distinct.
    items: Vec<Rectangle>,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        TopK {
            k: k.max(1),
            items: Vec::new(),
        }
    }

    pub(crate) fn is_full(&self) -> bool {
        self.items.len() >= self.k
    }

    /// The pruning threshold: the K-th best value when full, else 0 (any
    /// positive rectangle is still wanted).
    pub(crate) fn threshold(&self) -> i64 {
        if self.is_full() {
            self.items.last().expect("full list is non-empty").value
        } else {
            0
        }
    }

    /// Where `rect` would land, or `None` when it is rejected (a
    /// duplicate, or worse than a full list's tail). `k` is small (a
    /// batch size), so the scan is linear. The cheap value comparison
    /// runs first — the common reject (a rectangle worse than the
    /// current tail) costs two integer compares and never touches the
    /// row/column vectors.
    fn position(&self, rect: &Rectangle) -> Option<usize> {
        let mut pos = self.items.len();
        for (i, it) in self.items.iter().enumerate() {
            if canonical_better(rect, it) {
                pos = i;
                break;
            }
            // Not canonically better ⇒ an equal rectangle can only be
            // this very item (later items are strictly worse).
            if it.value == rect.value && *it == *rect {
                return None;
            }
        }
        if pos >= self.k {
            None
        } else {
            Some(pos)
        }
    }

    /// Offers a rectangle; returns whether the list changed. Duplicates
    /// and rectangles worse than a full list's tail are rejected.
    pub(crate) fn insert(&mut self, rect: Rectangle) -> bool {
        match self.position(&rect) {
            Some(pos) => {
                self.items.insert(pos, rect);
                self.items.truncate(self.k);
                true
            }
            None => false,
        }
    }

    /// [`TopK::insert`] by reference: the rectangle is cloned only when
    /// it is actually kept. The greedy phase offers every row's
    /// rectangle to two lists — cloning up front allocated two vectors
    /// per *rejected* offer, which is exactly the pooled 1-thread
    /// overhead the bench gate guards.
    pub(crate) fn insert_ref(&mut self, rect: &Rectangle) -> bool {
        match self.position(rect) {
            Some(pos) => {
                self.items.insert(pos, rect.clone());
                self.items.truncate(self.k);
                true
            }
            None => false,
        }
    }

    /// Canonical merge: offers every item of `other`.
    pub(crate) fn merge(&mut self, other: TopK) {
        for it in other.items {
            self.insert(it);
        }
    }

    /// The kept rectangles, best-first.
    pub(crate) fn into_vec(self) -> Vec<Rectangle> {
        self.items
    }
}

/// What one search run collects. Two implementations: [`BestOne`]
/// replicates the classic engine's first-maximum-in-enumeration-order
/// rule exactly (monomorphized, so `topk = 1` stays byte-identical), and
/// [`TopK`] keeps the canonical top-K with the bound keyed to the K-th
/// value.
pub(crate) trait Collect {
    /// Whether a candidate whose duplicate-blind upper bound is `approx`
    /// deserves the exact (allocating) evaluation pass.
    fn admits(&self, approx: i64) -> bool;
    /// Offers an exactly-evaluated rectangle; whether it was kept.
    fn offer(&mut self, rect: Rectangle) -> bool;
    /// Whether a subtree with admissible bound `ub` is provably dead.
    fn prunes(&self, ub: i64) -> bool;
}

/// Classic best-only collector: keeps the *first* maximum-value
/// rectangle in enumeration order (strictly-greater acceptance).
pub(crate) struct BestOne(pub(crate) Option<Rectangle>);

impl BestOne {
    fn value(&self) -> i64 {
        self.0.as_ref().map_or(0, |b| b.value)
    }
}

impl Collect for BestOne {
    fn admits(&self, approx: i64) -> bool {
        approx > self.value()
    }
    fn offer(&mut self, rect: Rectangle) -> bool {
        if rect.value > self.value() {
            self.0 = Some(rect);
            true
        } else {
            false
        }
    }
    fn prunes(&self, ub: i64) -> bool {
        ub <= self.value()
    }
}

impl Collect for TopK {
    fn admits(&self, approx: i64) -> bool {
        // `>=`: a tie on value can still be canonically better (smaller
        // cols/rows), and an under-full list takes anything positive.
        approx > 0 && approx >= self.threshold()
    }
    fn offer(&mut self, rect: Rectangle) -> bool {
        self.insert(rect)
    }
    fn prunes(&self, ub: i64) -> bool {
        // Strict below the K-th value: a subtree that could tie it might
        // hold a canonically smaller member.
        ub <= 0 || (self.is_full() && ub < self.threshold())
    }
}

/// Search options.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Maximum number of column-set expansions before falling back to
    /// the greedy sweep result.
    pub budget: u64,
    /// Restrict the *leftmost* column of enumerated rectangles to the
    /// stripe `proc` of `nprocs` (round-robin by column index) — the §3
    /// divide-and-conquer decomposition. `None` searches everything.
    pub stripe: Option<(u32, u32)>,
    /// Minimum number of columns (2 for kernel extraction: a single
    /// column is a cube, not a kernel).
    pub min_cols: usize,
    /// Run the seeding greedy sweep before branch and bound. Disable
    /// only in tests that target the exact search.
    pub greedy_seed: bool,
    /// Intra-matrix search threads. `0` (the default) runs the
    /// sequential engine, which at `topk = 1` keeps the *first*
    /// maximum-value rectangle in enumeration order. `>= 1` runs the
    /// parallel engine:
    /// leftmost-column tasks on a chunked work queue, a shared atomic
    /// pruning bound, and a canonical (value, cols, rows) tie-break so
    /// the result is identical for any thread count (including 1).
    pub par_threads: usize,
    /// How many rectangles one pass collects (default 16). `> 1`
    /// collects the canonical top-K (under the (value, cols, rows)
    /// order) with the pruning bound keyed to the K-th best value —
    /// identical for any thread count, including the sequential engine.
    /// Top-K batches feed [`crate::conflict`] selection in the
    /// extraction drivers. `1` keeps the classic best-only semantics
    /// byte-for-byte ([`SearchConfig::classic`]).
    pub topk: usize,
    /// Words per tile of the cache-blocked search kernel
    /// ([`crate::tiles`], default 4). `>= 1` mirrors the matrix into
    /// column-major panels of `tile_width`-word tiles and runs the hot
    /// intersection/bound loop over them; `0` keeps the scalar
    /// [`RowSet`] intersection path. Results are byte-identical for
    /// every width — only the memory access pattern changes — so this
    /// knob is result-invariant (it never joins cache keys).
    pub tile_width: usize,
}

impl Default for SearchConfig {
    /// The tuned engine: top-16 waves over 4-word tiles. Every place
    /// that spells a search default (service, wire, CLI) reads these
    /// two values from here.
    fn default() -> Self {
        SearchConfig {
            topk: 16,
            tile_width: 4,
            ..SearchConfig::classic()
        }
    }
}

impl SearchConfig {
    /// The classic one-rectangle-per-pass engine over the scalar word
    /// loop — SIS `gkx`'s shape, and the quality oracle the batched
    /// default is tested against.
    pub fn classic() -> Self {
        SearchConfig {
            budget: 2_000_000,
            stripe: None,
            min_cols: 2,
            greedy_seed: true,
            par_threads: 0,
            topk: 1,
            tile_width: 0,
        }
    }
}

/// Statistics from one search call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Column sets fully expanded. In parallel mode this is the sum over
    /// workers and depends on bound-arrival timing (the *result* does
    /// not).
    pub visited: u64,
    /// Whether the budget actually truncated exploration — i.e. an
    /// expansion was *denied*. A search whose final expansion lands
    /// exactly on the budget completed and is not exhausted. On
    /// truncation the parallel engine discards partial worker bests and
    /// returns the deterministic greedy/seed result.
    pub budget_exhausted: bool,
    /// Subtrees cut by the admissible pruning bound before expansion.
    /// Like `visited`, the parallel-mode count depends on bound-arrival
    /// timing.
    pub pruned: u64,
    /// Times the best-so-far value (sequential) or the shared atomic
    /// bound (parallel, including greedy publishes) was actually raised.
    pub bound_updates: u64,
}

/// The cost functions defining a rectangle's value. The default (area)
/// model values a covered cube at its literal count, a row replacement
/// `cok·X` at `|cok| + 1` and a kernel cube at its literal count; the
/// paper's conclusion points out that timing- and power-driven synthesis
/// only need these three functions swapped ("our methods can be directly
/// applied … provided the algorithms are formulated in terms of a
/// rectangular cover problem"). The functions are `Sync` so the parallel
/// engine can share them across worker threads.
pub struct CostModel<'a> {
    /// Current value of a covered cube (0 when covered elsewhere or
    /// divided — the paper's `V` attribute).
    pub cube_value: &'a (dyn Fn(CubeId) -> u32 + Sync),
    /// Cost of the replacement cube `cok·X` added per chosen row.
    pub row_cost: &'a (dyn Fn(&pf_sop::Cube) -> i64 + Sync),
    /// Cost of one kernel cube in the extracted node's body.
    pub col_cost: &'a (dyn Fn(&pf_sop::Cube) -> i64 + Sync),
}

fn area_row_cost(cok: &pf_sop::Cube) -> i64 {
    cok.len() as i64 + 1
}

fn area_col_cost(cube: &pf_sop::Cube) -> i64 {
    cube.len() as i64
}

impl<'a> CostModel<'a> {
    /// The default area model over `value_of`.
    pub fn area(value_of: &'a (dyn Fn(CubeId) -> u32 + Sync)) -> Self {
        CostModel {
            cube_value: value_of,
            row_cost: &area_row_cost,
            col_cost: &area_col_cost,
        }
    }
}

/// Finds the maximum-valued rectangle with positive value, or `None`.
///
/// `value_of` maps a [`CubeId`] to its current value (weight, or 0 when
/// covered elsewhere / divided) — the paper's `V` attribute read with the
/// asking processor's identity baked in. Uses the default area cost
/// model; see [`best_rectangle_with`] for custom objectives.
pub fn best_rectangle(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
) -> (Option<Rectangle>, SearchStats) {
    best_rectangle_seeded(m, value_of, cfg, None)
}

/// [`best_rectangle`], seeded with a rectangle from a *previous*
/// extraction pass. The seed's columns are re-validated against the
/// current matrix (its support and value are recomputed from scratch) so
/// branch-and-bound pruning starts tight; a stale or worthless seed is
/// simply ignored.
pub fn best_rectangle_seeded(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
    seed: Option<&Rectangle>,
) -> (Option<Rectangle>, SearchStats) {
    let model = CostModel::area(value_of);
    best_rectangle_with_seed(m, &model, cfg, seed)
}

/// [`best_rectangle`] under an explicit [`CostModel`].
pub fn best_rectangle_with(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cfg: &SearchConfig,
) -> (Option<Rectangle>, SearchStats) {
    best_rectangle_with_seed(m, model, cfg, None)
}

/// [`best_rectangle_with`] with an optional previous-pass seed; see
/// [`best_rectangle_seeded`].
pub fn best_rectangle_with_seed(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cfg: &SearchConfig,
    seed: Option<&Rectangle>,
) -> (Option<Rectangle>, SearchStats) {
    let (rects, stats) = best_rectangles_with_seed(m, model, cfg, seed);
    (rects.into_iter().next(), stats)
}

/// The canonically best `k` of `candidates` (deduplicated, best-first
/// under the (value, cols, rows) order). The replicated driver uses this
/// to merge per-stripe top-K lists into the global top-K — every global
/// top-K member is in its own stripe's top-K, so the merged result is
/// independent of how many stripes contributed.
pub fn canonical_top_k(candidates: &[Rectangle], k: usize) -> Vec<Rectangle> {
    let mut acc = TopK::new(k);
    for r in candidates {
        acc.insert(r.clone());
    }
    acc.into_vec()
}

/// Plural [`best_rectangle_seeded`]: collects up to `cfg.topk`
/// rectangles, best-first. See [`best_rectangles_with_seed`].
pub fn best_rectangles_seeded(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
    seed: Option<&Rectangle>,
) -> (Vec<Rectangle>, SearchStats) {
    let model = CostModel::area(value_of);
    best_rectangles_with_seed(m, &model, cfg, seed)
}

/// Plural [`best_rectangle_with_seed`]: collects up to `cfg.topk`
/// rectangles per pass, returned best-first under the canonical
/// (value, cols, rows) order. With `topk = 1` the sequential engine
/// keeps its classic first-maximum semantics (byte-identical to
/// [`best_rectangle_with_seed`]); with `topk > 1` both the sequential
/// and the parallel engine return exactly the canonical top-K of all
/// positive rectangles, independent of thread count.
pub fn best_rectangles_with_seed(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cfg: &SearchConfig,
    seed: Option<&Rectangle>,
) -> (Vec<Rectangle>, SearchStats) {
    let row_full_value = row_full_values(m, model);
    let col_sets = scalar_col_sets(m, cfg);
    // Per-call panel mirror for the tiled kernel; the resident pool
    // keeps its panel across passes instead (see [`crate::pool`]).
    let panel =
        (cfg.tile_width > 0).then(|| TilePanels::build(m.rows().len(), m.cols(), cfg.tile_width));

    let seed_rect = seed.and_then(|s| revalidate_seed(m, model, cfg, s));

    if cfg.par_threads >= 1 {
        // The parallel engine runs the greedy sweep itself, striped
        // across its workers (it dominates the sequential prologue once
        // exploration is well-pruned).
        return crate::par_search::search(
            m,
            model,
            cfg,
            &row_full_value,
            &col_sets,
            seed_rect,
            panel.as_ref(),
        );
    }

    if cfg.topk <= 1 {
        let mut acc = BestOne(seed_rect);
        let stats = sequential_search(
            m,
            model,
            cfg,
            &row_full_value,
            &col_sets,
            panel.as_ref(),
            &mut acc,
        );
        (acc.0.into_iter().collect(), stats)
    } else {
        let mut acc = TopK::new(cfg.topk);
        if let Some(s) = seed_rect {
            acc.insert(s);
        }
        let stats = sequential_search(
            m,
            model,
            cfg,
            &row_full_value,
            &col_sets,
            panel.as_ref(),
            &mut acc,
        );
        (acc.into_vec(), stats)
    }
}

/// The per-column [`RowSet`]s — the *scalar* kernel's dense mirror of
/// the column supports, empty for a tiled search: that one reads a
/// tile panel encoded straight from the sparse column row lists, and
/// two mirrors of `cols × rows / 8` bytes each are one too many.
pub(crate) fn scalar_col_sets(m: &KcMatrix, cfg: &SearchConfig) -> Vec<RowSet> {
    if cfg.tile_width == 0 {
        m.col_row_sets()
    } else {
        Vec::new()
    }
}

/// Classic sequential branch and bound over column sets ordered by
/// leftmost column, generic over the collector (monomorphized, so the
/// best-only path compiles to exactly the pre-top-K engine). With a
/// panel the per-task recursion runs [`Search::explore_tiled`] instead
/// of [`Search::explore`] — same enumeration order, same prune/admit
/// decisions, byte-identical results.
fn sequential_search<C: Collect>(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cfg: &SearchConfig,
    row_full_value: &[i64],
    col_sets: &[RowSet],
    panel: Option<&TilePanels>,
    acc: &mut C,
) -> SearchStats {
    if cfg.greedy_seed {
        greedy_sweep(m, model, cfg, row_full_value, col_sets, panel, acc);
    }

    let mut state = Search {
        m,
        model,
        cfg,
        row_full_value,
        col_sets,
        panel,
        visited: 0,
        truncated: false,
        pruned: 0,
        bound_updates: 0,
        acc,
        cols: Vec::new(),
        scratch: Vec::new(),
        tscratch: Vec::new(),
        cand: Vec::new(),
        rows_buf: Vec::new(),
        seen: FxHashSet::default(),
        root: RowSet::new(),
        troot: TiledSupport::default(),
    };
    for (c0, col) in m.cols().iter().enumerate() {
        if !stripe_admits(cfg, c0) || col.rows.is_empty() {
            continue;
        }
        if state.truncated {
            break;
        }
        state.cols.clear();
        state.cols.push(c0);
        if let Some(p) = state.panel {
            let mut troot = std::mem::take(&mut state.troot);
            troot.load_col(p, c0);
            state.troot = state.explore_tiled(0, troot);
        } else {
            let mut root = std::mem::take(&mut state.root);
            root.copy_from(&col_sets[c0]);
            state.root = state.explore(0, root);
        }
    }
    SearchStats {
        visited: state.visited,
        budget_exhausted: state.truncated,
        pruned: state.pruned,
        bound_updates: state.bound_updates,
    }
}

/// [`best_rectangle_seeded`] executed on a persistent [`SearchPool`]
/// instead of per-call spawned threads: zero thread spawns on a warm
/// pool, per-worker scratch reused across passes, and optional
/// cross-pass per-column ceilings driven by `update` (see
/// [`crate::pool`]). Results are byte-identical to the spawn executor
/// for every thread count and every `update` mode.
pub fn best_rectangle_pooled(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
    seed: Option<&Rectangle>,
    pool: &mut SearchPool,
    update: CeilingUpdate<'_>,
) -> (Option<Rectangle>, SearchStats) {
    let model = CostModel::area(value_of);
    best_rectangle_pooled_with(m, &model, cfg, seed, pool, update)
}

/// [`best_rectangle_pooled`] under an explicit [`CostModel`].
pub fn best_rectangle_pooled_with(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cfg: &SearchConfig,
    seed: Option<&Rectangle>,
    pool: &mut SearchPool,
    update: CeilingUpdate<'_>,
) -> (Option<Rectangle>, SearchStats) {
    let (rects, stats) = crate::pool::pool_search_seeded(pool, m, model, cfg, seed, update);
    (rects.into_iter().next(), stats)
}

/// Plural [`best_rectangle_pooled`]: up to `cfg.topk` rectangles,
/// best-first, on the persistent pool. See [`best_rectangles_with_seed`]
/// for the top-K semantics.
pub fn best_rectangles_pooled(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
    seed: Option<&Rectangle>,
    pool: &mut SearchPool,
    update: CeilingUpdate<'_>,
) -> (Vec<Rectangle>, SearchStats) {
    let model = CostModel::area(value_of);
    best_rectangles_pooled_with(m, &model, cfg, seed, pool, update)
}

/// [`best_rectangles_pooled`] under an explicit [`CostModel`].
pub fn best_rectangles_pooled_with(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cfg: &SearchConfig,
    seed: Option<&Rectangle>,
    pool: &mut SearchPool,
    update: CeilingUpdate<'_>,
) -> (Vec<Rectangle>, SearchStats) {
    crate::pool::pool_search_seeded(pool, m, model, cfg, seed, update)
}

/// Whether the stripe filter admits `c` as a leftmost column.
pub(crate) fn stripe_admits(cfg: &SearchConfig, c: ColIdx) -> bool {
    match cfg.stripe {
        Some((proc, nprocs)) => (c as u32) % nprocs == proc,
        None => true,
    }
}

/// Per alive row: Σ of entry values minus the row cost — the row's
/// contribution ceiling, used by the admissible pruning bound.
pub(crate) fn row_full_values(m: &KcMatrix, model: &CostModel<'_>) -> Vec<i64> {
    let mut out = vec![0i64; m.rows().len()];
    for (i, r) in m.rows().iter().enumerate() {
        if !r.alive {
            continue;
        }
        let sum: i64 = r
            .entries
            .iter()
            .map(|&(_, id)| (model.cube_value)(id) as i64)
            .sum();
        out[i] = sum - (model.row_cost)(&r.cokernel);
    }
    out
}

struct Search<'a, C: Collect> {
    m: &'a KcMatrix,
    model: &'a CostModel<'a>,
    cfg: &'a SearchConfig,
    row_full_value: &'a [i64],
    col_sets: &'a [RowSet],
    /// Column-major tile mirror; `Some` selects the tiled kernel.
    panel: Option<&'a TilePanels>,
    /// Column sets fully expanded so far.
    visited: u64,
    /// Set when an expansion was denied by the budget.
    truncated: bool,
    /// Subtrees cut by the admissible bound.
    pruned: u64,
    /// Times the collector accepted a rectangle.
    bound_updates: u64,
    acc: &'a mut C,
    /// Current column set (shared across the recursion as a stack).
    cols: Vec<ColIdx>,
    /// Per-depth row-support buffers, reused between branches.
    scratch: Vec<RowSet>,
    /// Per-depth tiled-support buffers (the tiled kernel's twin of
    /// `scratch`).
    tscratch: Vec<TiledSupport>,
    /// Per-depth candidate-column bitsets (universe = column count).
    cand: Vec<RowSet>,
    /// Reusable row-index buffer for exact evaluation.
    rows_buf: Vec<RowIdx>,
    /// Reusable dedup set for exact evaluation.
    seen: FxHashSet<CubeId>,
    /// Reusable root support buffer for the leftmost-column loop.
    root: RowSet,
    /// Tiled twin of `root`.
    troot: TiledSupport,
}

impl<C: Collect> Search<'_, C> {
    /// Expands the current column set (`self.cols`) whose supporting
    /// rows are `rows`. `depth` indexes the scratch pool. Returns the
    /// `rows` buffer so the caller can pool it.
    fn explore(&mut self, depth: usize, rows: RowSet) -> RowSet {
        if self.visited >= self.cfg.budget {
            self.truncated = true;
            return rows;
        }
        self.visited += 1;

        if self.cols.len() >= self.cfg.min_cols {
            // Cheap gate first: the duplicate-blind value is an upper
            // bound on the exact value, so the exact (allocating) pass
            // only runs on candidates the collector could still keep.
            let approx = approx_value(self.m, self.model, &self.cols, &rows);
            if self.acc.admits(approx) {
                self.rows_buf.clear();
                rows.collect_into(&mut self.rows_buf);
                self.seen.clear();
                if let Some(rect) = evaluate_with(
                    self.m,
                    self.model,
                    &self.cols,
                    &self.rows_buf,
                    &mut self.seen,
                ) {
                    if self.acc.offer(rect) {
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
        if self.scratch.len() <= depth {
            self.scratch.resize_with(depth + 1, RowSet::new);
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
            // rows ∩ rows(c), into the per-depth scratch buffer.
            let mut shared = std::mem::take(&mut self.scratch[depth]);
            shared.assign_and(&rows, &self.col_sets[c]);
            debug_assert!(!shared.is_empty(), "candidate columns share a row");
            // Admissible bound: every surviving row can contribute at
            // most its full-row value; column costs only grow.
            let ub: i64 = shared.iter().map(|r| self.row_full_value[r].max(0)).sum();
            if self.acc.prunes(ub) {
                self.pruned += 1;
                self.scratch[depth] = shared;
                continue;
            }
            self.cols.push(c);
            let buf = self.explore(depth + 1, shared);
            self.scratch[depth] = buf;
            self.cols.pop();
            if self.truncated {
                // Terminal unwind — skip restoring the candidate pool.
                return rows;
            }
        }
        self.cand[depth] = cand;
        rows
    }

    /// [`Search::explore`] over the tiled kernel: the support is a
    /// [`TiledSupport`] and the per-candidate intersection+bound is the
    /// fused [`TiledSupport::and_ub_from`] pass over the parent's live
    /// tiles. Enumeration order, budget accounting and every
    /// prune/admit decision match the scalar body exactly.
    fn explore_tiled(&mut self, depth: usize, rows: TiledSupport) -> TiledSupport {
        if self.visited >= self.cfg.budget {
            self.truncated = true;
            return rows;
        }
        self.visited += 1;

        if self.cols.len() >= self.cfg.min_cols {
            let approx = approx_value_rows(self.m, self.model, &self.cols, rows.iter());
            if self.acc.admits(approx) {
                self.rows_buf.clear();
                rows.collect_into(&mut self.rows_buf);
                self.seen.clear();
                if let Some(rect) = evaluate_with(
                    self.m,
                    self.model,
                    &self.cols,
                    &self.rows_buf,
                    &mut self.seen,
                ) {
                    if self.acc.offer(rect) {
                        self.bound_updates += 1;
                    }
                }
            }
        }

        let from = self.cols.last().copied().unwrap_or(0) + 1;
        if self.tscratch.len() <= depth {
            self.tscratch.resize_with(depth + 1, TiledSupport::default);
        }
        if self.cand.len() <= depth {
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
        let panel = self.panel.expect("tiled explore requires a panel");
        for c in &cand {
            let mut shared = std::mem::take(&mut self.tscratch[depth]);
            let ub = shared.and_ub_from(&rows, panel, c, self.row_full_value);
            if self.acc.prunes(ub) {
                self.pruned += 1;
                self.tscratch[depth] = shared;
                continue;
            }
            self.cols.push(c);
            let buf = self.explore_tiled(depth + 1, shared);
            self.tscratch[depth] = buf;
            self.cols.pop();
            if self.truncated {
                // Terminal unwind — skip restoring the candidate pool.
                return rows;
            }
        }
        self.cand[depth] = cand;
        rows
    }
}

/// Duplicate-blind value of `(cols, rows)`: per-row contributions
/// clamped at zero, minus column costs. An upper bound on the exact
/// value (cube dedup only lowers it), cheap enough to gate the exact
/// pass.
pub(crate) fn approx_value(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cols: &[ColIdx],
    rows: &RowSet,
) -> i64 {
    approx_value_rows(m, model, cols, rows.iter())
}

/// [`approx_value`] over any ascending row iterator — shared by the
/// scalar ([`RowSet`]) and tiled ([`TiledSupport`]) supports. The sum
/// is order-independent, so both paths produce the same value bit for
/// bit.
pub(crate) fn approx_value_rows(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cols: &[ColIdx],
    rows: impl IntoIterator<Item = RowIdx>,
) -> i64 {
    let col_cost: i64 = cols
        .iter()
        .map(|&c| (model.col_cost)(&m.cols()[c].cube))
        .sum();
    let mut approx: i64 = -col_cost;
    for r in rows {
        let row = &m.rows()[r];
        let mut contrib: i64 = -(model.row_cost)(&row.cokernel);
        for &c in cols {
            let id = row.entry(c).expect("row supports all cols");
            contrib += (model.cube_value)(id) as i64;
        }
        if contrib > 0 {
            approx += contrib;
        }
    }
    approx
}

/// Exact evaluation of the optimal rectangle for a fixed column set:
/// keeps the rows with positive contribution and counts each covered
/// cube once. Returns `None` when no row subset yields positive value.
/// `seen` is a caller-provided (cleared) dedup buffer.
pub(crate) fn evaluate_with(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cols: &[ColIdx],
    rows: &[RowIdx],
    seen: &mut FxHashSet<CubeId>,
) -> Option<Rectangle> {
    // First pass: per-row contribution ignoring cross-row duplicates
    // (an upper bound per row); rows kept if positive.
    let col_cost: i64 = cols
        .iter()
        .map(|&c| (model.col_cost)(&m.cols()[c].cube))
        .sum();
    let mut kept: Vec<RowIdx> = Vec::new();
    for &r in rows {
        let row = &m.rows()[r];
        let mut contrib: i64 = -(model.row_cost)(&row.cokernel);
        for &c in cols {
            let id = row.entry(c).expect("row supports all cols");
            contrib += (model.cube_value)(id) as i64;
        }
        if contrib > 0 {
            kept.push(r);
        }
    }
    if kept.is_empty() {
        return None;
    }
    // Second pass: exact value with cross-row cube deduplication.
    let mut total: i64 = -col_cost;
    for &r in &kept {
        let row = &m.rows()[r];
        total -= (model.row_cost)(&row.cokernel);
        for &c in cols {
            let id = row.entry(c).expect("row supports all cols");
            if seen.insert(id) {
                total += (model.cube_value)(id) as i64;
            }
        }
    }
    if total <= 0 {
        return None;
    }
    Some(Rectangle {
        rows: kept,
        cols: cols.to_vec(),
        value: total,
    })
}

/// Re-validates a rectangle against the *current* matrix: recomputes the
/// maximal support of its column set and the exact value. Returns `None`
/// when the columns vanished, the support is empty, or the value is no
/// longer positive. Besides seeding the next pass's pruning bound, this
/// is how the batched drivers drain conflict-rejected candidates after a
/// batch apply without paying another search pass — the returned
/// rectangle is exact for the present matrix, so it can be re-selected
/// and applied directly.
pub fn revalidate_rectangle(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cfg: &SearchConfig,
    rect: &Rectangle,
) -> Option<Rectangle> {
    revalidate_seed(m, model, cfg, rect)
}

/// Re-validates a previous-pass rectangle against the *current* matrix:
/// recomputes the support of its column set and the exact value. Returns
/// `None` when the columns vanished, the support is empty, or the value
/// is no longer positive.
pub(crate) fn revalidate_seed(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cfg: &SearchConfig,
    seed: &Rectangle,
) -> Option<Rectangle> {
    if seed.cols.len() < cfg.min_cols || seed.cols.iter().any(|&c| c >= m.cols().len()) {
        return None;
    }
    let mut support = m.cols()[seed.cols[0]].rows.clone();
    for &c in &seed.cols[1..] {
        support = KcMatrix::intersect_rows(&support, &m.cols()[c].rows);
        if support.is_empty() {
            return None;
        }
    }
    if support.is_empty() {
        return None;
    }
    let mut seen = FxHashSet::default();
    evaluate_with(m, model, &seed.cols, &support, &mut seen)
}

/// Reusable buffers for [`greedy_row`]; one per sweeping thread.
#[derive(Default)]
pub(crate) struct GreedyBufs {
    seen: FxHashSet<CubeId>,
    support: RowSet,
    rows_buf: Vec<RowIdx>,
    cols: Vec<ColIdx>,
    /// Ping-pong tiled supports for [`greedy_row_tiled`].
    ta: TiledSupport,
    tb: TiledSupport,
}

/// One step of the greedy sweep: takes row `r`'s full column set as the
/// candidate kernel and evaluates the optimal rectangle for it. Returns
/// `None` for dead, too-narrow, stripe-rejected, or worthless rows.
pub(crate) fn greedy_row(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cfg: &SearchConfig,
    col_sets: &[RowSet],
    r: RowIdx,
    bufs: &mut GreedyBufs,
) -> Option<Rectangle> {
    let row = &m.rows()[r];
    if !row.alive || row.entries.len() < cfg.min_cols {
        return None;
    }
    bufs.cols.clear();
    bufs.cols.extend(row.entries.iter().map(|&(c, _)| c));
    // Stripe filter applies to the leftmost column for consistency with
    // the exact search.
    if !stripe_admits(cfg, bufs.cols[0]) {
        return None;
    }
    // Supporting rows: intersection of the column row-sets.
    bufs.support.copy_from(&col_sets[bufs.cols[0]]);
    for &c in &bufs.cols[1..] {
        bufs.support.and_with(&col_sets[c]);
        if bufs.support.is_empty() {
            return None;
        }
    }
    bufs.rows_buf.clear();
    bufs.support.collect_into(&mut bufs.rows_buf);
    bufs.seen.clear();
    evaluate_with(m, model, &bufs.cols, &bufs.rows_buf, &mut bufs.seen)
}

/// [`greedy_row`] over the tiled kernel. The support intersection runs
/// the fused [`TiledSupport::and_ub_from`] pass, whose by-product — the
/// admissible bound `Σ max(row_full_value, 0)` over the survivors —
/// gates the exact evaluation against the collector: a row whose bound
/// (minus column costs) fails [`Collect::admits`] cannot change the
/// collector's state (both collectors' `admits` are conservative on
/// ties), so its collect + hash-dedup evaluation is skipped outright.
/// The greedy sweep dominates search wall time on well-pruned matrices,
/// and most rows die at this gate once the first strong rows set the
/// bar — this is where the tiled kernel's speedup lives. Results are
/// byte-identical to the scalar sweep by the admissibility argument;
/// only the work done changes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn greedy_row_tiled<C: Collect>(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cfg: &SearchConfig,
    panel: &TilePanels,
    row_full_value: &[i64],
    r: RowIdx,
    bufs: &mut GreedyBufs,
    acc: &C,
) -> Option<Rectangle> {
    let row = &m.rows()[r];
    if !row.alive || row.entries.len() < cfg.min_cols {
        return None;
    }
    bufs.cols.clear();
    bufs.cols.extend(row.entries.iter().map(|&(c, _)| c));
    if !stripe_admits(cfg, bufs.cols[0]) {
        return None;
    }
    bufs.ta.load_col(panel, bufs.cols[0]);
    // The root bound walk only pays off when there is no intersection to
    // fuse it into (single-column rows, `min_cols == 1`).
    let mut ub = if bufs.cols.len() == 1 {
        bufs.ta.bound(row_full_value)
    } else {
        0
    };
    for &c in &bufs.cols[1..] {
        ub = bufs.tb.and_ub_from(&bufs.ta, panel, c, row_full_value);
        std::mem::swap(&mut bufs.ta, &mut bufs.tb);
        if bufs.ta.is_empty() {
            return None;
        }
    }
    let col_cost: i64 = bufs
        .cols
        .iter()
        .map(|&c| (model.col_cost)(&m.cols()[c].cube))
        .sum();
    if !acc.admits(ub - col_cost) {
        return None;
    }
    bufs.rows_buf.clear();
    bufs.ta.collect_into(&mut bufs.rows_buf);
    bufs.seen.clear();
    evaluate_with(m, model, &bufs.cols, &bufs.rows_buf, &mut bufs.seen)
}

/// Greedy seed: [`greedy_row`] over every row, offered to the collector
/// (first-strictly-better for [`BestOne`], canonical insert for
/// [`TopK`]). O(rows × cols); seeds the branch-and-bound with a strong
/// lower bound and is the fallback answer when the budget dies.
fn greedy_sweep<C: Collect>(
    m: &KcMatrix,
    model: &CostModel<'_>,
    cfg: &SearchConfig,
    row_full_value: &[i64],
    col_sets: &[RowSet],
    panel: Option<&TilePanels>,
    acc: &mut C,
) {
    let mut bufs = GreedyBufs::default();
    for r in 0..m.rows().len() {
        let rect = match panel {
            Some(p) => greedy_row_tiled(m, model, cfg, p, row_full_value, r, &mut bufs, &*acc),
            None => greedy_row(m, model, cfg, col_sets, r, &mut bufs),
        };
        if let Some(rect) = rect {
            acc.offer(rect);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::LabelGen;
    use crate::registry::CubeRegistry;
    use pf_sop::kernel::KernelConfig;
    use pf_sop::{Cube, Lit};

    fn cube(ids: &[u32]) -> Cube {
        Cube::from_lits(ids.iter().map(|&i| Lit::pos(i)))
    }

    fn sop(cubes: &[&[u32]]) -> Sop {
        Sop::from_cubes(cubes.iter().map(|c| cube(c)))
    }

    /// Builds the full KC matrix of the paper's network N (Eq. 1):
    /// F (id 10), G (id 9), H (id 8), vars a=1 … g=7.
    fn paper_matrix() -> (KcMatrix, CubeRegistry, Vec<u32>) {
        let reg = CubeRegistry::new();
        let mut m = KcMatrix::new();
        let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let f = sop(&[
            &[1, 6],
            &[2, 6],
            &[1, 7],
            &[3, 7],
            &[1, 4, 5],
            &[2, 4, 5],
            &[3, 4, 5],
        ]);
        let g = sop(&[&[1, 6], &[2, 6], &[1, 3, 5], &[2, 3, 5]]);
        let h = sop(&[&[1, 4, 5], &[3, 4, 5]]);
        let kc = KernelConfig::default();
        m.add_node_kernels(10, &f, &kc, &reg, &mut rl, &mut cl);
        m.add_node_kernels(9, &g, &kc, &reg, &mut rl, &mut cl);
        m.add_node_kernels(8, &h, &kc, &reg, &mut rl, &mut cl);
        let weights = reg.weights_snapshot();
        (m, reg, weights)
    }

    #[test]
    fn best_rectangle_on_paper_network_is_a_plus_b() {
        let (m, _reg, w) = paper_matrix();
        let (best, stats) = best_rectangle(&m, &|id| w[id as usize], &SearchConfig::default());
        let best = best.expect("positive rectangle exists");
        assert!(!stats.budget_exhausted);
        // Example 1.1: extracting X = a + b saves 8 literals.
        assert_eq!(best.value, 8);
        let kernel = best.kernel(&m);
        assert_eq!(kernel, sop(&[&[1], &[2]]));
        // Rows: co-kernels f, de of F and f, ce of G.
        let row_desc: Vec<(u32, Cube)> = best
            .rows
            .iter()
            .map(|&r| (m.rows()[r].node, m.rows()[r].cokernel.clone()))
            .collect();
        assert!(row_desc.contains(&(10, cube(&[6]))));
        assert!(row_desc.contains(&(10, cube(&[4, 5]))));
        assert!(row_desc.contains(&(9, cube(&[6]))));
        assert!(row_desc.contains(&(9, cube(&[3, 5]))));
        assert_eq!(best.rows.len(), 4);
    }

    #[test]
    fn exact_and_greedy_agree_on_paper_network() {
        let (m, _reg, w) = paper_matrix();
        let exact = best_rectangle(
            &m,
            &|id| w[id as usize],
            &SearchConfig {
                greedy_seed: false,
                ..SearchConfig::default()
            },
        )
        .0
        .unwrap();
        let seeded = best_rectangle(&m, &|id| w[id as usize], &SearchConfig::default())
            .0
            .unwrap();
        assert_eq!(exact.value, seeded.value);
    }

    #[test]
    fn stripes_partition_the_search() {
        // The union of the best rectangles over all stripes must contain
        // a rectangle as good as the global best (Figure 1's reduction).
        let (m, _reg, w) = paper_matrix();
        let global = best_rectangle(&m, &|id| w[id as usize], &SearchConfig::default())
            .0
            .unwrap();
        let nprocs = 3u32;
        let mut best_striped: i64 = 0;
        for p in 0..nprocs {
            let cfg = SearchConfig {
                stripe: Some((p, nprocs)),
                ..SearchConfig::default()
            };
            if let (Some(r), _) = best_rectangle(&m, &|id| w[id as usize], &cfg) {
                best_striped = best_striped.max(r.value);
            }
        }
        assert_eq!(best_striped, global.value);
    }

    #[test]
    fn covered_cubes_lose_value() {
        let (m, reg, w) = paper_matrix();
        // Cover G's cubes af/bf/ace/bce for another processor: the best
        // rectangle should shrink (only F's rows contribute).
        let g_cubes = [
            cube(&[1, 6]),
            cube(&[2, 6]),
            cube(&[1, 3, 5]),
            cube(&[2, 3, 5]),
        ];
        let covered: Vec<CubeId> = g_cubes.iter().map(|c| reg.lookup(9, c).unwrap()).collect();
        let value_of = move |id: CubeId| {
            if covered.contains(&id) {
                0
            } else {
                w[id as usize]
            }
        };
        let best = best_rectangle(&m, &value_of, &SearchConfig::default())
            .0
            .unwrap();
        // a+b over F only: covered 2+2+3+3=10, rows (f:2)+(de:3)=5, cols 2 ⇒ 3
        // but other kernels may do better; value must drop below 8.
        assert!(best.value < 8);
        assert!(best.value > 0);
        for &r in &best.rows {
            assert_ne!(m.rows()[r].node, 9, "worthless rows must be dropped");
        }
    }

    #[test]
    fn budget_falls_back_to_greedy() {
        let (m, _reg, w) = paper_matrix();
        let (best, stats) = best_rectangle(
            &m,
            &|id| w[id as usize],
            &SearchConfig {
                budget: 1,
                ..SearchConfig::default()
            },
        );
        assert!(stats.budget_exhausted);
        assert_eq!(stats.visited, 1);
        // Greedy still finds the a+b rectangle here (it is a full row).
        assert_eq!(best.unwrap().value, 8);
    }

    #[test]
    fn completing_exactly_at_budget_is_not_exhausted() {
        // Run once unbounded to learn the exact expansion count, then
        // re-run with the budget set to precisely that count: the search
        // still completes, so it must NOT report exhaustion.
        let (m, _reg, w) = paper_matrix();
        let (_, free) = best_rectangle(&m, &|id| w[id as usize], &SearchConfig::default());
        assert!(free.visited > 1);
        let (best, stats) = best_rectangle(
            &m,
            &|id| w[id as usize],
            &SearchConfig {
                budget: free.visited,
                ..SearchConfig::default()
            },
        );
        assert!(
            !stats.budget_exhausted,
            "final expansion completed the search"
        );
        assert_eq!(stats.visited, free.visited);
        assert_eq!(best.unwrap().value, 8);
        // One fewer and the search is genuinely truncated.
        let (_, short) = best_rectangle(
            &m,
            &|id| w[id as usize],
            &SearchConfig {
                budget: free.visited - 1,
                ..SearchConfig::default()
            },
        );
        assert!(short.budget_exhausted);
    }

    #[test]
    fn no_positive_rectangle_returns_none() {
        // Matrix from x = ab + cd: no kernels at all → no columns.
        let reg = CubeRegistry::new();
        let mut m = KcMatrix::new();
        let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        m.add_node_kernels(
            1,
            &sop(&[&[1, 2], &[3, 4]]),
            &KernelConfig::default(),
            &reg,
            &mut rl,
            &mut cl,
        );
        let w = reg.weights_snapshot();
        let (best, _) = best_rectangle(&m, &|id| w[id as usize], &SearchConfig::default());
        assert!(best.is_none());
    }

    #[test]
    fn single_node_kernel_extraction_gain() {
        // f = ac + ad + bc + bd: extracting a+b (or c+d) saves
        // covered 4·2=8 − rows (1+1)+(1+1) − cols 2 = 2.
        let reg = CubeRegistry::new();
        let mut m = KcMatrix::new();
        let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        m.add_node_kernels(
            1,
            &sop(&[&[1, 3], &[1, 4], &[2, 3], &[2, 4]]),
            &KernelConfig::default(),
            &reg,
            &mut rl,
            &mut cl,
        );
        let w = reg.weights_snapshot();
        let best = best_rectangle(&m, &|id| w[id as usize], &SearchConfig::default())
            .0
            .unwrap();
        assert_eq!(best.value, 2);
        assert_eq!(best.cols.len(), 2);
        assert_eq!(best.rows.len(), 2);
    }

    #[test]
    fn min_cols_one_allows_cube_rectangles() {
        // With min_cols = 1 the search may pick a single-column
        // rectangle (common-cube extraction style).
        let (m, _reg, w) = paper_matrix();
        let cfg = SearchConfig {
            min_cols: 1,
            ..SearchConfig::default()
        };
        let best = best_rectangle(&m, &|id| w[id as usize], &cfg).0.unwrap();
        assert!(best.value >= 8); // at least as good as the 2-col optimum
    }

    #[test]
    fn dedup_counts_shared_cube_once() {
        // G alone: rectangle {(a),(b)} × {f, ce} covers af,bf,ace,bce;
        // rows a,b of G; value = 10 − (2+2) − (1+2) = 3.
        let reg = CubeRegistry::new();
        let mut m = KcMatrix::new();
        let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        m.add_node_kernels(
            9,
            &sop(&[&[1, 6], &[2, 6], &[1, 3, 5], &[2, 3, 5]]),
            &KernelConfig::default(),
            &reg,
            &mut rl,
            &mut cl,
        );
        let w = reg.weights_snapshot();
        let best = best_rectangle(&m, &|id| w[id as usize], &SearchConfig::default())
            .0
            .unwrap();
        assert_eq!(best.value, 3);
    }

    #[test]
    fn seed_survives_when_still_best() {
        // Seed the search with the known optimum: the result must be
        // unchanged (the seed re-validates to the same rectangle).
        let (m, _reg, w) = paper_matrix();
        let value_of = |id: CubeId| w[id as usize];
        let (best, _) = best_rectangle(&m, &value_of, &SearchConfig::default());
        let best = best.unwrap();
        let (seeded, _) =
            best_rectangle_seeded(&m, &value_of, &SearchConfig::default(), Some(&best));
        assert_eq!(seeded.unwrap().value, best.value);
    }

    #[test]
    fn stale_seed_is_ignored() {
        let (m, _reg, w) = paper_matrix();
        let value_of = |id: CubeId| w[id as usize];
        // A seed pointing at out-of-range columns must not panic or
        // perturb the result.
        let stale = Rectangle {
            rows: vec![0],
            cols: vec![9999, 10000],
            value: 123,
        };
        let (best, _) =
            best_rectangle_seeded(&m, &value_of, &SearchConfig::default(), Some(&stale));
        assert_eq!(best.unwrap().value, 8);
    }

    #[test]
    fn parallel_matches_sequential_and_is_thread_count_independent() {
        let (m, _reg, w) = paper_matrix();
        let value_of = |id: CubeId| w[id as usize];
        let (seq_best, _) = best_rectangle(&m, &value_of, &SearchConfig::default());
        let seq_best = seq_best.unwrap();
        let mut prior: Option<Rectangle> = None;
        for threads in [1usize, 2, 4, 8] {
            let cfg = SearchConfig {
                par_threads: threads,
                ..SearchConfig::default()
            };
            let (par_best, stats) = best_rectangle(&m, &value_of, &cfg);
            let par_best = par_best.unwrap();
            assert!(!stats.budget_exhausted);
            assert_eq!(par_best.value, seq_best.value, "threads={threads}");
            if let Some(p) = &prior {
                assert_eq!(&par_best, p, "threads={threads} changed the result");
            }
            prior = Some(par_best);
        }
    }

    #[test]
    fn parallel_budget_truncation_returns_greedy_deterministically() {
        let (m, _reg, w) = paper_matrix();
        let value_of = |id: CubeId| w[id as usize];
        let mut prior: Option<Rectangle> = None;
        for threads in [1usize, 4] {
            let cfg = SearchConfig {
                budget: 1,
                par_threads: threads,
                ..SearchConfig::default()
            };
            let (best, stats) = best_rectangle(&m, &value_of, &cfg);
            assert!(stats.budget_exhausted);
            let best = best.unwrap();
            assert_eq!(best.value, 8); // greedy finds a+b (a full row)
            if let Some(p) = &prior {
                assert_eq!(&best, p);
            }
            prior = Some(best);
        }
    }

    #[test]
    fn topk_collects_canonically_sorted_distinct_rectangles() {
        let (m, _reg, w) = paper_matrix();
        let value_of = |id: CubeId| w[id as usize];
        let cfg = SearchConfig {
            topk: 4,
            ..SearchConfig::default()
        };
        let (rects, stats) = best_rectangles_seeded(&m, &value_of, &cfg, None);
        assert!(!stats.budget_exhausted);
        assert!(rects.len() > 1, "paper matrix holds several rectangles");
        assert!(rects.len() <= 4);
        // Best-first under the canonical order, all distinct.
        for w in rects.windows(2) {
            assert!(canonical_better(&w[0], &w[1]));
        }
        assert_eq!(rects[0].value, 8, "head is the global best");
    }

    #[test]
    fn topk_is_thread_count_independent_and_matches_sequential() {
        let (m, _reg, w) = paper_matrix();
        let value_of = |id: CubeId| w[id as usize];
        for k in [2usize, 4, 16] {
            let seq_cfg = SearchConfig {
                topk: k,
                ..SearchConfig::default()
            };
            let (seq_rects, _) = best_rectangles_seeded(&m, &value_of, &seq_cfg, None);
            for threads in [1usize, 2, 4, 8] {
                let cfg = SearchConfig {
                    topk: k,
                    par_threads: threads,
                    ..SearchConfig::default()
                };
                let (par_rects, _) = best_rectangles_seeded(&m, &value_of, &cfg, None);
                assert_eq!(par_rects, seq_rects, "k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn plural_with_k1_matches_singular_exactly() {
        let (m, _reg, w) = paper_matrix();
        let value_of = |id: CubeId| w[id as usize];
        for threads in [0usize, 1, 4] {
            let cfg = SearchConfig {
                par_threads: threads,
                ..SearchConfig::classic()
            };
            let (single, _) = best_rectangle_seeded(&m, &value_of, &cfg, None);
            let (plural, _) = best_rectangles_seeded(&m, &value_of, &cfg, None);
            assert_eq!(plural.len(), 1);
            assert_eq!(plural[0], single.unwrap(), "threads={threads}");
        }
    }

    #[test]
    fn topk_seed_joins_the_batch() {
        let (m, _reg, w) = paper_matrix();
        let value_of = |id: CubeId| w[id as usize];
        let cfg = SearchConfig {
            topk: 4,
            ..SearchConfig::default()
        };
        let (unseeded, _) = best_rectangles_seeded(&m, &value_of, &cfg, None);
        let (seeded, _) = best_rectangles_seeded(&m, &value_of, &cfg, Some(&unseeded[0]));
        assert_eq!(seeded, unseeded, "re-validated seed dedups into the batch");
    }

    #[test]
    fn canonical_order_is_total_and_value_first() {
        let a = Rectangle {
            rows: vec![1, 2],
            cols: vec![0, 3],
            value: 5,
        };
        let b = Rectangle {
            rows: vec![0, 9],
            cols: vec![1, 2],
            value: 4,
        };
        assert!(canonical_better(&a, &b)); // higher value wins
        let c = Rectangle {
            rows: vec![1, 2],
            cols: vec![0, 4],
            value: 5,
        };
        assert!(canonical_better(&a, &c)); // tie → smaller cols
        assert!(!canonical_better(&c, &a));
        assert!(!canonical_better(&a, &a.clone())); // irreflexive
    }
}
