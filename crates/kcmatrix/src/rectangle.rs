//! Rectangles over the KC matrix: their value, the search options, and
//! the pieces of the search that are not about scheduling.
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
//! (paper §5.3). The search ([`crate::pool::SearchPool::find`])
//! enumerates column sets ordered by **leftmost column** (exactly the
//! decomposition Figure 1 splits across processors), keeps for each
//! column set the optimal row subset (rows with positive contribution),
//! prunes with an admissible bound, and falls back to a per-row greedy
//! sweep when a visit budget is exhausted. It returns the canonical
//! top-K under the (value, cols, rows) order, so the answer does not
//! depend on how many workers ran it.

use crate::matrix::{ColIdx, KcMatrix, RowIdx};
use crate::registry::CubeId;
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

    /// Whether a candidate whose duplicate-blind upper bound is `approx`
    /// deserves the exact (allocating) evaluation pass. `>=`: a tie on
    /// value can still be canonically better (smaller cols/rows), and an
    /// under-full list takes anything positive.
    pub(crate) fn admits(&self, approx: i64) -> bool {
        approx > 0 && approx >= self.threshold()
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
    /// Workers per search pass. `0` and `1` both search inline on the
    /// calling thread; `n ≥ 2` adds `n − 1` parked threads that share
    /// the leftmost-column tasks and an atomic pruning bound. The result
    /// is identical for every value, so this knob never joins cache
    /// keys.
    pub par_threads: usize,
    /// How many rectangles one pass collects (default 16): the canonical
    /// top-K under the (value, cols, rows) order, with the pruning bound
    /// keyed to the K-th best value. Top-K batches feed
    /// [`crate::conflict`] selection in the extraction drivers; `1` is
    /// the one-rectangle-per-pass cover ([`SearchConfig::classic`]).
    pub topk: usize,
    /// Words per tile of the column-major panel the search intersects
    /// supports against ([`crate::tiles`], default 4; `0` is read as 1).
    /// Results are byte-identical for every width — only the memory
    /// access pattern changes — so this knob never joins cache keys.
    pub tile_width: usize,
}

impl Default for SearchConfig {
    /// The tuned engine: top-16 waves over 4-word tiles. Every place
    /// that spells a search default (service, wire, CLI) reads these
    /// values from here.
    fn default() -> Self {
        SearchConfig {
            budget: 2_000_000,
            stripe: None,
            min_cols: 2,
            greedy_seed: true,
            par_threads: 0,
            topk: 16,
            tile_width: 4,
        }
    }
}

impl SearchConfig {
    /// The widest [`SearchConfig::tile_width`] accepted from outside the
    /// program. The panel stores every column padded to whole tiles, so
    /// an unbounded width is an unbounded allocation.
    pub const MAX_TILE_WIDTH: usize = 64;

    /// The largest [`SearchConfig::topk`] accepted from outside the
    /// program. Every pass keeps and merges K rectangles per worker, so
    /// an unbounded K makes a job arbitrarily slow (K = 10⁶ ran 7×
    /// slower than K = 16 on `gen:ex1010@1`).
    pub const MAX_TOPK: usize = 64;

    /// The one-rectangle-per-pass cover — SIS `gkx`'s shape, and the
    /// quality oracle the batched default is tested against.
    pub fn classic() -> Self {
        SearchConfig {
            topk: 1,
            ..SearchConfig::default()
        }
    }
}

/// Statistics from one search call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Column sets fully expanded. With several workers this is the sum
    /// over workers and depends on bound-arrival timing (the *result*
    /// does not).
    pub visited: u64,
    /// Whether the budget actually truncated exploration — i.e. an
    /// expansion was *denied*. A search whose final expansion lands
    /// exactly on the budget completed and is not exhausted. On
    /// truncation the search discards partial worker bests and returns
    /// the deterministic greedy/seed result.
    pub budget_exhausted: bool,
    /// Subtrees cut by the admissible pruning bound before expansion.
    /// Like `visited`, the multi-worker count depends on bound-arrival
    /// timing.
    pub pruned: u64,
    /// Times the shared pruning bound was actually raised (greedy
    /// publishes included).
    pub bound_updates: u64,
}

/// Cost of the replacement cube `cok·X` a chosen row adds to its node.
#[inline]
pub(crate) fn row_cost(cokernel: &pf_sop::Cube) -> i64 {
    cokernel.len() as i64 + 1
}

/// Cost of the extracted node's body: the literals of the column cubes.
#[inline]
pub(crate) fn cols_cost(m: &KcMatrix, cols: &[ColIdx]) -> i64 {
    cols.iter().map(|&c| m.cols()[c].cube.len() as i64).sum()
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

/// Whether the stripe filter admits `c` as a leftmost column.
pub(crate) fn stripe_admits(cfg: &SearchConfig, c: ColIdx) -> bool {
    match cfg.stripe {
        Some((proc, nprocs)) => (c as u32) % nprocs == proc,
        None => true,
    }
}

/// Per alive row: Σ of entry values minus the row cost — the row's
/// contribution ceiling, used by the admissible pruning bound.
pub(crate) fn row_full_values(m: &KcMatrix, value_of: &(dyn Fn(CubeId) -> u32 + Sync)) -> Vec<i64> {
    let mut out = vec![0i64; m.rows().len()];
    for (i, r) in m.rows().iter().enumerate() {
        if !r.alive {
            continue;
        }
        let sum: i64 = r.entries.iter().map(|&(_, id)| value_of(id) as i64).sum();
        out[i] = sum - row_cost(&r.cokernel);
    }
    out
}

/// Duplicate-blind value of `(cols, rows)` over ascending `rows`:
/// per-row contributions clamped at zero, minus column costs. An upper
/// bound on the exact value (cube dedup only lowers it), cheap enough to
/// gate the exact pass.
pub(crate) fn approx_value(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cols: &[ColIdx],
    rows: impl IntoIterator<Item = RowIdx>,
) -> i64 {
    let mut approx: i64 = -cols_cost(m, cols);
    for r in rows {
        let row = &m.rows()[r];
        let mut contrib: i64 = -row_cost(&row.cokernel);
        for &c in cols {
            let id = row.entry(c).expect("row supports all cols");
            contrib += value_of(id) as i64;
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
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cols: &[ColIdx],
    rows: &[RowIdx],
    seen: &mut FxHashSet<CubeId>,
) -> Option<Rectangle> {
    // First pass: per-row contribution ignoring cross-row duplicates
    // (an upper bound per row); rows kept if positive.
    let mut kept: Vec<RowIdx> = Vec::new();
    for &r in rows {
        let row = &m.rows()[r];
        let mut contrib: i64 = -row_cost(&row.cokernel);
        for &c in cols {
            let id = row.entry(c).expect("row supports all cols");
            contrib += value_of(id) as i64;
        }
        if contrib > 0 {
            kept.push(r);
        }
    }
    if kept.is_empty() {
        return None;
    }
    // Second pass: exact value with cross-row cube deduplication.
    let mut total: i64 = -cols_cost(m, cols);
    for &r in &kept {
        let row = &m.rows()[r];
        total -= row_cost(&row.cokernel);
        for &c in cols {
            let id = row.entry(c).expect("row supports all cols");
            if seen.insert(id) {
                total += value_of(id) as i64;
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
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
    rect: &Rectangle,
) -> Option<Rectangle> {
    if rect.cols.len() < cfg.min_cols || rect.cols.iter().any(|&c| c >= m.cols().len()) {
        return None;
    }
    let mut support = m.cols()[rect.cols[0]].rows.clone();
    for &c in &rect.cols[1..] {
        support = KcMatrix::intersect_rows(&support, &m.cols()[c].rows);
        if support.is_empty() {
            return None;
        }
    }
    if support.is_empty() {
        return None;
    }
    let mut seen = FxHashSet::default();
    evaluate_with(m, value_of, &rect.cols, &support, &mut seen)
}

/// Reusable buffers for [`greedy_row`]; one per worker.
#[derive(Default)]
pub(crate) struct GreedyBufs {
    seen: FxHashSet<CubeId>,
    rows_buf: Vec<RowIdx>,
    cols: Vec<ColIdx>,
    /// Ping-pong supports for the column intersections.
    ta: TiledSupport,
    tb: TiledSupport,
}

/// One step of the greedy sweep: takes row `r`'s full column set as the
/// candidate kernel and evaluates the optimal rectangle for it. Returns
/// `None` for dead, too-narrow, stripe-rejected, or worthless rows.
///
/// The support intersection runs the fused
/// [`TiledSupport::and_ub_from`] pass, whose by-product — the admissible
/// bound `Σ max(row_full_value, 0)` over the survivors — gates the exact
/// evaluation against `acc`: a row whose bound (minus column costs)
/// fails [`TopK::admits`] cannot change the list (`admits` is
/// conservative on ties), so its collect + hash-dedup evaluation is
/// skipped outright. Most rows die at this gate once the first strong
/// rows set the bar.
#[allow(clippy::too_many_arguments)]
pub(crate) fn greedy_row(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
    panel: &TilePanels,
    row_full_value: &[i64],
    r: RowIdx,
    bufs: &mut GreedyBufs,
    acc: &TopK,
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
    if !acc.admits(ub - cols_cost(m, &bufs.cols)) {
        return None;
    }
    bufs.rows_buf.clear();
    bufs.ta.collect_into(&mut bufs.rows_buf);
    bufs.seen.clear();
    evaluate_with(m, value_of, &bufs.cols, &bufs.rows_buf, &mut bufs.seen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::LabelGen;
    use crate::pool::{CeilingUpdate, SearchPool};
    use crate::registry::CubeRegistry;
    use pf_sop::kernel::KernelConfig;
    use pf_sop::{Cube, Lit};

    fn cube(ids: &[u32]) -> Cube {
        Cube::from_lits(ids.iter().map(|&i| Lit::pos(i)))
    }

    fn sop(cubes: &[&[u32]]) -> Sop {
        Sop::from_cubes(cubes.iter().map(|c| cube(c)))
    }

    /// One cold search over `m` with cube values `value_of`.
    fn find(
        m: &KcMatrix,
        value_of: &(dyn Fn(CubeId) -> u32 + Sync),
        cfg: &SearchConfig,
        seed: Option<&Rectangle>,
    ) -> (Vec<Rectangle>, SearchStats) {
        SearchPool::new().find(m, value_of, cfg, seed, CeilingUpdate::Off)
    }

    /// The head of [`find`]'s list.
    fn best(
        m: &KcMatrix,
        value_of: &(dyn Fn(CubeId) -> u32 + Sync),
        cfg: &SearchConfig,
    ) -> (Option<Rectangle>, SearchStats) {
        let (rects, stats) = find(m, value_of, cfg, None);
        (rects.into_iter().next(), stats)
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
        let (best, stats) = best(&m, &|id| w[id as usize], &SearchConfig::default());
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
        let exact = best(
            &m,
            &|id| w[id as usize],
            &SearchConfig {
                greedy_seed: false,
                ..SearchConfig::default()
            },
        )
        .0
        .unwrap();
        let seeded = best(&m, &|id| w[id as usize], &SearchConfig::default())
            .0
            .unwrap();
        assert_eq!(exact.value, seeded.value);
    }

    #[test]
    fn stripes_partition_the_search() {
        // The union of the best rectangles over all stripes must contain
        // a rectangle as good as the global best (Figure 1's reduction).
        let (m, _reg, w) = paper_matrix();
        let global = best(&m, &|id| w[id as usize], &SearchConfig::default())
            .0
            .unwrap();
        let nprocs = 3u32;
        let mut best_striped: i64 = 0;
        for p in 0..nprocs {
            let cfg = SearchConfig {
                stripe: Some((p, nprocs)),
                ..SearchConfig::default()
            };
            if let (Some(r), _) = best(&m, &|id| w[id as usize], &cfg) {
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
        let best = best(&m, &value_of, &SearchConfig::default()).0.unwrap();
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
        let (best, stats) = best(
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
        let (_, free) = best(&m, &|id| w[id as usize], &SearchConfig::default());
        assert!(free.visited > 1);
        let (found, stats) = best(
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
        assert_eq!(found.unwrap().value, 8);
        // One fewer and the search is genuinely truncated.
        let (_, short) = best(
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
        let (best, _) = best(&m, &|id| w[id as usize], &SearchConfig::default());
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
        let best = best(&m, &|id| w[id as usize], &SearchConfig::default())
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
        let best = best(&m, &|id| w[id as usize], &cfg).0.unwrap();
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
        let best = best(&m, &|id| w[id as usize], &SearchConfig::default())
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
        let cfg = SearchConfig::classic();
        let (top, _) = find(&m, &value_of, &cfg, None);
        let (seeded, _) = find(&m, &value_of, &cfg, top.first());
        assert_eq!(seeded, top);
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
        let (top, _) = find(&m, &value_of, &SearchConfig::classic(), Some(&stale));
        assert_eq!(top[0].value, 8);
    }

    #[test]
    fn parallel_matches_sequential_and_is_thread_count_independent() {
        let (m, _reg, w) = paper_matrix();
        let value_of = |id: CubeId| w[id as usize];
        let (inline, _) = best(&m, &value_of, &SearchConfig::default());
        let inline = inline.unwrap();
        for threads in [1usize, 2, 4, 8] {
            let cfg = SearchConfig {
                par_threads: threads,
                ..SearchConfig::default()
            };
            let (par_best, stats) = best(&m, &value_of, &cfg);
            assert!(!stats.budget_exhausted);
            assert_eq!(par_best.unwrap(), inline, "threads={threads}");
        }
    }

    #[test]
    fn parallel_budget_truncation_returns_greedy_deterministically() {
        let (m, _reg, w) = paper_matrix();
        let value_of = |id: CubeId| w[id as usize];
        let mut prior: Option<Rectangle> = None;
        for threads in [0usize, 1, 4] {
            let cfg = SearchConfig {
                budget: 1,
                par_threads: threads,
                ..SearchConfig::default()
            };
            let (best, stats) = best(&m, &value_of, &cfg);
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
        let (rects, stats) = find(&m, &value_of, &cfg, None);
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
            let inline_cfg = SearchConfig {
                topk: k,
                ..SearchConfig::default()
            };
            let (inline, _) = find(&m, &value_of, &inline_cfg, None);
            for threads in [1usize, 2, 4, 8] {
                let cfg = SearchConfig {
                    par_threads: threads,
                    ..inline_cfg.clone()
                };
                let (par_rects, _) = find(&m, &value_of, &cfg, None);
                assert_eq!(par_rects, inline, "k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn plural_with_k1_matches_singular_exactly() {
        // K = 1 is the head of any larger K: the canonical order is
        // total, so the best rectangle does not depend on K.
        let (m, _reg, w) = paper_matrix();
        let value_of = |id: CubeId| w[id as usize];
        for threads in [0usize, 1, 4] {
            let cfg = SearchConfig {
                par_threads: threads,
                ..SearchConfig::classic()
            };
            let (single, _) = find(&m, &value_of, &cfg, None);
            let (plural, _) = find(&m, &value_of, &SearchConfig { topk: 16, ..cfg }, None);
            assert_eq!(single.len(), 1);
            assert_eq!(single[0], plural[0], "threads={threads}");
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
        let (unseeded, _) = find(&m, &value_of, &cfg, None);
        let (seeded, _) = find(&m, &value_of, &cfg, Some(&unseeded[0]));
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
