//! Reference rectangle searches, written independently of the
//! production search in [`crate::pool`] and kept as differential-testing
//! oracles:
//!
//! * [`top_k`] — an exhaustive enumeration of every column set with a
//!   non-empty support: no bound, no budget, no greedy sweep, just the
//!   optimal rectangle of each column set sorted into the canonical
//!   (value, cols, rows) order. `SearchPool::find` must return exactly
//!   its head; see `crates/kcmatrix/tests/props.rs`.
//! * [`greedy_top_k`] — the same canonical head over only the rows' own
//!   column sets: what `SearchPool::find` must return (with no seed)
//!   when the budget truncates a pass.
//! * [`best_rectangle`] — the original sorted-`Vec<RowIdx>` branch and
//!   bound, sequential, seeded by the greedy sweep, keeping the *first*
//!   maximum-value rectangle it meets: an independent check of the best
//!   value on matrices too large to enumerate. `budget_exhausted` is set
//!   only when the budget actually denied an expansion.

use crate::matrix::{ColIdx, KcMatrix, RowIdx};
use crate::rectangle::{
    cols_cost, evaluate_with, row_cost, row_full_values, Rectangle, SearchConfig, SearchStats,
};
use crate::registry::CubeId;
use pf_sop::fx::FxHashSet;

/// Every positive rectangle [`crate::pool::SearchPool::find`] could
/// return, best-first under the canonical (value, cols, rows) order and
/// cut to `cfg.topk`: for each column set with at least `cfg.min_cols`
/// columns and a non-empty support, the optimal rectangle over that
/// whole support.
pub fn top_k(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
) -> Vec<Rectangle> {
    let mut all = Vec::new();
    let mut cols = Vec::new();
    for c0 in 0..m.cols().len() {
        if !m.cols()[c0].rows.is_empty() {
            cols.push(c0);
            enumerate(m, value_of, cfg, &mut cols, &m.cols()[c0].rows, &mut all);
            cols.pop();
        }
    }
    sort_canonically(&mut all);
    all.truncate(cfg.topk.max(1));
    all
}

/// The greedy sweep's answer, best-first under the canonical (value,
/// cols, rows) order, deduplicated and cut to `cfg.topk`: for each alive
/// row with at least `cfg.min_cols` entries, the optimal rectangle of
/// the row's full column set over that set's whole support.
pub fn greedy_top_k(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
) -> Vec<Rectangle> {
    let mut all = row_rectangles(m, value_of, cfg);
    sort_canonically(&mut all);
    all.dedup();
    all.truncate(cfg.topk.max(1));
    all
}

/// Higher value first, then the lexicographically smaller (cols, rows).
fn sort_canonically(rects: &mut [Rectangle]) {
    rects.sort_by(|a, b| {
        b.value
            .cmp(&a.value)
            .then_with(|| (&a.cols, &a.rows).cmp(&(&b.cols, &b.rows)))
    });
}

/// Collects the rectangle of `cols` (supported by `rows`) and of every
/// extension of it by columns to the right of its last one.
fn enumerate(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
    cols: &mut Vec<ColIdx>,
    rows: &[RowIdx],
    out: &mut Vec<Rectangle>,
) {
    if cols.len() >= cfg.min_cols {
        out.extend(evaluate_with(
            m,
            value_of,
            cols,
            rows,
            &mut FxHashSet::default(),
        ));
    }
    let from = cols.last().map_or(0, |&c| c + 1);
    for c in from..m.cols().len() {
        let mut shared = Vec::new();
        intersect_into(rows, &m.cols()[c].rows, &mut shared);
        if !shared.is_empty() {
            cols.push(c);
            enumerate(m, value_of, cfg, cols, &shared, out);
            cols.pop();
        }
    }
}

/// The first maximum-value rectangle by sequential vec-based branch and
/// bound; see the module docs.
pub fn best_rectangle(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
) -> (Option<Rectangle>, SearchStats) {
    let row_full_value = row_full_values(m, value_of);

    // Greedy seed: the first maximum over the rows' own column sets.
    let mut best: Option<Rectangle> = None;
    for rect in row_rectangles(m, value_of, cfg) {
        if rect.value > best.as_ref().map_or(0, |b| b.value) {
            best = Some(rect);
        }
    }

    let mut state = Search {
        m,
        value_of,
        cfg,
        row_full_value: &row_full_value,
        visited: 0,
        truncated: false,
        best,
        cols: Vec::new(),
        scratch: Vec::new(),
        seen: FxHashSet::default(),
    };
    for c0 in 0..m.cols().len() {
        let rows0: Vec<RowIdx> = m.cols()[c0].rows.clone();
        if rows0.is_empty() {
            continue;
        }
        if state.truncated {
            break;
        }
        state.cols.clear();
        state.cols.push(c0);
        state.explore(0, rows0);
    }
    let stats = SearchStats {
        visited: state.visited,
        budget_exhausted: state.truncated,
        // The oracle does not keep the prune/bound counters.
        ..SearchStats::default()
    };
    (state.best, stats)
}

struct Search<'a> {
    m: &'a KcMatrix,
    value_of: &'a (dyn Fn(CubeId) -> u32 + Sync),
    cfg: &'a SearchConfig,
    row_full_value: &'a [i64],
    visited: u64,
    truncated: bool,
    best: Option<Rectangle>,
    /// Current column set (shared across the recursion as a stack).
    cols: Vec<ColIdx>,
    /// Per-depth row-intersection buffers, reused between branches.
    scratch: Vec<Vec<RowIdx>>,
    /// Reusable dedup set for exact evaluation.
    seen: FxHashSet<CubeId>,
}

impl Search<'_> {
    fn best_value(&self) -> i64 {
        self.best.as_ref().map_or(0, |b| b.value)
    }

    /// Expands the current column set (`self.cols`) whose supporting
    /// rows are `rows`. `depth` indexes the scratch pool. Returns the
    /// `rows` buffer so the caller can pool it.
    fn explore(&mut self, depth: usize, rows: Vec<RowIdx>) -> Vec<RowIdx> {
        if self.visited >= self.cfg.budget {
            self.truncated = true;
            return rows;
        }
        self.visited += 1;

        if self.cols.len() >= self.cfg.min_cols {
            // Cheap gate first: the duplicate-blind value is an upper
            // bound on the exact value, so the exact (allocating) pass
            // only runs on candidates that could beat the best.
            let mut approx: i64 = -cols_cost(self.m, &self.cols);
            for &r in &rows {
                let row = &self.m.rows()[r];
                let mut contrib: i64 = -row_cost(&row.cokernel);
                for &c in &self.cols {
                    let id = row.entry(c).expect("row supports all cols");
                    contrib += (self.value_of)(id) as i64;
                }
                if contrib > 0 {
                    approx += contrib;
                }
            }
            if approx > self.best_value() {
                self.seen.clear();
                if let Some(rect) =
                    evaluate_with(self.m, self.value_of, &self.cols, &rows, &mut self.seen)
                {
                    if rect.value > self.best_value() {
                        self.best = Some(rect);
                    }
                }
            }
        }

        // Extend with columns to the right of the current rightmost.
        let from = self.cols.last().copied().unwrap_or(0) + 1;
        if self.scratch.len() <= depth {
            self.scratch.resize_with(depth + 1, Vec::new);
        }
        for c in from..self.m.cols().len() {
            // rows ∩ rows(c), into the per-depth scratch buffer.
            let mut shared = std::mem::take(&mut self.scratch[depth]);
            shared.clear();
            intersect_into(&rows, &self.m.cols()[c].rows, &mut shared);
            if shared.is_empty() {
                self.scratch[depth] = shared;
                continue;
            }
            // Admissible bound: every surviving row can contribute at
            // most its full-row value; column costs only grow.
            let ub: i64 = shared.iter().map(|&r| self.row_full_value[r].max(0)).sum();
            if ub <= self.best_value() {
                self.scratch[depth] = shared;
                continue;
            }
            self.cols.push(c);
            let buf = self.explore(depth + 1, shared);
            self.scratch[depth] = buf;
            self.cols.pop();
            if self.truncated {
                return rows;
            }
        }
        rows
    }
}

/// `out = a ∩ b` over sorted slices, reusing `out`'s allocation.
pub(crate) fn intersect_into(a: &[RowIdx], b: &[RowIdx], out: &mut Vec<RowIdx>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// The positive rectangles of the alive rows' full column sets, in row
/// order (see [`greedy_top_k`]).
fn row_rectangles(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
) -> Vec<Rectangle> {
    let mut out = Vec::new();
    let mut seen: FxHashSet<CubeId> = FxHashSet::default();
    for row in m.rows().iter().filter(|r| r.alive) {
        if row.entries.len() < cfg.min_cols {
            continue;
        }
        let cols: Vec<ColIdx> = row.entries.iter().map(|&(c, _)| c).collect();
        // Supporting rows: intersection of the column row-lists.
        let mut support = m.cols()[cols[0]].rows.clone();
        for &c in &cols[1..] {
            support = KcMatrix::intersect_rows(&support, &m.cols()[c].rows);
            if support.is_empty() {
                break;
            }
        }
        if support.is_empty() {
            continue;
        }
        seen.clear();
        out.extend(evaluate_with(m, value_of, &cols, &support, &mut seen));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::LabelGen;
    use crate::registry::CubeRegistry;
    use pf_sop::kernel::KernelConfig;
    use pf_sop::{Cube, Lit, Sop};

    fn sop(cubes: &[&[u32]]) -> Sop {
        Sop::from_cubes(
            cubes
                .iter()
                .map(|c| Cube::from_lits(c.iter().map(|&i| Lit::pos(i)))),
        )
    }

    #[test]
    fn oracle_matches_bitset_engine_on_paper_g() {
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
        let value_of = |id: crate::registry::CubeId| w[id as usize];
        let cfg = SearchConfig::default();
        let (first_max, _) = best_rectangle(&m, &value_of, &cfg);
        let every = top_k(&m, &value_of, &cfg);
        let (found, _) = crate::pool::SearchPool::new().find(
            &m,
            &value_of,
            &cfg,
            None,
            crate::pool::CeilingUpdate::Off,
        );
        assert_eq!(found, every);
        assert_eq!(first_max.map(|r| r.value), Some(every[0].value));
    }

    #[test]
    fn intersect_into_matches_manual() {
        let mut out = Vec::new();
        intersect_into(&[1, 3, 5, 7], &[3, 4, 7, 9], &mut out);
        assert_eq!(out, vec![3, 7]);
    }
}
