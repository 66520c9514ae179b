//! Conflict graph + greedy selection over a top-K candidate batch.
//!
//! One extraction pass with `SearchConfig::topk > 1` returns up to K
//! candidate rectangles; applying more than one of them before the next
//! search is only sound when the applies cannot interfere. Two
//! rectangles **conflict** iff:
//!
//! * they share a KC-matrix column (the extracted kernels overlap — the
//!   covered-cube dedup would make their values sub-additive), or
//! * they touch a common network node: `Engine::apply` tombstones
//!   *every* row of every affected node and re-kernelizes it, so a
//!   shared node means one apply invalidates the other's rows and
//!   support. Sharing a row is the special case of sharing that row's
//!   node, and "one's apply would tombstone rows in the other's
//!   support" is exactly node overlap too — a row's rows live and die
//!   with their node.
//!
//! For a column-disjoint, node-disjoint set the applies commute and the
//! values are exactly additive: cube identities are per (node, cube), so
//! no covered cube is shared, no row is tombstoned from under a
//! surviving candidate, and row/column indices stay valid (rows are
//! tombstoned in place, columns only appended). The engine can therefore
//! apply the whole selected batch back-to-back and each apply still
//! saves exactly its rectangle's value.
//!
//! Selection is greedy maximal-independent-set in the canonical
//! (value, cols, rows) order — the same total order the search merge
//! uses — so the selected batch is deterministic and independent of
//! thread count and of the candidates' arrival order.

use crate::matrix::KcMatrix;
use crate::rectangle::{canonical_better, Rectangle};
use pf_sop::fx::FxHashSet;

/// The set of network nodes a rectangle's apply touches (the nodes of
/// its rows). Every row of every one of these nodes is tombstoned when
/// the rectangle is applied.
pub fn affected_nodes(m: &KcMatrix, rect: &Rectangle) -> FxHashSet<u32> {
    rect.rows.iter().map(|&r| m.rows()[r].node).collect()
}

/// Whether two rectangles conflict: shared column, or overlapping
/// affected-node sets (which subsumes shared rows and tombstoned-support
/// overlap — see the module docs).
pub fn conflicts(m: &KcMatrix, a: &Rectangle, b: &Rectangle) -> bool {
    if sorted_overlap(&a.cols, &b.cols) {
        return true;
    }
    let nodes_a = affected_nodes(m, a);
    b.rows.iter().any(|&r| nodes_a.contains(&m.rows()[r].node))
}

/// Whether two ascending-sorted index slices intersect.
fn sorted_overlap(a: &[usize], b: &[usize]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Greedy maximal non-conflicting subset of `candidates`, selected in
/// canonical (value, cols, rows) order and returned in that order, at
/// most `max` rectangles. The input need not be sorted or deduplicated:
/// it is sorted canonically first (so the result is independent of
/// arrival order), and equal duplicates conflict with themselves (shared
/// columns) so at most one survives.
pub fn select_nonconflicting(m: &KcMatrix, candidates: &[Rectangle], max: usize) -> Vec<Rectangle> {
    if candidates.is_empty() || max == 0 {
        return Vec::new();
    }
    let mut order: Vec<&Rectangle> = candidates.iter().collect();
    order.sort_by(|a, b| {
        if a == b {
            std::cmp::Ordering::Equal
        } else if canonical_better(a, b) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    });

    let mut selected: Vec<Rectangle> = Vec::new();
    // Union of the selected batch's affected nodes / columns, for O(1)
    // conflict checks against each further candidate.
    let mut nodes: FxHashSet<u32> = FxHashSet::default();
    let mut cols: FxHashSet<usize> = FxHashSet::default();
    for cand in order {
        if selected.len() >= max {
            break;
        }
        if cand.cols.iter().any(|c| cols.contains(c)) {
            continue;
        }
        if cand.rows.iter().any(|&r| nodes.contains(&m.rows()[r].node)) {
            continue;
        }
        cols.extend(cand.cols.iter().copied());
        nodes.extend(cand.rows.iter().map(|&r| m.rows()[r].node));
        selected.push(cand.clone());
    }
    selected
}

/// The canonical non-conflicting *prefix* of `candidates`: walk the
/// canonical (value, cols, rows) order and stop at the first candidate
/// that conflicts with an earlier pick, at most `max` rectangles.
///
/// Prefer this over [`select_nonconflicting`] when the rejected
/// candidates will be *re-validated and re-ranked* before further use
/// (the batched cover's wave drain). The first conflict is evidence the
/// ranking below it is stale: the winner's apply rewrites the loser's
/// rows, which can shrink the loser and every candidate ranked after it,
/// so skipping over the conflict and applying lower-ranked candidates
/// blind inflates the extraction count with small flat extractions the
/// one-per-pass engine never makes. Stopping at the conflict keeps every
/// applied rectangle ranked against a fresh pool. Like
/// [`select_nonconflicting`], the input is sorted canonically first and
/// the result is deterministic; the canonical best is always selected.
pub fn select_prefix_nonconflicting(
    m: &KcMatrix,
    candidates: &[Rectangle],
    max: usize,
) -> Vec<Rectangle> {
    if candidates.is_empty() || max == 0 {
        return Vec::new();
    }
    let mut order: Vec<&Rectangle> = candidates.iter().collect();
    order.sort_by(|a, b| {
        if a == b {
            std::cmp::Ordering::Equal
        } else if canonical_better(a, b) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    });

    let mut selected: Vec<Rectangle> = Vec::new();
    let mut nodes: FxHashSet<u32> = FxHashSet::default();
    let mut cols: FxHashSet<usize> = FxHashSet::default();
    for cand in order {
        if selected.len() >= max {
            break;
        }
        if cand.cols.iter().any(|c| cols.contains(c))
            || cand.rows.iter().any(|&r| nodes.contains(&m.rows()[r].node))
        {
            break;
        }
        cols.extend(cand.cols.iter().copied());
        nodes.extend(cand.rows.iter().map(|&r| m.rows()[r].node));
        selected.push(cand.clone());
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::LabelGen;
    use crate::pool::{CeilingUpdate, SearchPool};
    use crate::rectangle::SearchConfig;
    use crate::registry::{CubeId, CubeRegistry};
    use pf_sop::kernel::KernelConfig;
    use pf_sop::{Cube, Lit, Sop};

    fn cube(ids: &[u32]) -> Cube {
        Cube::from_lits(ids.iter().map(|&i| Lit::pos(i)))
    }

    fn sop(cubes: &[&[u32]]) -> Sop {
        Sop::from_cubes(cubes.iter().map(|c| cube(c)))
    }

    /// The paper's network N: F (id 10), G (id 9), H (id 8).
    fn paper_matrix() -> (KcMatrix, Vec<u32>) {
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
        (m, weights)
    }

    /// The canonical top 8 of the matrix under weights `w`.
    fn top8(m: &KcMatrix, w: &[u32]) -> Vec<Rectangle> {
        let value_of = |id: CubeId| w[id as usize];
        let cfg = SearchConfig {
            topk: 8,
            ..SearchConfig::default()
        };
        SearchPool::new()
            .find(m, &value_of, &cfg, None, CeilingUpdate::Off)
            .0
    }

    #[test]
    fn shared_column_conflicts() {
        let (m, _) = paper_matrix();
        let a = Rectangle {
            rows: vec![0],
            cols: vec![0, 2],
            value: 3,
        };
        let b = Rectangle {
            rows: vec![1],
            cols: vec![2, 5],
            value: 2,
        };
        assert!(conflicts(&m, &a, &b));
        assert!(conflicts(&m, &b, &a));
    }

    #[test]
    fn shared_node_conflicts_even_with_disjoint_rows_and_cols() {
        let (m, _) = paper_matrix();
        // Two rows of the same node (the paper matrix starts with
        // several rows of node 10).
        let same_node: Vec<usize> = (0..m.rows().len())
            .filter(|&r| m.rows()[r].node == 10)
            .take(2)
            .collect();
        assert_eq!(same_node.len(), 2);
        let a = Rectangle {
            rows: vec![same_node[0]],
            cols: vec![0],
            value: 1,
        };
        let b = Rectangle {
            rows: vec![same_node[1]],
            cols: vec![1],
            value: 1,
        };
        assert!(conflicts(&m, &a, &b), "same node must conflict");
    }

    #[test]
    fn disjoint_rectangles_do_not_conflict() {
        let (m, _) = paper_matrix();
        let row_of = |node: u32| {
            (0..m.rows().len())
                .find(|&r| m.rows()[r].node == node)
                .unwrap()
        };
        let a = Rectangle {
            rows: vec![row_of(10)],
            cols: vec![0],
            value: 1,
        };
        let b = Rectangle {
            rows: vec![row_of(9)],
            cols: vec![1],
            value: 1,
        };
        assert!(!conflicts(&m, &a, &b));
    }

    #[test]
    fn selection_is_greedy_canonical_and_conflict_free() {
        let (m, w) = paper_matrix();
        let cands = top8(&m, &w);
        assert!(cands.len() > 1, "paper matrix has multiple rectangles");
        let sel = select_nonconflicting(&m, &cands, usize::MAX);
        assert!(!sel.is_empty());
        // Best candidate always survives (it is picked first).
        assert_eq!(sel[0], cands[0]);
        // Pairwise conflict-free.
        for i in 0..sel.len() {
            for j in (i + 1)..sel.len() {
                assert!(!conflicts(&m, &sel[i], &sel[j]), "selected set conflicts");
            }
        }
        // Maximality: every rejected candidate conflicts with a pick.
        for c in &cands {
            if !sel.contains(c) {
                assert!(
                    sel.iter().any(|s| conflicts(&m, s, c)),
                    "rejected candidate conflicts with nothing"
                );
            }
        }
    }

    #[test]
    fn selection_is_input_order_independent_and_respects_max() {
        let (m, w) = paper_matrix();
        let cands = top8(&m, &w);
        let sel = select_nonconflicting(&m, &cands, usize::MAX);
        let mut shuffled = cands.clone();
        shuffled.reverse();
        assert_eq!(select_nonconflicting(&m, &shuffled, usize::MAX), sel);
        let capped = select_nonconflicting(&m, &cands, 1);
        assert_eq!(capped.len(), 1);
        assert_eq!(capped[0], sel[0]);
        assert!(select_nonconflicting(&m, &cands, 0).is_empty());
        assert!(select_nonconflicting(&m, &[], usize::MAX).is_empty());
    }

    #[test]
    fn prefix_selection_stops_at_the_first_conflict() {
        let (m, w) = paper_matrix();
        let cands = top8(&m, &w);
        assert!(cands.len() > 1);
        let prefix = select_prefix_nonconflicting(&m, &cands, usize::MAX);
        let greedy = select_nonconflicting(&m, &cands, usize::MAX);
        // The canonical best is always selected, and the prefix is a
        // prefix of the skip-over greedy selection.
        assert!(!prefix.is_empty());
        assert_eq!(prefix[0], cands[0]);
        assert!(prefix.len() <= greedy.len());
        assert_eq!(&greedy[..prefix.len()], &prefix[..]);
        // It really is the canonical prefix: the candidate right after
        // the last pick (in canonical order) conflicts with a pick.
        if prefix.len() < cands.len() {
            let next = cands
                .iter()
                .find(|c| !prefix.contains(c))
                .expect("a rejected candidate exists");
            assert!(prefix.iter().any(|s| conflicts(&m, s, next)));
        }
        // Capping and empty input behave like the greedy variant.
        let capped = select_prefix_nonconflicting(&m, &cands, 1);
        assert_eq!(capped, vec![cands[0].clone()]);
        assert!(select_prefix_nonconflicting(&m, &cands, 0).is_empty());
        assert!(select_prefix_nonconflicting(&m, &[], usize::MAX).is_empty());
    }

    #[test]
    fn duplicates_collapse_to_one() {
        let (m, _) = paper_matrix();
        let a = Rectangle {
            rows: vec![0],
            cols: vec![0, 1],
            value: 4,
        };
        let sel = select_nonconflicting(&m, &[a.clone(), a.clone()], usize::MAX);
        assert_eq!(sel, vec![a]);
    }
}
