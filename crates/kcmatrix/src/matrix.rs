//! The sparse co-kernel cube matrix.
//!
//! Rows are `(node, co-kernel)` pairs, columns are distinct kernel cubes,
//! and each `1` entry records the interned [`CubeId`] of the network cube
//! `co-kernel ∪ kernel-cube` it covers (the paper's Figure 2 writes the
//! cube's index at each entry). Row and column labels follow the paper's
//! §5.2 offset scheme: processor `p` labels from `p · offset + 1`, so
//! labels are consistent across processors no matter the generation
//! order.

use crate::registry::{CubeId, CubeRegistry};
use crate::rowset::RowSet;
use pf_sop::fx::FxHashMap;
use pf_sop::kernel::{kernels_config, KernelConfig};
use pf_sop::{Cube, Sop};
use std::fmt;

/// Dense index of a row inside one matrix (not the label).
pub type RowIdx = usize;
/// Dense index of a column inside one matrix (not the label).
pub type ColIdx = usize;

/// Generates row or column labels with the paper's processor offset: the
/// first label of processor `p` is `p · offset + 1` (so processor 2's
/// first kernel is 200001 when `offset = 100_000`, as in Example 5.1).
#[derive(Clone, Debug)]
pub struct LabelGen {
    next: u64,
    limit: u64,
}

impl LabelGen {
    /// Label generator for processor `proc` with the given offset block
    /// size. Panics if a processor exhausts its block — with the default
    /// offset of 10⁹ that means a pathological run.
    pub fn new(proc: u16, offset: u64) -> Self {
        let base = proc as u64 * offset;
        LabelGen {
            next: base + 1,
            limit: base + offset,
        }
    }

    /// Default offset used by the engine (large enough for any workload).
    pub const DEFAULT_OFFSET: u64 = 1_000_000_000;

    /// Paper-sized offset (100 000), used when rendering Figure 4.
    pub const PAPER_OFFSET: u64 = 100_000;

    /// Produces the next label.
    #[allow(clippy::should_implement_trait)] // not an Iterator: labels never end mid-run
    pub fn next(&mut self) -> u64 {
        assert!(self.next <= self.limit, "label block exhausted");
        let l = self.next;
        self.next += 1;
        l
    }
}

/// A matrix row: one co-kernel of one node.
#[derive(Clone, Debug)]
pub struct KcRow {
    /// Paper-style label (globally unique across processors).
    pub label: u64,
    /// The node this co-kernel belongs to.
    pub node: u32,
    /// The co-kernel cube.
    pub cokernel: Cube,
    /// Entries `(column index, covered cube id)`.
    ///
    /// **Invariant:** strictly sorted by column index (no duplicates).
    /// Every constructor sorts + dedups before insertion and
    /// `KcMatrix::push_row` checks it in debug builds; [`KcRow::entry`]
    /// binary-searches on the strength of it. Mutators that rebuild rows
    /// (e.g. Algorithm L's `rebuild_node_rows`) go through
    /// `remove_node_rows` + `add_node_kernels`, so the invariant holds
    /// matrix-wide for the row's whole life.
    pub entries: Vec<(ColIdx, CubeId)>,
    /// Tombstone flag; dead rows are skipped by every search.
    pub alive: bool,
}

impl KcRow {
    /// The entry in column `c`, if present.
    pub fn entry(&self, c: ColIdx) -> Option<CubeId> {
        self.entries
            .binary_search_by_key(&c, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }
}

/// A matrix column: one distinct kernel cube.
#[derive(Clone, Debug)]
pub struct KcCol {
    /// Paper-style label.
    pub label: u64,
    /// The kernel cube.
    pub cube: Cube,
    /// Alive rows with an entry in this column, sorted.
    pub rows: Vec<RowIdx>,
}

/// The sparse co-kernel cube matrix.
#[derive(Default)]
pub struct KcMatrix {
    rows: Vec<KcRow>,
    cols: Vec<KcCol>,
    col_by_cube: FxHashMap<Cube, ColIdx>,
    /// Alive rows of each node, ascending — what lets a node's rewrite
    /// touch only its own rows instead of scanning the whole matrix.
    /// Kept by [`KcMatrix::push_row`] / [`KcMatrix::tombstone_row`].
    rows_by_node: FxHashMap<u32, Vec<RowIdx>>,
    /// Number of alive rows (`rows.len()` minus the tombstones).
    alive_rows: usize,
}

impl KcMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// All rows (including tombstoned ones — check `alive`).
    pub fn rows(&self) -> &[KcRow] {
        &self.rows
    }

    /// All columns.
    pub fn cols(&self) -> &[KcCol] {
        &self.cols
    }

    /// Number of alive rows.
    pub fn num_alive_rows(&self) -> usize {
        self.alive_rows
    }

    /// The alive rows of `node`, ascending.
    pub fn node_rows(&self, node: u32) -> &[RowIdx] {
        self.rows_by_node.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Total number of `1` entries in alive rows.
    pub fn num_entries(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.alive)
            .map(|r| r.entries.len())
            .sum()
    }

    /// The column index for a kernel cube, creating the column (with a
    /// label from `labels`) if needed.
    pub fn col_for_cube(&mut self, cube: &Cube, labels: &mut LabelGen) -> ColIdx {
        if let Some(&c) = self.col_by_cube.get(cube) {
            return c;
        }
        let idx = self.cols.len();
        self.cols.push(KcCol {
            label: labels.next(),
            cube: cube.clone(),
            rows: Vec::new(),
        });
        self.col_by_cube.insert(cube.clone(), idx);
        idx
    }

    /// Looks up a column by its kernel cube.
    pub fn find_col(&self, cube: &Cube) -> Option<ColIdx> {
        self.col_by_cube.get(cube).copied()
    }

    /// Adds a row for `(node, cokernel)` whose kernel is `kernel`,
    /// interning each covered cube in `registry`. Returns the row index.
    pub fn add_row(
        &mut self,
        row_label: u64,
        node: u32,
        cokernel: Cube,
        kernel: &Sop,
        registry: &CubeRegistry,
        col_labels: &mut LabelGen,
    ) -> RowIdx {
        let mut entries = Vec::with_capacity(kernel.num_cubes());
        let mut covered = Vec::new();
        for kc in kernel.iter() {
            let col = self.col_for_cube(kc, col_labels);
            let disjoint = cokernel.product_into(kc, &mut covered);
            assert!(disjoint, "co-kernel and kernel cube are variable-disjoint");
            let id = registry.intern_lits(node, &covered);
            entries.push((col, id));
        }
        entries.sort_unstable_by_key(|e| e.0);
        self.push_row(KcRow {
            label: row_label,
            node,
            cokernel,
            entries,
            alive: true,
        })
    }

    /// Adds a pre-assembled row (used when merging shipped `B_ij`
    /// sub-rows in Algorithm L). Entries are `(kernel cube, cube id)`;
    /// columns are resolved or created here.
    pub fn add_row_with_entries(
        &mut self,
        row_label: u64,
        node: u32,
        cokernel: Cube,
        entries: impl IntoIterator<Item = (Cube, CubeId)>,
        col_labels: &mut LabelGen,
    ) -> RowIdx {
        let mut es: Vec<(ColIdx, CubeId)> = entries
            .into_iter()
            .map(|(cube, id)| (self.col_for_cube(&cube, col_labels), id))
            .collect();
        es.sort_unstable_by_key(|e| e.0);
        es.dedup_by_key(|e| e.0);
        self.push_row(KcRow {
            label: row_label,
            node,
            cokernel,
            entries: es,
            alive: true,
        })
    }

    fn push_row(&mut self, row: KcRow) -> RowIdx {
        debug_assert!(
            row.entries.windows(2).all(|w| w[0].0 < w[1].0),
            "row entries must be strictly sorted by column index"
        );
        let idx = self.rows.len();
        // `idx` exceeds every existing row index, so a plain push keeps
        // the column and node lists ascending.
        for &(c, _) in &row.entries {
            self.cols[c].rows.push(idx);
        }
        self.rows_by_node.entry(row.node).or_default().push(idx);
        self.alive_rows += 1;
        self.rows.push(row);
        idx
    }

    /// Generates all kernel rows of a node function and adds them.
    /// Returns the new row indices.
    pub fn add_node_kernels(
        &mut self,
        node: u32,
        func: &Sop,
        cfg: &KernelConfig,
        registry: &CubeRegistry,
        row_labels: &mut LabelGen,
        col_labels: &mut LabelGen,
    ) -> Vec<RowIdx> {
        kernels_config(func, cfg)
            .into_iter()
            .map(|p| {
                self.add_row(
                    row_labels.next(),
                    node,
                    p.cokernel,
                    &p.kernel,
                    registry,
                    col_labels,
                )
            })
            .collect()
    }

    /// Tombstones a single row and scrubs it from the column row-lists.
    /// Only the columns the row actually occupies are touched (the
    /// sorted-entries invariant tells us exactly which those are).
    pub fn tombstone_row(&mut self, idx: RowIdx) {
        if !self.rows[idx].alive {
            return;
        }
        self.rows[idx].alive = false;
        self.alive_rows -= 1;
        for e in 0..self.rows[idx].entries.len() {
            let c = self.rows[idx].entries[e].0;
            let rows = &mut self.cols[c].rows;
            if let Ok(pos) = rows.binary_search(&idx) {
                rows.remove(pos);
            }
        }
        // Absent when `remove_node_rows` already took the node's list.
        let node = self.rows[idx].node;
        if let Some(of_node) = self.rows_by_node.get_mut(&node) {
            if let Ok(pos) = of_node.binary_search(&idx) {
                of_node.remove(pos);
            }
        }
    }

    /// Tombstones every row belonging to `node` (after the node's
    /// function changed) and scrubs the column row-lists. Touches only
    /// the node's own rows.
    pub fn remove_node_rows(&mut self, node: u32) {
        for i in self.rows_by_node.remove(&node).unwrap_or_default() {
            self.tombstone_row(i);
        }
    }

    /// Drops every tombstoned row and renumbers the survivors in order.
    ///
    /// Row *order* is all the search depends on — the greedy sweep and
    /// the leftmost-column enumeration walk rows ascending, and the
    /// canonical `(value, cols, rows)` order compares row lists
    /// lexicographically — so an order-preserving renumbering keeps
    /// every comparison, and with it every search result. Row indices
    /// held outside the matrix (a [`crate::Rectangle`]'s rows, tile
    /// panels) are invalid afterwards; columns, labels and cube ids are
    /// untouched.
    pub fn compact_rows(&mut self) {
        if self.alive_rows == self.rows.len() {
            return;
        }
        for col in &mut self.cols {
            col.rows.clear();
        }
        self.rows_by_node.clear();
        self.alive_rows = 0;
        for row in std::mem::take(&mut self.rows) {
            if row.alive {
                self.push_row(row);
            }
        }
    }

    /// Per-column supports as dense [`RowSet`] bitsets over the row
    /// universe — the layout a [`crate::tiles::TilePanels`] column must
    /// equal word for word. Tombstoned rows never appear (column
    /// row-lists are scrubbed on removal).
    pub fn col_row_sets(&self) -> Vec<RowSet> {
        let nrows = self.rows.len();
        self.cols
            .iter()
            .map(|c| RowSet::from_indices(c.rows.iter().copied(), nrows))
            .collect()
    }

    /// Row intersection helper: alive rows present in both sorted lists.
    pub fn intersect_rows(a: &[RowIdx], b: &[RowIdx]) -> Vec<RowIdx> {
        let mut out = Vec::new();
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
        out
    }

    /// Renders the matrix in the style of the paper's Figure 2 / Figure 4:
    /// a header row of kernel-cube labels, then one line per alive row
    /// with its label, co-kernel and the covered-cube ids. `name_of`
    /// supplies display names for node ids and variable indices.
    pub fn render(&self, name_of: &dyn Fn(u32) -> String) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let cube_name = |cube: &Cube| -> String {
            if cube.is_one() {
                "1".to_string()
            } else {
                cube.iter()
                    .map(|l| {
                        let n = name_of(l.var().index());
                        if l.is_negated() {
                            format!("~{n}")
                        } else {
                            n
                        }
                    })
                    .collect::<Vec<_>>()
                    .join("")
            }
        };
        write!(out, "{:>18} |", "").unwrap();
        for c in &self.cols {
            write!(out, " {:>8}", cube_name(&c.cube)).unwrap();
        }
        out.push('\n');
        write!(out, "{:>18} |", "label").unwrap();
        for c in &self.cols {
            write!(out, " {:>8}", c.label).unwrap();
        }
        out.push('\n');
        writeln!(out, "{}", "-".repeat(20 + 9 * self.cols.len())).unwrap();
        for r in self.rows.iter().filter(|r| r.alive) {
            let head = format!(
                "{} {} ({})",
                name_of(r.node),
                cube_name(&r.cokernel),
                r.label
            );
            write!(out, "{head:>18} |").unwrap();
            let mut k = 0usize;
            for ci in 0..self.cols.len() {
                if k < r.entries.len() && r.entries[k].0 == ci {
                    write!(out, " {:>8}", r.entries[k].1).unwrap();
                    k += 1;
                } else {
                    write!(out, " {:>8}", ".").unwrap();
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Debug for KcMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KcMatrix[{} rows ({} alive), {} cols, {} entries]",
            self.rows.len(),
            self.num_alive_rows(),
            self.cols.len(),
            self.num_entries()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_sop::Lit;

    fn cube(ids: &[u32]) -> Cube {
        Cube::from_lits(ids.iter().map(|&i| Lit::pos(i)))
    }

    fn sop(cubes: &[&[u32]]) -> Sop {
        Sop::from_cubes(cubes.iter().map(|c| cube(c)))
    }

    /// G = af + bf + ace + bce with a=1 b=2 c=3 e=5 f=6.
    fn paper_g() -> Sop {
        sop(&[&[1, 6], &[2, 6], &[1, 3, 5], &[2, 3, 5]])
    }

    #[test]
    fn label_gen_uses_processor_offsets() {
        let mut g0 = LabelGen::new(0, LabelGen::PAPER_OFFSET);
        let mut g2 = LabelGen::new(2, LabelGen::PAPER_OFFSET);
        let mut g5 = LabelGen::new(5, LabelGen::PAPER_OFFSET);
        assert_eq!(g0.next(), 1);
        assert_eq!(g2.next(), 200_001); // paper: "first kernel in processor 2
        assert_eq!(g5.next(), 500_001); //  will be 200001 … processor 5 … 500001"
        assert_eq!(g2.next(), 200_002);
    }

    #[test]
    fn build_matrix_for_paper_g() {
        let reg = CubeRegistry::new();
        let mut m = KcMatrix::new();
        let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let rows = m.add_node_kernels(
            9, // node id for G
            &paper_g(),
            &KernelConfig::default(),
            &reg,
            &mut rl,
            &mut cl,
        );
        // 4 co-kernels: a, b, ce, f — kernel cubes {f, ce} and {a, b}.
        assert_eq!(rows.len(), 4);
        assert_eq!(m.cols().len(), 4);
        // Every entry covers a real cube of G with correct weight.
        for r in m.rows() {
            for &(c, id) in &r.entries {
                let covered = r.cokernel.product(&m.cols()[c].cube).unwrap();
                assert!(paper_g().contains_cube(&covered));
                assert_eq!(reg.weight(id), covered.len() as u32);
            }
        }
        // The cube "af" is covered from two positions (row a / col f and
        // row f / col a) and must be interned once.
        let af = cube(&[1, 6]);
        assert!(reg.lookup(9, &af).is_some());
        let af_id = reg.lookup(9, &af).unwrap();
        let positions: usize = m
            .rows()
            .iter()
            .flat_map(|r| r.entries.iter())
            .filter(|(_, id)| *id == af_id)
            .count();
        assert_eq!(positions, 2);
    }

    #[test]
    fn column_rows_track_membership() {
        let reg = CubeRegistry::new();
        let mut m = KcMatrix::new();
        let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        m.add_node_kernels(
            9,
            &paper_g(),
            &KernelConfig::default(),
            &reg,
            &mut rl,
            &mut cl,
        );
        for (ci, col) in m.cols().iter().enumerate() {
            for &r in &col.rows {
                assert!(m.rows()[r].entry(ci).is_some());
            }
        }
        // col "a" has the rows with co-kernels f and ce.
        let ca = m.find_col(&cube(&[1])).unwrap();
        let coks: Vec<&Cube> = m.cols()[ca]
            .rows
            .iter()
            .map(|&r| &m.rows()[r].cokernel)
            .collect();
        assert!(coks.contains(&&cube(&[6])));
        assert!(coks.contains(&&cube(&[3, 5])));
    }

    #[test]
    fn remove_node_rows_tombstones() {
        let reg = CubeRegistry::new();
        let mut m = KcMatrix::new();
        let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        m.add_node_kernels(
            9,
            &paper_g(),
            &KernelConfig::default(),
            &reg,
            &mut rl,
            &mut cl,
        );
        m.add_node_kernels(
            8,
            &sop(&[&[1, 4, 5], &[3, 4, 5]]),
            &KernelConfig::default(),
            &reg,
            &mut rl,
            &mut cl,
        );
        let before = m.num_alive_rows();
        m.remove_node_rows(9);
        assert_eq!(m.num_alive_rows(), before - 4);
        for col in m.cols() {
            for &r in &col.rows {
                assert!(m.rows()[r].alive);
            }
        }
    }

    #[test]
    fn add_row_with_entries_merges_columns() {
        let mut m = KcMatrix::new();
        let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let c_a = m.col_for_cube(&cube(&[1]), &mut cl);
        let r = m.add_row_with_entries(
            42,
            7,
            cube(&[6]),
            [(cube(&[1]), 0), (cube(&[2]), 1)],
            &mut cl,
        );
        assert_eq!(m.rows()[r].label, 42);
        assert_eq!(m.rows()[r].entries.len(), 2);
        // Column "a" was reused, "b" created.
        assert_eq!(m.find_col(&cube(&[1])), Some(c_a));
        assert!(m.find_col(&cube(&[2])).is_some());
    }

    #[test]
    fn intersect_rows_merges_sorted() {
        assert_eq!(
            KcMatrix::intersect_rows(&[1, 3, 5, 9], &[2, 3, 9, 10]),
            vec![3, 9]
        );
        assert!(KcMatrix::intersect_rows(&[], &[1]).is_empty());
    }

    #[test]
    fn render_mentions_labels_and_cokernels() {
        let reg = CubeRegistry::new();
        let mut m = KcMatrix::new();
        let mut rl = LabelGen::new(0, LabelGen::PAPER_OFFSET);
        let mut cl = LabelGen::new(0, LabelGen::PAPER_OFFSET);
        m.add_node_kernels(
            9,
            &paper_g(),
            &KernelConfig::default(),
            &reg,
            &mut rl,
            &mut cl,
        );
        // Variable indices are 1-based in these fixtures (a=1 … g=7).
        let names = ["?", "a", "b", "c", "d", "e", "f", "g", "H", "G"];
        let txt = m.render(&|i| names[i as usize].to_string());
        assert!(txt.contains("G"));
        assert!(txt.contains("ce"));
    }

    #[test]
    #[should_panic(expected = "label block exhausted")]
    fn label_block_overflow_panics() {
        let mut g = LabelGen::new(0, 2);
        g.next();
        g.next();
        g.next();
    }
}
