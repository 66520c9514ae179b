//! Column-major tiled mirror of the KC matrix for the rectangle-search
//! kernel.
//!
//! The branch-and-bound inner loop does one thing millions of times:
//! intersect the current support with a candidate column's row-set and
//! sum the admissible per-row bound over the survivors. A dense bitset
//! over the whole row universe would walk *every* word per candidate.
//! This module lays the same data out for that loop:
//!
//! * **Panels.** Each column's row bitset is mirrored into a
//!   `TilePanels` buffer, column-major (`data[c * stride + w]`), with
//!   `stride` padded up to a multiple of the tile width so every column
//!   is a whole number of fixed-width u64 tiles. One candidate probe
//!   streams one contiguous column — no per-row gathers.
//! * **Live-tile lists.** A support ([`TiledSupport`]) carries the
//!   ascending list of its non-zero tiles next to its words. An
//!   intersection only visits the *parent's* live tiles (a child
//!   support is always a subset), so sparse supports skip almost the
//!   whole universe.
//! * **Fused AND + bound.** [`TiledSupport::and_ub_from`] computes the
//!   child support and its admissible bound in a single pass: 4-wide
//!   unrolled word groups, an OR reduction for the dead-tile early
//!   exit, and a `count`-style bit walk only over surviving words.
//!
//! Words outside a support's live tiles are **stale** — never read,
//! never zeroed. Iteration and intersection are driven exclusively by
//! the live list, which is what makes child derivation O(live tiles)
//! instead of O(universe).
//!
//! # Sync invariants
//!
//! A panel is a *mirror*: it must stay byte-equal to the dense bitset
//! of every column's row list ([`KcCol::rows`]), from which it is
//! encoded directly — the tiled path never materialises per-column
//! [`crate::rowset::RowSet`]s. Its holder keeps it in sync as follows:
//!
//! 1. The resident [`crate::pool::SearchPool`] keeps one panel across
//!    passes and drives [`TilePanels::sync`] from the same
//!    [`crate::pool::CeilingUpdate`] bookkeeping as the ceilings: the
//!    caller's dirty-column list must cover every column that gained or
//!    lost a row (tombstoned rows' entry columns and appended rows'
//!    columns — exactly the `Engine::apply` contract). Appended columns
//!    are encoded fresh; a width change, a row-universe change that
//!    no longer fits the padded stride, or a shrunk universe (row
//!    compaction renumbered the rows) triggers a full rebuild.
//! 2. Without dirty information ([`crate::pool::CeilingUpdate::Off`]),
//!    or when the pool has forgotten its matrix, the panel is built
//!    afresh ([`TilePanels::build`]) — trivially in sync.
//! 3. Results do not depend on the tile width: the candidate
//!    enumeration order is fixed and the fused bound is an
//!    order-independent integer sum, so every prune/admit decision is
//!    the same word for word.

use crate::matrix::{ColIdx, KcCol, RowIdx};

/// Column-major mirror of the per-column row bitsets, padded to whole
/// tiles of `width` u64 words.
#[derive(Clone, Debug, Default)]
pub struct TilePanels {
    /// Words per tile (the `--tile-width` knob; `>= 1`).
    width: usize,
    /// Words per column; a multiple of `width`, covering the row
    /// universe with zero padding above it.
    stride: usize,
    /// Rows the panel was encoded for (`ceil(nrows / 64)` words used).
    nrows: usize,
    /// Columns encoded.
    ncols: usize,
    /// `ncols * stride` words, column-major.
    data: Vec<u64>,
}

impl TilePanels {
    /// Builds a fresh panel mirror of `cols` (the matrix columns, whose
    /// row lists range over a universe of `nrows` rows).
    pub fn build(nrows: usize, cols: &[KcCol], width: usize) -> Self {
        let width = width.max(1);
        let nwords = nrows.div_ceil(64);
        let stride = nwords.div_ceil(width).max(1) * width;
        let mut p = TilePanels {
            width,
            stride,
            nrows,
            ncols: cols.len(),
            data: vec![0; cols.len() * stride],
        };
        for (c, col) in cols.iter().enumerate() {
            p.set_rows(c, &col.rows);
        }
        p
    }

    /// Re-syncs an existing panel to the current matrix: appended
    /// columns are encoded fresh, `dirty` columns re-encoded in place,
    /// everything else kept. Falls back to a full rebuild (returning
    /// `true`) when the width changed or the row universe no longer
    /// fits the padded stride.
    pub fn sync(&mut self, nrows: usize, cols: &[KcCol], width: usize, dirty: &[ColIdx]) -> bool {
        let width = width.max(1);
        let nwords = nrows.div_ceil(64);
        if width != self.width
            || nwords > self.stride
            || nrows < self.nrows
            || cols.len() < self.ncols
        {
            *self = TilePanels::build(nrows, cols, width);
            return true;
        }
        self.nrows = nrows;
        let old_ncols = self.ncols;
        self.ncols = cols.len();
        // Appended columns arrive zeroed: only their bits need setting.
        self.data.resize(self.ncols * self.stride, 0);
        for (c, col) in cols.iter().enumerate().skip(old_ncols) {
            self.set_rows(c, &col.rows);
        }
        for &c in dirty {
            if c < old_ncols {
                let base = c * self.stride;
                self.data[base..base + self.stride].fill(0);
                self.set_rows(c, &cols[c].rows);
            }
        }
        false
    }

    /// Sets the bits of `rows` in column `c`, whose words must be zero.
    fn set_rows(&mut self, c: ColIdx, rows: &[RowIdx]) {
        let col = &mut self.data[c * self.stride..(c + 1) * self.stride];
        for &r in rows {
            col[r / 64] |= 1u64 << (r % 64);
        }
    }

    /// Words per tile.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Columns encoded.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// One column's padded word slice.
    #[inline]
    fn col(&self, c: ColIdx) -> &[u64] {
        &self.data[c * self.stride..(c + 1) * self.stride]
    }

    /// The column's row bitset as a plain [`crate::rowset::RowSet`]-equivalent word
    /// vector (unpadded) — for consistency checks in tests.
    pub fn col_words(&self, c: ColIdx) -> Vec<u64> {
        self.col(c)[..self.nrows.div_ceil(64)].to_vec()
    }
}

/// A support row-set in tiled form: padded words plus the ascending
/// list of non-zero tile indices. Words outside the live tiles are
/// stale and must never be read.
#[derive(Clone, Debug, Default)]
pub struct TiledSupport {
    width: usize,
    words: Vec<u64>,
    live: Vec<u32>,
}

impl TiledSupport {
    /// `self = column c` of the panel — the root support of a
    /// leftmost-column task.
    pub fn load_col(&mut self, p: &TilePanels, c: ColIdx) {
        self.width = p.width;
        if self.words.len() != p.stride {
            self.words.clear();
            self.words.resize(p.stride, 0);
        }
        self.live.clear();
        let col = p.col(c);
        for t in 0..p.stride / p.width {
            let base = t * p.width;
            let tile = &col[base..base + p.width];
            let mut any = 0u64;
            for &x in tile {
                any |= x;
            }
            if any != 0 {
                self.words[base..base + p.width].copy_from_slice(tile);
                self.live.push(t as u32);
            }
        }
    }

    /// Fused intersect-and-bound: `self = parent ∩ column c`, visiting
    /// only the parent's live tiles, returning the admissible bound
    /// `Σ max(row_full_value[r], 0)` over the result. The word loop is
    /// unrolled in 4-wide groups with an OR reduction so a dead tile
    /// exits before any bit walking.
    pub fn and_ub_from(
        &mut self,
        parent: &TiledSupport,
        p: &TilePanels,
        c: ColIdx,
        row_full_value: &[i64],
    ) -> i64 {
        let w = p.width;
        self.width = w;
        if self.words.len() != p.stride {
            self.words.clear();
            self.words.resize(p.stride, 0);
        }
        self.live.clear();
        let col = p.col(c);
        let mut ub = 0i64;
        for &t in &parent.live {
            let base = t as usize * w;
            let a = &parent.words[base..base + w];
            let b = &col[base..base + w];
            let out = &mut self.words[base..base + w];
            let mut any = 0u64;
            let mut i = 0;
            while i + 4 <= w {
                let w0 = a[i] & b[i];
                let w1 = a[i + 1] & b[i + 1];
                let w2 = a[i + 2] & b[i + 2];
                let w3 = a[i + 3] & b[i + 3];
                out[i] = w0;
                out[i + 1] = w1;
                out[i + 2] = w2;
                out[i + 3] = w3;
                any |= w0 | w1 | w2 | w3;
                i += 4;
            }
            while i < w {
                let x = a[i] & b[i];
                out[i] = x;
                any |= x;
                i += 1;
            }
            if any == 0 {
                continue; // dead tile: no survivors, no bit walk
            }
            self.live.push(t);
            for (j, &word) in out.iter().enumerate() {
                let mut word = word;
                let row_base = (base + j) * 64;
                while word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    ub += row_full_value[row_base + bit].max(0);
                }
            }
        }
        ub
    }

    /// Admissible bound of this support alone: `Σ max(row_full_value[r],
    /// 0)` over the member rows — what [`TiledSupport::and_ub_from`]
    /// returns for a derived child, for supports loaded directly from a
    /// column.
    pub fn bound(&self, row_full_value: &[i64]) -> i64 {
        let w = self.width.max(1);
        let mut ub = 0i64;
        for &t in &self.live {
            let base = t as usize * w;
            for (j, &word) in self.words[base..base + w].iter().enumerate() {
                let mut word = word;
                let row_base = (base + j) * 64;
                while word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    ub += row_full_value[row_base + bit].max(0);
                }
            }
        }
        ub
    }

    /// Whether the support holds no rows.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Number of rows (popcount over live tiles).
    pub fn len(&self) -> usize {
        let w = self.width.max(1);
        self.live
            .iter()
            .flat_map(|&t| {
                let base = t as usize * w;
                self.words[base..base + w].iter()
            })
            .map(|x| x.count_ones() as usize)
            .sum()
    }

    /// Iterates the member rows in ascending order (the live list is
    /// ascending, words within a tile ascending, bits within a word
    /// ascending).
    pub fn iter(&self) -> TiledBits<'_> {
        TiledBits {
            s: self,
            live_idx: 0,
            word_off: 0,
            current: 0,
        }
    }

    /// Appends the member rows (ascending) to `out` without clearing.
    pub fn collect_into(&self, out: &mut Vec<usize>) {
        out.extend(self.iter());
    }
}

impl<'a> IntoIterator for &'a TiledSupport {
    type Item = usize;
    type IntoIter = TiledBits<'a>;
    fn into_iter(self) -> TiledBits<'a> {
        self.iter()
    }
}

/// Ascending iterator over a [`TiledSupport`]'s rows, driven by the
/// live-tile list (stale words are never visited).
pub struct TiledBits<'a> {
    s: &'a TiledSupport,
    /// Index into the live list.
    live_idx: usize,
    /// Word offset inside the current live tile (`0..width` once the
    /// tile is entered; `width` forces advancing to the next tile).
    word_off: usize,
    current: u64,
}

impl Iterator for TiledBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let t = self.s.live[self.live_idx - 1] as usize;
                let word = t * self.s.width + (self.word_off - 1);
                return Some(word * 64 + bit);
            }
            // Advance to the next word of the current tile, or enter
            // the next live tile.
            if self.live_idx == 0 || self.word_off >= self.s.width {
                if self.live_idx >= self.s.live.len() {
                    return None;
                }
                self.live_idx += 1;
                self.word_off = 0;
            }
            let t = self.s.live[self.live_idx - 1] as usize;
            self.current = self.s.words[t * self.s.width + self.word_off];
            self.word_off += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowset::RowSet;
    use pf_sop::Cube;

    /// Matrix columns with the given (ascending) row lists.
    fn cols_of(rows: &[&[usize]]) -> Vec<KcCol> {
        rows.iter().map(|r| col_of(r)).collect()
    }

    fn col_of(rows: &[usize]) -> KcCol {
        KcCol {
            label: 0,
            cube: Cube::one(),
            rows: rows.to_vec(),
        }
    }

    /// The dense bitset the panel must mirror word for word.
    fn dense(col: &KcCol, universe: usize) -> RowSet {
        RowSet::from_indices(col.rows.iter().copied(), universe)
    }

    #[test]
    fn build_mirrors_columns_for_every_width() {
        let cs = cols_of(&[&[0, 63, 64, 130, 199], &[], &[5, 6, 7], &[199]]);
        for width in [1usize, 2, 3, 4, 8] {
            let p = TilePanels::build(200, &cs, width);
            assert_eq!(p.width(), width);
            assert_eq!(p.ncols(), 4);
            for (c, col) in cs.iter().enumerate() {
                assert_eq!(
                    p.col_words(c),
                    dense(col, 200).as_words(),
                    "width={width} col={c}"
                );
            }
        }
    }

    #[test]
    fn load_col_and_iter_match_rowset() {
        let cs = cols_of(&[&[1, 64, 65, 128, 256, 299], &[70, 71]]);
        for width in [1usize, 4] {
            let p = TilePanels::build(300, &cs, width);
            let mut s = TiledSupport::default();
            for (c, col) in cs.iter().enumerate() {
                s.load_col(&p, c);
                assert_eq!(
                    s.iter().collect::<Vec<_>>(),
                    col.rows,
                    "width={width} col={c}"
                );
                assert_eq!(s.len(), col.rows.len());
                assert!(!s.is_empty());
            }
        }
    }

    #[test]
    fn and_ub_matches_scalar_intersection() {
        let a: Vec<usize> = vec![1, 3, 64, 130, 131, 250];
        let b: Vec<usize> = vec![3, 64, 131, 200, 251];
        let cs = cols_of(&[&a, &b]);
        let rfv: Vec<i64> = (0..260).map(|r| (r as i64 % 7) - 3).collect();
        for width in [1usize, 2, 4, 8] {
            let p = TilePanels::build(260, &cs, width);
            let mut root = TiledSupport::default();
            root.load_col(&p, 0);
            let mut child = TiledSupport::default();
            let ub = child.and_ub_from(&root, &p, 1, &rfv);
            let expect: Vec<usize> = vec![3, 64, 131];
            assert_eq!(child.iter().collect::<Vec<_>>(), expect, "width={width}");
            let expect_ub: i64 = expect.iter().map(|&r| rfv[r].max(0)).sum();
            assert_eq!(ub, expect_ub, "width={width}");
        }
    }

    #[test]
    fn empty_intersection_is_empty_and_zero() {
        let cs = cols_of(&[&[0, 1, 2], &[100, 101]]);
        let p = TilePanels::build(128, &cs, 4);
        let rfv = vec![1i64; 128];
        let mut root = TiledSupport::default();
        root.load_col(&p, 0);
        let mut child = TiledSupport::default();
        let ub = child.and_ub_from(&root, &p, 1, &rfv);
        assert_eq!(ub, 0);
        assert!(child.is_empty());
        assert_eq!(child.iter().count(), 0);
    }

    #[test]
    fn stale_words_are_never_read() {
        // Derive a child, then reuse the same buffer against a column
        // whose live tiles differ: survivors of the old intersection
        // must not leak through.
        let cs = cols_of(&[&[0, 200], &[0], &[200]]);
        let p = TilePanels::build(256, &cs, 2);
        let rfv = vec![1i64; 256];
        let mut root = TiledSupport::default();
        root.load_col(&p, 0);
        let mut child = TiledSupport::default();
        child.and_ub_from(&root, &p, 1, &rfv); // {0}
        assert_eq!(child.iter().collect::<Vec<_>>(), vec![0]);
        child.and_ub_from(&root, &p, 2, &rfv); // {200}; tile of row 0 now stale
        assert_eq!(child.iter().collect::<Vec<_>>(), vec![200]);
    }

    #[test]
    fn sync_reencodes_dirty_and_appends_columns() {
        let mut cs = cols_of(&[&[1, 2], &[50]]);
        let mut p = TilePanels::build(100, &cs, 4);
        // Column 0 loses a row, a new column arrives.
        cs[0] = col_of(&[2]);
        cs.push(col_of(&[99]));
        let rebuilt = p.sync(100, &cs, 4, &[0]);
        assert!(!rebuilt, "in-place sync expected");
        for (c, col) in cs.iter().enumerate() {
            assert_eq!(p.col_words(c), dense(col, 100).as_words(), "col={c}");
        }
    }

    #[test]
    fn sync_rebuilds_on_width_change_or_universe_overflow() {
        let cs = cols_of(&[&[0]]);
        let mut p = TilePanels::build(64, &cs, 1);
        // Same columns, new width: full rebuild.
        assert!(p.sync(64, &cs, 4, &[]));
        assert_eq!(p.width(), 4);
        // Universe grows past the padded stride: full rebuild.
        let universe = 64 * 4 * 64 + 1;
        let grown = cols_of(&[&[0, 64 * 4 * 64]]);
        assert!(p.sync(universe, &grown, 4, &[]));
        assert_eq!(p.col_words(0), dense(&grown[0], universe).as_words());
    }
}
