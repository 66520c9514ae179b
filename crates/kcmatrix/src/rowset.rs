//! Dense `u64`-word bitsets over row (or column) indices.
//!
//! The rectangle search marks the candidate extension columns of each
//! node into one of these (inserting dedups and iterating sorts for
//! free), and [`crate::matrix::KcMatrix::col_row_sets`] lays column
//! supports out in the dense word format a tile panel column must equal.
//!
//! All sets over one matrix share the same universe (`row count` bits),
//! so intersections are plain word-wise `AND`s without bounds juggling.

/// A set of row indices, stored one bit per row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowSet {
    words: Vec<u64>,
}

impl RowSet {
    /// The empty set with zero capacity. Useful as a pooled scratch
    /// buffer: the first [`RowSet::reset`] sizes it.
    pub fn new() -> Self {
        RowSet { words: Vec::new() }
    }

    /// The empty set sized for a universe of `nbits` rows.
    pub fn zeroed(nbits: usize) -> Self {
        RowSet {
            words: vec![0; nbits.div_ceil(64)],
        }
    }

    /// Builds a set over a universe of `nbits` rows from sorted (or
    /// unsorted — order is irrelevant) indices.
    pub fn from_indices(indices: impl IntoIterator<Item = usize>, nbits: usize) -> Self {
        let mut s = RowSet::zeroed(nbits);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Inserts row `i`. Panics if `i` is outside the universe.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether row `i` is in the set (`false` when outside the universe).
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Number of rows in the set (popcount).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self = a ∩ b`, reusing `self`'s allocation. `a` and `b` must
    /// share a universe (same word count); `self` is resized to match.
    pub fn assign_and(&mut self, a: &RowSet, b: &RowSet) {
        debug_assert_eq!(a.words.len(), b.words.len(), "universe mismatch");
        self.words.clear();
        self.words
            .extend(a.words.iter().zip(&b.words).map(|(x, y)| x & y));
    }

    /// Empties the set and resizes it for a universe of `nbits` rows,
    /// reusing the allocation.
    pub fn reset(&mut self, nbits: usize) {
        self.words.clear();
        self.words.resize(nbits.div_ceil(64), 0);
    }

    /// Intersects `b` into `self` in place.
    pub fn and_with(&mut self, b: &RowSet) {
        debug_assert_eq!(self.words.len(), b.words.len(), "universe mismatch");
        for (w, &o) in self.words.iter_mut().zip(&b.words) {
            *w &= o;
        }
    }

    /// The backing words, least-significant row first. The final word
    /// may cover rows past the universe; those bits are always zero.
    /// A [`crate::tiles::TilePanels`] column must equal this slice.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates the member rows in ascending order.
    pub fn iter(&self) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Appends the member rows (ascending) to `out` without clearing it.
    pub fn collect_into(&self, out: &mut Vec<usize>) {
        out.extend(self.iter());
    }
}

impl<'a> IntoIterator for &'a RowSet {
    type Item = usize;
    type IntoIter = SetBits<'a>;
    fn into_iter(self) -> SetBits<'a> {
        self.iter()
    }
}

/// Iterator over the set bits of a [`RowSet`], ascending.
pub struct SetBits<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let s = RowSet::from_indices([0, 63, 64, 130], 131);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(130));
        assert!(!s.contains(1) && !s.contains(129));
        assert!(!s.contains(1000)); // out of universe: false, no panic
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 130]);
    }

    #[test]
    fn empty_set() {
        let s = RowSet::zeroed(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
        assert!(RowSet::new().is_empty());
        assert_eq!(RowSet::new().iter().count(), 0);
    }

    #[test]
    fn intersection_matches_sorted_merge() {
        let a: Vec<usize> = vec![1, 3, 5, 9, 64, 65, 200];
        let b: Vec<usize> = vec![2, 3, 9, 10, 65, 199, 200];
        let sa = RowSet::from_indices(a.iter().copied(), 201);
        let sb = RowSet::from_indices(b.iter().copied(), 201);
        let mut out = RowSet::new();
        out.assign_and(&sa, &sb);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![3, 9, 65, 200]);
        assert_eq!(out.len(), 4);

        let mut inplace = sa.clone();
        inplace.and_with(&sb);
        assert_eq!(inplace, out);
    }

    #[test]
    fn assign_and_reuses_allocation() {
        let sa = RowSet::from_indices([0, 7], 128);
        let sb = RowSet::from_indices([7, 100], 128);
        let mut scratch = RowSet::new(); // zero-capacity pool entry
        scratch.assign_and(&sa, &sb);
        assert_eq!(scratch.iter().collect::<Vec<_>>(), vec![7]);
        // Reuse with a different pair — stale bits must not survive.
        let sc = RowSet::from_indices([1], 128);
        scratch.assign_and(&sa, &sc);
        assert!(scratch.is_empty());
    }

    #[test]
    fn reset_clears_and_resizes() {
        let mut s = RowSet::from_indices([3, 90], 128);
        s.reset(64);
        assert!(s.is_empty());
        s.insert(63);
        assert!(s.contains(63));
        s.reset(256);
        assert!(s.is_empty());
        s.insert(255); // the new universe must be addressable
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn collect_into_appends() {
        let s = RowSet::from_indices([4, 70], 71);
        let mut out = vec![99];
        s.collect_into(&mut out);
        assert_eq!(out, vec![99, 4, 70]);
    }
}
