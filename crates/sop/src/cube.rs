//! Cubes — product terms over literals.
//!
//! A cube is a set of literals kept as a sorted, duplicate-free vector.
//! The sorted representation makes subset tests, intersections and
//! quotients single merge passes, and gives cubes a canonical form so the
//! same product always hashes and compares identically — the KC-matrix
//! column labeling in `pf-kcmatrix` depends on this.

use crate::lit::Lit;
use std::fmt;

/// A product term: a sorted set of literals.
///
/// The empty cube represents the constant **1** (the identity of the
/// algebraic product). A cube never contains both phases of a variable;
/// [`Cube::product`] returns `None` when a product would.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cube {
    lits: Vec<Lit>,
}

impl Cube {
    /// The constant-1 cube (no literals).
    #[inline]
    pub fn one() -> Self {
        Cube { lits: Vec::new() }
    }

    /// Builds a cube from literals; sorts and deduplicates.
    ///
    /// # Panics
    /// Panics if both phases of a variable are present — such a product is
    /// identically 0 and the algebraic layer never forms it.
    pub fn from_lits(lits: impl IntoIterator<Item = Lit>) -> Self {
        let mut v: Vec<Lit> = lits.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        for w in v.windows(2) {
            assert!(
                w[0].var() != w[1].var(),
                "cube contains both phases of {:?}",
                w[0].var()
            );
        }
        Cube { lits: v }
    }

    /// Builds a cube from a pre-sorted, duplicate-free literal vector.
    ///
    /// Used on hot paths where the invariant is already established;
    /// checked in debug builds only.
    #[inline]
    pub fn from_sorted_unchecked(lits: Vec<Lit>) -> Self {
        debug_assert!(lits.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
        debug_assert!(lits.windows(2).all(|w| w[0].var() != w[1].var()));
        Cube { lits }
    }

    /// A single-literal cube.
    #[inline]
    pub fn single(lit: Lit) -> Self {
        Cube { lits: vec![lit] }
    }

    /// Number of literals.
    #[inline]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Whether this is the constant-1 cube.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.lits.is_empty()
    }

    /// `true` iff the cube has no literals (alias of [`Cube::is_one`],
    /// provided for collection-style call sites).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// The literals, in ascending order.
    #[inline]
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Whether `lit` occurs in this cube (binary search).
    #[inline]
    pub fn contains(&self, lit: Lit) -> bool {
        self.lits.binary_search(&lit).is_ok()
    }

    /// Whether `other` divides this cube evenly, i.e. every literal of
    /// `other` occurs here (`other ⊆ self`).
    pub fn divisible_by(&self, other: &Cube) -> bool {
        if other.lits.len() > self.lits.len() {
            return false;
        }
        // Merge walk over two sorted lists.
        let mut it = self.lits.iter();
        'outer: for &l in &other.lits {
            for &m in it.by_ref() {
                if m == l {
                    continue 'outer;
                }
                if m > l {
                    return false;
                }
            }
            return false;
        }
        true
    }

    /// The quotient `self / other`, i.e. the literals of `self` not in
    /// `other`. Returns `None` when `other` does not divide `self`.
    pub fn quotient(&self, other: &Cube) -> Option<Cube> {
        if !self.divisible_by(other) {
            return None;
        }
        let mut out = Vec::with_capacity(self.lits.len() - other.lits.len());
        let mut j = 0;
        for &l in &self.lits {
            if j < other.lits.len() && other.lits[j] == l {
                j += 1;
            } else {
                out.push(l);
            }
        }
        Some(Cube { lits: out })
    }

    /// The largest cube dividing both `self` and `other` (set
    /// intersection of literals).
    pub fn intersection(&self, other: &Cube) -> Cube {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < self.lits.len() && j < other.lits.len() {
            match self.lits[i].cmp(&other.lits[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.lits[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        Cube { lits: out }
    }

    /// The algebraic product `self · other` (literal union).
    ///
    /// Returns `None` when the product would contain both phases of a
    /// variable, i.e. is identically 0.
    pub fn product(&self, other: &Cube) -> Option<Cube> {
        let mut out = Vec::with_capacity(self.lits.len() + other.lits.len());
        self.product_into(other, &mut out)
            .then_some(Cube { lits: out })
    }

    /// Writes the literals of `self · other` into `out` (cleared first),
    /// sorted — the allocation-free form of [`Cube::product`] for
    /// callers that reuse one buffer. Returns `false`, leaving `out`
    /// unspecified, when the product is identically 0.
    pub fn product_into(&self, other: &Cube, out: &mut Vec<Lit>) -> bool {
        out.clear();
        let (mut i, mut j) = (0, 0);
        while i < self.lits.len() && j < other.lits.len() {
            match self.lits[i].cmp(&other.lits[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.lits[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.lits[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.lits[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.lits[i..]);
        out.extend_from_slice(&other.lits[j..]);
        out.windows(2).all(|w| w[0].var() != w[1].var())
    }

    /// Whether the two cubes share at least one literal.
    pub fn intersects(&self, other: &Cube) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.lits.len() && j < other.lits.len() {
            match self.lits[i].cmp(&other.lits[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Iterates over the literals.
    pub fn iter(&self) -> impl Iterator<Item = Lit> + '_ {
        self.lits.iter().copied()
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return write!(f, "1");
        }
        for (k, l) in self.lits.iter().enumerate() {
            if k > 0 {
                write!(f, "·")?;
            }
            write!(f, "{l:?}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<Lit> for Cube {
    fn from_iter<T: IntoIterator<Item = Lit>>(iter: T) -> Self {
        Cube::from_lits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(ids: &[u32]) -> Cube {
        Cube::from_lits(ids.iter().map(|&i| Lit::pos(i)))
    }

    #[test]
    fn one_cube() {
        let one = Cube::one();
        assert!(one.is_one());
        assert_eq!(one.len(), 0);
        assert!(c(&[1, 2]).divisible_by(&one));
        assert_eq!(c(&[1, 2]).quotient(&one), Some(c(&[1, 2])));
    }

    #[test]
    fn from_lits_sorts_and_dedups() {
        let cube = Cube::from_lits([Lit::pos(3), Lit::pos(1), Lit::pos(3)]);
        assert_eq!(cube.lits(), &[Lit::pos(1), Lit::pos(3)]);
    }

    #[test]
    #[should_panic(expected = "both phases")]
    fn conflicting_phases_panic() {
        let _ = Cube::from_lits([Lit::pos(1), Lit::neg(1)]);
    }

    #[test]
    fn divisibility() {
        assert!(c(&[1, 2, 3]).divisible_by(&c(&[1, 3])));
        assert!(!c(&[1, 2, 3]).divisible_by(&c(&[1, 4])));
        assert!(!c(&[1]).divisible_by(&c(&[1, 2])));
        assert!(c(&[5]).divisible_by(&c(&[5])));
    }

    #[test]
    fn quotient_removes_divisor_lits() {
        assert_eq!(c(&[1, 2, 3]).quotient(&c(&[2])), Some(c(&[1, 3])));
        assert_eq!(c(&[1, 2, 3]).quotient(&c(&[1, 2, 3])), Some(Cube::one()));
        assert_eq!(c(&[1, 2]).quotient(&c(&[3])), None);
    }

    #[test]
    fn quotient_respects_phase() {
        let cube = Cube::from_lits([Lit::neg(1), Lit::pos(2)]);
        assert_eq!(cube.quotient(&Cube::single(Lit::pos(1))), None);
        assert_eq!(
            cube.quotient(&Cube::single(Lit::neg(1))),
            Some(Cube::single(Lit::pos(2)))
        );
    }

    #[test]
    fn intersection_is_largest_common_divisor() {
        let a = c(&[1, 2, 4]);
        let b = c(&[2, 3, 4]);
        let i = a.intersection(&b);
        assert_eq!(i, c(&[2, 4]));
        assert!(a.divisible_by(&i) && b.divisible_by(&i));
    }

    #[test]
    fn product_merges_and_detects_conflict() {
        assert_eq!(c(&[1]).product(&c(&[2])), Some(c(&[1, 2])));
        assert_eq!(c(&[1, 2]).product(&c(&[2, 3])), Some(c(&[1, 2, 3])));
        let x = Cube::single(Lit::pos(1));
        let nx = Cube::single(Lit::neg(1));
        assert_eq!(x.product(&nx), None);
    }

    #[test]
    fn product_into_reuses_the_buffer() {
        let mut buf = vec![Lit::pos(9)];
        assert!(c(&[1, 3]).product_into(&c(&[2, 3]), &mut buf));
        assert_eq!(buf, c(&[1, 2, 3]).lits());
        assert!(!Cube::single(Lit::pos(1)).product_into(&Cube::single(Lit::neg(1)), &mut buf));
    }

    #[test]
    fn product_then_quotient_roundtrip() {
        let a = c(&[1, 5]);
        let b = c(&[2, 7]);
        let p = a.product(&b).unwrap();
        assert_eq!(p.quotient(&a), Some(b.clone()));
        assert_eq!(p.quotient(&b), Some(a));
    }

    #[test]
    fn intersects_basic() {
        assert!(c(&[1, 2]).intersects(&c(&[2, 3])));
        assert!(!c(&[1, 2]).intersects(&c(&[3, 4])));
        assert!(!Cube::one().intersects(&c(&[1])));
    }

    #[test]
    fn ordering_is_lexicographic_on_sorted_lits() {
        assert!(c(&[1]) < c(&[1, 2]));
        assert!(c(&[1, 2]) < c(&[2]));
    }
}
