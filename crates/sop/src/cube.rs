//! Cubes — product terms over literals.
//!
//! A cube is a set of literals kept sorted and duplicate-free. The sorted
//! representation makes subset tests, intersections and quotients single
//! merge passes, and gives cubes a canonical form so the same product
//! always hashes and compares identically — the KC-matrix column
//! labeling in `pf-kcmatrix` depends on this.
//!
//! Up to [`Cube::INLINE`] literals are stored in place, so building,
//! copying and dropping a cube of a typical network (2–6 literals; kernel
//! and co-kernel cubes have 1–5) never touches the heap. Longer cubes
//! spill to a `Vec`. Equality, order and hashing are those of the sorted
//! literal slice, whichever form holds it.

use crate::lit::Lit;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Fills the unused inline slots; never read.
const PAD: Lit = Lit::from_code(0);

/// Where a cube's literals live: in place up to [`Cube::INLINE`], on the
/// heap beyond. Only a cube of more than `INLINE` literals is `Heap`.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, lits: [Lit; Cube::INLINE] },
    Heap(Vec<Lit>),
}

/// A product term: a sorted set of literals.
///
/// The empty cube represents the constant **1** (the identity of the
/// algebraic product). A cube never contains both phases of a variable;
/// [`Cube::product`] returns `None` when a product would.
#[derive(Clone)]
pub struct Cube {
    repr: Repr,
}

// A cube takes at most four words, inline or spilled.
const _: () = assert!(std::mem::size_of::<Cube>() <= 32);

impl Default for Cube {
    fn default() -> Self {
        Cube::one()
    }
}

/// The union of two sorted literal lists, in order, into `push`;
/// returns whether the union is free of a variable in both phases.
#[inline]
fn merge_union(a: &[Lit], b: &[Lit], mut push: impl FnMut(Lit)) -> bool {
    let (mut i, mut j) = (0, 0);
    let mut last: Option<Lit> = None;
    let mut clean = true;
    let mut emit = |l: Lit| {
        if let Some(p) = last {
            clean &= p.var() != l.var();
        }
        last = Some(l);
        push(l);
    };
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                emit(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                emit(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                emit(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    a[i..].iter().chain(&b[j..]).for_each(|&l| emit(l));
    clean
}

impl Cube {
    /// Literals stored in place before a cube spills to the heap.
    pub const INLINE: usize = 6;

    /// The constant-1 cube (no literals).
    #[inline]
    pub fn one() -> Self {
        Cube {
            repr: Repr::Inline {
                len: 0,
                lits: [PAD; Cube::INLINE],
            },
        }
    }

    /// Appends `lit`, spilling to the heap past [`Cube::INLINE`]
    /// literals. Keeping the literals sorted is the caller's job.
    #[inline]
    fn push(&mut self, lit: Lit) {
        match &mut self.repr {
            Repr::Inline { len, lits } if (*len as usize) < Cube::INLINE => {
                lits[*len as usize] = lit;
                *len += 1;
            }
            Repr::Inline { lits, .. } => {
                let mut v = Vec::with_capacity(2 * Cube::INLINE);
                v.extend_from_slice(lits);
                v.push(lit);
                self.repr = Repr::Heap(v);
            }
            Repr::Heap(v) => v.push(lit),
        }
    }

    /// Builds a cube from literals; sorts and deduplicates.
    ///
    /// # Panics
    /// Panics if both phases of a variable are present — such a product is
    /// identically 0 and the algebraic layer never forms it.
    pub fn from_lits(lits: impl IntoIterator<Item = Lit>) -> Self {
        let mut cube = Cube::one();
        lits.into_iter().for_each(|l| cube.push(l));
        let v = match &mut cube.repr {
            Repr::Inline { len, lits } => &mut lits[..*len as usize],
            Repr::Heap(v) => v.as_mut_slice(),
        };
        v.sort_unstable();
        let mut kept = 0;
        for k in 0..v.len() {
            if kept == 0 || v[k] != v[kept - 1] {
                v[kept] = v[k];
                kept += 1;
            }
        }
        for w in v[..kept].windows(2) {
            assert!(
                w[0].var() != w[1].var(),
                "cube contains both phases of {:?}",
                w[0].var()
            );
        }
        match &mut cube.repr {
            Repr::Inline { len, .. } => *len = kept as u8,
            Repr::Heap(v) if kept > Cube::INLINE => v.truncate(kept),
            Repr::Heap(v) => return Cube::from_sorted_slice(&v[..kept]),
        }
        cube
    }

    /// Builds a cube from a pre-sorted, duplicate-free literal slice,
    /// copying it (in place when it fits).
    ///
    /// Used on hot paths where the invariant is already established;
    /// checked in debug builds only.
    #[inline]
    pub fn from_sorted_slice(lits: &[Lit]) -> Self {
        debug_assert!(lits.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
        debug_assert!(lits.windows(2).all(|w| w[0].var() != w[1].var()));
        if lits.len() > Cube::INLINE {
            return Cube {
                repr: Repr::Heap(lits.to_vec()),
            };
        }
        let mut inline = [PAD; Cube::INLINE];
        inline[..lits.len()].copy_from_slice(lits);
        Cube {
            repr: Repr::Inline {
                len: lits.len() as u8,
                lits: inline,
            },
        }
    }

    /// Builds a cube from a pre-sorted, duplicate-free literal vector,
    /// keeping the vector only when the cube spills.
    ///
    /// Used on hot paths where the invariant is already established;
    /// checked in debug builds only.
    #[inline]
    pub fn from_sorted_unchecked(lits: Vec<Lit>) -> Self {
        if lits.len() <= Cube::INLINE {
            return Cube::from_sorted_slice(&lits);
        }
        debug_assert!(lits.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
        debug_assert!(lits.windows(2).all(|w| w[0].var() != w[1].var()));
        Cube {
            repr: Repr::Heap(lits),
        }
    }

    /// Builds a cube from literals that arrive sorted and
    /// duplicate-free, pushing each in place.
    pub(crate) fn from_sorted_iter(lits: impl IntoIterator<Item = Lit>) -> Self {
        let mut cube = Cube::one();
        lits.into_iter().for_each(|l| cube.push(l));
        debug_assert!(
            cube.lits().windows(2).all(|w| w[0] < w[1]),
            "not sorted/deduped"
        );
        debug_assert!(cube.lits().windows(2).all(|w| w[0].var() != w[1].var()));
        cube
    }

    /// A single-literal cube.
    #[inline]
    pub fn single(lit: Lit) -> Self {
        let mut cube = Cube::one();
        cube.push(lit);
        cube
    }

    /// Number of literals.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
        }
    }

    /// Whether this is the constant-1 cube.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.is_empty()
    }

    /// `true` iff the cube has no literals (alias of [`Cube::is_one`],
    /// provided for collection-style call sites).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The literals, in ascending order.
    #[inline]
    pub fn lits(&self) -> &[Lit] {
        match &self.repr {
            Repr::Inline { len, lits } => &lits[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Whether `lit` occurs in this cube (binary search).
    #[inline]
    pub fn contains(&self, lit: Lit) -> bool {
        self.lits().binary_search(&lit).is_ok()
    }

    /// Whether `other` divides this cube evenly, i.e. every literal of
    /// `other` occurs here (`other ⊆ self`).
    pub fn divisible_by(&self, other: &Cube) -> bool {
        let (mine, theirs) = (self.lits(), other.lits());
        if theirs.len() > mine.len() {
            return false;
        }
        // Merge walk over two sorted lists.
        let mut it = mine.iter();
        'outer: for &l in theirs {
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
        let theirs = other.lits();
        let mut out = Cube::one();
        let mut j = 0;
        for &l in self.lits() {
            if j < theirs.len() && theirs[j] == l {
                j += 1;
            } else {
                out.push(l);
            }
        }
        Some(out)
    }

    /// The largest cube dividing both `self` and `other` (set
    /// intersection of literals).
    pub fn intersection(&self, other: &Cube) -> Cube {
        let (a, b) = (self.lits(), other.lits());
        let (mut i, mut j) = (0, 0);
        let mut out = Cube::one();
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// The algebraic product `self · other` (literal union).
    ///
    /// Returns `None` when the product would contain both phases of a
    /// variable, i.e. is identically 0.
    pub fn product(&self, other: &Cube) -> Option<Cube> {
        let mut out = Cube::one();
        merge_union(self.lits(), other.lits(), |l| out.push(l)).then_some(out)
    }

    /// Writes the literals of `self · other` into `out` (cleared first),
    /// sorted — the form of [`Cube::product`] for callers that want the
    /// literals in a buffer of their own. Returns `false`, leaving `out`
    /// unspecified, when the product is identically 0.
    pub fn product_into(&self, other: &Cube, out: &mut Vec<Lit>) -> bool {
        out.clear();
        merge_union(self.lits(), other.lits(), |l| out.push(l))
    }

    /// Whether the two cubes share at least one literal.
    pub fn intersects(&self, other: &Cube) -> bool {
        let (a, b) = (self.lits(), other.lits());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// Iterates over the literals.
    pub fn iter(&self) -> impl Iterator<Item = Lit> + '_ {
        self.lits().iter().copied()
    }
}

impl PartialEq for Cube {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.lits() == other.lits()
    }
}

impl Eq for Cube {}

impl PartialOrd for Cube {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cube {
    /// Lexicographic on the sorted literals.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.lits().cmp(other.lits())
    }
}

impl Hash for Cube {
    /// Hashes the sorted literal slice, exactly as a `Vec<Lit>` of the
    /// same literals hashes.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.lits().hash(state);
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return write!(f, "1");
        }
        for (k, l) in self.lits().iter().enumerate() {
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

    fn is_inline(cube: &Cube) -> bool {
        matches!(cube.repr, Repr::Inline { .. })
    }

    /// `x`'s hash under the crate's Fx hasher and under SipHash.
    fn hashes<T: Hash + ?Sized>(x: &T) -> (u64, u64) {
        let mut fx = crate::fx::FxHasher::default();
        let mut sip = std::collections::hash_map::DefaultHasher::new();
        x.hash(&mut fx);
        x.hash(&mut sip);
        (fx.finish(), sip.finish())
    }

    #[test]
    fn six_literals_stay_inline_and_seven_spill() {
        let six = c(&[1, 2, 3, 4, 5, 6]);
        let seven = c(&[1, 2, 3, 4, 5, 6, 7]);
        assert!(is_inline(&six) && !is_inline(&seven));
        assert_eq!(six.len(), 6);
        assert_eq!(seven.len(), 7);
        // Every constructor lands on the same side of the boundary.
        let lits7: Vec<Lit> = seven.lits().to_vec();
        assert!(!is_inline(&Cube::from_sorted_slice(&lits7)));
        assert!(!is_inline(&Cube::from_sorted_unchecked(lits7.clone())));
        assert!(is_inline(&Cube::from_sorted_unchecked(lits7[..6].to_vec())));
        assert!(is_inline(&seven.quotient(&c(&[7])).unwrap()));
        assert!(is_inline(&seven.intersection(&six)));
        let spilled = six.product(&c(&[7])).unwrap();
        assert!(!is_inline(&spilled));
        assert_eq!(spilled, seven);
        // Duplicates that fold a long input back to six literals.
        let folded = Cube::from_lits([6, 5, 4, 3, 2, 1, 1, 6].map(Lit::pos));
        assert!(is_inline(&folded));
        assert_eq!(folded, six);
    }

    #[test]
    fn hash_is_the_slice_hash_on_both_sides_of_the_boundary() {
        for n in [0, 1, 5, 6, 7, 12] {
            let ids: Vec<u32> = (0..n).map(|i| 3 * i + 1).collect();
            let cube = c(&ids);
            assert_eq!(hashes(&cube), hashes(cube.lits()), "{n} literals");
            // …which is also the hash of a `Vec<Lit>` holding them.
            assert_eq!(hashes(&cube.lits().to_vec()), hashes(cube.lits()));
        }
    }

    #[test]
    fn order_is_the_slice_order_on_both_sides_of_the_boundary() {
        let cubes = [
            c(&[]),
            c(&[1]),
            c(&[1, 2, 3, 4, 5, 6]),
            c(&[1, 2, 3, 4, 5, 6, 7]),
            c(&[1, 2, 3, 4, 5, 6, 8]),
            c(&[1, 2, 3, 4, 5, 7]),
            c(&[2]),
            c(&[2, 3, 4, 5, 6, 7, 8, 9]),
        ];
        for a in &cubes {
            for b in &cubes {
                assert_eq!(a.cmp(b), a.lits().cmp(b.lits()), "{a:?} vs {b:?}");
                assert_eq!(a == b, a.lits() == b.lits());
            }
        }
    }

    #[test]
    fn ordering_is_lexicographic_on_sorted_lits() {
        assert!(c(&[1]) < c(&[1, 2]));
        assert!(c(&[1, 2]) < c(&[2]));
    }
}
