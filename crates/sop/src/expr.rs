//! Sum-of-products expressions.
//!
//! An expression is a canonical (sorted, duplicate-free) set of cubes.
//! The algebraic model treats an expression as a *set*: `f + f = f`, and
//! no cube of an expression may contain another (single-cube containment
//! is removed on construction, matching the "minimal with respect to
//! single-cube containment" precondition of the MIS kernel theory).

use crate::cube::Cube;
use crate::lit::Lit;
use std::fmt;

/// A sum of products in canonical form.
///
/// Invariants: cubes are sorted, duplicate-free, and no cube divides
/// another (single-cube containment is minimal). The empty expression is
/// the constant **0**; the expression containing only [`Cube::one`] is the
/// constant **1**.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Sop {
    cubes: Vec<Cube>,
}

impl Sop {
    /// The constant-0 expression (no cubes).
    #[inline]
    pub fn zero() -> Self {
        Sop { cubes: Vec::new() }
    }

    /// The constant-1 expression (the single empty cube).
    #[inline]
    pub fn one() -> Self {
        Sop {
            cubes: vec![Cube::one()],
        }
    }

    /// Builds an expression from cubes, canonicalizing: sorts, removes
    /// duplicates and removes cubes contained in (divisible by) others.
    pub fn from_cubes(cubes: impl IntoIterator<Item = Cube>) -> Self {
        let mut v: Vec<Cube> = cubes.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        // Remove single-cube containment: cube c is redundant if some
        // other cube d divides it (d ⊆ c ⇒ c + d = d). A literal
        // signature per cube (bit `code % 64`) rules out most pairs
        // before the merge walk: d ⊆ c needs sig(d) ⊆ sig(c).
        let sig: Vec<u64> = v
            .iter()
            .map(|c| c.iter().fold(0, |s, l| s | 1 << (l.code() % 64)))
            .collect();
        let redundant: Vec<bool> = (0..v.len())
            .map(|i| {
                (0..v.len()).any(|k| k != i && sig[k] & !sig[i] == 0 && v[i].divisible_by(&v[k]))
            })
            .collect();
        let mut i = 0;
        v.retain(|_| {
            i += 1;
            !redundant[i - 1]
        });
        Sop { cubes: v }
    }

    /// The canonical expression of this one's cubes without `removed`
    /// and with `added` — what [`Sop::from_cubes`] returns for them —
    /// built in the one list it returns. This is the rewrite an
    /// extraction makes to each node it divides: drop the covered cubes,
    /// add `co-kernel · x`.
    ///
    /// `removed` is sorted; it may name cubes that are not here.
    /// `added` comes in any order. The kept cubes are already free of
    /// single-cube containment, so containment is tested only for
    /// pairs that include an added cube.
    pub fn replace(&self, removed: &[Cube], added: impl IntoIterator<Item = Cube>) -> Sop {
        debug_assert!(
            removed.windows(2).all(|w| w[0] <= w[1]),
            "removed is sorted"
        );
        let added = added.into_iter();
        let mut out = Vec::with_capacity(self.cubes.len() + added.size_hint().0);
        out.extend(
            self.cubes
                .iter()
                .filter(|c| removed.binary_search(c).is_err())
                .cloned(),
        );
        let kept = out.len();
        out.extend(added);
        // Drop each added cube that another cube divides (an equal cube
        // included). One at a time is sound: a dropped cube's divisor
        // stays, and divides whatever the dropped cube divides.
        let mut i = kept;
        while i < out.len() {
            let a = &out[i];
            if (0..out.len()).any(|j| j != i && a.divisible_by(&out[j])) {
                out.swap_remove(i);
            } else {
                i += 1;
            }
        }
        if out.len() > kept {
            // Drop the kept cubes an added cube divides, then merge.
            let mut w = 0;
            for r in 0..kept {
                if !out[kept..].iter().any(|a| out[r].divisible_by(a)) {
                    out.swap(w, r);
                    w += 1;
                }
            }
            out.drain(w..kept);
            out.sort_unstable();
        }
        Sop { cubes: out }
    }

    /// Builds from already-canonical cubes; checked in debug builds.
    #[inline]
    pub fn from_sorted_unchecked(cubes: Vec<Cube>) -> Self {
        debug_assert!(cubes.windows(2).all(|w| w[0] < w[1]));
        Sop { cubes }
    }

    /// A single-cube expression.
    pub fn from_cube(cube: Cube) -> Self {
        Sop { cubes: vec![cube] }
    }

    /// Number of cubes.
    #[inline]
    pub fn num_cubes(&self) -> usize {
        self.cubes.len()
    }

    /// Whether this is the constant 0.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Whether this is the constant 1.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.cubes.len() == 1 && self.cubes[0].is_one()
    }

    /// Whether the expression consists of a single cube.
    #[inline]
    pub fn is_cube(&self) -> bool {
        self.cubes.len() == 1
    }

    /// The cubes, in canonical order.
    #[inline]
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// The cube list itself, for reuse as a buffer.
    pub(crate) fn into_cubes(self) -> Vec<Cube> {
        self.cubes
    }

    /// Total number of literals — the paper's **LC** area estimate for a
    /// single expression.
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::len).sum()
    }

    /// Whether `cube` is one of the cubes (binary search).
    pub fn contains_cube(&self, cube: &Cube) -> bool {
        self.cubes.binary_search(cube).is_ok()
    }

    /// The largest cube dividing every cube of the expression (the
    /// literal intersection of all cubes). For the constant 0 this is the
    /// 1-cube.
    pub fn largest_common_cube(&self) -> Cube {
        let mut it = self.cubes.iter();
        let Some(first) = it.next() else {
            return Cube::one();
        };
        let mut acc = first.clone();
        for c in it {
            if acc.is_one() {
                break;
            }
            acc = acc.intersection(c);
        }
        acc
    }

    /// Whether the expression is *cube-free*: no single non-trivial cube
    /// divides it evenly. A cube-free expression necessarily has at least
    /// two cubes (the constant 1 is cube-free by convention in some texts;
    /// we follow MIS and call single-cube expressions not cube-free).
    pub fn is_cube_free(&self) -> bool {
        self.cubes.len() >= 2 && self.largest_common_cube().is_one()
    }

    /// `self / c` followed by multiplication back: the cube-free part of
    /// the expression, i.e. `self / largest_common_cube()`.
    pub fn cube_free_part(&self) -> Sop {
        let lcc = self.largest_common_cube();
        if lcc.is_one() {
            return self.clone();
        }
        Sop {
            cubes: self
                .cubes
                .iter()
                .map(|c| c.quotient(&lcc).expect("lcc divides every cube"))
                .collect(),
        }
    }

    /// Algebraic sum `self + other` (cube-set union, canonicalized).
    pub fn sum(&self, other: &Sop) -> Sop {
        Sop::from_cubes(self.cubes.iter().chain(other.cubes.iter()).cloned())
    }

    /// Algebraic product `self · other`.
    ///
    /// Cubes whose product would be identically 0 (conflicting phases)
    /// are dropped, matching how SIS forms `quotient × divisor` products
    /// during resubstitution.
    pub fn product(&self, other: &Sop) -> Sop {
        let mut out = Vec::with_capacity(self.cubes.len() * other.cubes.len());
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(p) = a.product(b) {
                    out.push(p);
                }
            }
        }
        Sop::from_cubes(out)
    }

    /// Product with a single cube.
    pub fn product_cube(&self, cube: &Cube) -> Sop {
        Sop::from_cubes(self.cubes.iter().filter_map(|c| c.product(cube)))
    }

    /// Cube-set difference `self − other`.
    pub fn difference(&self, other: &Sop) -> Sop {
        Sop::from_sorted_unchecked(
            self.cubes
                .iter()
                .filter(|c| !other.contains_cube(c))
                .cloned()
                .collect(),
        )
    }

    /// All distinct literals occurring in the expression, sorted.
    pub fn support_lits(&self) -> Vec<Lit> {
        let mut lits: Vec<Lit> = self.cubes.iter().flat_map(|c| c.iter()).collect();
        lits.sort_unstable();
        lits.dedup();
        lits
    }

    /// Number of cubes containing `lit`.
    pub fn lit_occurrences(&self, lit: Lit) -> usize {
        self.cubes.iter().filter(|c| c.contains(lit)).count()
    }

    /// Iterates over cubes.
    pub fn iter(&self) -> impl Iterator<Item = &Cube> {
        self.cubes.iter()
    }
}

impl fmt::Debug for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        for (k, c) in self.cubes.iter().enumerate() {
            if k > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c:?}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<Cube> for Sop {
    fn from_iter<T: IntoIterator<Item = Cube>>(iter: T) -> Self {
        Sop::from_cubes(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cube(ids: &[u32]) -> Cube {
        Cube::from_lits(ids.iter().map(|&i| Lit::pos(i)))
    }

    fn sop(cubes: &[&[u32]]) -> Sop {
        Sop::from_cubes(cubes.iter().map(|c| cube(c)))
    }

    #[test]
    fn constants() {
        assert!(Sop::zero().is_zero());
        assert!(Sop::one().is_one());
        assert_eq!(Sop::zero().literal_count(), 0);
        assert_eq!(Sop::one().literal_count(), 0);
    }

    #[test]
    fn canonicalization_dedups_and_removes_containment() {
        // ab + a = a  (a divides ab)
        let f = sop(&[&[1, 2], &[1]]);
        assert_eq!(f, sop(&[&[1]]));
        // duplicates collapse
        let g = Sop::from_cubes([cube(&[1, 2]), cube(&[1, 2])]);
        assert_eq!(g.num_cubes(), 1);
    }

    #[test]
    fn literal_count_matches_paper_example() {
        // F = af + bf + ag + cg + ade + bde + cde  — 16 literals
        // G = af + bf + ace + bce                  — 10 literals
        // H = ade + cde                            — 6 literals, total 32? The
        // paper counts LC(N) = 33 before extraction; its F uses 3-literal
        // cubes ade/bde/cde (9) + 2-literal af/bf/ag/cg (8) = 17... per-node
        // totals are checked precisely in pf-network's example_1_1 test;
        // here we just check the primitive adds up.
        let f = sop(&[&[1, 2], &[3, 4, 5]]);
        assert_eq!(f.literal_count(), 5);
    }

    #[test]
    fn largest_common_cube() {
        let f = sop(&[&[1, 2, 3], &[1, 3, 4], &[1, 3]]);
        // 1·3 divides 1·2·3 and 1·3·4 but 1·3 itself is contained … note
        // canonicalization removes the superset cubes? No: containment
        // removal drops cubes divisible by another cube, so [1,2,3] and
        // [1,3,4] are dropped in favor of [1,3].
        assert_eq!(f, sop(&[&[1, 3]]));
        let g = sop(&[&[1, 2, 3], &[1, 3, 4]]);
        assert_eq!(g.largest_common_cube(), cube(&[1, 3]));
    }

    #[test]
    fn cube_free_tests() {
        // a + b is cube-free
        assert!(sop(&[&[1], &[2]]).is_cube_free());
        // ab + ac is not (a divides both)
        assert!(!sop(&[&[1, 2], &[1, 3]]).is_cube_free());
        // single cube is not cube-free
        assert!(!sop(&[&[1, 2]]).is_cube_free());
        // constant 0 / 1 are not cube-free
        assert!(!Sop::zero().is_cube_free());
        assert!(!Sop::one().is_cube_free());
    }

    #[test]
    fn cube_free_part_strips_common_cube() {
        let g = sop(&[&[1, 2, 3], &[1, 3, 4]]);
        assert_eq!(g.cube_free_part(), sop(&[&[2], &[4]]));
        let already = sop(&[&[1], &[2]]);
        assert_eq!(already.cube_free_part(), already);
    }

    #[test]
    fn sum_and_difference() {
        let f = sop(&[&[1], &[2]]);
        let g = sop(&[&[2], &[3]]);
        assert_eq!(f.sum(&g), sop(&[&[1], &[2], &[3]]));
        assert_eq!(f.difference(&g), sop(&[&[1]]));
    }

    #[test]
    fn product_distributes() {
        let f = sop(&[&[1], &[2]]);
        let g = sop(&[&[3], &[4]]);
        assert_eq!(f.product(&g), sop(&[&[1, 3], &[1, 4], &[2, 3], &[2, 4]]));
    }

    #[test]
    fn product_drops_conflicting_cubes() {
        let x = Sop::from_cube(Cube::single(Lit::pos(1)));
        let nx = Sop::from_cube(Cube::single(Lit::neg(1)));
        assert!(x.product(&nx).is_zero());
    }

    #[test]
    fn product_with_one_is_identity() {
        let f = sop(&[&[1, 2], &[3]]);
        assert_eq!(f.product(&Sop::one()), f);
        assert_eq!(f.product_cube(&Cube::one()), f);
    }

    #[test]
    fn support_and_occurrences() {
        let f = sop(&[&[1, 2], &[2, 3]]);
        assert_eq!(
            f.support_lits(),
            vec![Lit::pos(1), Lit::pos(2), Lit::pos(3)]
        );
        assert_eq!(f.lit_occurrences(Lit::pos(2)), 2);
        assert_eq!(f.lit_occurrences(Lit::pos(9)), 0);
    }

    #[test]
    fn replace_drops_covered_and_adds_products() {
        // ab + ac + d with ab, ac covered by a(b+c) = a·x (x = 9).
        let f = sop(&[&[1, 2], &[1, 3], &[4]]);
        let g = f.replace(&[cube(&[1, 2]), cube(&[1, 3])], vec![cube(&[1, 9])]);
        assert_eq!(g, sop(&[&[1, 9], &[4]]));
        // An added cube may contain a kept one, or be contained in it.
        assert_eq!(f.replace(&[], vec![cube(&[4, 5])]), f);
        assert_eq!(f.replace(&[], vec![cube(&[1])]), sop(&[&[1], &[4]]));
        // Removing what is not there changes nothing.
        assert_eq!(f.replace(&[cube(&[7])], Vec::new()), f);
    }

    /// A cube over eight variables, mixed phases: small enough that
    /// containment and duplicates between random cubes are common.
    fn arb_cube() -> impl Strategy<Value = Cube> {
        prop::collection::vec((0..8u32, any::<bool>()), 0..=4).prop_map(|lits| {
            let mut phase = std::collections::BTreeMap::new();
            for (v, neg) in lits {
                phase.entry(v).or_insert(neg);
            }
            Cube::from_lits(
                phase
                    .into_iter()
                    .map(|(v, neg)| if neg { Lit::neg(v) } else { Lit::pos(v) }),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `replace` equals `from_cubes` over the kept and added cubes,
        /// with `removed` drawn from the expression's cubes and beyond.
        #[test]
        fn replace_equals_from_cubes(
            cubes in prop::collection::vec(arb_cube(), 0..=12),
            drop in prop::collection::vec(any::<bool>(), 12),
            extra in prop::collection::vec(arb_cube(), 0..=2),
            added in prop::collection::vec(arb_cube(), 0..=4),
        ) {
            let f = Sop::from_cubes(cubes);
            let mut removed: Vec<Cube> = f
                .iter()
                .zip(&drop)
                .filter(|(_, &d)| d)
                .map(|(c, _)| c.clone())
                .chain(extra)
                .collect();
            removed.sort_unstable();
            let want = Sop::from_cubes(
                f.iter()
                    .filter(|c| !removed.contains(c))
                    .cloned()
                    .chain(added.iter().cloned()),
            );
            prop_assert_eq!(f.replace(&removed, added), want);
        }
    }
}
