//! Variables and literals.
//!
//! A [`Var`] is an index into some external symbol table (owned by
//! `pf-network`); a [`Lit`] is a variable together with a phase. Both are
//! thin wrappers over `u32` so cubes stay small and comparisons stay
//! branch-free, following the "smaller integers" advice for hot types.

use std::fmt;

/// A variable, identified by a dense index.
///
/// The algebra never interprets variables; names live in the network's
/// symbol table. Indices above [`Var::MAX_INDEX`] are rejected so a `Lit`
/// can pack the phase into the low bit of a `u32`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Largest representable variable index.
    pub const MAX_INDEX: u32 = (u32::MAX >> 1) - 1;

    /// Creates a variable from a dense index.
    ///
    /// # Panics
    /// Panics if `index > Var::MAX_INDEX`.
    #[inline]
    pub fn new(index: u32) -> Self {
        assert!(index <= Self::MAX_INDEX, "variable index overflow");
        Var(index)
    }

    /// The dense index of this variable.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// The positive-phase literal of this variable.
    #[inline]
    pub fn lit(self) -> Lit {
        Lit::new(self, false)
    }

    /// The negative-phase literal of this variable.
    #[inline]
    pub fn nlit(self) -> Lit {
        Lit::new(self, true)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable or its negation.
///
/// Encoded as `var << 1 | negated` so that literals of the same variable
/// are adjacent in the total order, with the positive phase first. This is
/// the atom of the algebraic model: `x` and `x̄` are distinct, unrelated
/// symbols as far as division and kernels are concerned.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal from a variable and a phase (`negated == true`
    /// means the complemented literal).
    #[inline]
    pub fn new(var: Var, negated: bool) -> Self {
        Lit(var.0 << 1 | negated as u32)
    }

    /// Creates the positive literal of variable index `index`.
    ///
    /// Convenience for tests and examples.
    #[inline]
    pub fn pos(index: u32) -> Self {
        Var::new(index).lit()
    }

    /// Creates the negative literal of variable index `index`.
    #[inline]
    pub fn neg(index: u32) -> Self {
        Var::new(index).nlit()
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the complemented phase.
    #[inline]
    pub fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// The literal of the same variable with the opposite phase.
    #[inline]
    pub fn complement(self) -> Self {
        Lit(self.0 ^ 1)
    }

    /// Raw encoding, usable as a dense array index.
    #[inline]
    pub fn code(self) -> u32 {
        self.0
    }

    /// Inverse of [`Lit::code`].
    #[inline]
    pub const fn from_code(code: u32) -> Self {
        Lit(code)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negated() {
            write!(f, "!v{}", self.var().index())
        } else {
            write!(f, "v{}", self.var().index())
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_roundtrip() {
        let v = Var::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v.lit().var(), v);
        assert_eq!(v.nlit().var(), v);
    }

    #[test]
    fn lit_phases() {
        let v = Var::new(7);
        assert!(!v.lit().is_negated());
        assert!(v.nlit().is_negated());
        assert_eq!(v.lit().complement(), v.nlit());
        assert_eq!(v.nlit().complement(), v.lit());
    }

    #[test]
    fn lit_ordering_groups_by_variable() {
        // v0 < !v0 < v1 < !v1 < ...
        assert!(Lit::pos(0) < Lit::neg(0));
        assert!(Lit::neg(0) < Lit::pos(1));
        assert!(Lit::pos(1) < Lit::neg(1));
    }

    #[test]
    fn code_roundtrip() {
        for code in [0u32, 1, 2, 3, 100, 1001] {
            assert_eq!(Lit::from_code(code).code(), code);
        }
    }

    #[test]
    #[should_panic(expected = "variable index overflow")]
    fn var_overflow_panics() {
        let _ = Var::new(Var::MAX_INDEX + 1);
    }

    #[test]
    fn max_index_fits() {
        let v = Var::new(Var::MAX_INDEX);
        assert_eq!(v.nlit().var(), v);
    }
}
