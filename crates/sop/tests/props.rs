//! Property-based tests for the cube/SOP algebra.
//!
//! These check the algebraic identities the factorization engine relies
//! on, over randomly generated expressions: division recomposition,
//! kernel definitions, and canonical-form stability.

use pf_sop::{divide, divide_by_cube, kernels, kernels_with_trivial, quick_factor, Cube, Lit, Sop};
use proptest::prelude::*;

/// Strategy: a random cube over `nvars` positive-phase variables with up
/// to `max_len` literals. Positive phase keeps products conflict-free so
/// closure properties can be tested without fiddling with `Option`.
fn arb_cube(nvars: u32, max_len: usize) -> impl Strategy<Value = Cube> {
    prop::collection::btree_set(0..nvars, 0..=max_len)
        .prop_map(|vars| Cube::from_lits(vars.into_iter().map(Lit::pos)))
}

/// Strategy: a random SOP with up to `max_cubes` cubes.
fn arb_sop(nvars: u32, max_len: usize, max_cubes: usize) -> impl Strategy<Value = Sop> {
    prop::collection::vec(arb_cube(nvars, max_len), 0..=max_cubes).prop_map(Sop::from_cubes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// f = (f/d)·d + r for division by a cube.
    #[test]
    fn cube_division_recomposes(f in arb_sop(8, 4, 8), d in arb_cube(8, 3)) {
        let div = divide_by_cube(&f, &d);
        let recomposed = div.quotient.product_cube(&d).sum(&div.remainder);
        prop_assert_eq!(recomposed, f);
    }

    /// f = (f/d)·d + r for division by an expression, as long as the
    /// product q·d introduces no conflicting cubes (guaranteed here by
    /// positive phases).
    #[test]
    fn sop_division_recomposes(f in arb_sop(8, 4, 8), d in arb_sop(8, 3, 3)) {
        let div = divide(&f, &d);
        let recomposed = div.quotient.product(&d).sum(&div.remainder);
        prop_assert_eq!(recomposed, f);
    }

    /// The quotient by an expression never exceeds the quotient by any
    /// single cube of it.
    #[test]
    fn quotient_shrinks_with_divisor(f in arb_sop(8, 4, 8), d in arb_sop(8, 3, 3)) {
        prop_assume!(!d.is_zero());
        let full = divide(&f, &d).quotient;
        let first = divide_by_cube(&f, &d.cubes()[0]).quotient;
        prop_assert!(full.num_cubes() <= first.num_cubes());
    }

    /// Every reported kernel satisfies the definition: cube-free and
    /// equal to f divided by its co-kernel.
    #[test]
    fn kernels_satisfy_definition(f in arb_sop(10, 4, 10)) {
        for p in kernels_with_trivial(&f) {
            prop_assert!(p.kernel.is_cube_free(), "{:?} not cube-free", p.kernel);
            let q = divide_by_cube(&f, &p.cokernel).quotient;
            prop_assert_eq!(&q, &p.kernel, "co-kernel {:?}", p.cokernel);
        }
    }

    /// No two pairs share a co-kernel. The output is sorted but not
    /// deduplicated, so this checks the recursion's own pruning.
    #[test]
    fn kernels_are_duplicate_free(f in arb_sop(10, 4, 10)) {
        let ks = kernels_with_trivial(&f);
        prop_assert!(ks.windows(2).all(|w| w[0].cokernel != w[1].cokernel), "{:?}", ks);
    }

    /// Co-kernels all contain the largest common cube of f.
    #[test]
    fn cokernels_contain_lcc(f in arb_sop(10, 4, 10)) {
        prop_assume!(f.num_cubes() >= 2);
        let lcc = f.largest_common_cube();
        for p in kernels(&f) {
            prop_assert!(p.cokernel.divisible_by(&lcc));
        }
    }

    /// Canonical form is a fixpoint: rebuilding from the cubes yields the
    /// same expression.
    #[test]
    fn canonical_form_is_fixpoint(f in arb_sop(8, 4, 10)) {
        let rebuilt = Sop::from_cubes(f.cubes().iter().cloned());
        prop_assert_eq!(rebuilt, f);
    }

    /// Sum is commutative, associative and idempotent.
    #[test]
    fn sum_laws(a in arb_sop(8, 3, 6), b in arb_sop(8, 3, 6), c in arb_sop(8, 3, 6)) {
        prop_assert_eq!(a.sum(&b), b.sum(&a));
        prop_assert_eq!(a.sum(&b).sum(&c), a.sum(&b.sum(&c)));
        prop_assert_eq!(a.sum(&a), a.clone());
    }

    /// Product is commutative and distributes over sum (under the
    /// canonical form, which may merge/absorb cubes on both sides
    /// equally).
    #[test]
    fn product_laws(a in arb_sop(6, 2, 4), b in arb_sop(6, 2, 4), c in arb_sop(6, 2, 4)) {
        prop_assert_eq!(a.product(&b), b.product(&a));
        prop_assert_eq!(a.product(&b.sum(&c)), a.product(&b).sum(&a.product(&c)));
    }

    /// The cube-free part is cube-free (or trivially small) and
    /// reconstructs f when multiplied by the largest common cube.
    #[test]
    fn cube_free_part_reconstructs(f in arb_sop(8, 4, 8)) {
        prop_assume!(!f.is_zero());
        let lcc = f.largest_common_cube();
        let cf = f.cube_free_part();
        prop_assert_eq!(cf.product_cube(&lcc), f.clone());
        if cf.num_cubes() >= 2 {
            prop_assert!(cf.largest_common_cube().is_one());
        }
    }

    /// simplify_sop preserves the Boolean function (checked by full
    /// truth table over ≤ 8 variables) and never grows the cover.
    #[test]
    fn simplify_is_boolean_equivalent(
        cubes in prop::collection::vec(
            prop::collection::btree_map(0u32..8, any::<bool>(), 1..=4),
            1..=8,
        )
    ) {
        let f = Sop::from_cubes(cubes.into_iter().map(|m| {
            Cube::from_lits(m.into_iter().map(|(v, neg)| {
                if neg { Lit::neg(v) } else { Lit::pos(v) }
            }))
        }));
        let g = pf_sop::simplify_sop(&f);
        prop_assert!(g.literal_count() <= f.literal_count());
        for m in 0..(1u64 << 8) {
            prop_assert_eq!(pf_sop::eval_sop(&f, m), pf_sop::eval_sop(&g, m));
        }
        // Fixpoint: simplifying again changes nothing.
        prop_assert_eq!(pf_sop::simplify_sop(&g), g);
    }

    /// quick_factor is algebraically exact and never grows the literal
    /// count.
    #[test]
    fn quick_factor_exact_and_no_larger(f in arb_sop(8, 4, 8)) {
        let fac = quick_factor(&f);
        prop_assert_eq!(fac.to_sop(), f.clone());
        prop_assert!(fac.literal_count() <= f.literal_count());
    }

    /// Extracting any kernel via division never increases literal count
    /// of the factored form: LC(q)·?… we check the weaker invariant used
    /// by the gain model: covered literals ≥ quotient + divisor cost when
    /// the rectangle value is positive. Here: LC(f) ≥ LC(r) always.
    #[test]
    fn remainder_never_larger(f in arb_sop(8, 4, 8), d in arb_sop(8, 3, 3)) {
        let div = divide(&f, &d);
        prop_assert!(div.remainder.literal_count() <= f.literal_count());
        prop_assert!(div.remainder.num_cubes() <= f.num_cubes());
    }
}
