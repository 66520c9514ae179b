//! The textbook `KERNEL(j, g)` recursion over [`Cube`] / [`Sop`] values:
//! the oracle the bitmask enumerator in the parent module is
//! differentially tested against. Test-only.

use super::{CoKernelPair, KernelConfig};
use crate::{Cube, Lit, Sop};

/// The recursion's pairs and the largest common cube of `f`, in the
/// shape `kernel::with_tail` expects (`f` has ≥ 2 cubes).
pub(super) fn recursion(f: &Sop, cfg: &KernelConfig) -> (Vec<CoKernelPair>, Cube) {
    // Fixed literal order: the sorted support of f. Positions in this
    // list drive the duplicate-pruning test.
    let support = f.support_lits();
    let lcc = f.largest_common_cube();
    let mut ctx = KernelCtx {
        support: &support,
        cfg,
        out: Vec::new(),
    };
    ctx.recurse(0, &f.cube_free_part(), &lcc, 0);
    (ctx.out, lcc)
}

struct KernelCtx<'a> {
    support: &'a [Lit],
    cfg: &'a KernelConfig,
    out: Vec<CoKernelPair>,
}

impl KernelCtx<'_> {
    /// `KERNEL(j, g)` with the accumulated co-kernel cube.
    fn recurse(&mut self, j: usize, g: &Sop, cokernel: &Cube, depth: usize) {
        if depth >= self.cfg.max_depth || self.out.len() >= self.cfg.max_pairs {
            return;
        }
        for i in j..self.support.len() {
            if self.out.len() >= self.cfg.max_pairs {
                return;
            }
            let li = self.support[i];
            // Gather the cubes of g containing li.
            let mut count = 0usize;
            let mut common: Option<Cube> = None;
            for c in g.iter() {
                if c.contains(li) {
                    count += 1;
                    common = Some(match common {
                        None => c.clone(),
                        Some(acc) => acc.intersection(c),
                    });
                }
            }
            if count < 2 {
                continue;
            }
            let common = common.expect("count >= 2 implies a common cube");
            // Duplicate pruning: if the common cube contains a literal
            // that precedes li in the fixed order, this kernel was (or
            // will be) produced from that literal's branch.
            let dup = common.iter().any(|l| {
                l != li
                    && self
                        .support
                        .binary_search(&l)
                        .map(|p| p < i)
                        .unwrap_or(false)
            });
            if dup {
                continue;
            }
            // g1 = g / common — common divides every gathered cube.
            let g1 = Sop::from_cubes(
                g.iter()
                    .filter(|c| c.divisible_by(&common))
                    .map(|c| c.quotient(&common).expect("divisible")),
            );
            if g1.num_cubes() < 2 {
                continue;
            }
            let new_cokernel = cokernel
                .product(&common)
                .expect("co-kernel and common cube share no variable");
            self.out.push(CoKernelPair {
                cokernel: new_cokernel.clone(),
                kernel: g1.clone(),
            });
            self.recurse(i + 1, &g1, &new_cokernel, depth + 1);
        }
    }
}
