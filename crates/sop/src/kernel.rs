//! Kernel and co-kernel enumeration.
//!
//! The kernels of an expression `f` are its cube-free primary divisors:
//! `K(f) = { f/C : C a cube, f/C cube-free }`. Each kernel is recorded
//! together with the cube `C` that produced it — its *co-kernel* — because
//! the KC matrix has one row per `(node, co-kernel)` pair.
//!
//! The enumeration is the classic recursive `KERNEL(j, g)` procedure of
//! Brayton–Rudell (MIS): walk the support literals in a fixed order; for
//! every literal occurring in ≥ 2 cubes, divide by the largest common cube
//! of those cubes and recurse, pruning branches whose common cube contains
//! an already-visited literal (those kernels were found earlier).
//!
//! It runs on bitmasks: bit `p` of a cube's mask stands for the `p`-th
//! literal of `f`'s sorted support, so gathering, the common cube, the
//! pruning test and division are word operations, and a [`Cube`] or
//! [`Sop`] is built only for a pair that is emitted.

use crate::cube::Cube;
use crate::expr::Sop;
use crate::lit::Lit;

#[cfg(test)]
mod oracle;

/// A kernel together with the co-kernel cube that produced it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoKernelPair {
    /// The cube `C` such that `kernel = f / C`.
    pub cokernel: Cube,
    /// The cube-free primary divisor `f / C`.
    pub kernel: Sop,
}

/// Options for kernel enumeration.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Include the trivial pair `(1, f)` when `f` itself is cube-free.
    ///
    /// The paper's Figure 2 matrices omit it; SIS's `gkx` can include it
    /// so whole functions participate in rectangles (resubstitution).
    pub include_trivial: bool,
    /// Maximum recursion depth; `usize::MAX` enumerates all kernels,
    /// `1` yields only the first-level kernels (SIS's "level" knob).
    pub max_depth: usize,
    /// Stop after this many pairs (safety valve for pathological nodes).
    pub max_pairs: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            include_trivial: false,
            max_depth: usize::MAX,
            max_pairs: 1 << 16,
        }
    }
}

/// Enumerates all `(co-kernel, kernel)` pairs of `f` (without the trivial
/// `(1, f)` pair), using the default configuration.
///
/// ```
/// use pf_sop::{kernels, Cube, Lit, Sop};
/// // The paper's G = af + bf + ace + bce (a=0 b=1 c=2 e=3 f=4):
/// // kernels are ce+f (co-kernels a, b) and a+b (co-kernels f, ce).
/// let cube = |vs: &[u32]| Cube::from_lits(vs.iter().map(|&v| Lit::pos(v)));
/// let g = Sop::from_cubes([
///     cube(&[0, 4]), cube(&[1, 4]), cube(&[0, 2, 3]), cube(&[1, 2, 3]),
/// ]);
/// let ks = kernels(&g);
/// assert_eq!(ks.len(), 4);
/// let a_plus_b = Sop::from_cubes([cube(&[0]), cube(&[1])]);
/// assert!(ks.iter().any(|p| p.cokernel == cube(&[4]) && p.kernel == a_plus_b));
/// ```
pub fn kernels(f: &Sop) -> Vec<CoKernelPair> {
    kernels_config(f, &KernelConfig::default())
}

/// Like [`kernels`] but also yields `(1, f)` when `f` is cube-free.
pub fn kernels_with_trivial(f: &Sop) -> Vec<CoKernelPair> {
    kernels_config(
        f,
        &KernelConfig {
            include_trivial: true,
            ..KernelConfig::default()
        },
    )
}

/// Enumerates kernels under an explicit [`KernelConfig`].
///
/// Pairs come sorted, and no two share a co-kernel, so no `dedup` is
/// needed: the recursion reaches a co-kernel along one path only (each
/// branch's common cube starts at its branching literal, so the path is
/// the co-kernel's literals in support order), and the co-kernel of the
/// tail pair, `lcc` or `1`, is a proper subset of every recursion
/// co-kernel.
///
/// A thin wrapper over [`KernelScratch::kernels`] with fresh buffers;
/// a caller that enumerates many functions keeps a [`KernelScratch`].
pub fn kernels_config(f: &Sop, cfg: &KernelConfig) -> Vec<CoKernelPair> {
    KernelScratch::default().kernels(f, cfg)
}

/// The buffers of kernel enumeration, kept from one call to the next:
/// `f`'s support, the recursion's mask arena, and the pair and kernel
/// lists that [`KernelScratch::recycle`] hands back, which later calls
/// fill instead of allocating new ones.
#[derive(Clone, Debug, Default)]
pub struct KernelScratch {
    support: Vec<Lit>,
    arena: Vec<u64>,
    pairs: Vec<CoKernelPair>,
    kernels: Vec<Vec<Cube>>,
}

/// Most recycled kernel lists a [`KernelScratch`] keeps. A tail pair's
/// kernel is built outside the scratch, so recycling it adds a list.
const SPARE_KERNELS: usize = 256;

impl KernelScratch {
    /// [`kernels_config`] on these buffers: the same pairs, in the same
    /// order.
    pub fn kernels(&mut self, f: &Sop, cfg: &KernelConfig) -> Vec<CoKernelPair> {
        let mut out = with_tail(f, cfg, |f, cfg| MaskKernels::run(f, cfg, self));
        out.sort_unstable();
        out
    }

    /// Takes back the pairs of a [`KernelScratch::kernels`] call that
    /// the caller is done with, so that later calls fill their buffers
    /// instead of allocating new ones.
    pub fn recycle(&mut self, mut pairs: Vec<CoKernelPair>) {
        for pair in pairs.drain(..) {
            if self.kernels.len() < SPARE_KERNELS {
                let mut cubes = pair.kernel.into_cubes();
                cubes.clear();
                self.kernels.push(cubes);
            }
        }
        self.pairs = pairs;
    }
}

/// The pairs of `recursion` (which returns them with `f`'s largest
/// common cube) followed by the tail pair, unsorted. `cfg.max_pairs`
/// caps the tail pair too.
fn with_tail(
    f: &Sop,
    cfg: &KernelConfig,
    recursion: impl FnOnce(&Sop, &KernelConfig) -> (Vec<CoKernelPair>, Cube),
) -> Vec<CoKernelPair> {
    if f.num_cubes() < 2 {
        return Vec::new();
    }
    let (mut out, lcc) = recursion(f, cfg);
    if out.len() < cfg.max_pairs {
        if !lcc.is_one() {
            // Every co-kernel contains the largest common cube, so the
            // recursion starts from `f / lcc`; that quotient is itself a
            // kernel with co-kernel `lcc` (e.g. the paper's H = ade + cde
            // ⇒ kernel a+c, co-kernel de).
            out.push(CoKernelPair {
                kernel: f.cube_free_part(),
                cokernel: lcc,
            });
        } else if cfg.include_trivial {
            // f has ≥ 2 cubes and no common cube: it is cube-free.
            out.push(CoKernelPair {
                cokernel: Cube::one(),
                kernel: f.clone(),
            });
        }
    }
    out
}

/// `KERNEL(j, g)` over support bitmasks.
///
/// Every mask is `w` words. `arena` holds, for each live recursion
/// level, its scratch (literals in ≥ 2 cubes, the branch's common
/// cube), then the child's cubes and co-kernel; a level truncates the
/// arena back on return. Both buffers are a [`KernelScratch`]'s.
///
/// `g` never needs re-canonicalising: `f` is free of single-cube
/// containment, and the cubes containing a common cube stay distinct,
/// containment-free and in the same order once it is divided out. So a
/// branch with ≥ 2 gathered cubes always yields a kernel of ≥ 2 cubes.
struct MaskKernels<'a> {
    support: &'a [Lit],
    w: usize,
    cfg: &'a KernelConfig,
    arena: &'a mut Vec<u64>,
    /// Empty kernel lists to fill before allocating a new one.
    spare: &'a mut Vec<Vec<Cube>>,
    out: Vec<CoKernelPair>,
}

impl MaskKernels<'_> {
    /// Encodes `f` (≥ 2 cubes), divides out its largest common cube and
    /// runs the recursion from there.
    fn run(f: &Sop, cfg: &KernelConfig, scratch: &mut KernelScratch) -> (Vec<CoKernelPair>, Cube) {
        let KernelScratch {
            support,
            arena,
            pairs,
            kernels: spare,
        } = scratch;
        support.clear();
        support.extend(f.iter().flat_map(Cube::iter));
        support.sort_unstable();
        support.dedup();
        let w = support.len().div_ceil(64);
        let n = f.num_cubes();
        arena.clear();
        arena.resize((n + 1) * w, 0);
        for (k, c) in f.iter().enumerate() {
            for l in c.iter() {
                let p = support
                    .binary_search(&l)
                    .expect("support holds every literal");
                arena[k * w + p / 64] |= 1 << (p % 64);
            }
        }
        // The largest common cube is the root co-kernel, stored after
        // the cubes; dividing it out leaves `f / lcc`.
        let ck = n * w;
        arena[ck..].fill(!0);
        for k in 0..n {
            for t in 0..w {
                arena[ck + t] &= arena[k * w + t];
            }
        }
        for k in 0..n {
            for t in 0..w {
                arena[k * w + t] &= !arena[ck + t];
            }
        }
        let mut e = MaskKernels {
            support,
            w,
            cfg,
            arena,
            spare,
            out: std::mem::take(pairs),
        };
        e.recurse(0, 0, n, ck, 0);
        let lcc = e.cube(ck);
        (e.out, lcc)
    }

    /// `KERNEL(j, g)`: `g` is the `n` cubes at `arena[g..]`, its
    /// co-kernel is at `arena[ck..]`.
    fn recurse(&mut self, j: usize, g: usize, n: usize, ck: usize, depth: usize) {
        if depth >= self.cfg.max_depth || self.out.len() >= self.cfg.max_pairs {
            return;
        }
        let w = self.w;
        let twice = self.arena.len();
        let common = twice + w;
        self.arena.resize(common + w, 0);
        // The literals in ≥ 2 cubes of g (the common-cube slot counts
        // the first occurrence meanwhile). No other literal branches, so
        // skipping them leaves the output unchanged.
        for k in 0..n {
            for t in 0..w {
                let c = self.arena[g + k * w + t];
                self.arena[twice + t] |= self.arena[common + t] & c;
                self.arena[common + t] |= c;
            }
        }
        'scan: for word in j / 64..w {
            let mut bits = self.arena[twice + word];
            if word == j / 64 {
                bits &= !0u64 << (j % 64);
            }
            while bits != 0 {
                if self.out.len() >= self.cfg.max_pairs {
                    break 'scan;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (i, bit) = (word * 64 + b, 1u64 << b);
                // The largest common cube of the cubes containing
                // literal i.
                self.arena[common..common + w].fill(!0);
                for k in 0..n {
                    let c = g + k * w;
                    if self.arena[c + word] & bit != 0 {
                        for t in 0..w {
                            self.arena[common + t] &= self.arena[c + t];
                        }
                    }
                }
                // Duplicate pruning: if the common cube contains a
                // literal that precedes literal i in the fixed order,
                // this kernel was (or will be) produced from that
                // literal's branch.
                if self.arena[common..common + word].iter().any(|&m| m != 0)
                    || self.arena[common + word] & (bit - 1) != 0
                {
                    continue;
                }
                // g1 = g / common: the gathered cubes, divided.
                let g1 = self.arena.len();
                let mut n1 = 0;
                for k in 0..n {
                    let c = g + k * w;
                    if self.arena[c + word] & bit != 0 {
                        n1 += 1;
                        for t in 0..w {
                            let q = self.arena[c + t] & !self.arena[common + t];
                            self.arena.push(q);
                        }
                    }
                }
                let ck1 = self.arena.len();
                for t in 0..w {
                    let m = self.arena[ck + t] | self.arena[common + t];
                    self.arena.push(m);
                }
                let mut kernel = self.spare.pop().unwrap_or_default();
                kernel.extend((0..n1).map(|k| self.cube(g1 + k * w)));
                self.out.push(CoKernelPair {
                    cokernel: self.cube(ck1),
                    kernel: Sop::from_sorted_unchecked(kernel),
                });
                self.recurse(i + 1, g1, n1, ck1, depth + 1);
                self.arena.truncate(g1);
            }
        }
        self.arena.truncate(twice);
    }

    /// The cube whose mask starts at `arena[at]`, built in place: bits
    /// ascend with the support, so the literals come out sorted.
    fn cube(&self, at: usize) -> Cube {
        let mask = &self.arena[at..at + self.w];
        Cube::from_sorted_iter(mask.iter().enumerate().flat_map(|(t, &m)| {
            let mut bits = m;
            std::iter::from_fn(move || {
                let b = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(self.support[t * 64 + b])
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Checks the defining property: `k` is a kernel of `f` iff `k` is
    /// cube-free and `k == f / c` for its co-kernel `c`.
    fn is_kernel_of(f: &Sop, pair: &CoKernelPair) -> bool {
        if !pair.kernel.is_cube_free() {
            return false;
        }
        let div = crate::divide::divide_by_cube(f, &pair.cokernel);
        div.quotient == pair.kernel
    }

    // Paper variable map: a=1 b=2 c=3 d=4 e=5 f=6 g=7.
    fn cube(ids: &[u32]) -> Cube {
        Cube::from_lits(ids.iter().map(|&i| Lit::pos(i)))
    }

    fn sop(cubes: &[&[u32]]) -> Sop {
        Sop::from_cubes(cubes.iter().map(|c| cube(c)))
    }

    /// G = af + bf + ace + bce (Eq. 1).
    fn paper_g() -> Sop {
        sop(&[&[1, 6], &[2, 6], &[1, 3, 5], &[2, 3, 5]])
    }

    /// F = af + bf + ag + cg + ade + bde + cde (Eq. 1).
    fn paper_f() -> Sop {
        sop(&[
            &[1, 6],
            &[2, 6],
            &[1, 7],
            &[3, 7],
            &[1, 4, 5],
            &[2, 4, 5],
            &[3, 4, 5],
        ])
    }

    /// H = ade + cde (Eq. 1).
    fn paper_h() -> Sop {
        sop(&[&[1, 4, 5], &[3, 4, 5]])
    }

    #[test]
    fn kernels_of_paper_g() {
        // Paper §2: kernels (co-kernels) of G are ce+f (a, b) and a+b (f, ce).
        let ks = kernels(&paper_g());
        let expect = vec![
            (cube(&[1]), sop(&[&[6], &[3, 5]])),
            (cube(&[2]), sop(&[&[6], &[3, 5]])),
            (cube(&[3, 5]), sop(&[&[1], &[2]])),
            (cube(&[6]), sop(&[&[1], &[2]])),
        ];
        let got: Vec<(Cube, Sop)> = ks
            .iter()
            .map(|p| (p.cokernel.clone(), p.kernel.clone()))
            .collect();
        for e in &expect {
            assert!(got.contains(e), "missing kernel pair {e:?}");
        }
        assert_eq!(got.len(), expect.len());
    }

    #[test]
    fn kernels_of_paper_f_match_figure_2() {
        // Figure 2 lists co-kernels a, b, de, f, c, g for F.
        let ks = kernels(&paper_f());
        let cokernels: Vec<Cube> = ks.iter().map(|p| p.cokernel.clone()).collect();
        for ck in [
            cube(&[1]),
            cube(&[2]),
            cube(&[4, 5]),
            cube(&[6]),
            cube(&[3]),
            cube(&[7]),
        ] {
            assert!(cokernels.contains(&ck), "missing co-kernel {ck:?}");
        }
        assert_eq!(ks.len(), 6);
        // Spot-check the kernels themselves.
        let by_ck = |ck: &Cube| {
            ks.iter()
                .find(|p| &p.cokernel == ck)
                .map(|p| p.kernel.clone())
                .unwrap()
        };
        assert_eq!(by_ck(&cube(&[1])), sop(&[&[6], &[7], &[4, 5]])); // f+g+de
        assert_eq!(by_ck(&cube(&[4, 5])), sop(&[&[1], &[2], &[3]])); // a+b+c
        assert_eq!(by_ck(&cube(&[6])), sop(&[&[1], &[2]])); // a+b
        assert_eq!(by_ck(&cube(&[7])), sop(&[&[1], &[3]])); // a+c
    }

    #[test]
    fn kernels_of_paper_h() {
        // H = ade + cde: single kernel a+c with co-kernel de.
        let ks = kernels(&paper_h());
        assert_eq!(ks.len(), 1);
        assert_eq!(ks[0].cokernel, cube(&[4, 5]));
        assert_eq!(ks[0].kernel, sop(&[&[1], &[3]]));
    }

    #[test]
    fn all_pairs_satisfy_kernel_definition() {
        for f in [paper_f(), paper_g(), paper_h()] {
            for p in kernels(&f) {
                assert!(is_kernel_of(&f, &p), "{p:?} not a kernel of {f:?}");
            }
        }
    }

    #[test]
    fn trivial_pair_included_only_when_cube_free() {
        // G is cube-free → trivial pair present with include_trivial.
        let ks = kernels_with_trivial(&paper_g());
        assert!(ks
            .iter()
            .any(|p| p.cokernel.is_one() && p.kernel == paper_g()));
        // H = de(a+c) is not cube-free → no trivial pair.
        let ks = kernels_with_trivial(&paper_h());
        assert!(!ks.iter().any(|p| p.cokernel.is_one()));
    }

    #[test]
    fn single_cube_has_no_kernels() {
        assert!(kernels(&sop(&[&[1, 2, 3]])).is_empty());
        assert!(kernels(&Sop::zero()).is_empty());
        assert!(kernels(&Sop::one()).is_empty());
    }

    #[test]
    fn no_shared_literal_means_no_kernels() {
        // ab + cd: no literal in ≥2 cubes.
        assert!(kernels(&sop(&[&[1, 2], &[3, 4]])).is_empty());
    }

    #[test]
    fn depth_limit_restricts_to_level_one() {
        // f = abcx + abcy + abz + aw + v has a three-deep kernel chain:
        // (a, bcx+bcy+bz+w), (ab, cx+cy+z), (abc, x+y). A depth limit of 1
        // keeps only the first.
        // vars: a=1 b=2 c=3 x=4 y=5 z=6 w=7 v=8
        let f = sop(&[&[1, 2, 3, 4], &[1, 2, 3, 5], &[1, 2, 6], &[1, 7], &[8]]);
        let all = kernels(&f);
        assert_eq!(all.len(), 3);
        let shallow = kernels_config(
            &f,
            &KernelConfig {
                max_depth: 1,
                ..KernelConfig::default()
            },
        );
        assert_eq!(shallow.len(), 1);
        assert_eq!(shallow[0].cokernel, cube(&[1]));
        for p in &shallow {
            assert!(all.contains(p));
        }
    }

    #[test]
    fn kernels_are_unique() {
        let f = paper_f();
        let ks = kernels(&f);
        let mut sorted = ks.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ks.len());
    }

    #[test]
    fn max_pairs_caps_the_tail_pair() {
        // F·x has common cube x, so the (x, F) pair comes after the
        // recursion; it must not push the output past the cap.
        let x = Lit::pos(9);
        let fx = paper_f().product_cube(&Cube::single(x));
        assert_eq!(kernels(&fx).len(), 7);
        for max_pairs in 1..=7 {
            let cfg = KernelConfig {
                max_pairs,
                ..KernelConfig::default()
            };
            assert_eq!(kernels_config(&fx, &cfg).len(), max_pairs);
            assert_eq!(oracle_kernels(&fx, &cfg).len(), max_pairs);
        }
        // Likewise the trivial pair of the cube-free G (four kernels).
        let cfg = KernelConfig {
            include_trivial: true,
            max_pairs: 4,
            ..KernelConfig::default()
        };
        let ks = kernels_config(&paper_g(), &cfg);
        assert_eq!(ks.len(), 4);
        assert!(!ks.iter().any(|p| p.cokernel.is_one()));
    }

    #[test]
    fn max_pairs_budget_respected() {
        let f = paper_f();
        let ks = kernels_config(
            &f,
            &KernelConfig {
                max_pairs: 3,
                ..KernelConfig::default()
            },
        );
        assert!(ks.len() <= 3);
    }

    /// The old value-based recursion behind the shared tail, sorted.
    fn oracle_kernels(f: &Sop, cfg: &KernelConfig) -> Vec<CoKernelPair> {
        let mut out = with_tail(f, cfg, oracle::recursion);
        out.sort_unstable();
        out
    }

    /// Every knob the enumerator honours: the trivial pair, the depth
    /// limit at 1, 2 and ∞, and caps small enough to bind.
    fn configs() -> Vec<KernelConfig> {
        let mut cfgs = Vec::new();
        for include_trivial in [false, true] {
            for max_depth in [1, 2, usize::MAX] {
                for max_pairs in [1, 2, 5, 1 << 16] {
                    cfgs.push(KernelConfig {
                        include_trivial,
                        max_depth,
                        max_pairs,
                    });
                }
            }
        }
        cfgs
    }

    /// `f`'s pairs under each of `cfgs` equal the oracle's, and the raw,
    /// unsorted output of either never repeats a co-kernel (which is
    /// why `kernels_config` has no `dedup`).
    fn check_against_oracle(f: &Sop, cfgs: &[KernelConfig]) -> Result<(), String> {
        for &cfg in cfgs {
            for raw in [
                with_tail(f, &cfg, |f, cfg| {
                    MaskKernels::run(f, cfg, &mut KernelScratch::default())
                }),
                with_tail(f, &cfg, oracle::recursion),
            ] {
                let mut cokernels: Vec<&Cube> = raw.iter().map(|p| &p.cokernel).collect();
                cokernels.sort_unstable();
                if cokernels.windows(2).any(|w| w[0] == w[1]) {
                    return Err(format!("repeated co-kernel under {cfg:?} in {f:?}"));
                }
            }
            let (got, want) = (kernels_config(f, &cfg), oracle_kernels(f, &cfg));
            if got != want {
                return Err(format!("{cfg:?} on {f:?}:\n got {got:?}\nwant {want:?}"));
            }
        }
        Ok(())
    }

    /// A random cube: up to five of eight shared variables, spread over
    /// the index range so shared literals land in every mask word, plus
    /// up to twenty filler variables that widen the support. Phases are
    /// random; a variable keeps its first phase.
    fn arb_mixed_cube() -> impl Strategy<Value = Cube> {
        (
            prop::collection::vec((0..8u32, any::<bool>()), 1..=5),
            prop::collection::vec((0..160u32, any::<bool>()), 0..=20),
        )
            .prop_map(|(shared, filler)| {
                let mut phase = std::collections::BTreeMap::new();
                for (v, neg) in shared
                    .into_iter()
                    .map(|(k, neg)| (k * 19 + 3, neg))
                    .chain(filler)
                {
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
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random mixed-phase SOPs with supports up to ~150 literals, so
        /// masks of one, two and three words all run.
        #[test]
        fn kernels_match_oracle(cubes in prop::collection::vec(arb_mixed_cube(), 0..=20)) {
            let f = Sop::from_cubes(cubes);
            if let Err(msg) = check_against_oracle(&f, &configs()) {
                prop_assert!(false, "{}", msg);
            }
        }
    }

    #[test]
    fn wide_supports_match_oracle() {
        // Paper F with its variable i renamed to 20·i + 1 (d negated),
        // beside two filler cubes holding every other variable below
        // 150: the support has ~150 literals, and F's kernels branch on
        // literals in all three mask words.
        let lit = |i: u32| {
            let v = 20 * i + 1;
            if i == 4 {
                Lit::neg(v)
            } else {
                Lit::pos(v)
            }
        };
        let fillers: Vec<u32> = (0..150).filter(|v| v % 20 != 1).collect();
        let f = Sop::from_cubes(
            paper_f()
                .iter()
                .map(|c| Cube::from_lits(c.iter().map(|l| lit(l.var().index()))))
                .chain([cube(&fillers[..70]), cube(&fillers[70..])]),
        );
        assert!(f.support_lits().len() > 128);
        assert_eq!(kernels(&f).len(), 6);
        check_against_oracle(&f, &configs()).unwrap();
        // One literal per cube: the widest masks, and no kernel.
        let f = Sop::from_cubes((0..150).map(|i| cube(&[i])));
        assert!(kernels(&f).is_empty());
        check_against_oracle(&f, &configs()).unwrap();
    }

    #[test]
    fn kernels_match_oracle_on_generated_circuits() {
        let cfgs = [
            KernelConfig::default(),
            KernelConfig {
                include_trivial: true,
                ..KernelConfig::default()
            },
            KernelConfig {
                max_depth: 1,
                ..KernelConfig::default()
            },
            KernelConfig {
                max_pairs: 2,
                ..KernelConfig::default()
            },
        ];
        // One scratch across every node, recycling what it returns, as
        // the KC matrix keeps it.
        let mut scratch = KernelScratch::default();
        for (name, scale) in [
            ("des", 2.0),
            ("ex1010", 0.25),
            ("dalu", 2.0),
            ("seq", 1.0),
            ("misex3", 1.0),
        ] {
            let profile = pf_workloads::profile_by_name(name).expect("known profile");
            let nw = pf_workloads::generate(&pf_workloads::scale_profile(&profile, scale));
            for node in nw.node_ids() {
                // The generator links the library build of this crate;
                // rebuild the function from literal codes.
                let f = Sop::from_sorted_unchecked(
                    nw.func(node)
                        .iter()
                        .map(|c| {
                            Cube::from_sorted_unchecked(
                                c.iter().map(|l| Lit::from_code(l.code())).collect(),
                            )
                        })
                        .collect(),
                );
                if let Err(msg) = check_against_oracle(&f, &cfgs) {
                    panic!("{name}@{scale} node {node}: {msg}");
                }
                for cfg in &cfgs {
                    let pairs = scratch.kernels(&f, cfg);
                    assert_eq!(pairs, kernels_config(&f, cfg));
                    scratch.recycle(pairs);
                }
            }
        }
    }
}
