//! Algebraic resubstitution — SIS's `resub -a`.
//!
//! After extraction, distinct nodes often still contain each other's
//! functions as algebraic divisors (Algorithm I's duplicated kernels are
//! the prime example: `X = a + b` exists twice under different names).
//! Resubstitution walks divisor/target pairs and rewrites `f` as
//! `q·x_g + r` whenever dividing `f` by `g`'s function has a non-zero
//! quotient and actually saves literals.
//!
//! Two engines share that contract:
//!
//! * [`resubstitute`] (and its scoped form [`resubstitute_scoped`]) — the
//!   production engine. A *divisor index* (per-literal occurrence lists
//!   plus a 64-bit support-hash signature per node) rejects most pairs
//!   without touching the SOPs, a *dirty worklist* replaces the
//!   repeat-whole-pass fixpoint so only nodes whose functions changed are
//!   re-examined, and a cached *transitive reachability guard* refuses
//!   cycle-creating substitutions before running the division.
//! * [`reference::resubstitute`] — the original all-pairs whole-pass
//!   fixpoint, kept verbatim as the differential oracle. The indexed
//!   engine attempts the same profitable pairs in the same order, so the
//!   resulting networks are byte-identical (property-tested in
//!   `tests/props.rs`).

use crate::network::{Network, NetworkError, SignalId, SignalKind};
use crate::transform::divide_node_by;
use pf_sop::fx::{FxHashMap, FxHashSet};
use pf_sop::{Lit, Sop};

/// Report of one resubstitution pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResubReport {
    /// Successful divisions performed.
    pub substitutions: usize,
    /// Literals saved.
    pub saved: isize,
    /// Divisor/target pairs that reached the candidate filters (i.e.
    /// survived the dirty-worklist gate). The reference engine examines
    /// every pair every pass; the indexed engine reports how few it had
    /// to look at.
    pub pairs_considered: usize,
    /// Pairs that passed every filter and ran the actual division.
    pub pairs_divided: usize,
    /// Worklist rounds until the fixpoint (reference: whole passes).
    pub worklist_rounds: usize,
}

/// Restricts what a resubstitution run may do. The default scope is the
/// full pass: every node acts as a divisor and every pair is attempted
/// in round one.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResubScope<'a> {
    /// When set, only these nodes act as divisors `g` (targets `f` stay
    /// unrestricted). Used by sharded boundary recovery, where each
    /// recovery lease owns a slice of the duplicate-candidate divisors.
    pub divisors: Option<&'a [SignalId]>,
    /// When set, round one attempts only pairs touching a seed node
    /// instead of all pairs; dirty propagation then proceeds as usual.
    /// Used to re-run the fixpoint incrementally after merging sharded
    /// recovery results, seeded by the nodes the shards rewrote.
    pub seeds: Option<&'a [SignalId]>,
}

/// One full algebraic resubstitution fixpoint, indexed and incremental.
/// Divisions that would not reduce the literal count are rolled back.
///
/// Byte-identical to [`reference::resubstitute`]: see the module docs.
pub fn resubstitute(nw: &mut Network) -> Result<ResubReport, NetworkError> {
    resubstitute_scoped(nw, &ResubScope::default())
}

/// [`resubstitute`] with a [`ResubScope`] restricting divisors and/or
/// seeding the first worklist round.
pub fn resubstitute_scoped(
    nw: &mut Network,
    scope: &ResubScope<'_>,
) -> Result<ResubReport, NetworkError> {
    let mut report = ResubReport::default();
    // The candidate node set is invariant across rounds: a successful
    // division rewrites f to q·x_g + r with a non-zero quotient, so no
    // function ever becomes zero and no node is created.
    let nodes: Vec<SignalId> = nw.node_ids().filter(|&n| !nw.func(n).is_zero()).collect();
    if nodes.is_empty() {
        return Ok(report);
    }
    let mut index = DivisorIndex::build(nw, &nodes);
    let divisor_filter: Option<FxHashSet<SignalId>> =
        scope.divisors.map(|d| d.iter().copied().collect());

    let n_signals = nw.num_signals();
    // Dirty bits drive the worklist: a pair (g, f) is attempted in a
    // round iff g or f changed in the previous round (dirty_prev), has
    // already changed in this round (dirty_cur), or the pair was refused
    // by the reachability guard (cycle_blocked — reachability depends on
    // the whole graph, so those refusals are re-checked every round).
    // Every skipped pair provably fails: its outcome is a pure function
    // of (func(g), func(f)) and both are unchanged since the pair's last
    // failing attempt. Hence the attempted-and-succeeded sequence — and
    // the resulting network — match the reference engine exactly.
    let mut dirty_prev = vec![false; n_signals];
    let mut dirty_cur = vec![false; n_signals];
    match scope.seeds {
        Some(seeds) => {
            for &s in seeds {
                if let Some(slot) = dirty_prev.get_mut(s as usize) {
                    *slot = true;
                }
            }
        }
        None => dirty_prev.fill(true),
    }
    let mut cycle_blocked: FxHashSet<(SignalId, SignalId)> = FxHashSet::default();
    // Transitive-fanin sets, cached per divisor within a worklist round
    // and invalidated whenever a substitution changes the graph.
    let mut tfi_cache: FxHashMap<SignalId, FxHashSet<SignalId>> = FxHashMap::default();

    loop {
        report.worklist_rounds += 1;
        let mut changed = false;
        for &g in &nodes {
            if let Some(filter) = &divisor_filter {
                if !filter.contains(&g) {
                    continue;
                }
            }
            if nw.kind(g) != SignalKind::Node || index.cubes[g as usize] == 0 {
                continue;
            }
            let g_support = index.support[g as usize].clone();
            if g_support.is_empty() {
                // Constant-one divisor: divide_node_by always refuses.
                continue;
            }
            let g_sig = index.sig[g as usize];
            let g_cubes = index.cubes[g as usize];
            let g_is_literal = g_cubes == 1 && g_support.len() == 1;
            // Enumerate candidates from the rarest literal's occurrence
            // list: any f divisible by g contains every literal of g, so
            // the list is a superset of the viable targets and — being
            // id-sorted — visits them in the reference engine's order.
            let rare = g_support
                .iter()
                .min_by_key(|l| index.occ_len(**l))
                .copied()
                .expect("non-empty support");
            let candidates = index.occ(rare).to_vec();
            for f in candidates {
                if f == g {
                    continue;
                }
                let fi = f as usize;
                if !(dirty_prev[g as usize]
                    || dirty_prev[fi]
                    || dirty_cur[g as usize]
                    || dirty_cur[fi]
                    || cycle_blocked.contains(&(g, f)))
                {
                    continue;
                }
                report.pairs_considered += 1;
                // Signature, cube-count and exact support-subset filters.
                if g_sig & !index.sig[fi] != 0
                    || g_cubes > index.cubes[fi]
                    || !is_sorted_subset(&g_support, &index.support[fi])
                {
                    continue;
                }
                // Don't create cycles: the division adds the edge f → g,
                // which closes a cycle iff g transitively depends on f.
                // The reference engine discovers this after the fact via
                // a whole-network topo sort and rolls back; pre-checking
                // f ∈ TFI(g) refuses exactly the same pairs.
                if reaches(nw, &mut tfi_cache, g, f) {
                    cycle_blocked.insert((g, f));
                    continue;
                }
                cycle_blocked.remove(&(g, f));
                // Dividing by a single literal `l` that `f` does not
                // already mention only renames `l` to `x_g` in f's cubes:
                // every cube keeps its size and every containment between
                // cubes survives, so the rewrite saves literals only by
                // dropping cubes `f` holds redundantly. Without any, it
                // would be rolled back — skip the division.
                if g_is_literal
                    && !index.support[fi].iter().any(|l| l.var().index() == g)
                    && containment_free(nw.func(f))
                {
                    continue;
                }
                let before = nw.func(f).literal_count();
                let snapshot = nw.func(f).clone();
                report.pairs_divided += 1;
                if divide_node_by(nw, f, g)? {
                    let after = nw.func(f).literal_count();
                    if after >= before {
                        nw.set_func(f, snapshot)?;
                    } else {
                        report.substitutions += 1;
                        report.saved += before as isize - after as isize;
                        index.note_rewrite(nw, f);
                        dirty_cur[fi] = true;
                        changed = true;
                        // The graph changed: cached reachability is stale.
                        tfi_cache.clear();
                    }
                }
            }
        }
        if !changed {
            return Ok(report);
        }
        std::mem::swap(&mut dirty_prev, &mut dirty_cur);
        dirty_cur.fill(false);
    }
}

/// `true` iff `f` is in the transitive fanin of `g` (so substituting g
/// into f would create a cycle). The TFI set is memoised per divisor.
fn reaches(
    nw: &Network,
    cache: &mut FxHashMap<SignalId, FxHashSet<SignalId>>,
    g: SignalId,
    f: SignalId,
) -> bool {
    if let Some(tfi) = cache.get(&g) {
        return tfi.contains(&f);
    }
    let mut tfi = FxHashSet::default();
    let mut stack = nw.fanins(g);
    while let Some(n) = stack.pop() {
        if tfi.insert(n) && nw.kind(n) == SignalKind::Node {
            stack.extend(nw.fanins(n));
        }
    }
    let hit = tfi.contains(&f);
    cache.insert(g, tfi);
    hit
}

/// `true` iff no cube of `f` divides another (or repeats), i.e.
/// [`Sop::from_cubes`] would keep every cube.
fn containment_free(f: &Sop) -> bool {
    let cubes = f.cubes();
    cubes.iter().enumerate().all(|(i, c)| {
        cubes
            .iter()
            .enumerate()
            .all(|(j, d)| i == j || !c.divisible_by(d))
    })
}

/// Subset test over two sorted literal lists.
fn is_sorted_subset(small: &[Lit], big: &[Lit]) -> bool {
    if small.len() > big.len() {
        return false;
    }
    let mut it = big.iter();
    'outer: for l in small {
        for b in it.by_ref() {
            match b.cmp(l) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// The divisor index: per-literal occurrence lists (id-sorted) plus a
/// 64-bit support-hash signature, cube count and sorted support per node.
/// `sig(g) & !sig(f) != 0` disproves support ⊆ in one AND.
struct DivisorIndex {
    /// lit code → id-sorted list of indexed nodes containing that lit.
    occ: Vec<Vec<SignalId>>,
    sig: Vec<u64>,
    cubes: Vec<usize>,
    support: Vec<Vec<Lit>>,
}

impl DivisorIndex {
    fn build(nw: &Network, nodes: &[SignalId]) -> Self {
        let n = nw.num_signals();
        let mut ix = DivisorIndex {
            occ: vec![Vec::new(); 2 * n],
            sig: vec![0; n],
            cubes: vec![0; n],
            support: vec![Vec::new(); n],
        };
        // `nodes` is id-ascending, so pushes keep occ lists sorted.
        for &id in nodes {
            let support = nw.func(id).support_lits();
            for &l in &support {
                ix.occ[l.code() as usize].push(id);
            }
            ix.sig[id as usize] = sig_of(&support);
            ix.cubes[id as usize] = nw.func(id).num_cubes();
            ix.support[id as usize] = support;
        }
        ix
    }

    fn occ(&self, lit: Lit) -> &[SignalId] {
        &self.occ[lit.code() as usize]
    }

    fn occ_len(&self, lit: Lit) -> usize {
        self.occ[lit.code() as usize].len()
    }

    /// Re-indexes `f` after its function was rewritten: diffs the old
    /// and new sorted supports and patches only the changed entries.
    fn note_rewrite(&mut self, nw: &Network, f: SignalId) {
        let new_support = nw.func(f).support_lits();
        let old_support = std::mem::take(&mut self.support[f as usize]);
        let mut old_it = old_support.iter().peekable();
        let mut new_it = new_support.iter().peekable();
        loop {
            match (old_it.peek(), new_it.peek()) {
                (Some(&&o), Some(&&n)) if o == n => {
                    old_it.next();
                    new_it.next();
                }
                (Some(&&o), Some(&&n)) if o < n => {
                    self.occ_remove(o, f);
                    old_it.next();
                }
                (Some(_), Some(&&n)) => {
                    self.occ_insert(n, f);
                    new_it.next();
                }
                (Some(&&o), None) => {
                    self.occ_remove(o, f);
                    old_it.next();
                }
                (None, Some(&&n)) => {
                    self.occ_insert(n, f);
                    new_it.next();
                }
                (None, None) => break,
            }
        }
        self.sig[f as usize] = sig_of(&new_support);
        self.cubes[f as usize] = nw.func(f).num_cubes();
        self.support[f as usize] = new_support;
    }

    fn occ_remove(&mut self, lit: Lit, id: SignalId) {
        let list = &mut self.occ[lit.code() as usize];
        if let Ok(pos) = list.binary_search(&id) {
            list.remove(pos);
        }
    }

    fn occ_insert(&mut self, lit: Lit, id: SignalId) {
        let list = &mut self.occ[lit.code() as usize];
        if let Err(pos) = list.binary_search(&id) {
            list.insert(pos, id);
        }
    }
}

/// 64-bit support signature: one hashed bit per support literal.
fn sig_of(support: &[Lit]) -> u64 {
    support
        .iter()
        .fold(0u64, |acc, l| acc | (1u64 << (mix(l.code() as u64) & 63)))
}

/// SplitMix64 finaliser — spreads consecutive lit codes across bits.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The original all-pairs engine, kept as the differential oracle for
/// the indexed one. Not used in production paths.
pub mod reference {
    use super::ResubReport;
    use crate::network::{Network, NetworkError, SignalId, SignalKind};
    use crate::transform::divide_node_by;
    use pf_sop::fx::FxHashSet;
    use pf_sop::Lit;

    /// One full algebraic resubstitution pass over all node pairs,
    /// repeated until a whole pass makes no change. Divisions that would
    /// not reduce the literal count are rolled back.
    ///
    /// Candidate filtering: `g` can only divide `f` if `g`'s support is
    /// a subset of `f`'s and `g` has at most as many cubes, so most
    /// pairs are rejected without running the division.
    pub fn resubstitute(nw: &mut Network) -> Result<ResubReport, NetworkError> {
        let mut report = ResubReport::default();
        loop {
            let mut changed = false;
            let nodes: Vec<SignalId> = nw.node_ids().filter(|&n| !nw.func(n).is_zero()).collect();
            for &g in &nodes {
                if nw.kind(g) != SignalKind::Node || nw.func(g).num_cubes() == 0 {
                    continue;
                }
                let g_support: FxHashSet<Lit> = nw.func(g).support_lits().into_iter().collect();
                let g_cubes = nw.func(g).num_cubes();
                for &f in &nodes {
                    if f == g || nw.func(f).is_zero() {
                        continue;
                    }
                    // Don't create cycles: g must not (transitively)
                    // depend on f. Cheap pre-check: direct dependence.
                    if nw
                        .func(g)
                        .support_lits()
                        .iter()
                        .any(|l| l.var().index() == f)
                    {
                        continue;
                    }
                    // Support filter.
                    let f_support: FxHashSet<Lit> = nw.func(f).support_lits().into_iter().collect();
                    if g_cubes > nw.func(f).num_cubes()
                        || !g_support.iter().all(|l| f_support.contains(l))
                    {
                        continue;
                    }
                    let before = nw.func(f).literal_count();
                    let snapshot = nw.func(f).clone();
                    if divide_node_by(nw, f, g)? {
                        // Validate: no literal growth and no cycle.
                        let after = nw.func(f).literal_count();
                        if after >= before || nw.topo_order().is_err() {
                            nw.set_func(f, snapshot)?;
                        } else {
                            report.substitutions += 1;
                            report.saved += before as isize - after as isize;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return Ok(report);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{equivalent_random, EquivConfig};
    use pf_sop::{Cube, Sop};

    fn sop_of(cubes: &[&[u32]]) -> Sop {
        Sop::from_cubes(
            cubes
                .iter()
                .map(|c| Cube::from_lits(c.iter().map(|&v| Lit::pos(v)))),
        )
    }

    #[test]
    fn substitutes_duplicated_kernel() {
        // The Algorithm-I situation: X = a+b and Z = a+b both exist;
        // f uses the *expanded* form and should be rewritten over X.
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let c = nw.add_input("c").unwrap();
        let d = nw.add_input("d").unwrap();
        let x = nw.add_node("X", sop_of(&[&[a], &[b]])).unwrap();
        let f = nw
            .add_node("f", sop_of(&[&[a, c], &[b, c], &[a, d], &[b, d]]))
            .unwrap();
        let g = nw.add_node("g", sop_of(&[&[x, c]])).unwrap();
        nw.mark_output(f).unwrap();
        nw.mark_output(g).unwrap();
        let original = nw.clone();

        let report = resubstitute(&mut nw).unwrap();
        assert!(report.substitutions >= 1);
        assert!(report.saved > 0);
        assert!(report.pairs_divided >= report.substitutions);
        assert!(report.pairs_considered >= report.pairs_divided);
        assert!(report.worklist_rounds >= 1);
        // f = Xc + Xd (4 lits), or even g + Xd (3) once the pass also
        // resubstitutes g = Xc into it.
        assert!(nw.func(f).literal_count() <= 4);
        assert!(nw.fanins(f).contains(&x) || nw.fanins(f).contains(&g));
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn no_substitution_when_nothing_shared() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let f = nw.add_node("f", sop_of(&[&[a]])).unwrap();
        let g = nw.add_node("g", sop_of(&[&[b]])).unwrap();
        nw.mark_output(f).unwrap();
        nw.mark_output(g).unwrap();
        let report = resubstitute(&mut nw).unwrap();
        assert_eq!(report.substitutions, 0);
    }

    #[test]
    fn never_creates_cycles() {
        // f = ac+bc, g = a+b, but g also *uses* f? Construct the risky
        // shape: h depends on f; f could divide h's function and h's
        // variable appears nowhere in f — fine; but f dividing g where
        // g feeds f must be refused.
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let g = nw.add_node("g", sop_of(&[&[a], &[b]])).unwrap();
        let f = nw.add_node("f", sop_of(&[&[g, a], &[g, b]])).unwrap();
        nw.mark_output(f).unwrap();
        let original = nw.clone();
        resubstitute(&mut nw).unwrap();
        assert!(nw.validate().is_ok());
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn rolls_back_unprofitable_division() {
        // Dividing would rewrite but not save: f = ab (g = a+b doesn't
        // divide it); pick f = ab + c and g = ab + c — equal functions,
        // f/g = 1 → f = 1·x_g, saving 2… that's profitable. Instead: a
        // case where quotient exists but no saving: f = ab, g = ab:
        // f = x_g (1 lit < 2) — profitable too. Unprofitable: g = a:
        // f = a → f = x_g rewrites 1 lit to 1 lit → rolled back.
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let g = nw.add_node("g", sop_of(&[&[a]])).unwrap();
        let f = nw.add_node("f", sop_of(&[&[a]])).unwrap();
        nw.mark_output(f).unwrap();
        nw.mark_output(g).unwrap();
        let report = resubstitute(&mut nw).unwrap();
        assert_eq!(report.substitutions, 0);
        assert_eq!(nw.fanins(f), vec![a]);
    }

    #[test]
    fn resub_after_independent_extraction_recovers_duplicates() {
        // End-to-end: simulate the duplicated-kernel network of
        // Example 4.1's outcome and let resub merge the duplicates.
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let e = nw.add_input("e").unwrap();
        let x = nw.add_node("X", sop_of(&[&[a], &[b]])).unwrap();
        let z = nw.add_node("Z", sop_of(&[&[a], &[b]])).unwrap();
        let f = nw.add_node("f", sop_of(&[&[x, e]])).unwrap();
        let g = nw.add_node("g", sop_of(&[&[z, e]])).unwrap();
        nw.mark_output(f).unwrap();
        nw.mark_output(g).unwrap();
        let original = nw.clone();
        let before = nw.literal_count();
        // Z := X (Z's function divides by X's to the single cube x).
        let report = resubstitute(&mut nw).unwrap();
        let _ = report;
        // After resub + sweep, one of the duplicates is a pass-through.
        crate::transform::sweep(&mut nw).unwrap();
        assert!(nw.literal_count() <= before);
        assert!(equivalent_random(&original, &nw, &EquivConfig::default()).unwrap());
    }

    #[test]
    fn matches_reference_on_duplicated_kernels() {
        let build = || {
            let mut nw = Network::new();
            let a = nw.add_input("a").unwrap();
            let b = nw.add_input("b").unwrap();
            let c = nw.add_input("c").unwrap();
            let d = nw.add_input("d").unwrap();
            let _x = nw.add_node("X", sop_of(&[&[a], &[b]])).unwrap();
            let f = nw
                .add_node("f", sop_of(&[&[a, c], &[b, c], &[a, d], &[b, d]]))
                .unwrap();
            let g = nw.add_node("g", sop_of(&[&[a, d], &[b, d]])).unwrap();
            nw.mark_output(f).unwrap();
            nw.mark_output(g).unwrap();
            nw
        };
        let mut indexed = build();
        let mut oracle = build();
        let ri = resubstitute(&mut indexed).unwrap();
        let rr = reference::resubstitute(&mut oracle).unwrap();
        assert_eq!(ri.substitutions, rr.substitutions);
        assert_eq!(ri.saved, rr.saved);
        for id in indexed.node_ids().collect::<Vec<_>>() {
            assert_eq!(indexed.func(id), oracle.func(id), "node {id}");
        }
    }

    #[test]
    fn literal_divisor_is_skipped_only_when_it_cannot_save() {
        // g = a divides both f's: the containment-free one would only
        // trade `a` for `x_g` (skipped, no division runs); the other holds
        // the redundant cube `ac` beside `a`, which the rewrite drops.
        let build = || {
            let mut nw = Network::new();
            let a = nw.add_input("a").unwrap();
            let b = nw.add_input("b").unwrap();
            let c = nw.add_input("c").unwrap();
            let g = nw.add_node("g", sop_of(&[&[a]])).unwrap();
            let clean = nw.add_node("clean", sop_of(&[&[a, b], &[c]])).unwrap();
            let redundant = Sop::from_sorted_unchecked(vec![
                Cube::from_lits([Lit::pos(a)]),
                Cube::from_lits([Lit::pos(a), Lit::pos(c)]),
            ]);
            let redundant = nw.add_node("redundant", redundant).unwrap();
            for n in [g, clean, redundant] {
                nw.mark_output(n).unwrap();
            }
            (nw, redundant)
        };
        let (mut indexed, redundant) = build();
        let (mut oracle, _) = build();
        let ri = resubstitute(&mut indexed).unwrap();
        let rr = reference::resubstitute(&mut oracle).unwrap();
        assert_eq!((ri.substitutions, ri.saved), (1, 2));
        assert_eq!((rr.substitutions, rr.saved), (1, 2));
        assert_eq!(ri.pairs_divided, 1);
        assert_eq!(indexed.func(redundant).literal_count(), 1);
        for id in indexed.node_ids().collect::<Vec<_>>() {
            assert_eq!(indexed.func(id), oracle.func(id), "node {id}");
        }
    }

    #[test]
    fn scoped_divisors_restrict_the_pass() {
        // Both X and Z could divide f; restricting divisors to Z means
        // only Z's substitution may happen.
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let c = nw.add_input("c").unwrap();
        let x = nw.add_node("X", sop_of(&[&[a], &[b]])).unwrap();
        let f = nw.add_node("f", sop_of(&[&[a, c], &[b, c]])).unwrap();
        nw.mark_output(f).unwrap();
        nw.mark_output(x).unwrap();
        let scope = ResubScope {
            divisors: Some(&[f]),
            seeds: None,
        };
        let report = resubstitute_scoped(&mut nw, &scope).unwrap();
        // f is the only allowed divisor and divides nothing.
        assert_eq!(report.substitutions, 0);
        let scope = ResubScope {
            divisors: Some(&[x]),
            seeds: None,
        };
        let report = resubstitute_scoped(&mut nw, &scope).unwrap();
        assert_eq!(report.substitutions, 1);
        assert!(nw.fanins(f).contains(&x));
    }

    #[test]
    fn empty_seed_set_attempts_nothing() {
        let mut nw = Network::new();
        let a = nw.add_input("a").unwrap();
        let b = nw.add_input("b").unwrap();
        let c = nw.add_input("c").unwrap();
        let _x = nw.add_node("X", sop_of(&[&[a], &[b]])).unwrap();
        let f = nw.add_node("f", sop_of(&[&[a, c], &[b, c]])).unwrap();
        nw.mark_output(f).unwrap();
        let before = nw.clone();
        let scope = ResubScope {
            divisors: None,
            seeds: Some(&[]),
        };
        let report = resubstitute_scoped(&mut nw, &scope).unwrap();
        assert_eq!(report.substitutions, 0);
        assert_eq!(report.pairs_considered, 0);
        for id in before.node_ids().collect::<Vec<_>>() {
            assert_eq!(nw.func(id), before.func(id));
        }
    }
}
