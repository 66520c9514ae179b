//! Property tests for the KC matrix and rectangle search: matrix
//! entries really cover network cubes, the search equals the exhaustive
//! reference (and a truncated one the greedy reference), and the state
//! machine obeys Table 5 under arbitrary operation sequences.

use pf_kcmatrix::{
    reference, CeilingUpdate, CubeId, CubeRegistry, CubeState, CubeStates, KcMatrix, LabelGen,
    Rectangle, RowSet, SearchConfig, SearchPool, SearchStats, TilePanels,
};
use pf_sop::kernel::KernelConfig;
use pf_sop::{Cube, Lit, Sop};
use proptest::prelude::*;

fn arb_sop(nvars: u32, max_len: usize, max_cubes: usize) -> impl Strategy<Value = Sop> {
    prop::collection::vec(
        prop::collection::btree_set(0..nvars, 1..=max_len),
        1..=max_cubes,
    )
    .prop_map(|cubes| {
        Sop::from_cubes(
            cubes
                .into_iter()
                .map(|vs| Cube::from_lits(vs.into_iter().map(Lit::pos))),
        )
    })
}

fn build_matrix(funcs: &[Sop]) -> (KcMatrix, Vec<u32>) {
    let reg = CubeRegistry::new();
    let mut m = KcMatrix::new();
    let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
    let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
    for (i, f) in funcs.iter().enumerate() {
        m.add_node_kernels(
            i as u32,
            f,
            &KernelConfig::default(),
            &reg,
            &mut rl,
            &mut cl,
        );
    }
    let w = reg.weights_snapshot();
    (m, w)
}

/// One pass through `pool` under the area model over `value_of`.
fn find_on(
    pool: &mut SearchPool,
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
    update: CeilingUpdate<'_>,
) -> (Vec<Rectangle>, SearchStats) {
    pool.find(m, value_of, cfg, None, update)
}

/// One cold search: the canonical top `cfg.topk`.
fn find(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
) -> Vec<Rectangle> {
    find_on(&mut SearchPool::new(), m, value_of, cfg, CeilingUpdate::Off).0
}

/// The head of one cold search.
fn best(
    m: &KcMatrix,
    value_of: &(dyn Fn(CubeId) -> u32 + Sync),
    cfg: &SearchConfig,
) -> Option<Rectangle> {
    find(m, value_of, cfg).into_iter().next()
}

proptest! {
    // Enough cases to reach the rare matrices where a canonical tie
    // decides the answer (a search that skips exact ties first differs
    // from the oracle past case 160).
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The search is the exhaustive canonical top-K: for every K,
    /// worker count and tile width it returns exactly the head of the
    /// unpruned reference enumeration, for min_cols ∈ {1, 2}.
    #[test]
    fn find_equals_reference_top_k(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        min_cols in 1usize..3,
    ) {
        let (m, w) = build_matrix(&funcs);
        let value_of = |id: CubeId| w[id as usize];
        for workers in [1usize, 2, 4] {
            let mut pool = SearchPool::new();
            for topk in [1usize, 4, 16] {
                let cfg = SearchConfig {
                    min_cols,
                    topk,
                    par_threads: workers,
                    ..SearchConfig::default()
                };
                let expect = reference::top_k(&m, &value_of, &cfg);
                for tile_width in [1usize, 4] {
                    let cfg = SearchConfig { tile_width, ..cfg.clone() };
                    let (got, stats) = find_on(&mut pool, &m, &value_of, &cfg, CeilingUpdate::Off);
                    prop_assert!(!stats.budget_exhausted);
                    prop_assert_eq!(
                        &got, &expect,
                        "k={} workers={} width={}", topk, workers, tile_width
                    );
                }
            }
        }
    }

    /// A pass the budget truncates answers with the greedy fallback, and
    /// a pass it does not with the exact search: for every budget, K,
    /// worker count and tile width the result is the greedy reference
    /// when `budget_exhausted` is set and the exhaustive one otherwise.
    /// Both are fixed lists, so every run that truncates returns the
    /// same list, as does every run that completes. Whether a pass
    /// truncates is itself fixed for one worker; with several it
    /// depends on when the shared bound arrives.
    #[test]
    fn truncated_find_equals_reference_greedy_top_k(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        min_cols in 1usize..3,
    ) {
        let (m, w) = build_matrix(&funcs);
        let value_of = |id: CubeId| w[id as usize];
        for budget in [1u64, 3, 10] {
            for topk in [1usize, 4, 16] {
                let base = SearchConfig {
                    budget,
                    min_cols,
                    topk,
                    ..SearchConfig::default()
                };
                let greedy = reference::greedy_top_k(&m, &value_of, &base);
                let exact = reference::top_k(&m, &value_of, &base);
                let mut solo_truncated = None;
                for workers in [1usize, 2, 4] {
                    let mut pool = SearchPool::new();
                    for tile_width in [1usize, 4] {
                        let cfg = SearchConfig { par_threads: workers, tile_width, ..base.clone() };
                        let (got, stats) =
                            find_on(&mut pool, &m, &value_of, &cfg, CeilingUpdate::Off);
                        let expect = if stats.budget_exhausted { &greedy } else { &exact };
                        prop_assert_eq!(
                            &got, expect,
                            "budget={} k={} workers={} width={} truncated={}",
                            budget, topk, workers, tile_width, stats.budget_exhausted
                        );
                        if workers == 1 {
                            let first = *solo_truncated.get_or_insert(stats.budget_exhausted);
                            prop_assert_eq!(first, stats.budget_exhausted, "width={}", tile_width);
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every matrix entry covers an actual cube of its node's function,
    /// and the entry weight is that cube's literal count.
    #[test]
    fn entries_cover_real_cubes(funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4)) {
        let (m, w) = build_matrix(&funcs);
        for row in m.rows() {
            for &(c, id) in &row.entries {
                let covered = row.cokernel.product(&m.cols()[c].cube).unwrap();
                prop_assert!(funcs[row.node as usize].contains_cube(&covered));
                prop_assert_eq!(w[id as usize], covered.len() as u32);
            }
        }
    }

    /// The returned rectangle's value is consistent with a direct
    /// recomputation, and applying it can never lose literals.
    #[test]
    fn best_rectangle_value_is_exact(funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4)) {
        let (m, w) = build_matrix(&funcs);
        let Some(rect) = best(&m, &|id| w[id as usize], &SearchConfig::default()) else {
            return Ok(());
        };
        prop_assert!(rect.value > 0);
        // Recompute: Σ distinct covered − row costs − col costs.
        let mut seen = std::collections::HashSet::new();
        let mut total: i64 = -rect.cols.iter()
            .map(|&c| m.cols()[c].cube.len() as i64).sum::<i64>();
        for &r in &rect.rows {
            let row = &m.rows()[r];
            total -= row.cokernel.len() as i64 + 1;
            for &c in &rect.cols {
                let id = row.entry(c).unwrap();
                if seen.insert(id) {
                    total += w[id as usize] as i64;
                }
            }
        }
        prop_assert_eq!(total, rect.value);
    }

    /// Zeroing cube values can only lower the best rectangle's value.
    #[test]
    fn covering_is_monotone(
        funcs in prop::collection::vec(arb_sop(8, 3, 7), 1..4),
        mask in prop::collection::vec(any::<bool>(), 64),
    ) {
        let (m, w) = build_matrix(&funcs);
        let full = best(&m, &|id| w[id as usize], &SearchConfig::default())
            .map_or(0, |r| r.value);
        let masked = best(&m, &|id| {
            if mask.get(id as usize).copied().unwrap_or(false) { 0 } else { w[id as usize] }
        }, &SearchConfig::default()).map_or(0, |r| r.value);
        prop_assert!(masked <= full);
    }

    /// The Table 5 state machine: arbitrary claim/release/divide
    /// sequences keep every cube in a legal state and DIVIDED absorbing.
    #[test]
    fn state_machine_is_sound(ops in prop::collection::vec((0u32..8, 0u16..4, 0u8..3), 0..200)) {
        let st = CubeStates::with_len(8);
        let mut divided = [false; 8];
        for (id, proc, op) in ops {
            match op {
                0 => { st.claim(id, proc); }
                1 => { st.release(id, proc); }
                _ => { st.mark_divided(id); divided[id as usize] = true; }
            }
            if divided[id as usize] {
                prop_assert_eq!(st.state(id), CubeState::Divided);
            }
            match st.state(id) {
                CubeState::Free => {
                    prop_assert_eq!(st.value_for(id, 7, 0), 7);
                }
                CubeState::Covered(owner) => {
                    prop_assert_eq!(st.value_for(id, 7, owner), 7);
                    prop_assert_eq!(st.value_for(id, 7, owner + 1), 0);
                }
                CubeState::Divided => {
                    prop_assert_eq!(st.value_for(id, 7, proc), 0);
                }
            }
        }
    }

    /// The resident panel survives matrix mutation through the
    /// dirty-column sync: after tombstoning the winner's rows, a warm
    /// pass told only those rows' columns are dirty re-encodes them in
    /// place and matches a cold search on the new matrix exactly.
    #[test]
    fn tiled_pool_dirty_sync_matches_scalar(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 2..4),
        tile_width in 1usize..6,
        threads in 1usize..4,
    ) {
        let (mut m, w) = build_matrix(&funcs);
        let value_of = |id: CubeId| w[id as usize];
        let cfg = SearchConfig {
            par_threads: threads,
            tile_width,
            ..SearchConfig::default()
        };
        let mut pool = SearchPool::new();
        let (first, _) = find_on(&mut pool, &m, &value_of, &cfg, CeilingUpdate::Reset);
        prop_assert_eq!(pool.tile_rebuilds(), 1, "first pass builds the panel once");
        let Some(rect) = first.into_iter().next() else { return Ok(()) };
        let mut dirty: Vec<pf_kcmatrix::ColIdx> = rect
            .rows
            .iter()
            .flat_map(|&r| m.rows()[r].entries.iter().map(|&(c, _)| c))
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        for &r in &rect.rows {
            m.tombstone_row(r);
        }
        let fresh = find(&m, &value_of, &cfg);
        let (warm, _) = find_on(&mut pool, &m, &value_of, &cfg, CeilingUpdate::Dirty(&dirty));
        prop_assert_eq!(&warm, &fresh, "width={} threads={}", tile_width, threads);
        prop_assert_eq!(pool.tile_rebuilds(), 1, "dirty pass syncs in place");
    }

    /// RowSet is exact on the trailing partial word: for universes that
    /// are not multiples of 64, construction, intersection (both the
    /// in-place and three-address forms), iteration, and `len` all agree
    /// with the reference BTreeSet semantics, and no stray bits survive
    /// past the universe.
    #[test]
    fn rowset_trailing_word_is_exact(
        universe in 1usize..200,
        xs in prop::collection::vec(0usize..4096, 0..48),
        ys in prop::collection::vec(0usize..4096, 0..48),
    ) {
        use std::collections::BTreeSet;
        let xs: BTreeSet<usize> = xs.iter().map(|i| i % universe).collect();
        let ys: BTreeSet<usize> = ys.iter().map(|i| i % universe).collect();
        let sa = RowSet::from_indices(xs.iter().copied(), universe);
        let sb = RowSet::from_indices(ys.iter().copied(), universe);
        prop_assert_eq!(sa.iter().collect::<Vec<_>>(), xs.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(sa.len(), xs.len());
        for probe in universe.saturating_sub(3)..universe {
            prop_assert_eq!(sa.contains(probe), xs.contains(&probe));
        }
        let expect: Vec<usize> = xs.intersection(&ys).copied().collect();
        let mut inplace = sa.clone();
        inplace.and_with(&sb);
        prop_assert_eq!(inplace.iter().collect::<Vec<_>>(), expect.clone());
        prop_assert_eq!(inplace.len(), expect.len());
        let mut out = RowSet::zeroed(universe);
        out.assign_and(&sa, &sb);
        prop_assert_eq!(out.iter().collect::<Vec<_>>(), expect.clone());
        // Words are canonical: rebuilding from the iterator reproduces
        // them bit for bit, i.e. nothing leaked into the slack bits of
        // the final word.
        let rebuilt = RowSet::from_indices(expect.iter().copied(), universe);
        prop_assert_eq!(out.as_words(), rebuilt.as_words());
    }

    /// Tile panels stay a faithful mirror of the matrix across
    /// tombstone/append sequences when synced through the dirty-column
    /// contract: tombstoned rows' columns plus appended rows' columns.
    #[test]
    fn tile_panels_survive_mutation(
        funcs in prop::collection::vec(arb_sop(8, 3, 7), 2..4),
        extra in arb_sop(8, 3, 6),
        width in 1usize..6,
        kills in prop::collection::vec(0usize..4096, 1..6),
    ) {
        let reg = CubeRegistry::new();
        let mut m = KcMatrix::new();
        let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        for (i, f) in funcs.iter().enumerate() {
            m.add_node_kernels(i as u32, f, &KernelConfig::default(), &reg, &mut rl, &mut cl);
        }
        if m.rows().is_empty() {
            return Ok(());
        }
        let mut panel = TilePanels::build(m.rows().len(), m.cols(), width);
        // Round 1: tombstone some rows, sync with their columns dirty.
        let mut dirty: Vec<usize> = Vec::new();
        for k in &kills {
            let r = k % m.rows().len();
            if !m.rows()[r].alive {
                continue;
            }
            dirty.extend(m.rows()[r].entries.iter().map(|&(c, _)| c));
            m.tombstone_row(r);
        }
        dirty.sort_unstable();
        dirty.dedup();
        let rebuilt = panel.sync(m.rows().len(), m.cols(), width, &dirty);
        prop_assert!(!rebuilt, "tombstones never force a rebuild");
        for (c, set) in m.col_row_sets().iter().enumerate() {
            prop_assert_eq!(panel.col_words(c), set.as_words(), "col {} after tombstones", c);
        }
        // Round 2: append a node, sync with the new rows' columns dirty.
        let before = m.rows().len();
        m.add_node_kernels(
            funcs.len() as u32, &extra, &KernelConfig::default(), &reg, &mut rl, &mut cl,
        );
        let mut dirty: Vec<usize> = m.rows()[before..]
            .iter()
            .flat_map(|row| row.entries.iter().map(|&(c, _)| c))
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        panel.sync(m.rows().len(), m.cols(), width, &dirty);
        for (c, set) in m.col_row_sets().iter().enumerate() {
            prop_assert_eq!(panel.col_words(c), set.as_words(), "col {} after append", c);
        }
    }

    /// The search returns the same `Rectangle` no matter the worker
    /// count, and its value matches the reference branch and bound's.
    #[test]
    fn parallel_search_is_thread_count_independent(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        min_cols in 1usize..3,
    ) {
        let (m, w) = build_matrix(&funcs);
        let value_of = |id: CubeId| w[id as usize];
        let base = SearchConfig { min_cols, ..SearchConfig::default() };
        let (oracle, _) = reference::best_rectangle(&m, &value_of, &base);
        let one = best(&m, &value_of, &SearchConfig { par_threads: 1, ..base.clone() });
        let four = best(&m, &value_of, &SearchConfig { par_threads: 4, ..base });
        prop_assert_eq!(&one, &four, "1 vs 4 threads must agree exactly");
        prop_assert_eq!(
            one.as_ref().map(|r| r.value),
            oracle.map(|r| r.value),
            "the value must match the reference optimum"
        );
    }

    /// A warm pool is stateless across passes unless ceilings say
    /// otherwise: repeated identical passes through one pool return the
    /// same rectangle, both with ceilings off and with the
    /// `Reset` → `Dirty(&[])` cross-pass protocol (no mutation, nothing
    /// dirty, so ceilings may only prune work — never change the result).
    #[test]
    fn warm_pool_repeats_are_identical(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        threads in 1usize..5,
    ) {
        let (m, w) = build_matrix(&funcs);
        let value_of = |id: CubeId| w[id as usize];
        let cfg = SearchConfig { par_threads: threads, ..SearchConfig::default() };
        let mut pool = SearchPool::new();
        let (first, _) = find_on(&mut pool, &m, &value_of, &cfg, CeilingUpdate::Off);
        // Pass widths are clamped to the available tasks, so the first
        // pass may spawn fewer than `threads - 1` background workers —
        // but identical repeats must never spawn another thread.
        let spawned_cold = pool.spawned_threads();
        prop_assert!(spawned_cold <= threads.saturating_sub(1) as u64);
        for _ in 0..2 {
            let (again, _) = find_on(&mut pool, &m, &value_of, &cfg, CeilingUpdate::Off);
            prop_assert_eq!(&again, &first);
        }
        let (reset, _) = find_on(&mut pool, &m, &value_of, &cfg, CeilingUpdate::Reset);
        prop_assert_eq!(&reset, &first);
        for _ in 0..2 {
            let (ceiled, _) = find_on(&mut pool, &m, &value_of, &cfg, CeilingUpdate::Dirty(&[]));
            prop_assert_eq!(&ceiled, &first);
        }
        prop_assert_eq!(pool.spawned_threads(), spawned_cold, "warm repeats spawned threads");
    }

    /// Ceiling invalidation is sound across matrix mutation: after
    /// tombstoning the best rectangle's rows (the cover loop's mutation
    /// shape), a pass told only those rows' columns are dirty finds
    /// exactly what a cold search finds on the new matrix.
    #[test]
    fn dirty_column_ceilings_survive_mutation(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 2..4),
        threads in 1usize..4,
    ) {
        let (mut m, w) = build_matrix(&funcs);
        let value_of = |id: CubeId| w[id as usize];
        let cfg = SearchConfig { par_threads: threads, ..SearchConfig::default() };
        let mut pool = SearchPool::new();
        let (first, _) = find_on(&mut pool, &m, &value_of, &cfg, CeilingUpdate::Reset);
        let Some(rect) = first.into_iter().next() else { return Ok(()) };
        // Tombstone the winning rows; their columns are exactly the
        // dirty set (no rows were appended).
        let mut dirty: Vec<pf_kcmatrix::ColIdx> = rect
            .rows
            .iter()
            .flat_map(|&r| m.rows()[r].entries.iter().map(|&(c, _)| c))
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        for &r in &rect.rows {
            m.tombstone_row(r);
        }
        let fresh = find(&m, &value_of, &cfg);
        let (ceiled, _) = find_on(&mut pool, &m, &value_of, &cfg, CeilingUpdate::Dirty(&dirty));
        prop_assert_eq!(&ceiled, &fresh, "threads={}", threads);
    }

    /// Ceilings stay sound when cube values only fall between passes
    /// (Algorithm L's claims and divides): on an unchanged matrix, a pass
    /// that keeps the previous pass's ceilings (`Dirty(&[])`) after any
    /// subset of values was lowered returns exactly what a `Reset` pass
    /// returns under the lowered values.
    #[test]
    fn ceilings_survive_falling_values(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        cuts in prop::collection::vec(0u32..6, 0..48),
        topk in 1usize..6,
        threads in 1usize..3,
    ) {
        let (m, w) = build_matrix(&funcs);
        let cfg = SearchConfig { topk, par_threads: threads, ..SearchConfig::default() };
        let high = |id: CubeId| w[id as usize];
        let low: Vec<u32> = w
            .iter()
            .enumerate()
            .map(|(id, &v)| v.saturating_sub(cuts.get(id).copied().unwrap_or(0)))
            .collect();
        let low_of = |id: CubeId| low[id as usize];
        let mut pool = SearchPool::new();
        find_on(&mut pool, &m, &high, &cfg, CeilingUpdate::Reset);
        let (ceiled, _) = find_on(&mut pool, &m, &low_of, &cfg, CeilingUpdate::Dirty(&[]));
        let (reset, _) = find_on(&mut pool, &m, &low_of, &cfg, CeilingUpdate::Reset);
        prop_assert_eq!(&ceiled, &reset);
    }

    /// The search at topk = 1 is the head of the search at any larger K:
    /// same rectangle, byte for byte, for any thread count.
    #[test]
    fn topk1_plural_search_is_the_singular_search(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        threads in 0usize..3,
    ) {
        let (m, w) = build_matrix(&funcs);
        let value_of = |id: CubeId| w[id as usize];
        let cfg = SearchConfig {
            par_threads: threads,
            topk: 1,
            ..SearchConfig::default()
        };
        let single = find(&m, &value_of, &cfg);
        let plural = find(&m, &value_of, &SearchConfig { topk: 4, ..cfg });
        prop_assert_eq!(single.first(), plural.first());
        prop_assert!(single.len() <= 1);
    }

    /// The node → live-rows index is the full row scan it replaced:
    /// across random add / tombstone / remove-node sequences
    /// `node_rows` lists exactly the alive rows of each node, ascending,
    /// `remove_rows_of_nodes` tombstones exactly those and nothing else, and
    /// a tile panel encoded from the sparse column row lists equals the
    /// dense `col_row_sets()` mirror word for word.
    #[test]
    fn node_index_and_sparse_panels_match_full_scans(
        funcs in prop::collection::vec(arb_sop(8, 3, 7), 2..5),
        ops in prop::collection::vec((0u8..3, 0usize..4096), 1..12),
        width in 1usize..6,
    ) {
        let reg = CubeRegistry::new();
        let mut m = KcMatrix::new();
        let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
        let kc = KernelConfig::default();
        for (i, f) in funcs.iter().enumerate() {
            m.add_node_kernels(i as u32, f, &kc, &reg, &mut rl, &mut cl);
        }
        let scan = |m: &KcMatrix, node: u32| -> Vec<usize> {
            (0..m.rows().len())
                .filter(|&i| m.rows()[i].alive && m.rows()[i].node == node)
                .collect()
        };
        for (kind, k) in ops {
            let node = (k % funcs.len()) as u32;
            match kind {
                0 if !m.rows().is_empty() => m.tombstone_row(k % m.rows().len()),
                1 => {
                    let doomed = scan(&m, node);
                    let alive_before: Vec<bool> = m.rows().iter().map(|r| r.alive).collect();
                    m.remove_rows_of_nodes(&[node], &mut Vec::new());
                    for (i, row) in m.rows().iter().enumerate() {
                        let expect = alive_before[i] && !doomed.contains(&i);
                        prop_assert_eq!(row.alive, expect, "row {} after removing node {}", i, node);
                    }
                }
                _ => {
                    m.add_node_kernels(node, &funcs[node as usize], &kc, &reg, &mut rl, &mut cl);
                }
            }
            for n in 0..funcs.len() as u32 {
                prop_assert_eq!(m.node_rows(n), scan(&m, n).as_slice(), "node {}", n);
            }
            let alive = m.rows().iter().filter(|r| r.alive).count();
            prop_assert_eq!(m.num_alive_rows(), alive);
        }
        let panel = TilePanels::build(m.rows().len(), m.cols(), width);
        for (c, set) in m.col_row_sets().iter().enumerate() {
            prop_assert_eq!(panel.col_words(c), set.as_words(), "col {}", c);
        }
    }

    /// Row compaction renumbers the surviving rows in order and changes
    /// nothing else: the top-K search over the compacted matrix returns
    /// the same rectangles (values, columns, and rows through the
    /// order-preserving renumbering) in the same order, classic and
    /// batched, at every tile width.
    #[test]
    fn compaction_preserves_search_results(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 2..4),
        kills in prop::collection::vec(0usize..4096, 1..8),
        topk in 1usize..6,
        tile_width in 0usize..5,
    ) {
        let (mut m, w) = build_matrix(&funcs);
        if m.rows().is_empty() {
            return Ok(());
        }
        for k in kills {
            m.tombstone_row(k % m.rows().len());
        }
        let value_of = |id: CubeId| w[id as usize];
        let cfg = SearchConfig { topk, tile_width, ..SearchConfig::default() };
        let before = find(&m, &value_of, &cfg);
        // Old index → new index of every surviving row.
        let mut renumber = vec![usize::MAX; m.rows().len()];
        let mut next = 0;
        for (i, row) in m.rows().iter().enumerate() {
            if row.alive {
                renumber[i] = next;
                next += 1;
            }
        }
        let labels: Vec<u64> = m.rows().iter().filter(|r| r.alive).map(|r| r.label).collect();
        m.compact_rows();
        prop_assert_eq!(m.rows().len(), m.num_alive_rows());
        prop_assert_eq!(m.rows().iter().map(|r| r.label).collect::<Vec<_>>(), labels);
        for (ci, col) in m.cols().iter().enumerate() {
            prop_assert!(col.rows.windows(2).all(|p| p[0] < p[1]));
            for &r in &col.rows {
                prop_assert!(m.rows()[r].entry(ci).is_some());
            }
        }
        let after = find(&m, &value_of, &cfg);
        let expect: Vec<_> = before
            .into_iter()
            .map(|mut r| {
                r.rows.iter_mut().for_each(|i| *i = renumber[*i]);
                r
            })
            .collect();
        prop_assert_eq!(after, expect);
    }

    /// Tombstoning a node's rows leaves the matrix consistent.
    #[test]
    fn remove_rows_keeps_consistency(funcs in prop::collection::vec(arb_sop(8, 3, 7), 2..4)) {
        let (mut m, _) = build_matrix(&funcs);
        m.remove_rows_of_nodes(&[0], &mut Vec::new());
        for col in m.cols() {
            for &r in &col.rows {
                prop_assert!(m.rows()[r].alive);
                prop_assert_ne!(m.rows()[r].node, 0);
            }
        }
        for row in m.rows().iter().filter(|r| r.alive) {
            prop_assert_ne!(row.node, 0);
        }
    }
}
