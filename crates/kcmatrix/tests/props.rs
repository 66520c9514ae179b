//! Property tests for the KC matrix and rectangle search: matrix
//! entries really cover network cubes, the exact search dominates the
//! greedy one, stripes partition the space, and the state machine obeys
//! Table 5 under arbitrary operation sequences.

use pf_kcmatrix::{
    best_rectangle, best_rectangle_pooled, best_rectangles_seeded, conflicts, reference,
    select_nonconflicting, CeilingUpdate, CubeRegistry, CubeState, CubeStates, KcMatrix, LabelGen,
    RowSet, SearchConfig, SearchPool, TilePanels,
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
        let (best, _) = best_rectangle(&m, &|id| w[id as usize], &SearchConfig::default());
        let Some(rect) = best else { return Ok(()) };
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

    /// The union of striped searches finds the global optimum value.
    #[test]
    fn stripes_cover_the_space(
        funcs in prop::collection::vec(arb_sop(8, 3, 7), 1..4),
        nprocs in 2u32..5,
    ) {
        let (m, w) = build_matrix(&funcs);
        let global = best_rectangle(&m, &|id| w[id as usize], &SearchConfig::default())
            .0
            .map_or(0, |r| r.value);
        let mut best = 0i64;
        for p in 0..nprocs {
            let cfg = SearchConfig { stripe: Some((p, nprocs)), ..SearchConfig::default() };
            if let (Some(r), _) = best_rectangle(&m, &|id| w[id as usize], &cfg) {
                best = best.max(r.value);
            }
        }
        prop_assert_eq!(best, global);
    }

    /// Zeroing cube values can only lower the best rectangle's value.
    #[test]
    fn covering_is_monotone(
        funcs in prop::collection::vec(arb_sop(8, 3, 7), 1..4),
        mask in prop::collection::vec(any::<bool>(), 64),
    ) {
        let (m, w) = build_matrix(&funcs);
        let full = best_rectangle(&m, &|id| w[id as usize], &SearchConfig::default())
            .0.map_or(0, |r| r.value);
        let masked = best_rectangle(&m, &|id| {
            if mask.get(id as usize).copied().unwrap_or(false) { 0 } else { w[id as usize] }
        }, &SearchConfig::default()).0.map_or(0, |r| r.value);
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

    /// The bitset engine is a drop-in replacement for the legacy vec
    /// search: identical rectangle, value, and stats on arbitrary
    /// matrices, with and without stripes, for min_cols ∈ {1, 2} — and
    /// the tiled kernel (any `tile_width`) is a drop-in replacement for
    /// the scalar bitset engine against the same oracle, budget
    /// truncation included.
    #[test]
    fn bitset_search_equals_vec_search(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        striped in any::<bool>(),
        proc in 0u32..4,
        nprocs in 1u32..4,
        min_cols in 1usize..3,
        tight_budget in any::<bool>(),
        budget in 1u64..40,
        tile_width in 0usize..6,
    ) {
        let (m, w) = build_matrix(&funcs);
        let cfg = SearchConfig {
            stripe: striped.then_some((proc % nprocs, nprocs)),
            min_cols,
            budget: if tight_budget { budget } else { SearchConfig::default().budget },
            tile_width,
            ..SearchConfig::classic()
        };
        let value_of = |id: pf_kcmatrix::CubeId| w[id as usize];
        let (bit, bit_stats) = best_rectangle(&m, &value_of, &cfg);
        let (vec, vec_stats) = reference::best_rectangle(&m, &value_of, &cfg);
        prop_assert_eq!(bit, vec);
        prop_assert_eq!(bit_stats.visited, vec_stats.visited);
        prop_assert_eq!(bit_stats.budget_exhausted, vec_stats.budget_exhausted);
    }

    /// The tiled kernel is byte-identical to the scalar engine for any
    /// tile width × thread count × topk: same rectangles in the same
    /// order, and (sequentially, where the schedule is deterministic)
    /// the same enumeration statistics.
    #[test]
    fn tiled_search_is_byte_identical_to_scalar(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        tile_width in 1usize..9,
        topk in 1usize..5,
        threads in 0usize..3,
        min_cols in 1usize..3,
    ) {
        let (m, w) = build_matrix(&funcs);
        let value_of = |id: pf_kcmatrix::CubeId| w[id as usize];
        let scalar_cfg = SearchConfig {
            min_cols,
            topk,
            par_threads: threads,
            ..SearchConfig::default()
        };
        let tiled_cfg = SearchConfig { tile_width, ..scalar_cfg.clone() };
        let (scalar, scalar_stats) = best_rectangles_seeded(&m, &value_of, &scalar_cfg, None);
        let (tiled, tiled_stats) = best_rectangles_seeded(&m, &value_of, &tiled_cfg, None);
        prop_assert_eq!(&tiled, &scalar, "width={} topk={} threads={}", tile_width, topk, threads);
        if threads == 0 {
            prop_assert_eq!(tiled_stats.visited, scalar_stats.visited);
            prop_assert_eq!(tiled_stats.pruned, scalar_stats.pruned);
            prop_assert_eq!(tiled_stats.budget_exhausted, scalar_stats.budget_exhausted);
        }
    }

    /// The pooled tiled kernel survives matrix mutation through the
    /// dirty-column panel sync: after tombstoning the winner's rows, a
    /// warm tiled pass told only those rows' columns are dirty matches
    /// a fresh scalar search on the new matrix exactly.
    #[test]
    fn tiled_pool_dirty_sync_matches_scalar(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 2..4),
        tile_width in 1usize..6,
        threads in 1usize..4,
    ) {
        let (mut m, w) = build_matrix(&funcs);
        let value_of = |id: pf_kcmatrix::CubeId| w[id as usize];
        let cfg = SearchConfig {
            par_threads: threads,
            tile_width,
            ..SearchConfig::default()
        };
        let mut pool = SearchPool::new();
        let (first, _) =
            best_rectangle_pooled(&m, &value_of, &cfg, None, &mut pool, CeilingUpdate::Reset);
        prop_assert_eq!(pool.tile_rebuilds(), 1, "first pass builds the panel once");
        let Some(rect) = first else { return Ok(()) };
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
        let scalar_cfg = SearchConfig { tile_width: 0, ..cfg.clone() };
        let (fresh, _) = best_rectangle(&m, &value_of, &scalar_cfg);
        let (warm, _) = best_rectangle_pooled(
            &m, &value_of, &cfg, None, &mut pool, CeilingUpdate::Dirty(&dirty),
        );
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

    /// The parallel engine returns the same `Rectangle` no matter the
    /// thread count, and its value matches the sequential optimum.
    #[test]
    fn parallel_search_is_thread_count_independent(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        min_cols in 1usize..3,
    ) {
        let (m, w) = build_matrix(&funcs);
        let value_of = |id: pf_kcmatrix::CubeId| w[id as usize];
        let base = SearchConfig { min_cols, ..SearchConfig::default() };
        let (seq, _) = best_rectangle(&m, &value_of, &base);
        let (one, _) = best_rectangle(
            &m,
            &value_of,
            &SearchConfig { par_threads: 1, ..base.clone() },
        );
        let (four, _) = best_rectangle(
            &m,
            &value_of,
            &SearchConfig { par_threads: 4, ..base },
        );
        prop_assert_eq!(&one, &four, "1 vs 4 threads must agree exactly");
        prop_assert_eq!(
            one.as_ref().map(|r| r.value),
            seq.map(|r| r.value),
            "parallel value must match the sequential optimum"
        );
    }

    /// The pooled engine is a drop-in replacement for the spawn-per-pass
    /// parallel engine: identical `Rectangle` for every thread count, and
    /// identical enumeration (visited / budget flag) at one thread, where
    /// the pooled pass runs the very same worker loop inline.
    #[test]
    fn pooled_search_equals_spawn_search(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        min_cols in 1usize..3,
    ) {
        let (m, w) = build_matrix(&funcs);
        let value_of = |id: pf_kcmatrix::CubeId| w[id as usize];
        let (classic, _) = best_rectangle(
            &m,
            &value_of,
            &SearchConfig { min_cols, ..SearchConfig::default() },
        );
        for threads in [1usize, 2, 4] {
            let cfg = SearchConfig {
                par_threads: threads,
                min_cols,
                ..SearchConfig::default()
            };
            let (spawn, spawn_stats) = best_rectangle(&m, &value_of, &cfg);
            let mut pool = SearchPool::new();
            let (pooled, pooled_stats) =
                best_rectangle_pooled(&m, &value_of, &cfg, None, &mut pool, CeilingUpdate::Off);
            prop_assert_eq!(&pooled, &spawn, "threads={}", threads);
            prop_assert_eq!(
                pooled_stats.budget_exhausted, spawn_stats.budget_exhausted,
                "threads={}", threads
            );
            if threads == 1 {
                prop_assert_eq!(pooled_stats.visited, spawn_stats.visited);
            }
            prop_assert_eq!(
                pooled.as_ref().map(|r| r.value),
                classic.as_ref().map(|r| r.value),
                "threads={}: pooled value must match the classic optimum", threads
            );
        }
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
        let value_of = |id: pf_kcmatrix::CubeId| w[id as usize];
        let cfg = SearchConfig { par_threads: threads, ..SearchConfig::default() };
        let mut pool = SearchPool::new();
        let (first, _) =
            best_rectangle_pooled(&m, &value_of, &cfg, None, &mut pool, CeilingUpdate::Off);
        // Pass widths are clamped to the available tasks, so the first
        // pass may spawn fewer than `threads - 1` background workers —
        // but identical repeats must never spawn another thread.
        let spawned_cold = pool.spawned_threads();
        prop_assert!(spawned_cold <= threads.saturating_sub(1) as u64);
        for _ in 0..2 {
            let (again, _) =
                best_rectangle_pooled(&m, &value_of, &cfg, None, &mut pool, CeilingUpdate::Off);
            prop_assert_eq!(&again, &first);
        }
        let (reset, _) =
            best_rectangle_pooled(&m, &value_of, &cfg, None, &mut pool, CeilingUpdate::Reset);
        prop_assert_eq!(&reset, &first);
        for _ in 0..2 {
            let (ceiled, _) = best_rectangle_pooled(
                &m, &value_of, &cfg, None, &mut pool, CeilingUpdate::Dirty(&[]),
            );
            prop_assert_eq!(&ceiled, &first);
        }
        prop_assert_eq!(pool.spawned_threads(), spawned_cold, "warm repeats spawned threads");
    }

    /// Ceiling invalidation is sound across matrix mutation: after
    /// tombstoning the best rectangle's rows (the cover loop's mutation
    /// shape), a pooled pass told only those rows' columns are dirty
    /// finds exactly what a fresh spawn search finds on the new matrix.
    #[test]
    fn dirty_column_ceilings_survive_mutation(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 2..4),
        threads in 1usize..4,
    ) {
        let (mut m, w) = build_matrix(&funcs);
        let value_of = |id: pf_kcmatrix::CubeId| w[id as usize];
        let cfg = SearchConfig { par_threads: threads, ..SearchConfig::default() };
        let mut pool = SearchPool::new();
        let (first, _) =
            best_rectangle_pooled(&m, &value_of, &cfg, None, &mut pool, CeilingUpdate::Reset);
        let Some(rect) = first else { return Ok(()) };
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
        let (fresh, _) = best_rectangle(&m, &value_of, &cfg);
        let (ceiled, _) = best_rectangle_pooled(
            &m, &value_of, &cfg, None, &mut pool, CeilingUpdate::Dirty(&dirty),
        );
        prop_assert_eq!(&ceiled, &fresh, "threads={}", threads);
    }

    /// The plural search at topk = 1 is the singular search: same
    /// rectangle, byte for byte, for any stripe and thread count.
    #[test]
    fn topk1_plural_search_is_the_singular_search(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        striped in any::<bool>(),
        proc in 0u32..3,
        nprocs in 1u32..3,
        threads in 0usize..3,
    ) {
        let (m, w) = build_matrix(&funcs);
        let value_of = |id: pf_kcmatrix::CubeId| w[id as usize];
        let cfg = SearchConfig {
            stripe: striped.then_some((proc % nprocs, nprocs)),
            par_threads: threads,
            topk: 1,
            ..SearchConfig::default()
        };
        let (single, _) = best_rectangle(&m, &value_of, &cfg);
        let (plural, _) = best_rectangles_seeded(&m, &value_of, &cfg, None);
        prop_assert_eq!(plural.first(), single.as_ref());
        prop_assert!(plural.len() <= 1);
    }

    /// A batch selected from top-K candidates is genuinely conflict-free
    /// (pairwise) and maximal: every rejected candidate conflicts with
    /// at least one selected rectangle.
    #[test]
    fn selected_batch_is_conflict_free_and_maximal(
        funcs in prop::collection::vec(arb_sop(8, 4, 8), 1..4),
        topk in 2usize..12,
    ) {
        let (m, w) = build_matrix(&funcs);
        let value_of = |id: pf_kcmatrix::CubeId| w[id as usize];
        let cfg = SearchConfig { topk, ..SearchConfig::default() };
        let (cands, _) = best_rectangles_seeded(&m, &value_of, &cfg, None);
        let selected = select_nonconflicting(&m, &cands, usize::MAX);
        for (i, a) in selected.iter().enumerate() {
            for b in &selected[i + 1..] {
                prop_assert!(!conflicts(&m, a, b), "selected pair conflicts");
                prop_assert!(!conflicts(&m, b, a), "conflict must be symmetric here");
            }
        }
        for c in cands.iter().filter(|c| !selected.contains(c)) {
            prop_assert!(
                selected.iter().any(|s| conflicts(&m, s, c)),
                "rejected candidate conflicts with nothing — selection not maximal"
            );
        }
        // The canonical best candidate is always selected first.
        if let Some(first) = cands.first() {
            prop_assert_eq!(selected.first(), Some(first));
        }
    }

    /// The node → live-rows index is the full row scan it replaced:
    /// across random add / tombstone / remove-node sequences
    /// `node_rows` lists exactly the alive rows of each node, ascending,
    /// `remove_node_rows` tombstones exactly those and nothing else, and
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
                    m.remove_node_rows(node);
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
    /// batched, scalar and tiled.
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
        let value_of = |id: pf_kcmatrix::CubeId| w[id as usize];
        let cfg = SearchConfig { topk, tile_width, ..SearchConfig::default() };
        let (before, _) = best_rectangles_seeded(&m, &value_of, &cfg, None);
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
        let (after, _) = best_rectangles_seeded(&m, &value_of, &cfg, None);
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
        m.remove_node_rows(0);
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
