//! Walk through every worked example and figure of the paper on the
//! Example 1.1 network.
//!
//! ```text
//! cargo run --release --example paper_walkthrough
//! ```
//!
//! Covers: Example 1.1 (extraction of a+b, 33 → 25 literals), the
//! kernels of G (§2), Figure 1 (the leftmost-column decomposition of the
//! rectangle search), Figure 2 (the partitioned co-kernel cube matrix),
//! Example 4.1 (independent partitions reach 26 literals), Example 5.1 /
//! Figure 4 (the L-shaped exchange with the paper's 100000 label
//! offsets), and the Example 5.2 consistency scenario on the shared
//! cube-state table.

use parafactor::core::{extract_kernels, ExtractConfig};
use parafactor::kcmatrix::{
    canonical_top_k, reference, CeilingUpdate, CubeRegistry, CubeStates, KcMatrix, LabelGen,
    SearchConfig, SearchPool,
};
use parafactor::network::example::example_1_1;
use parafactor::network::transform::extract_node;
use parafactor::sop::fx::FxHashMap;
use parafactor::sop::kernel::{kernels, KernelConfig};
use parafactor::sop::{Cube, Lit, Sop};

fn main() {
    let (nw, ids) = example_1_1();
    let name_of = |i: u32| nw.name(i).to_string();

    println!("=== Equation 1: the network N = {{F, G, H}} ===");
    print!("{}", parafactor::network::io::write_network(&nw));
    println!("literal count: {}\n", nw.literal_count());

    // --- §2: kernels (and co-kernels) of G ------------------------------
    println!("=== Kernels of G (paper §2) ===");
    for p in kernels(nw.func(ids.g)) {
        println!(
            "  co-kernel {:>6}   kernel {}",
            format!("{}", p.cokernel),
            p.kernel
        );
    }
    println!("  (paper: ce+f with co-kernels a,b;  a+b with co-kernels f,ce)\n");

    // --- Example 1.1: extract X = a + b ---------------------------------
    println!("=== Example 1.1: extracting X = a + b ===");
    let mut once = nw.clone();
    let x_func = Sop::from_cubes([Cube::single(Lit::pos(ids.a)), Cube::single(Lit::pos(ids.b))]);
    extract_node(&mut once, "X", x_func, &[ids.f, ids.g]).unwrap();
    println!(
        "literal count {} -> {} (paper: 33 -> 25)\n",
        nw.literal_count(),
        once.literal_count()
    );

    // --- Figure 2: the partitioned co-kernel cube matrix ----------------
    println!("=== Figure 2: KC matrices for the partition {{F}} / {{G, H}} ===");
    let reg = CubeRegistry::new();
    let kc = KernelConfig::default();
    let mut b_f = KcMatrix::new();
    let mut rl0 = LabelGen::new(0, LabelGen::PAPER_OFFSET);
    let mut cl0 = LabelGen::new(0, LabelGen::PAPER_OFFSET);
    b_f.add_node_kernels(ids.f, nw.func(ids.f), &kc, &reg, &mut rl0, &mut cl0);
    println!("block 1 (F):\n{}", b_f.render(&|i| name_of(i)));
    let mut b_gh = KcMatrix::new();
    let mut rl1 = LabelGen::new(0, LabelGen::PAPER_OFFSET);
    let mut cl1 = LabelGen::new(0, LabelGen::PAPER_OFFSET);
    b_gh.add_node_kernels(ids.g, nw.func(ids.g), &kc, &reg, &mut rl1, &mut cl1);
    b_gh.add_node_kernels(ids.h, nw.func(ids.h), &kc, &reg, &mut rl1, &mut cl1);
    println!("block 2 (G, H):\n{}", b_gh.render(&|i| name_of(i)));

    // --- Figure 1: decomposing the rectangle search by leftmost column --
    println!("=== Figure 1: search decomposition over the full matrix ===");
    let reg_full = CubeRegistry::new();
    let mut full = KcMatrix::new();
    let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
    let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
    for n in [ids.f, ids.g, ids.h] {
        full.add_node_kernels(n, nw.func(n), &kc, &reg_full, &mut rl, &mut cl);
    }
    let w = reg_full.weights_snapshot();
    let value_of = |id: u32| w[id as usize];
    // Every positive rectangle of the matrix, best first; processor `p`
    // of `nprocs` owns those whose leftmost column is `p` mod `nprocs`.
    let all = reference::top_k(
        &full,
        &value_of,
        &SearchConfig {
            topk: usize::MAX,
            ..SearchConfig::default()
        },
    );
    let nprocs = 3;
    let mut local_bests = Vec::new();
    for p in 0..nprocs {
        let mine: Vec<_> = all.iter().filter(|r| r.cols[0] % nprocs == p).collect();
        println!(
            "  processor {p}: {:>3} positive column sets, best value {}",
            mine.len(),
            mine.first().map_or(0, |r| r.value)
        );
        local_bests.extend(mine.first().map(|&r| r.clone()));
    }
    let reduced = canonical_top_k(&local_bests, 1).remove(0);
    let (sequential, _) = SearchPool::new().find(
        &full,
        &value_of,
        &SearchConfig::classic(),
        None,
        CeilingUpdate::Off,
    );
    assert_eq!(
        reduced, sequential[0],
        "the reduction is the sequential best"
    );
    println!(
        "  reduction picks value {} (kernel {}), as the sequential search does\n",
        reduced.value,
        reduced.kernel(&full)
    );

    // --- Example 4.1: independent partitions lose quality ---------------
    println!("=== Example 4.1: independent extraction on {{F}} and {{G, H}} ===");
    let mut part = nw.clone();
    extract_kernels(
        &mut part,
        &[ids.f],
        &ExtractConfig {
            name_prefix: "X".into(),
            ..Default::default()
        },
    );
    extract_kernels(
        &mut part,
        &[ids.g, ids.h],
        &ExtractConfig {
            name_prefix: "Z".into(),
            ..Default::default()
        },
    );
    let mut seq = nw.clone();
    let seq_rep = extract_kernels(&mut seq, &[], &ExtractConfig::default());
    println!(
        "  independent partitions: {} literals; full matrix: {} literals",
        part.literal_count(),
        seq.literal_count()
    );
    println!(
        "  (paper: 26 vs 22; our exact rectangle cover finds {} after {} extractions)\n",
        seq_rep.lc_after, seq_rep.extractions
    );

    // --- Example 5.1 / Figure 4: the L-shaped exchange -------------------
    println!("=== Example 5.1 / Figure 4: L-shaped exchange, paper offsets ===");
    // Processor 0 owns {G, H}, processor 1 owns {F} — the paper's split.
    let reg_l = CubeRegistry::new();
    let mut b0 = KcMatrix::new();
    let mut rl0 = LabelGen::new(0, LabelGen::PAPER_OFFSET);
    let mut cl0 = LabelGen::new(0, LabelGen::PAPER_OFFSET);
    b0.add_node_kernels(ids.g, nw.func(ids.g), &kc, &reg_l, &mut rl0, &mut cl0);
    b0.add_node_kernels(ids.h, nw.func(ids.h), &kc, &reg_l, &mut rl0, &mut cl0);
    let mut b1 = KcMatrix::new();
    let mut rl1 = LabelGen::new(1, LabelGen::PAPER_OFFSET);
    let mut cl1 = LabelGen::new(1, LabelGen::PAPER_OFFSET);
    b1.add_node_kernels(ids.f, nw.func(ids.f), &kc, &reg_l, &mut rl1, &mut cl1);

    // distribute_cube_ownership: greedy, processor 0 first.
    let mut owner: FxHashMap<Cube, u16> = FxHashMap::default();
    for col in b0.cols() {
        owner.entry(col.cube.clone()).or_insert(0);
    }
    for col in b1.cols() {
        owner.entry(col.cube.clone()).or_insert(1);
    }
    let fmt_cube = |c: &Cube| {
        c.iter()
            .map(|l| name_of(l.var().index()))
            .collect::<Vec<_>>()
            .join("")
    };
    let mut owned0: Vec<String> = owner
        .iter()
        .filter(|(_, &o)| o == 0)
        .map(|(c, _)| fmt_cube(c))
        .collect();
    let mut owned1: Vec<String> = owner
        .iter()
        .filter(|(_, &o)| o == 1)
        .map(|(c, _)| fmt_cube(c))
        .collect();
    owned0.sort();
    owned1.sort();
    println!("  local_cubes[0] = {owned0:?}   (paper: a, b, c, ce, f)");
    println!("  local_cubes[1] = {owned1:?}   (paper: de, g)");

    // B_10: processor 1's entries in processor-0-owned columns, copied
    // to processor 0 (the vertical leg of processor 0's L).
    type ShippedRow = (u64, u32, Cube, Vec<(Cube, u32)>);
    let rows1: Vec<ShippedRow> = b1
        .rows()
        .iter()
        .map(|r| {
            let entries: Vec<(Cube, u32)> = r
                .entries
                .iter()
                .filter(|&&(c, _)| owner[&b1.cols()[c].cube] == 0)
                .map(|&(c, id)| (b1.cols()[c].cube.clone(), id))
                .collect();
            (r.label, r.node, r.cokernel.clone(), entries)
        })
        .filter(|(_, _, _, e)| !e.is_empty())
        .collect();
    for (label, node, cokernel, entries) in rows1 {
        b0.add_row_with_entries(label, node, cokernel, entries, &mut cl0);
    }
    println!("\n  processor 0's L-shaped matrix after attaching B_10:");
    println!("{}", b0.render(&|i| name_of(i)));
    println!("  (compare the paper's Figure 4: F's rows appear under labels 100001+)\n");

    // --- Example 5.2: the concurrent-coverage race -----------------------
    println!("=== Example 5.2: why cubes need value / trueval / owner ===");
    let st = CubeStates::with_len(1);
    let weight = 3u32;
    println!("  cube 'af' weight {weight}: P0 and P1 both want it in their best rectangle");
    st.claim(0, 0);
    println!(
        "  P0 claims it -> P0 sees value {}, P1 sees value {}",
        st.value_for(0, weight, 0),
        st.value_for(0, weight, 1)
    );
    println!("  P1's rectangle is re-valued without the cube — no double-counted saving");
    st.mark_divided(0);
    println!(
        "  after division both see {} (state DIVIDED)",
        st.value_for(0, weight, 1)
    );
}
