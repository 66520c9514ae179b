//! A realistic tool workflow on a *real* circuit: build an 8-bit carry
//! chain, collapse part of it into flat carry-lookahead logic (SIS's
//! collapse step), re-factor it with the L-shaped parallel algorithm,
//! verify, and write the result as BLIF (the format SIS itself reads).
//!
//! ```text
//! cargo run --release --example blif_workflow
//! ```

use parafactor::core::{lshaped_extract, ExtractConfig, LShapedConfig};
use parafactor::kcmatrix::SearchConfig;
use parafactor::network::blif::{read_blif, write_blif};
use parafactor::network::sim::{equivalent_random, EquivConfig};
use parafactor::network::stats;
use parafactor::network::transform::{eliminate_node, sweep};
use parafactor::workloads::carry_chain;

fn main() {
    let nw = carry_chain(8);
    let s0 = stats::stats(&nw).unwrap();
    println!(
        "8-bit carry chain: {} literals, {} nodes, depth {}",
        s0.lits_sop, s0.live_nodes, s0.depth
    );

    // A structured carry chain is already factored — nothing to extract.
    // Flatten the first few stages into carry-lookahead SOPs (SIS's
    // collapse step), then let the factorizer rediscover the sharing:
    // the classic collapse-then-refactor flow.
    let mut opt = nw.clone();
    for i in (1..=4u32).rev() {
        if let Some(c) = opt.find(&format!("c{i}")) {
            let _ = eliminate_node(&mut opt, c);
        }
    }
    let _ = sweep(&mut opt);
    println!(
        "after collapsing carries c1..c4: {} literals, depth {}",
        opt.literal_count(),
        stats::depth(&opt).unwrap()
    );

    // Collapsed functions are dense; cap the exact-search budget. A pass
    // the cap truncates answers with the greedy sweep over the rows' own
    // column sets, which finds the good rectangles on dense matrices.
    let report = lshaped_extract(
        &mut opt,
        &LShapedConfig {
            procs: 4,
            extract: ExtractConfig {
                search: SearchConfig {
                    budget: 20_000,
                    ..SearchConfig::default()
                },
                ..ExtractConfig::default()
            },
            ..LShapedConfig::default()
        },
    );
    let s1 = stats::stats(&opt).unwrap();
    println!(
        "after Algorithm L (4 procs): {} literals ({} extractions, {:?}, {} shipped)",
        s1.lits_sop, report.extractions, report.elapsed, report.shipped_rectangles
    );
    println!("factored literal count: {} -> {}", s0.lits_fac, s1.lits_fac);

    let ok = equivalent_random(&nw, &opt, &EquivConfig::default()).unwrap();
    println!("equivalence: {}", if ok { "PASS" } else { "FAIL" });
    assert!(ok);

    // Round-trip through BLIF, as a hand-off to SIS-compatible tools.
    let blif = write_blif(&opt, "carry8_opt");
    let back = read_blif(&blif).unwrap();
    let ok = equivalent_random(&nw, &back, &EquivConfig::default()).unwrap();
    println!(
        "BLIF round-trip: {} ({} bytes)",
        if ok { "PASS" } else { "FAIL" },
        blif.len()
    );
    assert!(ok);

    println!("\nfirst lines of the BLIF output:");
    for line in blif.lines().take(8) {
        println!("  {line}");
    }
}
