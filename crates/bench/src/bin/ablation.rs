//! Ablation study over the design choices DESIGN.md calls out:
//!
//! 1. rectangle-search budget (exact branch-and-bound → greedy fallback);
//! 2. the greedy lower-bound seed;
//! 3. kernel enumeration depth;
//! 4. Algorithm L's Table 5 consistency protocol (disabling it
//!    reproduces Example 5.2's double-counted savings);
//! 5. Algorithm L's §5.3 kernel-cost-zero division re-check.

use pf_bench::{build_circuit, env_scale};
use pf_core::{extract_kernels, lshaped_extract, ExtractConfig, LShapedConfig};
use pf_kcmatrix::SearchConfig;
use pf_sop::kernel::KernelConfig;
use pf_workloads::profile_by_name;
use std::time::Instant;

fn main() {
    let scale = env_scale();
    let profile = profile_by_name("dalu").expect("known circuit");
    let nw = build_circuit(&profile, scale);
    println!(
        "ablations on the dalu analogue (scale {scale}): {} literals\n",
        nw.literal_count()
    );

    // --- 1. budget sweep --------------------------------------------------
    println!("1. rectangle-search budget (exact → greedy fallback)");
    println!(
        "{:>12} {:>8} {:>8} {:>12} {:>10}",
        "budget", "LC", "extr", "time", "exhausted"
    );
    for budget in [100u64, 10_000, 2_000_000] {
        let mut copy = nw.clone();
        let t = Instant::now();
        let r = extract_kernels(
            &mut copy,
            &[],
            &ExtractConfig {
                search: SearchConfig {
                    budget,
                    ..SearchConfig::default()
                },
                ..ExtractConfig::default()
            },
        );
        println!(
            "{:>12} {:>8} {:>8} {:>12.3?} {:>10}",
            budget,
            r.lc_after,
            r.extractions,
            t.elapsed(),
            r.budget_exhausted
        );
    }

    // --- 2. greedy seed ---------------------------------------------------
    println!("\n2. greedy seeding of the branch and bound");
    for (name, seed) in [("with seed", true), ("without", false)] {
        let mut copy = nw.clone();
        let t = Instant::now();
        let r = extract_kernels(
            &mut copy,
            &[],
            &ExtractConfig {
                search: SearchConfig {
                    greedy_seed: seed,
                    ..SearchConfig::default()
                },
                ..ExtractConfig::default()
            },
        );
        println!(
            "  {:<10} LC {:>6}  time {:>10.3?}  (same optimum, different pruning power)",
            name,
            r.lc_after,
            t.elapsed()
        );
    }

    // --- 3. kernel depth --------------------------------------------------
    println!("\n3. kernel enumeration depth");
    for (name, depth) in [("level-1", 1usize), ("unbounded", usize::MAX)] {
        let mut copy = nw.clone();
        let t = Instant::now();
        let r = extract_kernels(
            &mut copy,
            &[],
            &ExtractConfig {
                kernel: KernelConfig {
                    max_depth: depth,
                    ..KernelConfig::default()
                },
                ..ExtractConfig::default()
            },
        );
        println!(
            "  {:<10} LC {:>6}  rows-per-pass smaller, quality may dip  time {:>10.3?}",
            name,
            r.lc_after,
            t.elapsed()
        );
    }

    // --- 4 & 5. Algorithm L protocol pieces --------------------------------
    println!("\n4/5. Algorithm L (p=4, threaded): §5.3 machinery on/off");
    println!("{:>28} {:>8} {:>8}", "variant", "LC", "shipped");
    for (name, protocol, recheck) in [
        ("full protocol", true, true),
        ("no consistency protocol", false, true),
        ("no division re-check", true, false),
        ("neither", false, false),
    ] {
        let mut copy = nw.clone();
        // The degraded variants may not converge (stale partial
        // rectangles keep re-adding covered cubes — the very pathology
        // §5.3 exists to prevent), so cap their extraction count.
        let r = lshaped_extract(
            &mut copy,
            &LShapedConfig {
                procs: 4,
                consistency_protocol: protocol,
                division_recheck: recheck,
                extract: ExtractConfig {
                    max_extractions: 100,
                    kernel: KernelConfig {
                        max_pairs: 512,
                        ..KernelConfig::default()
                    },
                    search: SearchConfig {
                        budget: 20_000,
                        ..SearchConfig::default()
                    },
                    ..ExtractConfig::default()
                },
                ..LShapedConfig::default()
            },
        );
        println!("{:>28} {:>8} {:>8}", name, r.lc_after, r.shipped_rectangles);
    }
    println!("  (expected: the full protocol gives the best LC; without the §5.3");
    println!("   re-check the run is capped at 100 extractions because it need");
    println!("   not converge at all — the failure mode the paper fixes)");
}
