//! Extension bench: iterative repartitioning (ProperPART, the paper's
//! reference \[3\]) layered on Algorithm I.
//!
//! Compares, per circuit: sequential quality, one-shot Algorithm I, and
//! 3-round iterative repartitioning with resubstitution — reproducing
//! \[3\]'s finding that repartitioning recovers most of the partition
//! quality loss while staying embarrassingly parallel.

use pf_bench::{build_circuit, env_scale, sequential_baseline};
use pf_core::{independent_extract, iterative_extract, IndependentConfig, IterativeConfig};
use pf_workloads::paper_profiles;

fn main() {
    let scale = env_scale();
    let procs = 4usize;
    println!("iterative repartitioning (ProperPART [3]) vs one-shot Algorithm I");
    println!("p = {procs}, 3 rounds, scale {scale}\n");
    println!(
        "{:>8} {:>9} {:>8} {:>9} {:>10} {:>10}",
        "circuit", "init LC", "SIS LC", "I LC", "iter LC", "recovered"
    );
    for name in ["dalu", "des", "seq", "spla", "ex1010"] {
        let profile = paper_profiles()
            .into_iter()
            .find(|p| p.name == name)
            .expect("known circuit");
        let nw = build_circuit(&profile, scale);
        let init = nw.literal_count();
        let (_, base) = sequential_baseline(&nw);

        let mut one = nw.clone();
        let rep_one = independent_extract(
            &mut one,
            &IndependentConfig {
                procs,
                ..IndependentConfig::default()
            },
        );
        let mut it = nw.clone();
        let rep_it = iterative_extract(
            &mut it,
            &IterativeConfig {
                rounds: 3,
                inner: IndependentConfig {
                    procs,
                    ..IndependentConfig::default()
                },
            },
        );
        // Fraction of the one-shot quality gap closed by iterating.
        let gap = rep_one.lc_after as f64 - base.lc_after as f64;
        let closed = rep_one.lc_after as f64 - rep_it.lc_after as f64;
        let recovered = if gap > 0.0 {
            100.0 * closed / gap
        } else {
            100.0
        };
        println!(
            "{:>8} {:>9} {:>8} {:>9} {:>10} {:>9.0}%",
            name, init, base.lc_after, rep_one.lc_after, rep_it.lc_after, recovered
        );
    }
    println!();
    println!("[3]'s claim: iterative repartitioning 'significantly improves' quality");
    println!("over single-shot partitioning without interactions.");
}
