//! Table 2 — parallel kernel extraction with the rectangle search
//! divided by leftmost column (Algorithm R, §3). The paper replicates
//! the circuit on every processor; here R's workers share one matrix.
//!
//! Paper columns: circuit, initial LC, then (LC, S) for 2, 4 and 6
//! processors, where S is the speedup over the single-processor run of
//! the same algorithm. spla and ex1010 did not terminate in the paper
//! (10 000 s limit / out of memory); here a configurable deadline plays
//! that role and prints `-`.

use pf_bench::{build_circuit, env_deadline, env_procs, env_scale, fmt_lc, fmt_speedup};
use pf_core::{replicated_extract, ExtractReport, ReplicatedConfig, RunCtl};
use pf_network::Network;
use pf_workloads::paper_profiles;

fn main() {
    let scale = env_scale();
    let procs = env_procs();
    let deadline = env_deadline();
    let run = |nw: &mut Network, procs: usize| -> ExtractReport {
        let mut cfg = ReplicatedConfig {
            procs,
            ..ReplicatedConfig::default()
        };
        cfg.extract.ctl = RunCtl::with_deadline(deadline);
        replicated_extract(nw, &cfg)
    };
    println!(
        "Table 2 — Algorithm R (search divided by leftmost column), scale {scale}, deadline {}s",
        deadline.as_secs()
    );
    let mut header = format!("{:>8} {:>9}", "circuit", "init LC");
    for p in &procs {
        header += &format!(" | {:>7} {:>6}", format!("LC(p{p})"), "S");
    }
    println!("{header}");
    println!("{}", "-".repeat(header.len()));

    // The paper's Table 2 rows: dalu, des, seq finish; spla and ex1010
    // hit the limit.
    let order = ["dalu", "des", "seq", "spla", "ex1010"];
    for name in order {
        let profile = paper_profiles()
            .into_iter()
            .find(|p| p.name == name)
            .expect("known circuit");
        let nw = build_circuit(&profile, scale);
        let init_lc = nw.literal_count();

        // Single-processor run of the same algorithm = the S baseline.
        let mut base_nw = nw.clone();
        let base = run(&mut base_nw, 1);

        let mut row = format!("{:>8} {:>9}", name, init_lc);
        for &p in &procs {
            if base.timed_out {
                row += &format!(" | {:>7} {:>6}", "-", "-");
                continue;
            }
            let mut run_nw = nw.clone();
            let report = run(&mut run_nw, p);
            row += &format!(
                " | {:>7} {:>6}",
                fmt_lc(&report),
                fmt_speedup(base.elapsed, &report)
            );
        }
        println!("{row}");
    }
    println!();
    println!("paper (6 procs): dalu 2139/1.97  des 6092/3.56  seq 2633/2.54  spla -  ex1010 -");
    println!("expected shape: quality identical to sequential; speedup well below linear");
}
