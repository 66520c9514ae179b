//! End-to-end pipeline tests on generated workloads: every algorithm on
//! every (scaled-down) paper circuit, checking functional equivalence,
//! quality ordering and report consistency.

use parafactor::core::{
    extract_kernels, independent_extract, lshaped_extract, replicated_extract, ExtractConfig,
    IndependentConfig, LShapedConfig, ReplicatedConfig,
};
use parafactor::network::io::write_network;
use parafactor::network::sim::{equivalent_random, EquivConfig};
use parafactor::network::Network;
use parafactor::workloads::{generate, paper_profiles, profile_by_name, scale_profile};

const TEST_SCALE: f64 = 0.06;

fn circuits() -> Vec<(String, Network)> {
    paper_profiles()
        .into_iter()
        .map(|p| {
            let nw = generate(&scale_profile(&p, TEST_SCALE));
            (p.name, nw)
        })
        .collect()
}

#[test]
fn sequential_on_every_circuit() {
    for (name, nw) in circuits() {
        let mut opt = nw.clone();
        let r = extract_kernels(&mut opt, &[], &ExtractConfig::default());
        assert!(r.lc_after < r.lc_before, "{name}: no reduction");
        assert_eq!(
            r.lc_before as i64 - r.lc_after as i64,
            r.total_value,
            "{name}: accounting broken"
        );
        assert!(
            equivalent_random(&nw, &opt, &EquivConfig::default()).unwrap(),
            "{name}: equivalence broken"
        );
    }
}

#[test]
fn replicated_matches_sequential_everywhere() {
    // The paper's own Table 2 notes a tiny LC wobble between the
    // sequential and distributed runs "due to the different search path
    // they might have taken". Here the replicas hold the sequential
    // matrix row for row and break value ties canonically, so there is
    // no wobble.
    for (name, nw) in circuits() {
        let mut s = nw.clone();
        let rs = extract_kernels(&mut s, &[], &ExtractConfig::default());
        let mut r = nw.clone();
        let rr = replicated_extract(
            &mut r,
            &ReplicatedConfig {
                procs: 3,
                ..ReplicatedConfig::default()
            },
        );
        assert_eq!(rr.lc_after, rs.lc_after, "{name}");
        assert_eq!(rr.total_value, rs.total_value, "{name}");
        assert!(
            equivalent_random(&nw, &r, &EquivConfig::default()).unwrap(),
            "{name}"
        );
    }
}

#[test]
fn independent_quality_degrades_with_partitions() {
    for (name, nw) in circuits() {
        let mut s = nw.clone();
        let rs = extract_kernels(&mut s, &[], &ExtractConfig::default());
        for procs in [2usize, 4] {
            let mut i = nw.clone();
            let ri = independent_extract(
                &mut i,
                &IndependentConfig {
                    procs,
                    ..IndependentConfig::default()
                },
            );
            assert!(
                ri.lc_after >= rs.lc_after,
                "{name} p{procs}: I beat the full-matrix optimum"
            );
            assert!(
                equivalent_random(&nw, &i, &EquivConfig::default()).unwrap(),
                "{name} p{procs}"
            );
        }
    }
}

/// Algorithm I writes the same bytes on every run: worker results are
/// merged in partition order, not in the order the workers finish.
#[test]
fn independent_output_is_byte_stable() {
    for name in ["misex3", "dalu", "spla"] {
        let profile = profile_by_name(name).expect("paper profile");
        let nw = generate(&scale_profile(&profile, 0.5));
        for procs in [2, 3, 4] {
            let run = || {
                let mut opt = nw.clone();
                let cfg = IndependentConfig {
                    procs,
                    ..IndependentConfig::default()
                };
                independent_extract(&mut opt, &cfg);
                write_network(&opt)
            };
            let first = run();
            for _ in 0..4 {
                assert!(run() == first, "{name} at p = {procs}: output bytes differ");
            }
        }
    }
}

#[test]
fn lshaped_sequential_beats_independent_on_average() {
    // Table 4 + §5.4: the L-shape recovers much of what Algorithm I
    // loses. Checked in aggregate over all circuits (individual circuits
    // may tie or flip).
    let mut l_total = 0usize;
    let mut i_total = 0usize;
    for (_name, nw) in circuits() {
        let mut l = nw.clone();
        let rl = lshaped_extract(
            &mut l,
            &LShapedConfig {
                procs: 3,
                sequential: true,
                ..LShapedConfig::default()
            },
        );
        let mut i = nw.clone();
        let ri = independent_extract(
            &mut i,
            &IndependentConfig {
                procs: 3,
                ..IndependentConfig::default()
            },
        );
        l_total += rl.lc_after;
        i_total += ri.lc_after;
        assert!(equivalent_random(&nw, &l, &EquivConfig::default()).unwrap());
    }
    assert!(
        l_total <= i_total,
        "aggregate L quality {l_total} must not trail I {i_total}"
    );
}

#[test]
fn lshaped_threaded_on_every_circuit() {
    for (name, nw) in circuits() {
        for procs in [2usize, 4] {
            let mut l = nw.clone();
            let rl = lshaped_extract(
                &mut l,
                &LShapedConfig {
                    procs,
                    sequential: false,
                    ..LShapedConfig::default()
                },
            );
            assert!(
                rl.lc_after <= rl.lc_before,
                "{name} p{procs}: literal count grew"
            );
            assert!(
                equivalent_random(&nw, &l, &EquivConfig::default()).unwrap(),
                "{name} p{procs}: equivalence broken"
            );
            assert!(l.validate().is_ok(), "{name} p{procs}");
        }
    }
}

/// The 8-bit carry chain with carries c1..c4 eliminated into flat
/// carry-lookahead SOPs, as in `examples/blif_workflow.rs`: dense
/// functions whose rectangle searches are expensive.
fn collapsed_carry_chain() -> Network {
    use parafactor::network::transform::{eliminate_node, sweep};
    let mut nw = parafactor::workloads::carry_chain(8);
    for i in (1..=4u32).rev() {
        let c = nw.find(&format!("c{i}")).unwrap();
        eliminate_node(&mut nw, c).unwrap();
    }
    sweep(&mut nw).unwrap();
    nw
}

/// `seq` with a visit budget that truncates some passes but not all, so
/// the run mixes the truncation fallback (the greedy list) with exact
/// passes. The stepwise loop below counts which passes truncated and
/// must end where `extract_kernels` does; the result is pinned.
#[test]
fn budget_capped_seq_truncates_some_passes_and_is_pinned() {
    use parafactor::core::seq::Engine;
    use parafactor::kcmatrix::{network_digest, SearchConfig};
    let original = collapsed_carry_chain();
    let cfg = ExtractConfig {
        search: SearchConfig {
            budget: 100,
            ..SearchConfig::default()
        },
        ..ExtractConfig::default()
    };
    let mut opt = original.clone();
    let report = extract_kernels(&mut opt, &[], &cfg);
    assert!(report.budget_exhausted);
    assert_eq!(
        (network_digest(&opt).to_hex(), report.extractions),
        ("990e9b20a7d7b52ea0cd05a2103f7509".to_string(), 9)
    );
    assert!(equivalent_random(&original, &opt, &EquivConfig::default()).unwrap());

    let mut stepped = original.clone();
    let targets: Vec<u32> = stepped.node_ids().collect();
    let mut engine = Engine::new(&stepped, &targets, cfg);
    let (mut passes, mut truncated) = (0, 0);
    loop {
        let (mut wave, stats) = engine.search_batch(None);
        passes += 1;
        truncated += usize::from(stats.budget_exhausted);
        if wave.is_empty() {
            break;
        }
        while !wave.is_empty() {
            let selected = engine.select_batch(&wave, usize::MAX);
            for rect in &selected {
                engine.apply(&mut stepped, rect);
            }
            wave = wave
                .into_iter()
                .filter(|c| !selected.contains(c))
                .filter_map(|c| engine.revalidate(&c))
                .collect();
        }
    }
    assert!(
        truncated > 0 && truncated < passes,
        "{truncated} of {passes} passes truncated"
    );
    assert_eq!(network_digest(&stepped), network_digest(&opt));
}

/// Algorithm R on the budget-capped case above. At one worker R is
/// `seq`, truncated passes included, and ends at the pinned network.
/// With several workers, whether a pass exceeds the budget depends on
/// when the shared bound arrives, so R may end elsewhere; it must stay
/// equivalent.
#[test]
fn budget_capped_replicated_is_pinned_at_one_worker() {
    use parafactor::kcmatrix::{network_digest, SearchConfig};
    let original = collapsed_carry_chain();
    let extract = ExtractConfig {
        search: SearchConfig {
            budget: 100,
            ..SearchConfig::default()
        },
        ..ExtractConfig::default()
    };
    for procs in [1usize, 2, 3] {
        let mut opt = original.clone();
        let report = replicated_extract(
            &mut opt,
            &ReplicatedConfig {
                procs,
                extract: extract.clone(),
            },
        );
        assert!(
            equivalent_random(&original, &opt, &EquivConfig::default()).unwrap(),
            "procs {procs}"
        );
        if procs == 1 {
            assert!(report.budget_exhausted);
            assert_eq!(
                (network_digest(&opt).to_hex(), report.extractions),
                ("990e9b20a7d7b52ea0cd05a2103f7509".to_string(), 9)
            );
        }
    }
}

#[test]
fn script_pipeline_on_two_circuits() {
    use parafactor::core::script::{run_script, ScriptConfig};
    // The script caps every `gkx` search at 200 000 visits; at this scale
    // no pass reaches the cap, so the literal counts are the exact
    // search's and are pinned.
    for (name, lc_after) in [("dalu", 130), ("seq", 410)] {
        let p = parafactor::workloads::profile_by_name(name).unwrap();
        let nw = generate(&scale_profile(&p, TEST_SCALE));
        let mut opt = nw.clone();
        let rep = run_script(&mut opt, &ScriptConfig::default());
        assert_eq!(rep.lc_after, lc_after, "{name}");
        assert!(
            rep.factor_reports.iter().all(|r| !r.budget_exhausted),
            "{name}: a factor pass truncated"
        );
        assert!(rep.lc_after <= rep.lc_before, "{name}");
        assert!(rep.factor_fraction() > 0.0 && rep.factor_fraction() <= 1.0);
        assert!(
            equivalent_random(&nw, &opt, &EquivConfig::default()).unwrap(),
            "{name}: script broke the circuit"
        );
    }
}
