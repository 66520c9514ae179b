//! Integration tests for the pf-cache subsystem end to end.
//!
//! Two layers are exercised here:
//!
//! * **pf-core** — `run_cached` over random networks, proving the
//!   tentpole guarantee for every driver: an exact hit replays the
//!   memoized factored form *byte-identical* to the cold run that
//!   filled it, with a well-formed `cache` phase in the report.
//! * **pf-serve** — a real `Service` with the cache wired in: a struck
//!   (previously-panicking) fingerprint is never admitted, a panic
//!   mid-fill leaves no partial entry, capacity-1 LRU eviction counts
//!   line up, and the extended metrics balance identity
//!   (`cache_lookups == cache_hits + cache_misses`) closes the books.

use parafactor::cache::{CacheConfig, ExtractionCache};
use parafactor::core::{
    extract_kernels, independent_extract, lshaped_extract, replicated_extract, run_cached,
    CacheHandle, ExtractConfig, ExtractReport, FaultPlan, FaultRule, IndependentConfig,
    LShapedConfig, ReplicatedConfig, Tracer,
};
use parafactor::kcmatrix::{network_digest, Digest};
use parafactor::network::io::write_network;
use parafactor::network::Network;
use parafactor::serve::{Algorithm, JobOutcome, JobSpec, Service, ServiceConfig};
use parafactor::sop::{Cube, Lit, Sop};
use proptest::prelude::*;
use std::sync::Arc;

/// A random multi-level network (same shape as the workspace property
/// suite): `n_inputs` PIs, nodes whose cubes draw from PIs and earlier
/// nodes, sinks marked as outputs.
fn arb_network(
    n_inputs: usize,
    n_nodes: usize,
    max_cubes: usize,
) -> impl Strategy<Value = Network> {
    let cube = prop::collection::btree_set(0..(n_inputs + n_nodes) as u32, 1..=3usize);
    let node = prop::collection::vec(cube, 1..=max_cubes);
    prop::collection::vec(node, 1..=n_nodes).prop_map(move |specs| {
        let mut nw = Network::new();
        let inputs: Vec<u32> = (0..n_inputs)
            .map(|i| nw.add_input(format!("i{i}")).unwrap())
            .collect();
        let mut nodes: Vec<u32> = Vec::new();
        for (k, spec) in specs.into_iter().enumerate() {
            let cubes: Vec<Cube> = spec
                .into_iter()
                .map(|srcs| {
                    Cube::from_lits(srcs.into_iter().map(|s| {
                        let pool_len = inputs.len() + nodes.len();
                        let idx = (s as usize) % pool_len;
                        let var = if idx < inputs.len() {
                            inputs[idx]
                        } else {
                            nodes[idx - inputs.len()]
                        };
                        Lit::pos(var)
                    }))
                })
                .collect();
            let id = nw
                .add_node(format!("n{k}"), Sop::from_cubes(cubes))
                .unwrap();
            nodes.push(id);
        }
        let fo = nw.fanout_map();
        for &n in &nodes {
            if fo[n as usize].is_empty() {
                nw.mark_output(n).unwrap();
            }
        }
        nw
    })
}

/// Runs one of the four drivers by tag. Deterministic configurations
/// throughout — the byte-identity assertion compares the replay against
/// the very run that filled the cache, so determinism is not required,
/// but it keeps failures reproducible.
fn drive(alg: &str, nw: &mut Network) -> ExtractReport {
    match alg {
        "seq" => extract_kernels(nw, &[], &ExtractConfig::default()),
        "replicated" => replicated_extract(
            nw,
            &ReplicatedConfig {
                procs: 2,
                ..ReplicatedConfig::default()
            },
        ),
        "independent" => independent_extract(
            nw,
            &IndependentConfig {
                procs: 2,
                ..IndependentConfig::default()
            },
        ),
        "lshaped" => lshaped_extract(
            nw,
            &LShapedConfig {
                procs: 2,
                sequential: true,
                ..LShapedConfig::default()
            },
        ),
        other => unreachable!("unknown driver {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole guarantee, all four drivers: the cold run fills the
    /// cache, the exact-hit resubmission replays a network that prints
    /// byte-identically, carries the cold run's quality numbers, and
    /// reports a well-formed `cache` phase summing to its elapsed time.
    #[test]
    fn exact_hits_replay_byte_identically_for_every_driver(nw in arb_network(6, 8, 5)) {
        for alg in ["seq", "replicated", "independent", "lshaped"] {
            let cache = ExtractionCache::new(CacheConfig::default());
            let tracer = Tracer::disarmed();
            let content = network_digest(&nw);
            let h = CacheHandle {
                cache: &cache,
                key: Digest::of_str(alg).combine(content),
                warm_key: content,
                admit: true,
            };

            let mut cold = nw.clone();
            let (cold_report, ev) =
                run_cached(&mut cold, |_| {}, &tracer, Some(&h), |n| drive(alg, n));
            prop_assert_eq!(ev.misses, 1, "{}: first run misses", alg);
            prop_assert_eq!(ev.inserted, 1, "{}: completed run admitted", alg);

            let mut warm = nw.clone();
            let (hit_report, ev2) =
                run_cached(&mut warm, |_| {}, &tracer, Some(&h), |n| drive(alg, n));
            prop_assert_eq!(ev2.hits, 1, "{}: resubmission hits", alg);
            prop_assert_eq!(
                write_network(&warm),
                write_network(&cold),
                "{}: replay byte-identical",
                alg
            );
            prop_assert_eq!(hit_report.lc_before, cold_report.lc_before);
            prop_assert_eq!(hit_report.lc_after, cold_report.lc_after);
            prop_assert_eq!(hit_report.extractions, cold_report.extractions);
            prop_assert_eq!(hit_report.total_value, cold_report.total_value);
            prop_assert_eq!(hit_report.phases.len(), 1);
            prop_assert_eq!(hit_report.phases[0].name, "cache");
            prop_assert_eq!(hit_report.phases_total(), hit_report.elapsed);
        }
    }
}

/// Suppresses the default panic hook's stderr spew for injected panics.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("fault injected"))
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

fn seq(workload: &str) -> JobSpec {
    JobSpec::new(Algorithm::Seq, workload)
}

/// A worker panic mid-fill (inside the driver, before any insert) must
/// leave no partial cache entry, and the struck fingerprint must never
/// seed the cache afterwards even when its reruns complete cleanly.
#[test]
fn panic_mid_fill_leaves_no_entry_and_struck_fingerprints_are_never_admitted() {
    quiet_injected_panics();
    // One caught panic inside the sequential cover loop: the job fails
    // structurally, the fingerprint takes a strike, the thread survives.
    let plan = FaultPlan::new(11).with_rule(FaultRule::panic_at("seq:cover").max_hits(1));
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        fault_plan: Some(Arc::new(plan)),
        // Strikes quarantine only at the threshold; this test wants the
        // struck fingerprint to keep *running* so admission is what's
        // under test, not the front door.
        poison_threshold: 100,
        ..ServiceConfig::default()
    });
    let client = service.client();
    let cache = client.cache().expect("cache enabled by default");

    let o = client
        .submit(seq("gen:misex3@0.05"))
        .expect("accepted")
        .wait();
    assert!(matches!(o, JobOutcome::Failed { .. }), "{o:?}");
    assert_eq!(cache.len(), 0, "panic mid-fill left a partial entry");

    // The rerun completes — but a fingerprint with a strike on record
    // must never seed the cache.
    let o = client
        .submit(seq("gen:misex3@0.05"))
        .expect("accepted")
        .wait();
    assert!(matches!(o, JobOutcome::Completed(_)), "{o:?}");
    assert_eq!(cache.len(), 0, "struck fingerprint was admitted");

    // An unstruck fingerprint is admitted as usual.
    let o = client
        .submit(seq("gen:dalu@0.05"))
        .expect("accepted")
        .wait();
    assert!(matches!(o, JobOutcome::Completed(_)), "{o:?}");
    assert_eq!(cache.len(), 1);

    service.shutdown();
    let m = client.metrics();
    assert!(m.balanced(), "extended balance identity broken");
    assert_eq!(m.cache_hits.get(), 0, "nothing was cached to hit");
    assert_eq!(m.panics.get(), 1);
}

/// Capacity-1 LRU through the service: each new fingerprint evicts the
/// previous entry, a back-to-back resubmission hits, and the eviction /
/// lookup counters agree with the story.
#[test]
fn capacity_one_lru_evicts_and_the_counters_agree() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        cache_entries: 1,
        ..ServiceConfig::default()
    });
    let client = service.client();
    let run = |w: &str| {
        let o = client.submit(seq(w)).expect("accepted").wait();
        assert!(matches!(o, JobOutcome::Completed(_)), "{o:?}");
    };
    run("gen:misex3@0.05"); // miss, insert A
    run("gen:dalu@0.05"); // miss, insert B, evict A
    run("gen:dalu@0.05"); // hit B
    run("gen:misex3@0.05"); // miss again (A was evicted), insert, evict B
    assert_eq!(client.cache().unwrap().len(), 1);

    service.shutdown();
    let m = client.metrics();
    assert!(m.balanced(), "extended balance identity broken");
    assert_eq!(m.cache_lookups.get(), 4);
    assert_eq!(m.cache_hits.get(), 1);
    assert_eq!(m.cache_misses.get(), 3);
    assert_eq!(m.cache_evictions.get(), 2);
}

/// Satellite 2 at the service layer: a cache-served job's report is
/// well-formed — non-empty phases led by `cache`, phases summing to
/// elapsed — and carries the cold run's quality numbers.
#[test]
fn cache_served_jobs_emit_well_formed_reports() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    let client = service.client();
    let cold = match client
        .submit(seq("gen:misex3@0.05"))
        .expect("accepted")
        .wait()
    {
        JobOutcome::Completed(jr) => jr,
        other => panic!("cold run: {other:?}"),
    };
    let warm = match client
        .submit(seq("gen:misex3@0.05"))
        .expect("accepted")
        .wait()
    {
        JobOutcome::Completed(jr) => jr,
        other => panic!("warm run: {other:?}"),
    };
    assert!(!warm.report.phases.is_empty());
    assert_eq!(warm.report.phases[0].name, "cache");
    assert_eq!(warm.report.phases_total(), warm.report.elapsed);
    assert_eq!(warm.report.lc_before, cold.report.lc_before);
    assert_eq!(warm.report.lc_after, cold.report.lc_after);
    assert_eq!(warm.report.extractions, cold.report.extractions);

    service.shutdown();
    let m = client.metrics();
    assert!(m.balanced());
    assert_eq!(m.cache_hits.get(), 1);
    assert_eq!(m.cache_misses.get(), 1);
}
