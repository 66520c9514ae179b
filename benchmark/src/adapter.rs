//! Every program API the benchmark names lives in this file: circuit
//! generation, the driver entry points and their configs, the stepwise
//! `Engine`, the partitioner, kernel enumeration, digests, the service
//! and its wire helpers. The rest of the benchmark sees plain data
//! ([`Outcome`], [`CoverCounts`], [`Circuit`]) and opaque handles.

use crate::eval::{Circuit, Signal};
use crate::inputs::{CircuitSpec, Driver, SplitMix64};
use crate::trace::Recorder;
use pf_core::seq::Engine;
use pf_core::{
    distributed_extract, extract_kernels, independent_extract, lshaped_extract, replicated_extract,
    DistConfig, ExtractConfig, ExtractReport, IndependentConfig, LShapedConfig, LocalTransport,
    ReplicatedConfig,
};
use pf_kcmatrix::{network_digest, Rectangle};
use pf_network::SignalKind;
use pf_partition::{partition_network, PartitionConfig};
use pf_serve::job::resolve_workload;
use pf_serve::{JobReport, Server, ServiceConfig};
use pf_sop::kernel::{kernels_config, KernelConfig};
use pf_sop::{Cube, Lit, Sop, Var};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

pub use pf_network::Network;
pub use pf_serve::Json;

/// Processors the parallel drivers are asked for, and local workers of
/// the distributed driver: the build host has two cores.
pub const PROCS: usize = 2;

/// The best known `seq` settings (BENCH_rect.json: tiles are
/// byte-identical and 3–4× faster, K = 16 halves the wall at equal
/// literal count). When ROADMAP item 2 removes these knobs, a benchmark
/// follow-up deletes the next two lines and re-baselines.
fn tune(cfg: &mut ExtractConfig) {
    cfg.search.tile_width = 4;
    cfg.search.topk = 16;
}

fn seq_config(tuned: bool) -> ExtractConfig {
    let mut cfg = ExtractConfig::default();
    if tuned {
        tune(&mut cfg);
    }
    cfg
}

// ---- circuits ----

/// The repo's paper-analogue circuit for `spec`, exactly as the CLI and
/// the service generate it.
pub fn generate(spec: &CircuitSpec) -> Network {
    let profile = pf_workloads::profile_by_name(spec.profile).expect("a paper profile");
    pf_workloads::generate(&pf_workloads::scale_profile(&profile, spec.scale))
}

/// The same network with its primary inputs declared in a seeded random
/// order: names, functions and literal count are kept, every input's
/// signal id changes, and with it the literal order inside every cube,
/// the kernel enumeration order, the matrix's column order and every
/// tie-break downstream. Nodes keep their order: the partitioner seeds
/// its bins from it, and a different partition per seed moves the wall
/// of the partitioned drivers by ±15 %, which is a different input, not
/// a different labelling.
pub fn relabel(base: &Network, rng: &mut SplitMix64) -> Network {
    let mut inputs: Vec<u32> = base.input_ids().collect();
    let mut new_id: Vec<u32> = (0..base.num_signals() as u32).collect();
    let slots = inputs.clone();
    rng.shuffle(&mut inputs);
    for (&slot, &old) in slots.iter().zip(&inputs) {
        new_id[old as usize] = slot;
    }
    let mut old_at = new_id.clone();
    for (old, &new) in new_id.iter().enumerate() {
        old_at[new as usize] = old as u32;
    }
    let mut nw = Network::new();
    for &old in &old_at {
        let name = base.name(old).to_string();
        if base.kind(old) == SignalKind::PrimaryInput {
            nw.add_input(name).expect("names are unique in the base");
            continue;
        }
        let cubes = base.func(old).iter().map(|cube| {
            Cube::from_lits(
                cube.iter()
                    .map(|l| Lit::new(Var::new(new_id[l.var().index() as usize]), l.is_negated())),
            )
        });
        nw.add_node(name, Sop::from_cubes(cubes))
            .expect("names are unique in the base");
    }
    for &out in base.outputs() {
        nw.mark_output(new_id[out as usize]).expect("output exists");
    }
    nw.validate().expect("relabelling keeps the network a DAG");
    nw
}

/// Copies a network into the evaluator's plain representation.
pub fn flatten(nw: &Network) -> Circuit {
    let signals = nw
        .signal_ids()
        .map(|id| Signal {
            name: nw.name(id).to_string(),
            cubes: (nw.kind(id) == SignalKind::Node).then(|| {
                let lits = |cube: &Cube| {
                    cube.iter()
                        .map(|l| (l.var().index(), l.is_negated()))
                        .collect()
                };
                nw.func(id).iter().map(lits).collect()
            }),
        })
        .collect();
    Circuit {
        signals,
        outputs: nw.outputs().to_vec(),
    }
}

// ---- drivers ----

/// What a driver call reported, as plain data.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub lc_before: usize,
    pub lc_after: usize,
    /// Ran to natural completion and did not degrade.
    pub completed: bool,
    pub extractions: usize,
    pub shipped_rects: usize,
    pub recovery_rects: usize,
    pub resub_pairs_considered: usize,
    pub resub_pairs_divided: usize,
    /// The driver's own phase breakdown, in execution order, in ns.
    pub phases: Vec<(&'static str, u64)>,
    pub leases_issued: u64,
    pub leases_expired: u64,
    pub leases_stolen: u64,
    pub leases_balanced: bool,
}

impl Outcome {
    fn from_report(r: &ExtractReport) -> Outcome {
        Outcome {
            lc_before: r.lc_before,
            lc_after: r.lc_after,
            completed: r.completed() && !r.degraded,
            extractions: r.extractions,
            shipped_rects: r.shipped_rectangles,
            recovery_rects: r.recovery_rects,
            resub_pairs_considered: r.resub_pairs_considered,
            resub_pairs_divided: r.resub_pairs_divided,
            phases: r
                .phases
                .iter()
                .map(|p| (p.name, p.elapsed.as_nanos() as u64))
                .collect(),
            leases_balanced: true,
            ..Outcome::default()
        }
    }
}

/// A driver ready to run jobs: the distributed driver keeps its local
/// workers resident between jobs, as a deployment would.
pub struct Runner {
    driver: Driver,
    transport: Option<LocalTransport>,
}

impl Runner {
    pub fn new(driver: Driver) -> Runner {
        let transport = (driver == Driver::Dist).then(|| LocalTransport::new(PROCS));
        Runner { driver, transport }
    }

    /// Runs the driver on `nw`, in place.
    pub fn run(&self, nw: &mut Network) -> Outcome {
        let report = match self.driver {
            Driver::SeqDefault => extract_kernels(nw, &[], &seq_config(false)),
            Driver::SeqTuned => extract_kernels(nw, &[], &seq_config(true)),
            Driver::Replicated => replicated_extract(
                nw,
                &ReplicatedConfig {
                    procs: PROCS,
                    ..Default::default()
                },
            ),
            Driver::Independent => independent_extract(
                nw,
                &IndependentConfig {
                    procs: PROCS,
                    ..Default::default()
                },
            ),
            Driver::Lshaped => lshaped_extract(
                nw,
                &LShapedConfig {
                    procs: PROCS,
                    ..Default::default()
                },
            ),
            Driver::Dist => return self.run_dist(nw, true),
        };
        Outcome::from_report(&report)
    }

    /// The distributed driver with boundary recovery on (the default) or
    /// off (the Algorithm-I-quality merge `dist.gap_closed_pct` is
    /// measured against).
    pub fn run_dist(&self, nw: &mut Network, recovery: bool) -> Outcome {
        let transport = self.transport.as_ref().expect("a Dist runner");
        let cfg = DistConfig {
            recovery,
            ..DistConfig::default()
        };
        let (report, stats) = distributed_extract(nw, transport, &cfg);
        Outcome {
            leases_issued: stats.leases_issued,
            leases_expired: stats.leases_expired,
            leases_stolen: stats.leases_stolen,
            leases_balanced: stats.balanced(),
            ..Outcome::from_report(&report)
        }
    }
}

/// Counters of traced cover loops; each loop adds to them.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoverCounts {
    pub rows: usize,
    pub cols: usize,
    pub entries: usize,
    pub search_calls: usize,
    pub visited: u64,
    pub pruned: u64,
    pub budget_exhausted: usize,
    pub batch_candidates: usize,
    pub applied: usize,
}

/// The benchmark's own cover loop over the public stepwise `Engine`,
/// with a span around each step: `build` (`Engine::new`, which includes
/// kernel generation), `search` (one per pass), `apply` (selection,
/// division and matrix update, re-validation). It mirrors
/// `extract_kernels` step for step and must end at the same network;
/// the caller checks that. Spans become children of the caller's
/// innermost open span; counters are added to `counts`. Returns the
/// literal count it ends at.
pub fn traced_cover(
    nw: &mut Network,
    tuned: bool,
    rec: &mut Recorder,
    counts: &mut CoverCounts,
) -> usize {
    let cfg = seq_config(tuned);
    let batched = cfg.search.topk > 1;
    let targets: Vec<u32> = nw.node_ids().collect();

    let span = rec.begin("build");
    let mut engine = Engine::new(nw, &targets, cfg);
    rec.end(span);
    counts.rows += engine.matrix().num_alive_rows();
    counts.cols += engine.matrix().cols().len();
    counts.entries += engine.matrix().num_entries();

    loop {
        let span = rec.begin("search");
        let (mut wave, stats): (Vec<Rectangle>, _) = if batched {
            engine.search_batch(None)
        } else {
            let (best, stats) = engine.search(None);
            (best.into_iter().collect(), stats)
        };
        rec.end(span);
        counts.search_calls += 1;
        counts.visited += stats.visited;
        counts.pruned += stats.pruned;
        counts.budget_exhausted += usize::from(stats.budget_exhausted);
        counts.batch_candidates += wave.len();
        if wave.is_empty() {
            break;
        }
        let span = rec.begin("apply");
        while !wave.is_empty() {
            let selected = if batched {
                engine.select_batch(&wave, usize::MAX)
            } else {
                std::mem::take(&mut wave)
            };
            for rect in &selected {
                engine.apply(nw, rect);
                counts.applied += 1;
            }
            wave = wave
                .into_iter()
                .filter(|c| !selected.contains(c))
                .filter_map(|c| engine.revalidate(&c))
                .collect();
        }
        rec.end(span);
    }
    nw.literal_count()
}

// ---- standalone layer calls ----

/// Enumerates the kernels of every node (pf-sop alone); returns the
/// number of (co-kernel, kernel) pairs.
pub fn kernels_of_all_nodes(nw: &Network) -> usize {
    let cfg = KernelConfig::default();
    nw.node_ids()
        .map(|n| kernels_config(nw.func(n), &cfg).len())
        .sum()
}

/// Two-way min-cut partition with the default options (pf-partition
/// alone); returns `(cut size, imbalance in % over the even share)`.
pub fn partition_two_way(nw: &Network) -> (u64, f64) {
    let p = partition_network(nw, PROCS, &PartitionConfig::default());
    let weights = p.part_weights();
    let total: u64 = weights.iter().sum();
    let heaviest = weights.iter().copied().max().unwrap_or(0) as f64;
    let even = total as f64 / PROCS as f64;
    (
        p.cut,
        if even > 0.0 {
            (heaviest / even - 1.0) * 100.0
        } else {
            0.0
        },
    )
}

/// The program's content digest of a network, as hex.
pub fn digest_hex(nw: &Network) -> String {
    network_digest(nw).to_hex()
}

// ---- service ----

/// A running TCP service on an ephemeral loopback port.
pub struct Service {
    pub addr: SocketAddr,
    thread: JoinHandle<()>,
}

impl Service {
    pub fn start(workers: usize, cache_entries: usize) -> std::io::Result<Service> {
        let cfg = ServiceConfig {
            workers,
            cache_entries,
            ..ServiceConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", cfg)?;
        let addr = server.local_addr()?;
        Ok(Service {
            addr,
            thread: std::thread::spawn(move || server.run()),
        })
    }

    /// Waits for the accept loop to end; call after a client has sent
    /// `{"op":"shutdown"}`.
    pub fn join(self) {
        self.thread
            .join()
            .expect("the server thread does not panic");
    }
}

pub fn parse_json(text: &str) -> Result<Json, String> {
    pf_serve::json::parse(text).map_err(|e| e.to_string())
}

/// The service's workload resolver (`gen:<profile>@<scale>` → circuit).
pub fn resolve(spec: &str) -> Result<Network, String> {
    resolve_workload(spec)
}

/// Runs a job in process the way the service's workers run it
/// (`procs: 1`, every other option at its default): the reference the
/// service's answers are compared with.
pub fn run_as_service(algorithm: &str, nw: &mut Network) -> Outcome {
    let report = match algorithm {
        "seq" => extract_kernels(nw, &[], &ExtractConfig::default()),
        "replicated" => replicated_extract(
            nw,
            &ReplicatedConfig {
                procs: 1,
                ..Default::default()
            },
        ),
        "independent" => independent_extract(
            nw,
            &IndependentConfig {
                procs: 1,
                ..Default::default()
            },
        ),
        "lshaped" => lshaped_extract(
            nw,
            &LShapedConfig {
                procs: 1,
                ..Default::default()
            },
        ),
        other => panic!("no such service algorithm: {other}"),
    };
    Outcome::from_report(&report)
}

/// A real per-job report, for timing the service's serialiser alone.
pub struct WireReport(JobReport);

impl WireReport {
    pub fn of_seq_run(nw: &mut Network) -> WireReport {
        let report = extract_kernels(nw, &[], &seq_config(false));
        WireReport(JobReport {
            report,
            queue_wait: Duration::from_micros(120),
            run_time: Duration::from_millis(3),
        })
    }

    pub fn serialise(&self) -> String {
        self.0.to_json().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Reference;
    use std::time::Instant;

    const SMALL: [CircuitSpec; 2] = [
        CircuitSpec {
            profile: "misex3",
            scale: 0.3,
        },
        CircuitSpec {
            profile: "dalu",
            scale: 0.3,
        },
    ];

    #[test]
    fn same_seed_same_input_other_seed_other_labelling_of_the_same_function() {
        for spec in &SMALL {
            let base = generate(spec);
            let flat = flatten(&base);
            let a = flatten(&relabel(&base, &mut SplitMix64::new(1)));
            let b = flatten(&relabel(&base, &mut SplitMix64::new(1)));
            let c = flatten(&relabel(&base, &mut SplitMix64::new(2)));
            assert_eq!(a, b, "same seed, identical input");
            assert_ne!(
                a.fingerprint(),
                c.fingerprint(),
                "different seed, different input"
            );
            assert_ne!(a.fingerprint(), flat.fingerprint());
            let reference = Reference::new(&flat, 7).unwrap();
            for relabelled in [&a, &c] {
                assert_eq!(relabelled.literal_count(), flat.literal_count());
                assert_eq!(relabelled.num_nodes(), flat.num_nodes());
                assert!(
                    reference.matches(relabelled),
                    "{}: relabelling keeps the function",
                    spec.label()
                );
            }
        }
    }

    /// The traced loop stands in for `extract_kernels` in every per-layer
    /// number, so it must end at the very same network: default and tuned
    /// settings, default and a held-out seed.
    #[test]
    fn traced_cover_reproduces_extract_kernels() {
        for (driver, tuned) in [(Driver::SeqDefault, false), (Driver::SeqTuned, true)] {
            for seed in [1, 0xBEEF] {
                for spec in &SMALL {
                    let input = relabel(&generate(spec), &mut SplitMix64::new(seed));
                    let mut by_driver = input.clone();
                    let outcome = Runner::new(driver).run(&mut by_driver);
                    let mut by_loop = input.clone();
                    let mut rec = Recorder::new(Instant::now());
                    let mut counts = CoverCounts::default();
                    let lc_after = traced_cover(&mut by_loop, tuned, &mut rec, &mut counts);
                    assert_eq!(
                        flatten(&by_loop),
                        flatten(&by_driver),
                        "{} seed {seed} tuned {tuned}",
                        spec.label()
                    );
                    assert_eq!(lc_after, outcome.lc_after);
                    assert_eq!(counts.applied, outcome.extractions);
                    assert_eq!(digest_hex(&by_loop), digest_hex(&by_driver));
                    assert!(Reference::new(&flatten(&input), seed)
                        .unwrap()
                        .matches(&flatten(&by_loop)));
                    let searches = rec.spans().iter().filter(|s| s.name == "search").count();
                    assert_eq!(searches, counts.search_calls);
                }
            }
        }
    }

    #[test]
    fn every_driver_keeps_the_function_on_a_small_circuit() {
        let input = generate(&SMALL[1]);
        let reference = Reference::new(&flatten(&input), 3).unwrap();
        for driver in [
            Driver::Replicated,
            Driver::Independent,
            Driver::Lshaped,
            Driver::Dist,
        ] {
            let mut nw = input.clone();
            let outcome = Runner::new(driver).run(&mut nw);
            assert!(outcome.completed && outcome.leases_balanced, "{driver:?}");
            assert!(outcome.lc_after < outcome.lc_before);
            assert!(reference.matches(&flatten(&nw)), "{driver:?}");
        }
        for algorithm in ["seq", "replicated", "independent", "lshaped"] {
            let mut nw = input.clone();
            assert!(run_as_service(algorithm, &mut nw).completed);
            assert!(reference.matches(&flatten(&nw)), "{algorithm}");
        }
    }
}
