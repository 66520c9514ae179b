//! `parafactor bench-json` — a machine-readable performance snapshot.
//!
//! Emits `BENCH_rect.json`: nanoseconds per rectangle search for the
//! reference vec engine and the search (`bitset_ns`), and for the search
//! inline (`seq_ns`) and at 1/2/4/8 workers, plus end-to-end extraction
//! wall time per driver at dalu scale 0.35 and 1.0, plus the
//! batched-extraction table (pass counts and end-to-end medians for
//! `--batch-rects` K ∈ {1, 4, 16}). The checked-in copy at the repo root
//! is the perf trajectory baseline; refresh it with `parafactor
//! bench-json` after touching the search core. `--quick` shrinks scales
//! and reps so CI can smoke the subcommand in seconds.
//! `--assert-pass-reduction PCT` gates on K=16 batching cutting the seq
//! pass count by at least PCT percent.
//!
//! `--partition` switches to the distributed-extraction snapshot
//! (`BENCH_partition.json`): per scale in the sweep (`--scales`,
//! default 0.5/2/4), the sequential oracle's literal count, the
//! Algorithm-I-quality result (distributed, boundary recovery off), and
//! the recovered result at 1/2/4 workers, with wall times, the share of
//! the partition quality gap that boundary recovery closed, and the
//! share of the recovered wall the recovery stage consumed.
//! `--assert-gap-closed PCT` turns the worst per-worker-count closure
//! (scales below 2) into a CI gate; `--assert-recovery-share PCT` caps
//! recovery's wall share at scales ≥ 2, where extraction must dominate.

use pf_kcmatrix::{
    reference, CeilingUpdate, CubeRegistry, KcMatrix, LabelGen, SearchConfig, SearchPool,
};
use pf_serve::{eout, Json};
use pf_workloads::{generate, profile_by_name, scale_profile};
use std::io::Write as _;
use std::time::Instant;

/// Options for the `bench-json` subcommand.
pub struct BenchJsonOptions {
    /// Smaller scales and fewer repetitions — smoke mode for CI.
    pub quick: bool,
    /// Output path (`BENCH_rect.json` by default).
    pub out: String,
    /// Fail (exit non-zero) unless batching at K = 16 cuts the seq
    /// driver's pass count by at least this percentage versus K = 1 on
    /// every measured scale of gen:dalu.
    pub assert_pass_reduction: Option<f64>,
    /// Fail (exit non-zero) unless the warm cache-served network is
    /// byte-identical to the cold run's.
    pub assert_cache_identical: bool,
    /// Measure the distributed-partition snapshot instead of the
    /// rectangle-search one (`BENCH_partition.json` by default).
    pub partition: bool,
    /// Fail (exit non-zero) unless boundary recovery closes at least
    /// this percentage of the Algorithm-I literal-count gap at every
    /// multi-worker count (small scales — below 1 — only; large scales
    /// are wall-clock-focused and gated by `assert_recovery_share`).
    /// Implies `--partition`.
    pub assert_gap_closed: Option<f64>,
    /// Workload scale factors for the partition sweep (`--scales`).
    /// `None` picks the defaults: `[0.2]` in quick mode, `[0.5, 2, 4]`
    /// otherwise — the large scales are where extraction, not recovery,
    /// must own the wall clock.
    pub scales: Option<Vec<f64>>,
    /// Fail (exit non-zero) when the recovery stage (frontier + resub +
    /// sweep phases) takes more than this percentage of the recovered
    /// run's wall time at any multi-worker count on any scale ≥ 2.
    /// Implies `--partition`.
    pub assert_recovery_share: Option<f64>,
}

impl Default for BenchJsonOptions {
    fn default() -> Self {
        BenchJsonOptions {
            quick: false,
            out: "BENCH_rect.json".to_string(),
            assert_pass_reduction: None,
            assert_cache_identical: false,
            partition: false,
            assert_gap_closed: None,
            scales: None,
            assert_recovery_share: None,
        }
    }
}

/// Builds the KC matrix (and weights) of the dalu workload at `scale`.
fn dalu_matrix(scale: f64) -> (KcMatrix, Vec<u32>) {
    let nw = generate(&scale_profile(
        &profile_by_name("dalu").expect("dalu profile exists"),
        scale,
    ));
    let reg = CubeRegistry::new();
    let mut m = KcMatrix::new();
    let mut rl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
    let mut cl = LabelGen::new(0, LabelGen::DEFAULT_OFFSET);
    for n in nw.node_ids() {
        m.add_node_kernels(
            n,
            nw.func(n),
            &pf_sop::kernel::KernelConfig::default(),
            &reg,
            &mut rl,
            &mut cl,
        );
    }
    let w = reg.weights_snapshot();
    (m, w)
}

/// Median wall time of `reps` runs of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Minimum wall time of `reps` runs of `f`, in nanoseconds. Scheduler
/// noise on a shared host is strictly additive, so the minimum is the
/// robust estimator for pure-CPU search kernels — a median of a few
/// dozen microsecond-scale samples can swing tens of percent run to
/// run. Wall-time sections (end-to-end extraction, cache) keep the
/// median: they allocate and fault pages, so their minimum is
/// unrepresentative.
fn min_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(0)
}

/// One full single-rectangle search over `m` with the given worker
/// count, on a pool warmed before the clock with ceilings off, so every
/// pass does identical work. The kernel sections compare engines on the
/// classic `topk = 1` pass, whatever the library default is.
fn timed_search(m: &KcMatrix, w: &[u32], par_threads: usize, reps: usize) -> u64 {
    let cfg = SearchConfig {
        par_threads,
        ..SearchConfig::classic()
    };
    let value_of = |id: pf_kcmatrix::CubeId| w[id as usize];
    let mut pool = SearchPool::new();
    pool.warm(par_threads);
    min_ns(reps, || {
        let (best, _) = pool.find(m, &value_of, &cfg, None, CeilingUpdate::Off);
        std::hint::black_box(best);
    })
}

/// End-to-end extraction wall time (milliseconds, median of `reps`) for
/// one driver on a fresh clone of `nw`.
fn timed_extract(
    nw: &pf_network::Network,
    driver: &str,
    procs: usize,
    par_threads: usize,
    reps: usize,
) -> f64 {
    use pf_core::{
        extract_kernels, independent_extract, lshaped_extract, replicated_extract, ExtractConfig,
        IndependentConfig, LShapedConfig, ReplicatedConfig,
    };
    let mut extract = ExtractConfig::default();
    extract.search.par_threads = par_threads;
    let ns = median_ns(reps, || {
        let mut work = nw.clone();
        let report = match driver {
            "seq" => extract_kernels(&mut work, &[], &extract),
            "replicated" => replicated_extract(
                &mut work,
                &ReplicatedConfig {
                    procs,
                    extract: extract.clone(),
                },
            ),
            "independent" => independent_extract(
                &mut work,
                &IndependentConfig {
                    procs,
                    extract: extract.clone(),
                    ..IndependentConfig::default()
                },
            ),
            "lshaped" => lshaped_extract(
                &mut work,
                &LShapedConfig {
                    procs,
                    extract: extract.clone(),
                    ..LShapedConfig::default()
                },
            ),
            other => unreachable!("unknown driver {other}"),
        };
        std::hint::black_box(report.lc_after);
    });
    ns as f64 / 1e6
}

/// Runs every measurement and renders the JSON document.
pub fn run(opts: &BenchJsonOptions) -> Json {
    let (micro_scale, big_scale, micro_reps, thread_reps) = if opts.quick {
        (0.08, 0.08, 3, 3)
    } else {
        (0.35, 1.0, 15, 7)
    };
    let e2e_scales: &[f64] = if opts.quick { &[0.08] } else { &[0.35, 1.0] };

    // Micro: one full search, reference vec engine vs the search.
    eout!("bench-json: rect_search micro @ dalu scale {micro_scale}");
    let (m, w) = dalu_matrix(micro_scale);
    let cfg = SearchConfig::classic();
    let vec_ns = min_ns(micro_reps, || {
        let (best, _) = reference::best_rectangle(&m, &|id| w[id as usize], &cfg);
        std::hint::black_box(best);
    });
    let bitset_ns = timed_search(&m, &w, 0, micro_reps);
    let speedup = vec_ns as f64 / bitset_ns.max(1) as f64;
    eout!("bench-json:   vec {vec_ns} ns, search {bitset_ns} ns ({speedup:.2}x)");

    // Threads: the search inline and at 1/2/4/8 workers on the big
    // matrix.
    eout!("bench-json: parallel search @ dalu scale {big_scale}");
    let (mb, wb) = dalu_matrix(big_scale);
    let seq_ns = timed_search(&mb, &wb, 0, thread_reps);
    let mut thread_members: Vec<(String, Json)> = vec![("seq_ns".to_string(), Json::u64(seq_ns))];
    for t in [1usize, 2, 4, 8] {
        let ns = timed_search(&mb, &wb, t, thread_reps);
        eout!("bench-json:   {t} thread(s): {ns} ns");
        thread_members.push((format!("t{t}_ns"), Json::u64(ns)));
    }

    // Cache: one cold extraction vs an exact-hit replay through the
    // extraction cache — the repeat-submit path a resident service
    // serves. The replay must be byte-identical to the cold result.
    let cache_scale = micro_scale;
    eout!("bench-json: cache warm-vs-cold @ dalu scale {cache_scale}");
    let cache_members = {
        use pf_cache::{CacheConfig, ExtractionCache};
        use pf_core::{extract_kernels_cached, CacheHandle, ExtractConfig};
        use pf_kcmatrix::{network_digest, Digest};
        use pf_network::io::write_network;

        let nw = generate(&scale_profile(
            &profile_by_name("dalu").expect("dalu profile exists"),
            cache_scale,
        ));
        let extract = ExtractConfig::default();
        let cold_ns = median_ns(micro_reps, || {
            let mut work = nw.clone();
            let (report, _) =
                extract_kernels_cached(&mut work, |_| {}, &[], &extract, &mut None, None);
            std::hint::black_box(report.lc_after);
        });

        let cache = ExtractionCache::new(CacheConfig::default());
        let content = network_digest(&nw);
        let handle = CacheHandle {
            cache: &cache,
            key: Digest::of_str("bench:seq").combine(content),
            warm_key: content,
            admit: true,
        };
        // Fill once (the cold run that seeds the cache), keep its output
        // as the byte-identity reference.
        let mut cold_net = nw.clone();
        extract_kernels_cached(
            &mut cold_net,
            |_| {},
            &[],
            &extract,
            &mut None,
            Some(&handle),
        );
        // Warm: every repetition is an exact hit.
        let (mut hits, mut lookups) = (0u64, 0u64);
        let mut warm_net = nw.clone();
        let warm_ns = median_ns(micro_reps, || {
            let mut work = nw.clone();
            let (report, ev) =
                extract_kernels_cached(&mut work, |_| {}, &[], &extract, &mut None, Some(&handle));
            hits += ev.hits;
            lookups += ev.lookups;
            warm_net = work;
            std::hint::black_box(report.lc_after);
        });
        let identical = write_network(&warm_net) == write_network(&cold_net);
        let speedup = cold_ns as f64 / warm_ns.max(1) as f64;
        let hit_rate = hits as f64 / lookups.max(1) as f64;
        eout!(
            "bench-json:   cold {:.3} ms, warm {:.3} ms ({speedup:.1}x), \
             hit rate {hit_rate:.2}, identical: {identical}",
            cold_ns as f64 / 1e6,
            warm_ns as f64 / 1e6,
        );
        Json::obj([
            ("scale", Json::num(cache_scale)),
            ("cold_ms", Json::num(cold_ns as f64 / 1e6)),
            ("warm_ms", Json::num(warm_ns as f64 / 1e6)),
            ("speedup_cold_over_warm", Json::num(speedup)),
            ("hit_rate", Json::num(hit_rate)),
            ("identical", Json::Bool(identical)),
        ])
    };

    // End-to-end: every driver at each scale.
    let mut e2e_members: Vec<(String, Json)> = Vec::new();
    for &scale in e2e_scales {
        let nw = generate(&scale_profile(
            &profile_by_name("dalu").expect("dalu profile exists"),
            scale,
        ));
        // Medians need repetition, but the big scale runs for seconds —
        // one observation is the honest budget there.
        let reps = if scale < 0.5 { 3 } else { 1 };
        let mut drivers: Vec<(String, Json)> = Vec::new();
        for driver in ["seq", "replicated", "independent", "lshaped"] {
            let ms = timed_extract(&nw, driver, 4, 0, reps);
            eout!("bench-json: e2e {driver} @ {scale}: {ms:.1} ms");
            drivers.push((driver.to_string(), Json::num(ms)));
        }
        e2e_members.push((format!("scale_{scale}"), Json::Obj(drivers)));
    }

    // Batched extraction: conflict-aware top-K batching on the seq
    // driver versus the classic one-per-pass cover. Pass counts back
    // the --assert-pass-reduction gate.
    let mut batch_members: Vec<(String, Json)> = Vec::new();
    let mut pass_reduction_min = f64::INFINITY;
    for &scale in e2e_scales {
        use pf_core::{extract_kernels, ExtractConfig};
        let nw = generate(&scale_profile(
            &profile_by_name("dalu").expect("dalu profile exists"),
            scale,
        ));
        // Only the seq driver runs here (milliseconds even at scale 1),
        // so a real median is affordable at every scale.
        let reps = if opts.quick { 3 } else { 7 };
        let mut rows: Vec<(String, Json)> = Vec::new();
        let mut passes_k1 = 0u64;
        let mut reduction_pct = 0.0;
        // The trailing config is the tentpole claim: batching carries
        // K× the work past each barrier, so intra-pass threads finally
        // pay off end-to-end.
        for (label, k, threads) in [
            ("k1", 1usize, 0usize),
            ("k4", 4, 0),
            ("k16", 16, 0),
            ("k16_t2", 16, 2),
        ] {
            let mut extract = ExtractConfig::default();
            extract.search.topk = k;
            extract.search.par_threads = threads;
            let (mut passes, mut extractions, mut lc) = (0u64, 0u64, 0u64);
            let ns = median_ns(reps, || {
                let mut work = nw.clone();
                let report = extract_kernels(&mut work, &[], &extract);
                passes = report.passes as u64;
                extractions = report.extractions as u64;
                lc = report.lc_after as u64;
                std::hint::black_box(report.lc_after);
            });
            eout!(
                "bench-json: batch {label} @ {scale}: {passes} passes, lc {lc}, {:.1} ms",
                ns as f64 / 1e6
            );
            if label == "k1" {
                passes_k1 = passes;
            } else if label == "k16" {
                reduction_pct = if passes_k1 == 0 {
                    100.0
                } else {
                    (passes_k1.saturating_sub(passes)) as f64 / passes_k1 as f64 * 100.0
                };
            }
            rows.push((
                label.to_string(),
                Json::obj([
                    ("batch_rects", Json::u64(k as u64)),
                    ("par_threads", Json::u64(threads as u64)),
                    ("passes", Json::u64(passes)),
                    ("extractions", Json::u64(extractions)),
                    ("lc_after", Json::u64(lc)),
                    ("e2e_ms", Json::num(ns as f64 / 1e6)),
                ]),
            ));
        }
        eout!("bench-json: batch @ {scale}: k16 cut passes by {reduction_pct:.1}%");
        rows.push((
            "pass_reduction_k16_pct".to_string(),
            Json::num(reduction_pct),
        ));
        pass_reduction_min = pass_reduction_min.min(reduction_pct);
        batch_members.push((format!("scale_{scale}"), Json::Obj(rows)));
    }
    if !pass_reduction_min.is_finite() {
        pass_reduction_min = 0.0;
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("schema", Json::str("parafactor/bench_rect/v1")),
        ("workload", Json::str("gen:dalu")),
        ("quick", Json::Bool(opts.quick)),
        // Thread-scaling numbers are only meaningful relative to this:
        // on a single-core host the t2/t4/t8 rows measure pure engine
        // overhead, not parallel speedup.
        ("cpu_cores", Json::u64(cores as u64)),
        (
            "rect_search",
            Json::obj([
                ("scale", Json::num(micro_scale)),
                ("vec_ns", Json::u64(vec_ns)),
                ("bitset_ns", Json::u64(bitset_ns)),
                ("speedup_vec_over_bitset", Json::num(speedup)),
            ]),
        ),
        (
            "par_search",
            Json::obj([
                ("scale", Json::num(big_scale)),
                ("threads", Json::Obj(thread_members)),
            ]),
        ),
        ("cache", cache_members),
        ("extract_e2e_ms", Json::Obj(e2e_members)),
        ("batch", Json::Obj(batch_members)),
        ("pass_reduction_k16_pct_min", Json::num(pass_reduction_min)),
    ])
}

/// Runs the distributed-partition measurements and renders the JSON
/// document: for each scale in the sweep, the sequential oracle, then
/// for each worker count the recovery-off run (Algorithm-I quality —
/// cut rectangles are simply lost) against the recovery-on run, with
/// the share of the literal gap that boundary recovery closed and the
/// share of the recovered wall the recovery stage (frontier + resub +
/// sweep) consumed. Small scales (< 1) back the quality gate
/// (`--assert-gap-closed`); large scales (≥ 2) back the wall-clock gate
/// (`--assert-recovery-share`) — there extraction, not recovery, must
/// own the run.
pub fn run_partition(opts: &BenchJsonOptions) -> Json {
    use pf_core::{
        distributed_extract, extract_kernels, DistConfig, DistStats, ExtractConfig, LocalTransport,
    };

    let scales: Vec<f64> = match &opts.scales {
        Some(s) => s.clone(),
        None if opts.quick => vec![0.2],
        None => vec![0.5, 2.0, 4.0],
    };

    let mut scale_members: Vec<(String, Json)> = Vec::new();
    let mut worst_gap_closed = f64::INFINITY;
    let mut worst_recovery_share = f64::NEG_INFINITY;
    for &scale in &scales {
        // Quality medians want repetition; the large scales run long
        // enough that one observation is the honest budget.
        let reps = if opts.quick || scale >= 1.0 { 1 } else { 3 };
        let nw = generate(&scale_profile(
            &profile_by_name("dalu").expect("dalu profile exists"),
            scale,
        ));
        eout!("bench-json: partition quality/scaling @ dalu scale {scale}");

        // Sequential oracle: the quality ceiling every partitioned run
        // is measured against.
        let mut lc_seq = 0u64;
        let seq_ns = median_ns(reps, || {
            let mut work = nw.clone();
            extract_kernels(&mut work, &[], &ExtractConfig::default());
            lc_seq = work.literal_count() as u64;
        });
        eout!(
            "bench-json:   seq oracle: lc {lc_seq}, {:.1} ms",
            seq_ns as f64 / 1e6
        );

        let dist_run = |workers: usize, recovery: bool| {
            let mut lc = 0u64;
            let mut stats = DistStats::default();
            let mut extract_ns = 0u64;
            let mut recovery_ns = 0u64;
            let ns = median_ns(reps, || {
                let mut work = nw.clone();
                let transport = LocalTransport::new(workers);
                let cfg = DistConfig {
                    recovery,
                    ..DistConfig::default()
                };
                let (report, s) = distributed_extract(&mut work, &transport, &cfg);
                assert!(
                    report.completed() && !report.degraded,
                    "fault-free benchmark run must land at full quality"
                );
                lc = work.literal_count() as u64;
                let phase_ns = |name: &str| {
                    report
                        .phases
                        .iter()
                        .find(|p| p.name == name)
                        .map_or(0, |p| p.elapsed.as_nanos() as u64)
                };
                extract_ns = phase_ns("extract");
                recovery_ns = phase_ns("frontier") + phase_ns("resub") + phase_ns("sweep");
                stats = s;
            });
            (lc, ns, extract_ns, recovery_ns, stats)
        };

        let mut dist_rows: Vec<(String, Json)> = Vec::new();
        let mut scale_gap_closed = f64::INFINITY;
        let mut scale_recovery_share = f64::NEG_INFINITY;
        for workers in [1usize, 2, 4] {
            let (lc_ind, ind_ns, _, _, _) = dist_run(workers, false);
            let (lc_rec, rec_ns, extract_ns, recovery_ns, stats) = dist_run(workers, true);
            // Parts default to one per worker, so a single worker has no
            // cut boundary and no gap; a zero gap counts as fully closed.
            let gap = lc_ind as i64 - lc_seq as i64;
            let gap_closed_pct = if gap <= 0 {
                100.0
            } else {
                (lc_ind as i64 - lc_rec as i64) as f64 / gap as f64 * 100.0
            };
            // Recovery's bite out of the recovered run's wall clock: the
            // frontier + resub + sweep phases against total elapsed.
            let recovery_share_pct = recovery_ns as f64 / rec_ns.max(1) as f64 * 100.0;
            if workers > 1 {
                scale_gap_closed = scale_gap_closed.min(gap_closed_pct);
                scale_recovery_share = scale_recovery_share.max(recovery_share_pct);
            }
            eout!(
                "bench-json:   w{workers}: independent lc {lc_ind} ({:.1} ms), \
                 recovered lc {lc_rec} ({:.1} ms), gap closed {gap_closed_pct:.1}%, \
                 recovery share {recovery_share_pct:.1}%",
                ind_ns as f64 / 1e6,
                rec_ns as f64 / 1e6,
            );
            dist_rows.push((
                format!("w{workers}"),
                Json::obj([
                    ("workers", Json::u64(workers as u64)),
                    ("lc_independent", Json::u64(lc_ind)),
                    ("lc_recovered", Json::u64(lc_rec)),
                    ("wall_ms_independent", Json::num(ind_ns as f64 / 1e6)),
                    ("wall_ms_recovered", Json::num(rec_ns as f64 / 1e6)),
                    // The leased-extraction phase alone — the part of
                    // the wall that spreads across workers.
                    ("wall_ms_extract_phase", Json::num(extract_ns as f64 / 1e6)),
                    // The sharded recovery stage: frontier re-extraction
                    // + divisor resubstitution + the final sweep.
                    (
                        "wall_ms_recovery_phases",
                        Json::num(recovery_ns as f64 / 1e6),
                    ),
                    ("recovery_share_pct", Json::num(recovery_share_pct)),
                    ("recovery_rects", Json::u64(stats.recovery_rects)),
                    ("leases_issued", Json::u64(stats.leases_issued)),
                    ("gap_closed_pct", Json::num(gap_closed_pct)),
                ]),
            ));
        }
        if !scale_gap_closed.is_finite() {
            scale_gap_closed = 100.0;
        }
        if !scale_recovery_share.is_finite() {
            scale_recovery_share = 0.0;
        }
        // The quality gate reads small scales; the wall-clock gate reads
        // the ≥ 2 scales where extraction dominates.
        if scale < 2.0 {
            worst_gap_closed = worst_gap_closed.min(scale_gap_closed);
        }
        if scale >= 2.0 {
            worst_recovery_share = worst_recovery_share.max(scale_recovery_share);
        }
        scale_members.push((
            format!("scale_{scale}"),
            Json::obj([
                ("scale", Json::num(scale)),
                (
                    "seq",
                    Json::obj([
                        ("lc", Json::u64(lc_seq)),
                        ("wall_ms", Json::num(seq_ns as f64 / 1e6)),
                    ]),
                ),
                ("dist", Json::Obj(dist_rows)),
                ("gap_closed_pct_min", Json::num(scale_gap_closed)),
                ("recovery_share_pct_max", Json::num(scale_recovery_share)),
            ]),
        ));
    }
    if !worst_gap_closed.is_finite() {
        worst_gap_closed = 100.0;
    }
    if !worst_recovery_share.is_finite() {
        worst_recovery_share = 0.0;
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("schema", Json::str("parafactor/bench_partition/v2")),
        ("workload", Json::str("gen:dalu")),
        (
            "scales_measured",
            Json::Arr(scales.iter().map(|&s| Json::num(s)).collect()),
        ),
        ("quick", Json::Bool(opts.quick)),
        // Wall-time scaling across worker counts is only meaningful
        // relative to this.
        ("cpu_cores", Json::u64(cores as u64)),
        ("scales", Json::Obj(scale_members)),
        ("gap_closed_pct_min", Json::num(worst_gap_closed)),
        ("recovery_share_pct_max", Json::num(worst_recovery_share)),
    ])
}

/// CLI entry point: parses `bench-json` arguments, runs the
/// measurements, writes the file, and prints the document. Returns an
/// error message on bad arguments or an unwritable output path.
pub fn cmd_bench_json(args: &[String]) -> Result<(), String> {
    let mut opts = BenchJsonOptions::default();
    let mut out_set = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                opts.quick = true;
                i += 1;
            }
            "--out" => {
                opts.out = args.get(i + 1).ok_or("--out needs a value")?.clone();
                out_set = true;
                i += 2;
            }
            "--partition" => {
                opts.partition = true;
                i += 1;
            }
            "--assert-gap-closed" => {
                let pct = args
                    .get(i + 1)
                    .ok_or("--assert-gap-closed needs a percentage")?;
                opts.assert_gap_closed = Some(
                    pct.parse::<f64>()
                        .map_err(|e| format!("bad --assert-gap-closed {pct:?}: {e}"))?,
                );
                opts.partition = true;
                i += 2;
            }
            "--scales" => {
                let list = args
                    .get(i + 1)
                    .ok_or("--scales needs a comma-separated list (e.g. 0.5,2,4)")?;
                let parsed: Result<Vec<f64>, String> = list
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<f64>()
                            .map_err(|e| format!("bad --scales entry {s:?}: {e}"))
                            .and_then(|v| {
                                if v > 0.0 && v.is_finite() {
                                    Ok(v)
                                } else {
                                    Err(format!("--scales entry {s:?} must be positive"))
                                }
                            })
                    })
                    .collect();
                let parsed = parsed?;
                if parsed.is_empty() {
                    return Err("--scales needs at least one factor".to_string());
                }
                opts.scales = Some(parsed);
                opts.partition = true;
                i += 2;
            }
            "--assert-recovery-share" => {
                let pct = args
                    .get(i + 1)
                    .ok_or("--assert-recovery-share needs a percentage")?;
                opts.assert_recovery_share = Some(
                    pct.parse::<f64>()
                        .map_err(|e| format!("bad --assert-recovery-share {pct:?}: {e}"))?,
                );
                opts.partition = true;
                i += 2;
            }
            "--assert-pass-reduction" => {
                let pct = args
                    .get(i + 1)
                    .ok_or("--assert-pass-reduction needs a percentage")?;
                opts.assert_pass_reduction = Some(
                    pct.parse::<f64>()
                        .map_err(|e| format!("bad --assert-pass-reduction {pct:?}: {e}"))?,
                );
                i += 2;
            }
            "--assert-cache-identical" => {
                opts.assert_cache_identical = true;
                i += 1;
            }
            other => return Err(format!("unknown bench-json option {other:?}")),
        }
    }
    if opts.partition && !out_set {
        opts.out = "BENCH_partition.json".to_string();
    }
    if opts.partition && (opts.assert_cache_identical || opts.assert_pass_reduction.is_some()) {
        return Err(
            "--assert-cache-identical/--assert-pass-reduction only apply without --partition"
                .to_string(),
        );
    }
    let doc = if opts.partition {
        run_partition(&opts)
    } else {
        run(&opts)
    };
    let text = doc.to_string();
    std::fs::write(&opts.out, format!("{text}\n"))
        .map_err(|e| format!("cannot write {}: {e}", opts.out))?;
    // The document is in the file already; a reader that closed stdout
    // early does not want the copy, and the asserts below still run.
    if let Err(e) = writeln!(std::io::stdout(), "{text}") {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            return Err(format!("cannot write to stdout: {e}"));
        }
    }
    eout!("bench-json: wrote {}", opts.out);
    if let Some(min) = opts.assert_pass_reduction {
        let got = doc
            .get("pass_reduction_k16_pct_min")
            .and_then(Json::as_f64)
            .ok_or("pass_reduction_k16_pct_min missing from the document")?;
        if got < min {
            return Err(format!(
                "batching at K=16 cut passes by only {got:.1}%, below the {min}% floor"
            ));
        }
        eout!("bench-json: K=16 batching cut passes by >= {got:.1}% (floor {min}%)");
    }
    if opts.assert_cache_identical {
        let identical = doc
            .get("cache")
            .and_then(|c| c.get("identical"))
            .and_then(|v| match v {
                Json::Bool(b) => Some(*b),
                _ => None,
            })
            .ok_or("cache.identical missing from the document")?;
        if !identical {
            return Err("warm cache-served network differs from the cold run".to_string());
        }
        eout!("bench-json: warm cache replay is byte-identical to the cold run");
    }
    if let Some(min) = opts.assert_gap_closed {
        let got = doc
            .get("gap_closed_pct_min")
            .and_then(Json::as_f64)
            .ok_or("gap_closed_pct_min missing from the document")?;
        if got < min {
            return Err(format!(
                "boundary recovery closed only {got:.1}% of the partition \
                 literal gap, below the {min}% floor"
            ));
        }
        eout!("bench-json: recovery closed >= {got:.1}% of the gap (floor {min}%)");
    }
    if let Some(limit) = opts.assert_recovery_share {
        let measured_big_scale = doc
            .get("scales_measured")
            .and_then(|s| match s {
                Json::Arr(items) => {
                    Some(items.iter().any(|v| v.as_f64().is_some_and(|f| f >= 2.0)))
                }
                _ => None,
            })
            .unwrap_or(false);
        if !measured_big_scale {
            eout!(
                "bench-json: WARNING --assert-recovery-share skipped: \
                 no scale >= 2 in the sweep"
            );
        } else {
            let got = doc
                .get("recovery_share_pct_max")
                .and_then(Json::as_f64)
                .ok_or("recovery_share_pct_max missing from the document")?;
            if got > limit {
                return Err(format!(
                    "recovery stage took {got:.1}% of the recovered wall at \
                     scale >= 2, above the {limit}% ceiling"
                ));
            }
            eout!(
                "bench-json: recovery stage took <= {got:.1}% of the recovered \
                 wall (ceiling {limit}%)"
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_the_schema() {
        let doc = run(&BenchJsonOptions {
            quick: true,
            ..BenchJsonOptions::default()
        });
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("parafactor/bench_rect/v1")
        );
        let micro = doc.get("rect_search").expect("rect_search present");
        assert!(micro.get("vec_ns").and_then(Json::as_u64).unwrap() > 0);
        assert!(micro.get("bitset_ns").and_then(Json::as_u64).unwrap() > 0);
        let threads = doc
            .get("par_search")
            .and_then(|p| p.get("threads"))
            .expect("threads table");
        for key in ["seq_ns", "t1_ns", "t2_ns", "t4_ns", "t8_ns"] {
            assert!(
                threads.get(key).and_then(Json::as_u64).unwrap() > 0,
                "{key}"
            );
        }
        let cache = doc.get("cache").expect("cache section present");
        assert!(cache.get("cold_ms").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(cache.get("warm_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(cache
            .get("speedup_cold_over_warm")
            .and_then(Json::as_f64)
            .unwrap()
            .is_finite());
        assert_eq!(cache.get("hit_rate").and_then(Json::as_f64), Some(1.0));
        assert_eq!(cache.get("identical"), Some(&Json::Bool(true)));
        assert!(doc.get("extract_e2e_ms").is_some());
        // Batch section: one row per K at each scale, with pass counts
        // that can only shrink as K grows, plus the gate scalar.
        let batch = doc
            .get("batch")
            .and_then(|b| b.get("scale_0.08"))
            .expect("batch section present");
        let passes_of = |k: &str| {
            batch
                .get(k)
                .and_then(|r| r.get("passes"))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{k}.passes present"))
        };
        let (p1, p4, p16) = (passes_of("k1"), passes_of("k4"), passes_of("k16"));
        assert!(p1 >= 1);
        assert!(p4 <= p1, "k4 took more passes ({p4} vs {p1})");
        assert!(p16 <= p4, "k16 took more passes ({p16} vs {p4})");
        assert!(batch
            .get("pass_reduction_k16_pct")
            .and_then(Json::as_f64)
            .unwrap()
            .is_finite());
        assert!(doc
            .get("pass_reduction_k16_pct_min")
            .and_then(Json::as_f64)
            .unwrap()
            .is_finite());
    }

    #[test]
    fn quick_partition_run_produces_the_schema() {
        let doc = run_partition(&BenchJsonOptions {
            quick: true,
            partition: true,
            ..BenchJsonOptions::default()
        });
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("parafactor/bench_partition/v2")
        );
        let row_for = |scale: &str| {
            doc.get("scales")
                .and_then(|s| s.get(scale))
                .unwrap_or_else(|| panic!("scale row {scale} present"))
        };
        let sc = row_for("scale_0.2");
        let seq = sc.get("seq").expect("seq oracle present");
        let lc_seq = seq.get("lc").and_then(Json::as_u64).unwrap();
        assert!(lc_seq > 0);
        for w in ["w1", "w2", "w4"] {
            let row = sc
                .get("dist")
                .and_then(|d| d.get(w))
                .unwrap_or_else(|| panic!("dist row {w} present"));
            let lc_ind = row.get("lc_independent").and_then(Json::as_u64).unwrap();
            let lc_rec = row.get("lc_recovered").and_then(Json::as_u64).unwrap();
            // Recovery (extraction + resubstitution + sweep) can only
            // improve on the independent result.
            assert!(lc_rec <= lc_ind, "{w}: {lc_rec} vs {lc_ind}");
            assert!(lc_rec > 0, "{w}");
            assert!(row.get("leases_issued").and_then(Json::as_u64).unwrap() > 0);
            assert!(row
                .get("gap_closed_pct")
                .and_then(Json::as_f64)
                .unwrap()
                .is_finite());
            let share = row
                .get("recovery_share_pct")
                .and_then(Json::as_f64)
                .unwrap();
            assert!((0.0..=100.0).contains(&share), "{w}: share {share}");
        }
        // A single worker has one partition, no frontier, and — with the
        // recovery-skip fast path — zero recovery wall.
        let w1 = sc.get("dist").and_then(|d| d.get("w1")).unwrap();
        assert_eq!(
            w1.get("recovery_rects").and_then(Json::as_u64),
            Some(0),
            "single partition must skip recovery"
        );
        for key in ["gap_closed_pct_min", "recovery_share_pct_max"] {
            assert!(
                sc.get(key).and_then(Json::as_f64).unwrap().is_finite(),
                "{key}"
            );
            assert!(
                doc.get(key).and_then(Json::as_f64).unwrap().is_finite(),
                "top-level {key}"
            );
        }
        // No scale >= 2 in the quick default: the wall-clock gate value
        // degrades to 0 rather than going missing.
        assert_eq!(
            doc.get("recovery_share_pct_max").and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn partition_sweep_honours_explicit_scales() {
        let doc = run_partition(&BenchJsonOptions {
            quick: true,
            partition: true,
            scales: Some(vec![0.1, 0.15]),
            ..BenchJsonOptions::default()
        });
        let scales = doc.get("scales").expect("scales table");
        assert!(scales.get("scale_0.1").is_some());
        assert!(scales.get("scale_0.15").is_some());
        assert!(scales.get("scale_0.2").is_none());
        let measured = doc.get("scales_measured").unwrap();
        let Json::Arr(items) = measured else {
            panic!("scales_measured must be an array")
        };
        assert_eq!(items.len(), 2);
    }
}
