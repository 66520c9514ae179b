//! The library workloads: one closed-loop caller driving a program entry
//! point over the workload's circuit list. A job is one pass over the
//! list; its wall is one clock interval around the driver calls, with
//! input cloning before it and verification after it.

use crate::adapter::{self, CoverCounts, Network, Outcome, Runner};
use crate::eval::{Circuit, Reference};
use crate::golden::Golden;
use crate::inputs::{CircuitSpec, Driver, SplitMix64};
use crate::metrics::Values;
use crate::stats::{mean, median, quantile, quietest, ratio};
use crate::trace::{per_job, Recorder};
use crate::{procfs, Plan, RunResult};
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Untimed jobs at the end of set-up: caches, allocator and branch
/// predictors settle, and the verifier learns the deterministic outputs.
const WARMUP_JOBS: usize = 3;
/// Repetitions of each standalone layer timing (the median is kept).
const STANDALONE_REPS: usize = 5;

/// Reference jobs are numbered from here, so a trace viewer shows them
/// on rows of their own.
const REFERENCE_ROW: u32 = 1 << 20;

/// One input circuit, relabelled by the seed, with what verification
/// needs to know about it.
struct Input {
    spec: CircuitSpec,
    network: Network,
    reference: Reference,
    lc_before: usize,
}

/// Everything set-up builds.
struct Session {
    driver: Driver,
    inputs: Vec<Input>,
    runner: Runner,
    /// Fingerprints of outputs that already passed the equivalence check.
    verified: HashSet<u64>,
    /// Per input, the fingerprint of the driver's output (deterministic
    /// drivers produce one; the traced loop must reproduce it).
    output_fp: Vec<u64>,
    generate_ms: f64,
    nodes: usize,
    verify_ms: Vec<f64>,
}

/// One pass of the benchmark's own cover loop over the circuit list.
struct CoverJob {
    wall_ms: f64,
    counts: CoverCounts,
    /// Per circuit.
    lc_after: Vec<usize>,
    ok: bool,
}

/// One job's measurements.
struct Job {
    wall_ms: f64,
    cpu_ms: f64,
    lc_after: usize,
    ok: bool,
    outcomes: Vec<Outcome>,
}

impl Session {
    fn set_up(
        driver: Driver,
        circuits: &[CircuitSpec],
        seed: u64,
        golden: &Golden,
    ) -> Result<Session, String> {
        let mut inputs = Vec::new();
        let (mut generate_ms, mut nodes) = (0.0, 0);
        for spec in circuits {
            let t = Instant::now();
            let base = adapter::generate(spec);
            generate_ms += ms(t.elapsed());
            let flat = adapter::flatten(&base);
            golden.check_circuit(&spec.label(), &flat)?;
            let reference = Reference::new(&flat, seed).ok_or("generated circuit is not a DAG")?;
            let network = adapter::relabel(&base, &mut relabel_rng(seed, spec));
            if !reference.matches(&adapter::flatten(&network)) {
                return Err(format!(
                    "{}: relabelling changed the function",
                    spec.label()
                ));
            }
            nodes += flat.num_nodes();
            inputs.push(Input {
                spec: *spec,
                network,
                reference,
                lc_before: flat.literal_count(),
            });
        }
        let mut session = Session {
            driver,
            output_fp: vec![0; inputs.len()],
            inputs,
            runner: Runner::new(driver),
            verified: HashSet::new(),
            generate_ms,
            nodes,
            verify_ms: Vec::new(),
        };
        for _ in 0..WARMUP_JOBS {
            if !session.run_job().ok {
                return Err("a warm-up job failed verification".into());
            }
        }
        session.verify_ms.clear();
        Ok(session)
    }

    fn clones(&self) -> Vec<Network> {
        self.inputs.iter().map(|i| i.network.clone()).collect()
    }

    /// Checks one output: the driver's own literal count against the
    /// benchmark's, no literal growth, and functional equivalence with
    /// the generated circuit (skipped for an output already verified).
    fn verify(&mut self, k: usize, out: &Network, claimed_lc_after: usize) -> (bool, Circuit) {
        let t = Instant::now();
        let flat = adapter::flatten(out);
        let input = &self.inputs[k];
        let mut ok =
            flat.literal_count() == claimed_lc_after && claimed_lc_after <= input.lc_before;
        let fp = flat.fingerprint() ^ (k as u64) << 56;
        if ok && !self.verified.contains(&fp) {
            ok = input.reference.matches(&flat);
            if ok {
                self.verified.insert(fp);
            }
        }
        self.verify_ms.push(ms(t.elapsed()));
        (ok, flat)
    }

    /// One untraced job: a pass of the driver over the circuit list.
    fn run_job(&mut self) -> Job {
        let mut nws = self.clones();
        let cpu0 = procfs::cpu_seconds();
        let t = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            nws.iter_mut()
                .map(|nw| self.runner.run(nw))
                .collect::<Vec<_>>()
        }));
        let wall_ms = ms(t.elapsed());
        let cpu_ms = (procfs::cpu_seconds() - cpu0) * 1e3;
        let Ok(outcomes) = run else {
            return Job {
                wall_ms,
                cpu_ms,
                lc_after: 0,
                ok: false,
                outcomes: Vec::new(),
            };
        };
        let mut ok = true;
        for (k, (nw, outcome)) in nws.iter().zip(&outcomes).enumerate() {
            let (verified, flat) = self.verify(k, nw, outcome.lc_after);
            ok &= verified
                && outcome.completed
                && outcome.leases_balanced
                && outcome.lc_before == self.inputs[k].lc_before;
            self.output_fp[k] = flat.fingerprint();
        }
        let lc_after = outcomes.iter().map(|o| o.lc_after).sum();
        Job {
            wall_ms,
            cpu_ms,
            lc_after,
            ok,
            outcomes,
        }
    }

    /// One traced pass of the benchmark's own cover loop over the circuit
    /// list, as a `job` span with `build`/`search`/`apply` children.
    fn traced_cover_job(
        &mut self,
        tuned: bool,
        rec: &mut Recorder,
        same_as_driver: bool,
    ) -> CoverJob {
        let mut nws = self.clones();
        let mut counts = CoverCounts::default();
        let span = rec.begin("job");
        let lc_after: Vec<usize> = nws
            .iter_mut()
            .map(|nw| adapter::traced_cover(nw, tuned, rec, &mut counts))
            .collect();
        rec.end(span);
        let s = rec.span(span);
        let wall_ms = (s.end_ns - s.start_ns) as f64 / 1e6;
        let mut ok = true;
        for (k, (nw, &lc)) in nws.iter().zip(&lc_after).enumerate() {
            let (verified, flat) = self.verify(k, nw, lc);
            // The traced loop is only a faithful stand-in for the
            // driver if it ends at the driver's exact network.
            ok &= verified && (!same_as_driver || flat.fingerprint() == self.output_fp[k]);
        }
        CoverJob {
            wall_ms,
            counts,
            lc_after,
            ok,
        }
    }

    /// One driver job as a `job` span whose children are the phases the
    /// driver reported, laid end to end inside each `driver` call.
    fn traced_driver_job(&mut self, rec: &mut Recorder) -> Job {
        let mut nws = self.clones();
        let job_span = rec.begin("job");
        let mut outcomes = Vec::new();
        let run = catch_unwind(AssertUnwindSafe(|| {
            for nw in nws.iter_mut() {
                let span = rec.begin("driver");
                let outcome = self.runner.run(nw);
                rec.end(span);
                let mut at = rec.span(span).start_ns;
                for &(name, ns) in &outcome.phases {
                    rec.child(span, name, at, ns);
                    at += ns;
                }
                outcomes.push(outcome);
            }
        }));
        if run.is_err() {
            return Job {
                wall_ms: 0.0,
                cpu_ms: 0.0,
                lc_after: 0,
                ok: false,
                outcomes: Vec::new(),
            };
        }
        rec.end(job_span);
        let s = rec.span(job_span);
        let wall_ms = (s.end_ns - s.start_ns) as f64 / 1e6;
        let mut ok = true;
        for (k, (nw, outcome)) in nws.iter().zip(&outcomes).enumerate() {
            ok &= self.verify(k, nw, outcome.lc_after).0 && outcome.completed;
        }
        let lc_after = outcomes.iter().map(|o| o.lc_after).sum();
        Job {
            wall_ms,
            cpu_ms: 0.0,
            lc_after,
            ok,
            outcomes,
        }
    }
}

/// The relabelling draw for one circuit: by seed and circuit, not by
/// workload, so a circuit two workloads share is the same input in both.
pub fn relabel_rng(seed: u64, spec: &CircuitSpec) -> SplitMix64 {
    let label = spec
        .label()
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131) ^ u64::from(b));
    SplitMix64::new(SplitMix64::new(seed).next_u64() ^ label)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one library workload according to `plan`.
pub fn run(
    name: &str,
    driver: Driver,
    circuits: &[CircuitSpec],
    plan: &Plan,
    golden: &Golden,
    started: Instant,
) -> Result<RunResult, String> {
    // Set-up, several times over: the median is steadier than one shot.
    let mut setups = Vec::new();
    let mut session = None;
    for repeat in 0..plan.setup_repeats {
        let t = if repeat == 0 { started } else { Instant::now() };
        drop(session.take()); // the previous set-up's workers stop first
        session = Some(Session::set_up(driver, circuits, plan.seed, golden)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut session = session.expect("at least one set-up");
    let mut result = RunResult::default();
    let mut values = Values::default();

    // Measured run, tracing off.
    let (mut walls, mut cpus, mut lcs, mut extractions) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(plan.untraced_secs);
    while Instant::now() < deadline || result.attempted == 0 {
        let job = session.run_job();
        result.attempted += 1;
        if job.ok {
            walls.push(job.wall_ms);
            cpus.push(job.cpu_ms);
            lcs.push(job.lc_after as f64);
            extractions.push(job.outcomes.iter().map(|o| o.extractions).sum::<usize>() as f64);
        } else {
            result.failed += 1;
        }
    }
    result.samples = walls.len();
    // The whole-run median is what the traced layers are compared with.
    let p50 = quantile(&walls, 0.5);
    if plan.report_e2e {
        // Time axis: the measured wall alone (verification between jobs
        // is not on it), each job placed where it started.
        let busy_s: f64 = walls.iter().sum::<f64>() / 1e3;
        let mut at = 0.0;
        let timed: Vec<(f64, f64)> = walls
            .iter()
            .map(|&wall| {
                at += wall / 1e3;
                (at - wall / 1e3, wall)
            })
            .collect();
        let quiet = quietest(&timed, busy_s);
        values.set("setup_s", median(&setups));
        values.set("job_wall_ms_p50", quiet.p50);
        values.set("job_wall_ms_p90", quiet.p90);
        values.set("jobs_per_s", quiet.per_second);
        values.set("lc_after", median(&lcs));
    }

    if plan.traced_secs > 0.0 {
        let layers = traced_phase(name, &mut session, plan, golden, started, p50, &mut result)?;
        for (metric, value) in layers {
            values.set(metric, value);
        }
        values.set("workloads.generate_ms", session.generate_ms);
        values.set("workloads.nodes", session.nodes as f64);
        values.set(
            "workloads.lc_before",
            session.inputs.iter().map(|i| i.lc_before).sum::<usize>() as f64,
        );
        values.set("core.extractions", median(&extractions));
        values.set(
            "network.verify_ms",
            mean(&session.verify_ms) * circuits.len() as f64,
        );
        values.set("proc.cpu_ms_per_job", mean(&cpus));
        values.set(
            "proc.cpu_per_wall",
            ratio(cpus.iter().sum(), walls.iter().sum()),
        );
    }
    if plan.report_e2e {
        values.set(
            "verified_jobs_pct",
            100.0
                * ratio(
                    (result.attempted - result.failed) as f64,
                    result.attempted as f64,
                ),
        );
        values.set("peak_rss_mb", procfs::peak_rss_mb());
    }
    result.values = values;
    Ok(result)
}

/// The traced run: the same inputs, with the benchmark's own spans.
/// Returns the per-layer values it measured.
fn traced_phase(
    name: &str,
    session: &mut Session,
    plan: &Plan,
    golden: &Golden,
    origin: Instant,
    untraced_p50: f64,
    result: &mut RunResult,
) -> Result<Vec<(&'static str, f64)>, String> {
    let driver = session.driver;
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    // `jobs` holds the workload's own jobs; `refs` the default-seq
    // reference on the same circuits (the workload itself on seq_default).
    let mut jobs = Recorder::new(origin);
    let mut refs = Recorder::new(origin);
    let (mut job_walls, mut ref_walls) = (Vec::new(), Vec::new());
    let mut job_lcs = Vec::new();
    let mut phase_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut gaps, mut unattributed) = (Vec::new(), Vec::new());
    let mut last_outcomes: Vec<Outcome> = Vec::new();
    let mut cover = CoverCounts::default();
    let mut ref_lcs: Vec<usize> = Vec::new();

    let deadline = Instant::now() + Duration::from_secs_f64(plan.traced_secs);
    let mut n = 0u32;
    while Instant::now() < deadline || n < 2 {
        jobs.set_job(n);
        refs.set_job(REFERENCE_ROW + n);
        result.attempted += 1;
        if driver.is_seq() {
            let job = session.traced_cover_job(driver == Driver::SeqTuned, &mut jobs, true);
            result.failed += u64::from(!job.ok);
            job_walls.push(job.wall_ms);
            job_lcs.push(job.lc_after.iter().sum::<usize>() as f64);
            cover = job.counts;
            if driver == Driver::SeqDefault {
                ref_walls.push(job.wall_ms);
                ref_lcs = job.lc_after;
            }
        } else {
            let job = session.traced_driver_job(&mut jobs);
            result.failed += u64::from(!job.ok);
            if job.ok {
                job_walls.push(job.wall_ms);
                job_lcs.push(job.lc_after as f64);
                let mut by_phase: BTreeMap<&'static str, f64> = BTreeMap::new();
                for o in &job.outcomes {
                    for &(phase, ns) in &o.phases {
                        *by_phase.entry(phase).or_default() += ns as f64 / 1e6;
                    }
                }
                let phases_sum: f64 = by_phase.values().sum();
                gaps.push(100.0 * ratio((job.wall_ms - phases_sum).abs(), job.wall_ms));
                unattributed.push(job.wall_ms - phases_sum);
                for (phase, v) in by_phase {
                    phase_ms.entry(phase).or_default().push(v);
                }
                last_outcomes = job.outcomes;
            }
        }
        if driver != Driver::SeqDefault {
            result.attempted += 1;
            let reference = session.traced_cover_job(false, &mut refs, false);
            result.failed += u64::from(!reference.ok);
            ref_walls.push(reference.wall_ms);
            ref_lcs = reference.lc_after;
            if !driver.is_seq() {
                cover = reference.counts;
            }
        }
        n += 1;
    }
    for (input, &lc) in session.inputs.iter().zip(&ref_lcs) {
        golden.note_seq_lc_after(plan.seed, &input.spec.label(), lc, &mut result.notes);
    }

    // Engine layers by self time: from the workload's own jobs on the
    // seq workloads, from the default-seq reference elsewhere.
    let layer_spans = if driver.is_seq() {
        jobs.spans()
    } else {
        refs.spans()
    };
    let med = |layer: &str| {
        median(
            &per_job(layer_spans, layer)
                .iter()
                .map(|j| j.0)
                .collect::<Vec<_>>(),
        )
    };
    let (build, search, apply) = (med("build"), med("search"), med("apply"));
    out.push(("kcmatrix.build_ms", build));
    out.push(("kcmatrix.rows", cover.rows as f64));
    out.push(("kcmatrix.cols", cover.cols as f64));
    out.push(("kcmatrix.entries", cover.entries as f64));
    out.push(("kcmatrix.search_ms", search));
    out.push(("kcmatrix.search_calls", cover.search_calls as f64));
    out.push((
        "kcmatrix.search_us_per_call",
        1e3 * ratio(search, cover.search_calls as f64),
    ));
    out.push(("kcmatrix.search_visited", cover.visited as f64));
    out.push(("kcmatrix.search_pruned", cover.pruned as f64));
    out.push((
        "kcmatrix.search_budget_exhausted",
        cover.budget_exhausted as f64,
    ));
    out.push(("kcmatrix.batch_candidates", cover.batch_candidates as f64));
    out.push((
        "kcmatrix.batch_accept_ratio",
        ratio(cover.applied as f64, cover.batch_candidates as f64),
    ));
    out.push(("core.apply_ms", apply));
    out.push(("core.apply_calls", cover.applied as f64));
    out.push((
        "core.apply_us_per_call",
        1e3 * ratio(apply, cover.applied as f64),
    ));
    out.push(("core.layers_sum_ms", build + search + apply));
    if driver.is_seq() {
        out.push((
            "core.unattributed_pct",
            100.0 * ratio(untraced_p50 - (build + search + apply), untraced_p50),
        ));
        out.push((
            "core.trace_overhead_pct",
            100.0 * ratio(quantile(&job_walls, 0.5) - untraced_p50, untraced_p50),
        ));
    }

    let seq_ref_ms = quantile(&ref_walls, 0.5);
    let seq_lc: usize = ref_lcs.iter().sum();
    let lc_after = median(&job_lcs);
    out.push(("core.seq_ref_ms", seq_ref_ms));
    out.push(("core.speedup_vs_seq", ratio(seq_ref_ms, untraced_p50)));
    out.push((
        "core.lc_excess_vs_seq_pct",
        100.0 * ratio(lc_after - seq_lc as f64, seq_lc as f64),
    ));

    let phase = |name: &str| phase_ms.get(name).map_or(0.0, |v| median(v));
    match driver {
        Driver::SeqDefault | Driver::SeqTuned => {}
        Driver::Replicated => {
            out.push(("core.r.replicate_ms", phase("replicate")));
            out.push(("core.r.cover_ms", phase("cover")));
        }
        Driver::Independent => {
            out.push(("core.i.partition_ms", phase("partition")));
            out.push(("core.i.extract_ms", phase("extract")));
            out.push(("core.i.merge_ms", phase("merge")));
        }
        Driver::Lshaped => {
            out.push(("core.l.setup_ms", phase("setup")));
            out.push(("core.l.extract_ms", phase("extract")));
            out.push(("core.l.merge_ms", phase("merge")));
            out.push((
                "core.l.shipped_rects",
                last_outcomes.iter().map(|o| o.shipped_rects).sum::<usize>() as f64,
            ));
        }
        Driver::Dist => {
            for (metric, p) in [
                ("dist.partition_ms", "partition"),
                ("dist.extract_ms", "extract"),
                ("dist.merge_ms", "merge"),
                ("dist.frontier_ms", "frontier"),
                ("dist.resub_ms", "resub"),
                ("dist.sweep_ms", "sweep"),
            ] {
                out.push((metric, phase(p)));
            }
            let sum = |f: fn(&Outcome) -> u64| last_outcomes.iter().map(f).sum::<u64>() as f64;
            out.push(("dist.unattributed_ms", median(&unattributed)));
            out.push(("dist.leases_issued", sum(|o| o.leases_issued)));
            out.push(("dist.leases_expired", sum(|o| o.leases_expired)));
            out.push(("dist.leases_stolen", sum(|o| o.leases_stolen)));
            out.push(("dist.recovery_rects", sum(|o| o.recovery_rects as u64)));
            let considered = sum(|o| o.resub_pairs_considered as u64);
            out.push(("dist.resub_pairs_considered", considered));
            out.push((
                "dist.resub_divide_ratio",
                ratio(sum(|o| o.resub_pairs_divided as u64), considered),
            ));
            // How much of Algorithm I's literal gap to seq the recovery
            // phases close: one recovery-off run on the same inputs.
            let mut no_recovery = 0usize;
            for (k, mut nw) in session.clones().into_iter().enumerate() {
                let o = session.runner.run_dist(&mut nw, false);
                result.attempted += 1;
                result.failed += u64::from(!session.verify(k, &nw, o.lc_after).0);
                no_recovery += o.lc_after;
            }
            let gap = no_recovery as f64 - seq_lc as f64;
            out.push((
                "dist.gap_closed_pct",
                100.0 * ratio(no_recovery as f64 - lc_after, gap),
            ));
        }
    }
    if !driver.is_seq() {
        out.push(("core.phases_gap_pct", median(&gaps)));
    }

    // Standalone layer calls on the same inputs.
    let mut kernel_ms = Vec::new();
    let mut kway_ms = Vec::new();
    let (mut pairs, mut cut, mut imbalance) = (0usize, 0u64, 0.0f64);
    for _ in 0..STANDALONE_REPS {
        let t = Instant::now();
        pairs = session
            .inputs
            .iter()
            .map(|i| adapter::kernels_of_all_nodes(&i.network))
            .sum();
        kernel_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let parts: Vec<(u64, f64)> = session
            .inputs
            .iter()
            .map(|i| adapter::partition_two_way(&i.network))
            .collect();
        kway_ms.push(ms(t.elapsed()));
        cut = parts.iter().map(|p| p.0).sum();
        imbalance = parts.iter().map(|p| p.1).fold(0.0, f64::max);
    }
    out.push(("sop.kernels_ms", median(&kernel_ms)));
    out.push(("sop.kernels_pairs", pairs as f64));
    out.push(("partition.kway_ms", median(&kway_ms)));
    out.push(("partition.cut_size", cut as f64));
    out.push(("partition.imbalance_pct", imbalance));

    jobs.merge(refs);
    crate::write_trace(name, jobs.spans(), plan, result)?;
    Ok(out)
}
