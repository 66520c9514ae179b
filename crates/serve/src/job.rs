//! Job types: what a client submits and what it gets back.

use crate::json::Json;
use pf_core::{
    extract_kernels, independent_extract, lshaped_extract, replicated_extract, ExtractConfig,
    ExtractReport, IndependentConfig, LShapedConfig, ReplicatedConfig, RunCtl,
};
use pf_kcmatrix::{Digest, DigestBuilder, SearchConfig};
use pf_network::Network;
use std::ops::RangeInclusive;
use std::time::Duration;

/// Which extraction driver a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Sequential baseline (SIS `gkx` equivalent).
    Seq,
    /// Algorithm R — replicated circuit, striped search.
    Replicated,
    /// Algorithm I — independent partitions.
    Independent,
    /// Algorithm L — L-shaped partitioning with interactions.
    Lshaped,
}

/// All algorithms, in wire order.
pub const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Seq,
    Algorithm::Replicated,
    Algorithm::Independent,
    Algorithm::Lshaped,
];

impl Algorithm {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Algorithm::Seq => "seq",
            Algorithm::Replicated => "replicated",
            Algorithm::Independent => "independent",
            Algorithm::Lshaped => "lshaped",
        }
    }

    /// Index into [`ALGORITHMS`] (and the per-algorithm metrics array):
    /// the variants are declared in wire order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses a wire name.
    pub fn from_wire(name: &str) -> Option<Self> {
        ALGORITHMS.into_iter().find(|a| a.as_str() == name)
    }

    /// Runs the driver on `nw` with `procs` processors (ignored by
    /// `seq`): the one dispatch the service and the CLI share.
    pub fn run(self, nw: &mut Network, procs: usize, extract: ExtractConfig) -> ExtractReport {
        match self {
            Algorithm::Seq => extract_kernels(nw, &[], &extract),
            Algorithm::Replicated => replicated_extract(
                nw,
                &ReplicatedConfig {
                    procs,
                    extract,
                    ..ReplicatedConfig::default()
                },
            ),
            Algorithm::Independent => independent_extract(
                nw,
                &IndependentConfig {
                    procs,
                    extract,
                    ..IndependentConfig::default()
                },
            ),
            Algorithm::Lshaped => lshaped_extract(
                nw,
                &LShapedConfig {
                    procs,
                    extract,
                    ..LShapedConfig::default()
                },
            ),
        }
    }
}

/// One search knob of a job: a `usize` field of [`SearchConfig`].
/// [`KNOBS`] lists each knob once; the CLI flags, the `submit` and `sub`
/// codecs, the range checks, the host clamp, the cache key and the
/// mapping onto [`ExtractConfig`] all iterate it.
pub struct Knob {
    /// Field name on the `submit` and `sub` wire.
    pub wire: &'static str,
    /// CLI flag; without its dashes, the knob's label in the cache key.
    pub flag: &'static str,
    /// Values accepted from outside the program.
    pub range: RangeInclusive<u64>,
    /// Whether the value can change the result (and so the cache key).
    pub affects_result: bool,
    /// Whether the knob is always sent on the `sub` wire (a worker
    /// would fill an absent one with its own default).
    pub on_sub: bool,
    /// Whether the value is capped at the host's parallelism.
    pub host_clamped: bool,
    /// Reads the field.
    pub get: fn(&SearchConfig) -> usize,
    /// Writes the field.
    pub set: fn(&mut SearchConfig, usize),
}

/// Every job knob, in wire order. Defaults are the library's
/// ([`SearchConfig::default`]) everywhere.
pub static KNOBS: [Knob; 3] = [
    // Search workers per matrix; `0` and `1` both search inline.
    Knob {
        wire: "par_threads",
        flag: "--par-threads",
        range: 0..=usize::MAX as u64,
        affects_result: false,
        on_sub: false,
        host_clamped: true,
        get: |s| s.par_threads,
        set: |s, v| s.par_threads = v,
    },
    // Rectangles collected per search pass; `1` is the classic cover.
    Knob {
        wire: "batch_rects",
        flag: "--batch-rects",
        range: 1..=SearchConfig::MAX_TOPK as u64,
        affects_result: true,
        on_sub: true,
        host_clamped: false,
        get: |s| s.topk,
        set: |s, v| s.topk = v,
    },
    // u64 words per tile of the search's column panel, `0` read as 1.
    Knob {
        wire: "tile_width",
        flag: "--tile-width",
        range: 0..=SearchConfig::MAX_TILE_WIDTH as u64,
        affects_result: false,
        on_sub: true,
        host_clamped: false,
        get: |s| s.tile_width,
        set: |s, v| s.tile_width = v,
    },
];

/// Which request a knob codec speaks: `submit` carries every knob,
/// `sub` the [`Knob::on_sub`] ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// A client's job submission.
    Submit,
    /// A coordinator's leased sub-job.
    Sub,
}

impl Knob {
    /// Checks a value arriving from outside the program against the
    /// knob's range; `value` is `None` when it is not a non-negative
    /// integer, and `name` is how the caller spells the knob.
    pub fn check(&self, name: &str, value: Option<u64>) -> Result<usize, String> {
        let (lo, hi) = (*self.range.start(), *self.range.end());
        match value {
            Some(v) if self.range.contains(&v) => Ok(v as usize),
            Some(v) if v > hi => Err(format!("{name} {v} is out of range {lo}..={hi}")),
            _ if lo == 0 => Err(format!("{name} must be a non-negative integer")),
            _ => Err(format!("{name} must be a positive integer")),
        }
    }
}

/// Sets the knob whose CLI flag is `flag` from the flag's value;
/// `Ok(false)` when no knob has that flag.
pub fn knob_from_flag(
    search: &mut SearchConfig,
    flag: &str,
    value: Option<&str>,
) -> Result<bool, String> {
    let Some(k) = KNOBS.iter().find(|k| k.flag == flag) else {
        return Ok(false);
    };
    (k.set)(search, k.check(flag, value.and_then(|v| v.parse().ok()))?);
    Ok(true)
}

/// The knobs that travel on `wire`, in table order.
fn wire_knobs(wire: Wire) -> impl Iterator<Item = &'static Knob> {
    KNOBS
        .iter()
        .filter(move |k| wire == Wire::Submit || k.on_sub)
}

/// `search`'s knobs as request members for `wire`, in table order.
pub fn knobs_to_json(
    search: &SearchConfig,
    wire: Wire,
) -> impl Iterator<Item = (String, Json)> + '_ {
    wire_knobs(wire).map(|k| (k.wire.to_string(), Json::u64((k.get)(search) as u64)))
}

/// Reads the knobs `wire` carries from `request` into `search`; an
/// absent knob keeps its value there, a malformed one is an error.
pub fn knobs_from_json(
    request: &Json,
    search: &mut SearchConfig,
    wire: Wire,
) -> Result<(), String> {
    for k in wire_knobs(wire) {
        if let Some(v) = request.get(k.wire) {
            (k.set)(search, k.check(k.wire, v.as_u64())?);
        }
    }
    Ok(())
}

/// Checks every knob in `search` against its range and caps the
/// host-clamped ones at `max_procs` (`0` stays `0`): the service's
/// admission rule, which the CLI applies too.
pub fn admit_knobs(search: &mut SearchConfig, max_procs: usize) -> Result<(), String> {
    for k in &KNOBS {
        let cap = if k.host_clamped {
            max_procs.max(1)
        } else {
            usize::MAX
        };
        (k.set)(
            search,
            k.check(k.wire, Some((k.get)(search) as u64))?.min(cap),
        );
    }
    Ok(())
}

/// A factorization job as submitted.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Which driver to run.
    pub algorithm: Algorithm,
    /// Workload spec: `gen:<profile>[@scale]` (synthetic circuit) — the
    /// same grammar the CLI input accepts.
    pub workload: String,
    /// Processors / partitions for the parallel drivers (ignored by
    /// `seq`). Validated against the host's parallelism at submit time.
    pub procs: usize,
    /// The job's search knobs ([`KNOBS`]), checked and clamped at
    /// submit time. The other fields keep their defaults and are not
    /// read.
    pub search: SearchConfig,
    /// Per-job deadline; expiry (including time spent queued) turns the
    /// job into a structured timeout response.
    pub deadline: Option<Duration>,
    /// Delta submission: the [`JobSpec::fingerprint`] of a previously
    /// completed (and cached) base job this workload is a revision of.
    /// The worker re-extracts only the cones that differ from the base
    /// and splices the base's cached factored cones for the rest.
    /// `seq` only; `None` is a plain full submission.
    pub delta_from: Option<String>,
}

impl JobSpec {
    /// A job for `workload` with service defaults elsewhere; the search
    /// knobs default to the library's ([`SearchConfig::default`]), so a
    /// default job over the wire equals a default in-process run.
    pub fn new(algorithm: Algorithm, workload: impl Into<String>) -> Self {
        JobSpec {
            algorithm,
            workload: workload.into(),
            procs: 2,
            search: SearchConfig::default(),
            deadline: None,
            delta_from: None,
        }
    }

    /// The extraction config the job runs with: library defaults, the
    /// job's knobs, and `ctl`.
    pub fn extract_config(&self, ctl: &RunCtl) -> ExtractConfig {
        let mut extract = ExtractConfig {
            ctl: ctl.clone(),
            ..ExtractConfig::default()
        };
        for k in &KNOBS {
            (k.set)(&mut extract.search, (k.get)(&self.search));
        }
        extract
    }

    /// The job's poison-tracking identity: what it *computes*
    /// (algorithm + workload), not how (procs/deadline). Two specs with
    /// the same fingerprint crash workers the same way, which is what
    /// quarantine keys on. Human-readable — used in failure messages and
    /// fault-site names; [`JobSpec::poison_key`] is the keyed form.
    pub fn fingerprint(&self) -> String {
        format!("{}/{}", self.algorithm.as_str(), self.workload)
    }

    /// The fingerprint as a canonical [`Digest`] — the *one* keying
    /// implementation shared by the quarantine map, the extraction
    /// cache, and any future shard routing, so the three can never
    /// disagree about job identity.
    pub fn poison_key(&self) -> Digest {
        fingerprint_digest(self.algorithm, &self.workload)
    }

    /// The result-affecting execution parameters of this spec, as a
    /// digest. Combined with the resolved network's content digest this
    /// forms the exact-hit cache key: algorithm always matters, `procs`
    /// only for the parallel drivers (`seq` ignores it), and each
    /// [`Knob::affects_result`] knob under its flag's name. The deadline
    /// is left out: a timed-out run is never admitted.
    pub fn cache_param_digest(&self) -> Digest {
        let mut b = DigestBuilder::new();
        b.write_str("cache-key");
        b.write_str(self.algorithm.as_str());
        if self.algorithm != Algorithm::Seq {
            b.write_u64(self.procs as u64);
        }
        for k in KNOBS.iter().filter(|k| k.affects_result) {
            b.write_str(k.flag.trim_start_matches('-'));
            b.write_u64((k.get)(&self.search) as u64);
        }
        b.finish()
    }
}

/// [`JobSpec::poison_key`] for an (algorithm, workload) pair — exposed
/// so `delta_from` fingerprints can be resolved to the base job's keys
/// without constructing a full spec.
pub fn fingerprint_digest(algorithm: Algorithm, workload: &str) -> Digest {
    let mut b = DigestBuilder::new();
    b.write_str("job-fingerprint");
    b.write_str(algorithm.as_str());
    b.write_str(workload);
    b.finish()
}

/// Why a submission was turned away at the door.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded queue is at capacity: backpressure.
    QueueFull {
        /// Configured capacity the queue was at.
        capacity: usize,
    },
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// The spec itself is invalid (bad algorithm, bad workload grammar,
    /// bad procs).
    Invalid(String),
    /// This job's fingerprint has killed worker threads (or panicked)
    /// repeatedly; the service refuses to run it again.
    Quarantined {
        /// How many worker-fatal runs the fingerprint has on record.
        strikes: u32,
    },
}

impl Rejection {
    /// Stable machine-readable reason.
    pub fn reason(&self) -> &'static str {
        match self {
            Rejection::QueueFull { .. } => "queue_full",
            Rejection::ShuttingDown => "shutting_down",
            Rejection::Invalid(_) => "invalid",
            Rejection::Quarantined { .. } => "quarantined",
        }
    }

    /// Whether a client should retry this rejection (with backoff).
    /// Only backpressure is retryable; the other reasons are terminal.
    pub fn retryable(&self) -> bool {
        matches!(self, Rejection::QueueFull { .. })
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            Rejection::ShuttingDown => write!(f, "service is shutting down"),
            Rejection::Invalid(msg) => write!(f, "invalid job: {msg}"),
            Rejection::Quarantined { strikes } => {
                write!(f, "job quarantined after {strikes} worker-fatal runs")
            }
        }
    }
}

/// How a job ended.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Ran to completion.
    Completed(JobReport),
    /// Stopped at the deadline; partial results are in the report.
    TimedOut(JobReport),
    /// Cancelled by shutdown before (or while) running.
    Drained,
    /// The worker panicked running the job; the pool survives.
    Failed {
        /// Panic payload rendered to text.
        message: String,
    },
}

impl JobOutcome {
    /// Stable machine-readable status.
    pub fn status(&self) -> &'static str {
        match self {
            JobOutcome::Completed(_) => "completed",
            JobOutcome::TimedOut(_) => "timed_out",
            JobOutcome::Drained => "drained",
            JobOutcome::Failed { .. } => "failed",
        }
    }
}

/// Per-job measurements returned with every completed (or timed-out)
/// job.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The extraction report of the run.
    pub report: ExtractReport,
    /// Time the job sat in the queue before a worker picked it up.
    pub queue_wait: Duration,
    /// Wall-clock of the run itself (workload generation + extraction).
    pub run_time: Duration,
}

impl JobReport {
    /// Renders the per-job metrics object for a wire response.
    pub fn to_json(&self) -> Json {
        let r = &self.report;
        Json::obj([
            ("lc_before", Json::u64(r.lc_before as u64)),
            ("lc_after", Json::u64(r.lc_after as u64)),
            ("saved", Json::num(r.saved() as f64)),
            ("extractions", Json::u64(r.extractions as u64)),
            (
                "queue_wait_us",
                Json::u64(self.queue_wait.as_micros() as u64),
            ),
            ("run_us", Json::u64(self.run_time.as_micros() as u64)),
            (
                "phases",
                Json::Obj(
                    r.phases
                        .iter()
                        .map(|p| (p.name.to_string(), Json::u64(p.elapsed.as_micros() as u64)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One finished job's timeline entry, kept in the service's last-N ring
/// and returned by the `trace` wire verb: who ran, how it ended, and
/// where the time went (the driver's per-phase breakdown).
#[derive(Clone, Debug)]
pub struct JobTimeline {
    /// Service-assigned job id.
    pub id: u64,
    /// Which driver ran.
    pub algorithm: Algorithm,
    /// The workload spec as submitted.
    pub workload: String,
    /// Outcome status (`completed` / `timed_out` / `drained` / `failed`).
    pub status: &'static str,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait: Duration,
    /// Wall-clock of the run (zero for jobs that never ran).
    pub run_time: Duration,
    /// The driver's phase breakdown, in execution order (empty for jobs
    /// that never produced a report).
    pub phases: Vec<(&'static str, Duration)>,
}

impl JobTimeline {
    /// Renders one timeline entry for the `trace` response.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::u64(self.id)),
            ("algorithm", Json::str(self.algorithm.as_str())),
            ("workload", Json::str(self.workload.clone())),
            ("status", Json::str(self.status)),
            (
                "queue_wait_us",
                Json::u64(self.queue_wait.as_micros() as u64),
            ),
            ("run_us", Json::u64(self.run_time.as_micros() as u64)),
            (
                "phases",
                Json::Obj(
                    self.phases
                        .iter()
                        .map(|(n, d)| (n.to_string(), Json::u64(d.as_micros() as u64)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The largest scale the service generates: it protects shared workers
/// from remote clients. The CLI sets no cap.
const SERVICE_MAX_SCALE: f64 = 4.0;

/// Parses the `gen:<profile>[@scale]` grammar (scale 0.25 by default)
/// into the profile and a finite, positive scale of at most `max_scale`.
pub fn parse_workload(
    spec: &str,
    max_scale: f64,
) -> Result<(pf_workloads::CircuitProfile, f64), String> {
    let Some(genspec) = spec.strip_prefix("gen:") else {
        return Err(format!(
            "workload {spec:?} not recognized (expected gen:<profile>[@scale])"
        ));
    };
    let (name, scale) = match genspec.split_once('@') {
        Some((n, s)) => (n, s.parse::<f64>().map_err(|_| format!("bad scale {s:?}"))?),
        None => (genspec, 0.25),
    };
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!("scale {scale} must be positive and finite"));
    }
    if scale > max_scale {
        return Err(format!("scale {scale} out of range (0, {max_scale}]"));
    }
    let profile =
        pf_workloads::profile_by_name(name).ok_or_else(|| format!("unknown profile {name:?}"))?;
    Ok((profile, scale))
}

/// Checks the workload grammar without generating the circuit — cheap
/// enough to run at submit time, so bad specs are rejected at the door
/// instead of wasting a worker.
pub fn validate_workload(spec: &str) -> Result<(), String> {
    parse_workload(spec, SERVICE_MAX_SCALE).map(|_| ())
}

/// Resolves a workload spec into a circuit. `gen:<profile>[@scale]`
/// generates a synthetic circuit; anything else is an error (the service
/// does not read files on behalf of remote clients).
pub fn resolve_workload(spec: &str) -> Result<Network, String> {
    let (profile, scale) = parse_workload(spec, SERVICE_MAX_SCALE)?;
    Ok(pf_workloads::generate(&pf_workloads::scale_profile(
        &profile, scale,
    )))
}

/// Builds the shared stop-control handle for a job: deadline if the spec
/// has one, plain (cancel-only) otherwise.
pub fn ctl_for(spec: &JobSpec) -> RunCtl {
    match spec.deadline {
        Some(d) => RunCtl::with_deadline(d),
        None => RunCtl::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_round_trip() {
        for alg in ALGORITHMS {
            assert_eq!(Algorithm::from_wire(alg.as_str()), Some(alg));
        }
        assert_eq!(Algorithm::from_wire("nonsense"), None);
    }

    #[test]
    fn algorithm_index_matches_wire_order() {
        for (i, alg) in ALGORITHMS.iter().enumerate() {
            assert_eq!(alg.index(), i);
        }
    }

    #[test]
    fn fingerprint_ignores_procs_and_deadline() {
        let mut a = JobSpec::new(Algorithm::Lshaped, "gen:dalu@0.2");
        let mut b = a.clone();
        a.procs = 2;
        b.procs = 8;
        b.deadline = Some(Duration::from_secs(1));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), "lshaped/gen:dalu@0.2");
        assert_ne!(
            a.fingerprint(),
            JobSpec::new(Algorithm::Seq, "gen:dalu@0.2").fingerprint()
        );
    }

    #[test]
    fn poison_key_is_the_shared_fingerprint_digest() {
        let mut a = JobSpec::new(Algorithm::Lshaped, "gen:dalu@0.2");
        let mut b = a.clone();
        a.procs = 2;
        b.procs = 8;
        b.deadline = Some(Duration::from_secs(1));
        assert_eq!(a.poison_key(), b.poison_key());
        assert_eq!(
            a.poison_key(),
            fingerprint_digest(Algorithm::Lshaped, "gen:dalu@0.2")
        );
        assert_ne!(
            a.poison_key(),
            fingerprint_digest(Algorithm::Seq, "gen:dalu@0.2")
        );
    }

    #[test]
    fn cache_params_track_procs_only_for_parallel_drivers() {
        let mut seq = JobSpec::new(Algorithm::Seq, "gen:dalu@0.2");
        let mut seq8 = seq.clone();
        seq.procs = 2;
        seq8.procs = 8;
        assert_eq!(seq.cache_param_digest(), seq8.cache_param_digest());
        let mut rep = JobSpec::new(Algorithm::Replicated, "gen:dalu@0.2");
        let mut rep8 = rep.clone();
        rep.procs = 2;
        rep8.procs = 8;
        assert_ne!(rep.cache_param_digest(), rep8.cache_param_digest());
        assert_ne!(seq.cache_param_digest(), rep.cache_param_digest());
    }

    #[test]
    fn cache_params_track_batch_rects_for_every_driver() {
        // Every K is its own key — the classic K = 1 and the default
        // included, neither is the "unkeyed" one — while the
        // result-invariant knobs stay out of the key.
        let with_k = |spec: &JobSpec, k: usize| JobSpec {
            search: SearchConfig {
                topk: k,
                ..spec.search.clone()
            },
            ..spec.clone()
        };
        for alg in ALGORITHMS {
            let default = JobSpec::new(alg, "gen:dalu@0.2");
            assert_eq!(default.search.topk, SearchConfig::default().topk);
            let classic = with_k(&default, SearchConfig::classic().topk);
            let k4 = with_k(&default, 4);
            let k16 = with_k(&default, 16);
            assert_ne!(classic.cache_param_digest(), default.cache_param_digest());
            assert_ne!(classic.cache_param_digest(), k4.cache_param_digest());
            assert_ne!(k4.cache_param_digest(), k16.cache_param_digest());
            let mut same_k = k4.clone();
            same_k.search.tile_width = k4.search.tile_width + 3;
            same_k.search.par_threads = k4.search.par_threads + 2;
            assert_eq!(same_k.cache_param_digest(), k4.cache_param_digest());
            // Fingerprint (poison identity) still ignores it.
            assert_eq!(classic.fingerprint(), k16.fingerprint());
        }
    }

    #[test]
    fn knob_checks_follow_the_table_ranges() {
        let [par_threads, batch_rects, tile_width] = &KNOBS;
        assert_eq!(par_threads.check("p", Some(0)), Ok(0));
        assert_eq!(batch_rects.check("k", Some(1)), Ok(1));
        assert_eq!(tile_width.check("w", Some(64)), Ok(64));
        assert_eq!(
            batch_rects.check("k", Some(0)),
            Err("k must be a positive integer".to_string())
        );
        assert_eq!(
            par_threads.check("p", None),
            Err("p must be a non-negative integer".to_string())
        );
        assert_eq!(
            tile_width.check("w", Some(65)),
            Err("w 65 is out of range 0..=64".to_string())
        );
        assert_eq!(batch_rects.check("k", Some(64)), Ok(64));
        assert_eq!(
            batch_rects.check("k", Some(65)),
            Err("k 65 is out of range 1..=64".to_string())
        );
        let mut search = SearchConfig::default();
        assert!(knob_from_flag(&mut search, "--tile-width", Some("-1")).is_err());
        assert!(knob_from_flag(&mut search, "--batch-rects", Some("1.5")).is_err());
        assert!(knob_from_flag(&mut search, "--batch-rects", None).is_err());
        assert_eq!(
            knob_from_flag(&mut search, "--batch-rects", Some("3")),
            Ok(true)
        );
        assert_eq!(knob_from_flag(&mut search, "--procs", Some("3")), Ok(false));
        assert_eq!(search.topk, 3);
    }

    #[test]
    fn admission_checks_every_knob_and_clamps_only_the_host_ones() {
        let mut search = SearchConfig {
            par_threads: 64,
            topk: 64,
            tile_width: 64,
            ..SearchConfig::default()
        };
        admit_knobs(&mut search, 3).unwrap();
        assert_eq!(
            (search.par_threads, search.topk, search.tile_width),
            (3, 64, 64)
        );
        search.par_threads = 0;
        admit_knobs(&mut search, 3).unwrap();
        assert_eq!(search.par_threads, 0, "0 stays 0");
        search.topk = 0;
        assert!(admit_knobs(&mut search, 3).is_err());
        search.topk = 1;
        search.tile_width = 65;
        assert!(admit_knobs(&mut search, 3).is_err());
    }

    #[test]
    fn knob_codec_round_trips_and_sub_carries_only_its_knobs() {
        let search = SearchConfig {
            par_threads: 3,
            topk: 5,
            tile_width: 7,
            ..SearchConfig::default()
        };
        for wire in [Wire::Submit, Wire::Sub] {
            let request = Json::Obj(knobs_to_json(&search, wire).collect());
            let mut decoded = SearchConfig::default();
            knobs_from_json(&request, &mut decoded, wire).unwrap();
            for k in &KNOBS {
                let travels = wire == Wire::Submit || k.on_sub;
                assert_eq!(request.get(k.wire).is_some(), travels, "{}", k.wire);
                let expected = if travels {
                    &search
                } else {
                    &SearchConfig::default()
                };
                assert_eq!((k.get)(&decoded), (k.get)(expected), "{}", k.wire);
            }
        }
    }

    #[test]
    fn extract_config_takes_the_knobs_and_nothing_else() {
        let mut spec = JobSpec::new(Algorithm::Seq, "gen:misex3@0.05");
        spec.search = SearchConfig {
            budget: 7,
            ..SearchConfig::classic()
        };
        let extract = spec.extract_config(&RunCtl::new());
        assert_eq!(extract.search.topk, 1);
        assert_eq!(extract.search.budget, SearchConfig::default().budget);
    }

    /// The service doc's submit grammar names every wire knob, and its
    /// knob table has a row with the flag and default of each, so the
    /// document cannot fall behind the table.
    #[test]
    fn service_doc_names_every_wire_knob() {
        let doc = include_str!("../../../docs/SERVICE.md");
        let grammar = &doc[doc.find("submit    = {").expect("submit grammar")..];
        let grammar = &grammar[..grammar.find("metrics   =").expect("grammar goes on")];
        for k in &KNOBS {
            let field = format!("\"{}\":UINT?", k.wire);
            assert!(grammar.contains(&field), "{}", k.wire);
            let (lo, hi) = (k.range.start(), k.range.end());
            let range = if *hi == usize::MAX as u64 {
                format!("`{lo}..`")
            } else {
                format!("`{lo}..={hi}`")
            };
            let row = format!("| `{}` | `{}` | {range} |", k.wire, k.flag);
            let default = format!("| {} |", (k.get)(&SearchConfig::default()));
            let row = doc.lines().find(|l| l.starts_with(&row));
            assert!(row.is_some_and(|r| r.contains(&default)), "{}", k.wire);
        }
    }

    #[test]
    fn only_backpressure_is_retryable() {
        assert!(Rejection::QueueFull { capacity: 4 }.retryable());
        for terminal in [
            Rejection::ShuttingDown,
            Rejection::Invalid("x".into()),
            Rejection::Quarantined { strikes: 2 },
        ] {
            assert!(!terminal.retryable(), "{terminal:?}");
        }
        assert_eq!(
            Rejection::Quarantined { strikes: 2 }.reason(),
            "quarantined"
        );
    }

    #[test]
    fn workload_resolution() {
        let nw = resolve_workload("gen:misex3@0.05").unwrap();
        assert!(nw.literal_count() > 0);
        assert!(resolve_workload("gen:nosuch@0.1").is_err());
        assert!(resolve_workload("file.blif").is_err());
        assert!(resolve_workload("gen:misex3@0").is_err());
        assert!(resolve_workload("gen:misex3@nan").is_err());
        assert!(resolve_workload("gen:misex3@4.5").is_err());
    }

    #[test]
    fn workload_grammar_caps_only_when_asked() {
        for bad in ["0", "nan", "inf", "-1", "x"] {
            let spec = format!("gen:misex3@{bad}");
            assert!(parse_workload(&spec, f64::INFINITY).is_err(), "{spec}");
        }
        let (profile, scale) = parse_workload("gen:dalu", f64::INFINITY).unwrap();
        assert_eq!((profile.name.as_str(), scale), ("dalu", 0.25));
        assert_eq!(parse_workload("gen:dalu@6", f64::INFINITY).unwrap().1, 6.0);
        assert!(parse_workload("gen:dalu@6", SERVICE_MAX_SCALE).is_err());
    }

    #[test]
    fn job_report_json_has_the_metrics_keys() {
        let jr = JobReport {
            report: ExtractReport {
                lc_before: 100,
                lc_after: 80,
                extractions: 4,
                ..Default::default()
            },
            queue_wait: Duration::from_micros(120),
            run_time: Duration::from_millis(3),
        };
        let j = jr.to_json();
        assert_eq!(j.get("saved").and_then(Json::as_f64), Some(20.0));
        assert_eq!(j.get("queue_wait_us").and_then(Json::as_u64), Some(120));
        assert_eq!(j.get("run_us").and_then(Json::as_u64), Some(3000));
        assert!(j.get("phases").is_some());
    }

    #[test]
    fn ctl_for_respects_deadline() {
        let mut spec = JobSpec::new(Algorithm::Seq, "gen:misex3@0.05");
        assert!(ctl_for(&spec).deadline().is_none());
        spec.deadline = Some(Duration::ZERO);
        assert!(ctl_for(&spec).deadline_expired());
    }
}
