//! `parafactor` — command-line front end, in the spirit of `sis`'s
//! batch mode.
//!
//! ```text
//! parafactor [OPTIONS] <INPUT>
//! parafactor serve  [--addr A] [--workers N] [--queue N] [--max-procs N]
//!                   [--max-conns N] [--idle-timeout-ms N]
//!                   [--cache-entries N] [--cache-ttl-secs N]
//!                   [--fault-plan SPEC] [--fault-seed N] [--worker]
//! parafactor submit [--addr A] [-a ALG] [-p N] [--par-threads N]
//!                   [--batch-rects K] [--tile-width W] [--deadline-ms N]
//!                   [--retries N] [--delta-from BASE] <WORKLOAD>
//! parafactor dist   [--workers N | --peers A,B,…] [--parts N]
//!                   [--no-recovery] [--recovery-shards N]
//!                   [--lease-timeout-ms N]
//!                   [--fault-plan SPEC] [--fault-seed N] <WORKLOAD>
//! parafactor bench-json [--quick] [--out FILE]
//!                   [--assert-pass-reduction PCT]
//!                   [--assert-cache-identical]
//!                   [--partition] [--scales F,F,…]
//!                   [--assert-gap-closed PCT]
//!                   [--assert-recovery-share PCT]
//! parafactor profile [-a ALG] [-p N] [--par-threads N] [--batch-rects K]
//!                   [--tile-width W] [--seed N] [-o FILE] <INPUT>
//!
//! INPUT                 circuit file (.blif, or the native text format),
//!                       or gen:<profile>[@scale] for a synthetic circuit
//!                       (profiles: misex3 dalu des seq spla ex1010)
//! -a, --algorithm ALG   seq | replicated | independent | lshaped |
//!                       lshaped-seq | lshaped-cx | iterative | script
//!                       [default: seq]
//! -p, --procs N         processors / partitions            [default: 4]
//!     --par-threads N   search workers per matrix; 0 and 1 both search
//!                       inline on the calling thread, N >= 2 adds N-1
//!                       parked threads (same result)       [default: 0]
//!     --batch-rects K   rectangles collected per search pass; conflict-
//!                       free subsets are applied in one batch
//!                                                         [default: 16]
//!     --tile-width W    u64 words per tile of the search's column
//!                       panel, 0..=64 with 0 read as 1 (same result)
//!                                                          [default: 4]
//!                       The defaults are the library's
//!                       (SearchConfig::default()), on run, profile and
//!                       submit alike; --batch-rects 1 is the classic
//!                       one-rectangle-per-pass cover
//!                       (SearchConfig::classic()).
//! -o, --output FILE     write the optimized circuit (format by extension:
//!                       .blif or anything else = native text)
//!     --cx              run common-cube extraction after kernels
//!     --seed N          workload generator seed override
//!     --stats           print the full statistics block
//!     --verify          check functional equivalence after optimizing
//! -h, --help            this text
//!
//! serve runs the resident factorization service (JSON lines over TCP,
//! default 127.0.0.1:7878; protocol in docs/SERVICE.md). --max-conns caps
//! concurrent connections, --idle-timeout-ms closes silent connections
//! (0 disables), and --fault-plan injects deterministic faults for chaos
//! testing (grammar: SITE=KIND[@PROB][#MAX][;...], KIND = panic | cancel |
//! latency:MS | drop | dup | stall:MS — see docs/SERVICE.md). --worker
//! additionally answers the distributed driver's `sub` op (leased
//! sub-jobs; raises the line cap to fit network snapshots). submit sends
//! one job to a running service and prints the JSON response;
//! queue-full and overloaded rejections, and transient connect/read
//! errors, are retried up to --retries times with exponential backoff.
//! For both commands procs must be >= 1 and is capped at the host's
//! available parallelism; --par-threads is likewise capped (0 stays 0).
//! --cache-entries sizes the service's content-addressed result cache
//! (0 disables it; default 64) and --cache-ttl-secs expires entries
//! (0 = never, the default); an exact resubmission replays the memoized
//! result byte-for-byte. submit --delta-from BASE marks the job as a
//! delta against the fingerprint of a previously completed seq job
//! (e.g. seq/gen:misex3@0.25): the service re-extracts only the cones
//! whose functions changed and splices the rest from the cached base
//! (details in docs/SERVICE.md "Caching & delta-submit"). bench-json
//! measures the rectangle search (against the reference engine, and at
//! 1/2/4/8 workers) and the four drivers end to end and writes
//! BENCH_rect.json (--quick shrinks scales/reps for CI;
//! --assert-pass-reduction PCT exits non-zero when batching at K=16
//! cuts the seq driver's pass count by less than PCT percent;
//! --assert-cache-identical exits non-zero unless the warm cache-served
//! network is byte-identical to the cold run's). bench-json --partition
//! instead measures distributed partition extraction and writes
//! BENCH_partition.json: per workload
//! scale (--scales, default 0.5,2,4) the sequential oracle's literal
//! count against the recovery-off (Algorithm-I quality) and recovery-on
//! distributed runs at 1/2/4 workers; --assert-gap-closed PCT exits
//! non-zero when boundary recovery closes less than PCT percent of the
//! partition literal gap (scales below 2), and --assert-recovery-share
//! PCT exits non-zero when the recovery stage (frontier + resub +
//! sweep) takes more than PCT percent of the recovered wall at any
//! scale >= 2.
//! dist runs fault-tolerant distributed partition extraction from this
//! process as the coordinator: the workload is partitioned, each part is
//! dispatched as a leased sub-job to in-process workers (--workers) or
//! to remote --peers running `serve --worker`, expired leases fail over
//! with jittered backoff, and a sharded boundary-recovery stage
//! re-extracts the rectangles the partition cut and resubstitutes the
//! recovered divisors (skipped by --no-recovery; --recovery-shards caps
//! the recovery units, 0 = one per worker and 1 = the legacy serial
//! pass; if a recovery shard exhausts its retries the result degrades
//! to the quality already merged and the report says so). Prints the
//! same JSON the
//! `dist` op answers, including the lease ledger (docs/SERVICE.md
//! "Distributed extraction").
//! profile runs one extraction with span tracing armed and writes the
//! timeline as Chrome Trace Event Format JSON — load it in
//! chrome://tracing or Perfetto — to stdout or -o FILE (span vocabulary
//! in docs/OBSERVABILITY.md; a run summary goes to stderr).
//! ```

use parafactor::core::script::{run_script, ScriptConfig};
use parafactor::core::{
    distributed_extract, extract_common_cubes, iterative_extract, lshaped_extract,
    lshaped_extract_cubes, CubeExtractConfig, DistConfig, ExtractConfig, ExtractReport, FaultPlan,
    IndependentConfig, IterativeConfig, LShapedConfig, LShapedCxConfig, LocalTransport, Trace,
    Tracer,
};
use parafactor::kcmatrix::SearchConfig;
use parafactor::network::blif::{read_blif, write_blif};
use parafactor::network::io::{read_network, write_network};
use parafactor::network::sim::{equivalent_random, EquivConfig};
use parafactor::network::{stats, Network};
use parafactor::serve::job::{admit_knobs, knob_from_flag, knobs_to_json, parse_workload, Wire};
use parafactor::serve::{
    default_max_procs, dist_response, json, request_lines_with_retry, validate_procs, Algorithm,
    Json, RemoteTransport, RetryPolicy, Server, ServerConfig, ServiceConfig,
};
use parafactor::workloads::{generate, scale_profile};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

struct Options {
    input: String,
    algorithm: String,
    procs: usize,
    search: SearchConfig,
    output: Option<String>,
    run_cx: bool,
    seed: Option<u64>,
    show_stats: bool,
    verify: bool,
}

impl Options {
    /// Every option at its default; the search knobs at the library's.
    fn new() -> Options {
        Options {
            input: String::new(),
            algorithm: "seq".into(),
            procs: 4,
            search: SearchConfig::default(),
            output: None,
            run_cx: false,
            seed: None,
            show_stats: false,
            verify: false,
        }
    }

    /// Takes an option that `run` and `profile` share; `Ok(false)` for
    /// any other flag.
    fn take(&mut self, flag: &str, value: Option<&str>) -> Result<bool, String> {
        match flag {
            "-a" | "--algorithm" => self.algorithm = text(value, "--algorithm")?,
            "-p" | "--procs" => self.procs = num(value, |_| true, "--procs must be an integer")?,
            "-o" | "--output" => self.output = Some(text(value, "--output")?),
            "--seed" => self.seed = Some(num(value, |_| true, "--seed must be an integer")?),
            _ => return knob_from_flag(&mut self.search, flag, value),
        }
        Ok(true)
    }

    /// The service's admission rules: procs must be at least 1, and it
    /// and the host-clamped knobs are capped at the host's parallelism.
    fn admit(&mut self) -> Result<(), String> {
        self.procs =
            validate_procs(self.procs, default_max_procs()).map_err(|e| format!("--procs: {e}"))?;
        admit_knobs(&mut self.search, default_max_procs())
    }
}

fn usage() -> ! {
    // The doc comment above is the single source of truth.
    let text = include_str!("parafactor.rs");
    for line in text.lines().skip(3) {
        let Some(stripped) = line.strip_prefix("//!") else {
            break;
        };
        if stripped.trim() == "```text" || stripped.trim() == "```" {
            continue;
        }
        println!("{}", stripped.strip_prefix(' ').unwrap_or(stripped));
    }
    std::process::exit(2)
}

/// Walks a command's arguments. `-h`/`--help` prints the usage, and a
/// positional argument is the command's input (at most one, returned).
/// Every option goes to `take(flag, value)`, which answers `Ok(false)`
/// for a flag it does not know; the `switches` take no value.
fn walk_args(
    args: &[String],
    switches: &[&str],
    mut take: impl FnMut(&str, Option<&str>) -> Result<bool, String>,
) -> Result<Option<String>, String> {
    let mut input = None;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let switch = switches.contains(&arg);
        let value = args.get(i + 1).map(String::as_str).filter(|_| !switch);
        if arg == "-h" || arg == "--help" {
            usage()
        } else if !arg.starts_with('-') {
            if input.replace(arg.to_string()).is_some() {
                return Err("more than one input given".into());
            }
            i += 1;
        } else if take(arg, value)? {
            i += if switch { 1 } else { 2 };
        } else {
            return Err(format!("unknown option {arg:?}"));
        }
    }
    Ok(input)
}

/// An option's value as a `T` that passes `ok`; `err` when it is
/// missing, malformed or refused.
fn num<T: FromStr>(value: Option<&str>, ok: impl Fn(&T) -> bool, err: &str) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .filter(ok)
        .ok_or_else(|| err.to_string())
}

/// An option's value as text.
fn text(value: Option<&str>, flag: &str) -> Result<String, String> {
    value
        .map(str::to_string)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// `--fault-plan SPEC` and `--fault-seed N`, shared by `serve` and
/// `dist`.
struct Faults {
    spec: Option<String>,
    seed: u64,
}

impl Faults {
    fn new() -> Faults {
        Faults {
            spec: None,
            seed: 0x5eed,
        }
    }

    /// Takes a fault option; `Ok(false)` for any other flag.
    fn take(&mut self, flag: &str, value: Option<&str>) -> Result<bool, String> {
        match flag {
            "--fault-plan" => self.spec = Some(text(value, flag)?),
            "--fault-seed" => self.seed = num(value, |_| true, "--fault-seed must be an integer")?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The parsed plan, if one was given; `who` announces it on stderr.
    fn plan(&self, who: &str) -> Result<Option<Arc<FaultPlan>>, String> {
        let Some(spec) = &self.spec else {
            return Ok(None);
        };
        let plan = FaultPlan::parse(spec, self.seed).map_err(|e| format!("--fault-plan: {e}"))?;
        eprintln!("{who}: FAULT INJECTION ACTIVE ({spec})");
        Ok(Some(Arc::new(plan)))
    }
}

/// Reads a circuit file, or generates `gen:<profile>[@scale]` with the
/// service's grammar (without its scale cap) and an optional seed.
fn load_circuit(input: &str, seed: Option<u64>) -> Result<Network, String> {
    if input.starts_with("gen:") {
        let (mut profile, scale) = parse_workload(input, f64::INFINITY)?;
        profile.seed = seed.unwrap_or(profile.seed);
        return Ok(generate(&scale_profile(&profile, scale)));
    }
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    if input.ends_with(".blif") {
        read_blif(&text).map_err(|e| e.to_string())
    } else {
        read_network(&text).map_err(|e| e.to_string())
    }
}

/// `parafactor serve`: bind the TCP front end and run until a client
/// sends a `shutdown` op.
fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cfg = ServiceConfig::default();
    let mut server_cfg = ServerConfig::default();
    let mut faults = Faults::new();
    let input = walk_args(args, &["--worker"], |flag, v| {
        match flag {
            "--addr" => addr = text(v, flag)?,
            "--workers" => {
                cfg.workers = num(v, |&n| n >= 1, "--workers must be a positive integer")?
            }
            "--queue" => {
                cfg.queue_capacity = num(v, |&n| n >= 1, "--queue must be a positive integer")?
            }
            "--max-procs" => {
                let n = num(v, |_| true, "--max-procs must be an integer")?;
                cfg.max_procs = validate_procs(n, default_max_procs())
                    .map_err(|e| format!("--max-procs: {e}"))?;
            }
            "--max-conns" => {
                server_cfg.max_connections =
                    num(v, |&n| n >= 1, "--max-conns must be a positive integer")?
            }
            "--idle-timeout-ms" => {
                let ms = num(
                    v,
                    |_| true,
                    "--idle-timeout-ms must be an integer (0 disables)",
                )?;
                server_cfg.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--cache-entries" => {
                cfg.cache_entries = num(
                    v,
                    |_| true,
                    "--cache-entries must be an integer (0 disables)",
                )?
            }
            "--cache-ttl-secs" => {
                let secs = num(
                    v,
                    |_| true,
                    "--cache-ttl-secs must be an integer (0 = never)",
                )?;
                cfg.cache_ttl = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--worker" => {
                // Sub requests carry whole network snapshots, so worker
                // mode gets a roomier line cap.
                server_cfg.worker = true;
                server_cfg.max_line_bytes = server_cfg.max_line_bytes.max(8 << 20);
            }
            _ => return faults.take(flag, v),
        }
        Ok(true)
    })?;
    if let Some(extra) = input {
        return Err(format!("unknown serve option {extra:?}"));
    }
    cfg.fault_plan = faults.plan("pf-serve")?;
    let server = Server::bind_with(addr.as_str(), cfg, server_cfg)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    match server.local_addr() {
        Ok(a) => println!("pf-serve listening on {a}"),
        Err(_) => println!("pf-serve listening on {addr}"),
    }
    server.run();
    println!("pf-serve: shut down");
    Ok(ExitCode::SUCCESS)
}

/// A parsed `parafactor submit` invocation: where to send, how often to
/// retry, and the request line itself.
struct Submit {
    addr: String,
    retries: u32,
    line: String,
}

/// Parses `submit`'s arguments into the request line it sends; `procs`
/// is capped at `max_procs`.
fn submit_request(args: &[String], max_procs: usize) -> Result<Submit, String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut algorithm = "seq".to_string();
    let mut procs = 2usize;
    let mut search = SearchConfig::default();
    let mut deadline_ms: Option<u64> = None;
    let mut retries = 4u32;
    let mut delta_from: Option<String> = None;
    let workload = walk_args(args, &[], |flag, v| {
        match flag {
            "--addr" => addr = text(v, flag)?,
            "-a" | "--algorithm" => algorithm = text(v, "--algorithm")?,
            "-p" | "--procs" => procs = num(v, |_| true, "--procs must be an integer")?,
            "--deadline-ms" => {
                deadline_ms = Some(num(v, |_| true, "--deadline-ms must be an integer")?)
            }
            "--retries" => retries = num(v, |_| true, "--retries must be a non-negative integer")?,
            "--delta-from" => delta_from = Some(text(v, flag)?),
            _ => return knob_from_flag(&mut search, flag, v),
        }
        Ok(true)
    })?
    .ok_or("no workload given (e.g. gen:misex3@0.25)")?;
    // Validate locally for a prompt structured error; the service
    // re-validates (and re-caps against its own host) anyway.
    let procs = validate_procs(procs, max_procs).map_err(|e| format!("--procs: {e}"))?;
    let mut request = vec![
        ("op".to_string(), Json::str("submit")),
        ("algorithm".to_string(), Json::str(algorithm)),
        ("workload".to_string(), Json::str(workload)),
        ("procs".to_string(), Json::u64(procs as u64)),
    ];
    request.extend(knobs_to_json(&search, Wire::Submit));
    if let Some(ms) = deadline_ms {
        request.push(("deadline_ms".to_string(), Json::u64(ms)));
    }
    if let Some(base) = delta_from {
        request.push(("delta_from".to_string(), Json::str(base)));
    }
    Ok(Submit {
        addr,
        retries,
        line: Json::Obj(request).to_string(),
    })
}

/// `parafactor submit`: send one job to a running service, print the
/// JSON response line, and exit 0 iff the job completed.
fn cmd_submit(args: &[String]) -> Result<ExitCode, String> {
    let Submit {
        addr,
        retries,
        line,
    } = submit_request(args, default_max_procs())?;
    // Retry what saturation looks like from here: `queue_full` and
    // `overloaded` rejections (the service is healthy but momentarily
    // full — queue or accept gate), plus transient connect/read errors
    // (a peer mid-restart), all with the same jittered backoff. Every
    // other rejection is terminal.
    let policy = RetryPolicy {
        max_retries: retries,
        ..RetryPolicy::default()
    };
    let mut attempt = 0u32;
    let response = loop {
        let responses =
            request_lines_with_retry(addr.as_str(), std::slice::from_ref(&line), &policy)
                .map_err(|e| format!("cannot reach service at {addr}: {e}"))?;
        let response = responses
            .into_iter()
            .next()
            .ok_or_else(|| format!("service at {addr} closed the connection"))?;
        let saturated = json::parse(&response)
            .ok()
            .and_then(|v| {
                (v.get("status").and_then(Json::as_str) == Some("rejected"))
                    .then(|| v.get("reason").and_then(Json::as_str).map(str::to_string))
                    .flatten()
            })
            .filter(|reason| reason == "queue_full" || reason == "overloaded");
        if let Some(reason) = saturated {
            if attempt < policy.max_retries {
                let backoff = policy.backoff(attempt);
                attempt += 1;
                eprintln!(
                    "{reason}; retry {attempt}/{} in {backoff:.1?}",
                    policy.max_retries
                );
                std::thread::sleep(backoff);
                continue;
            }
        }
        break response;
    };
    println!("{response}");
    let completed = json::parse(&response)
        .ok()
        .and_then(|v| v.get("status").map(|s| s.as_str() == Some("completed")))
        .unwrap_or(false);
    Ok(if completed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `parafactor dist`: run fault-tolerant distributed partition
/// extraction with this process as the coordinator, over in-process
/// workers or remote worker-mode servers. Prints the same JSON body the
/// service's `dist` op answers.
fn cmd_dist(args: &[String]) -> Result<ExitCode, String> {
    let mut workers = 2usize;
    let mut peers: Vec<String> = Vec::new();
    let mut cfg = DistConfig::default();
    let mut faults = Faults::new();
    let workload = walk_args(args, &["--no-recovery"], |flag, v| {
        match flag {
            "--workers" => {
                workers = num(v, |&n| n <= 64, "--workers must be an integer (at most 64)")?
            }
            "--peers" => peers = text(v, flag)?.split(',').map(str::to_string).collect(),
            "--parts" => {
                cfg.parts = num(
                    v,
                    |_| true,
                    "--parts must be an integer (0 = one per worker)",
                )?
            }
            "--lease-timeout-ms" => {
                let ms = num(
                    v,
                    |&n| n >= 1,
                    "--lease-timeout-ms must be a positive integer",
                )?;
                cfg.lease_timeout = Duration::from_millis(ms);
            }
            "--no-recovery" => cfg.recovery = false,
            "--recovery-shards" => {
                cfg.recovery_shards = num(
                    v,
                    |_| true,
                    "--recovery-shards must be an integer (0 = one per worker, 1 = serial)",
                )?
            }
            _ => return faults.take(flag, v),
        }
        Ok(true)
    })?
    .ok_or("no workload given (e.g. gen:misex3@0.25)")?;
    let mut nw = load_circuit(&workload, None)?;
    let plan = faults.plan("parafactor dist")?;
    let (report, stats) = if peers.is_empty() {
        if let Some(p) = &plan {
            cfg.extract.ctl = cfg.extract.ctl.clone().with_faults(Arc::clone(p));
        }
        let transport = LocalTransport::with_faults(workers, plan, Duration::from_millis(100));
        distributed_extract(&mut nw, &transport, &cfg)
    } else {
        let mut transport = RemoteTransport::new(peers);
        if let Some(spec) = faults.spec {
            transport = transport.forward_faults(spec, faults.seed);
        }
        distributed_extract(&mut nw, &transport, &cfg)
    };
    println!("{}", dist_response(&report, &stats));
    Ok(if stats.balanced() && !report.cancelled {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `parafactor profile`: run one extraction with tracing armed and emit
/// the merged span timeline as Chrome Trace Event Format JSON, loadable
/// in chrome://tracing or Perfetto.
fn cmd_profile(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = Options::new();
    let input = walk_args(args, &[], |flag, v| opts.take(flag, v))?;
    opts.input = input.ok_or("no input given (a .blif file or gen:<profile>[@scale])")?;
    opts.admit()?;
    let mut work = load_circuit(&opts.input, opts.seed)?;

    let tracer = Tracer::armed();
    let extract_cfg = ExtractConfig {
        trace: tracer.clone(),
        search: opts.search.clone(),
        ..ExtractConfig::default()
    };
    let report =
        run_driver(&opts.algorithm, &mut work, opts.procs, extract_cfg).ok_or_else(|| {
            format!(
                "profile supports seq | replicated | independent | lshaped | lshaped-seq \
             | iterative, not {:?}",
                opts.algorithm
            )
        })?;
    let trace = tracer.take();

    // Coverage: for each reported phase, sum that phase's spans per lane
    // and take the best lane (the driver-level one — parallel workers
    // duplicate phase spans, so summing across lanes would double-count;
    // iterative drivers emit several spans per phase on one lane, so a
    // single max would undercount). Cap at the phase's reported time.
    let covered_ns: u64 = report
        .phases
        .iter()
        .map(|p| {
            let mut per_lane = std::collections::HashMap::new();
            for e in trace.events.iter().filter(|e| e.name == p.name) {
                *per_lane.entry(e.lane).or_insert(0u64) += e.dur_ns;
            }
            per_lane
                .into_values()
                .max()
                .unwrap_or(0)
                .min(p.elapsed.as_nanos() as u64)
        })
        .sum();
    let elapsed_ns = report.elapsed.as_nanos() as u64;
    let coverage = if elapsed_ns == 0 {
        100.0
    } else {
        100.0 * covered_ns as f64 / elapsed_ns as f64
    };

    let json = trace_event_json(&trace, &opts, &report).to_string();
    match &opts.output {
        Some(path) => {
            std::fs::write(path, json + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    eprintln!(
        "profile: {} on {}: {} events in {} lanes, {} extractions, \
         phase spans cover {coverage:.1}% of {:.3?}",
        opts.algorithm,
        opts.input,
        trace.events.len(),
        trace.lanes.len(),
        report.extractions,
        report.elapsed,
    );
    eprintln!(
        "profile: {} search passes, {:.2} rects/pass{}",
        report.passes,
        report.rects_per_pass(),
        if report.batch_candidates > 0 {
            format!(
                ", batch: {} candidates, {} accepted, {} rejected",
                report.batch_candidates, report.batch_accepted, report.batch_rejected
            )
        } else {
            String::new()
        }
    );
    if trace.dropped > 0 {
        eprintln!(
            "profile: warning: {} events lost to lane ring wrap-around",
            trace.dropped
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs one of the span-traced drivers — every algorithm but
/// `lshaped-cx` and `script` — on `work`; `None` for any other name.
fn run_driver(
    algorithm: &str,
    work: &mut Network,
    procs: usize,
    extract: ExtractConfig,
) -> Option<ExtractReport> {
    Some(match algorithm {
        "lshaped-seq" => lshaped_extract(
            work,
            &LShapedConfig {
                procs,
                sequential: true,
                extract,
                ..LShapedConfig::default()
            },
        ),
        "iterative" => iterative_extract(
            work,
            &IterativeConfig {
                inner: IndependentConfig {
                    procs,
                    extract,
                    ..IndependentConfig::default()
                },
                ..IterativeConfig::default()
            },
        ),
        name => Algorithm::from_wire(name)?.run(work, procs, extract),
    })
}

/// Renders a [`Trace`] in Chrome Trace Event Format: `thread_name`
/// metadata per lane, then one complete (`ph:"X"`) event per span with
/// `ts`/`dur` in microseconds.
fn trace_event_json(trace: &Trace, opts: &Options, report: &ExtractReport) -> Json {
    let mut events = Vec::with_capacity(trace.lanes.len() + trace.events.len());
    for (tid, label) in trace.lanes.iter().enumerate() {
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(0)),
            ("tid", Json::u64(tid as u64)),
            ("args", Json::obj([("name", Json::str(label.clone()))])),
        ]));
    }
    for e in &trace.events {
        let args = Json::Obj(
            e.args
                .iter()
                .map(|&(k, v)| (k.to_string(), Json::Num(v as f64)))
                .collect(),
        );
        events.push(Json::obj([
            ("name", Json::str(e.name)),
            ("ph", Json::str("X")),
            ("pid", Json::u64(0)),
            ("tid", Json::u64(u64::from(e.lane))),
            ("ts", Json::Num(e.start_ns as f64 / 1000.0)),
            ("dur", Json::Num(e.dur_ns as f64 / 1000.0)),
            ("args", args),
        ]));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        (
            "otherData",
            Json::obj([
                ("algorithm", Json::str(opts.algorithm.clone())),
                ("workload", Json::str(opts.input.clone())),
                ("elapsed_us", Json::u64(report.elapsed.as_micros() as u64)),
                ("extractions", Json::u64(report.extractions as u64)),
                ("lc_before", Json::u64(report.lc_before as u64)),
                ("lc_after", Json::u64(report.lc_after as u64)),
                ("dropped_events", Json::u64(trace.dropped)),
            ]),
        ),
    ])
}

/// `parafactor [OPTIONS] <INPUT>`: optimize one circuit and report.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = Options::new();
    let input = walk_args(args, &["--cx", "--stats", "--verify"], |flag, v| {
        match flag {
            "--cx" => opts.run_cx = true,
            "--stats" => opts.show_stats = true,
            "--verify" => opts.verify = true,
            _ => return opts.take(flag, v),
        }
        Ok(true)
    })
    .and_then(|input| input.ok_or_else(|| "no input".to_string()))
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    });
    opts.input = input;
    opts.admit()?;
    let mut work = load_circuit(&opts.input, opts.seed)?;
    let original = work.clone();
    println!(
        "loaded: {} inputs, {} nodes, {} literals",
        work.input_ids().count(),
        work.node_ids().count(),
        work.literal_count()
    );

    let extract_cfg = ExtractConfig {
        search: opts.search.clone(),
        ..ExtractConfig::default()
    };
    let report = match opts.algorithm.as_str() {
        "lshaped-cx" => lshaped_extract_cubes(
            &mut work,
            &LShapedCxConfig {
                procs: opts.procs,
                ..LShapedCxConfig::default()
            },
        ),
        "script" => {
            let rep = run_script(&mut work, &ScriptConfig::default());
            println!(
                "script: {} factor passes, {:.1}% of time factoring",
                rep.factor_invocations,
                100.0 * rep.factor_fraction()
            );
            ExtractReport {
                lc_before: rep.lc_before,
                lc_after: rep.lc_after,
                ..Default::default()
            }
        }
        alg => run_driver(alg, &mut work, opts.procs, extract_cfg)
            .ok_or_else(|| format!("unknown algorithm {alg:?}"))?,
    };

    if opts.run_cx {
        let r = extract_common_cubes(&mut work, &[], &CubeExtractConfig::default());
        println!(
            "cube extraction: {} cubes extracted, LC {} -> {}",
            r.extractions, r.lc_before, r.lc_after
        );
    }

    println!(
        "{}: LC {} -> {} ({} extractions, {:.3?}{}{})",
        opts.algorithm,
        report.lc_before,
        work.literal_count(),
        report.extractions,
        report.elapsed,
        if report.passes < report.extractions + 1 {
            format!(
                ", {} passes at {:.2} rects/pass",
                report.passes,
                report.rects_per_pass()
            )
        } else {
            String::new()
        },
        if report.shipped_rectangles > 0 {
            format!(", {} partial rectangles shipped", report.shipped_rectangles)
        } else {
            String::new()
        }
    );

    if opts.show_stats {
        match stats::stats(&work) {
            Ok(s) => println!(
                "stats: inputs {}  outputs {}  nodes {}  lits(sop) {}  lits(fac) {}  depth {}  cubes {}",
                s.inputs, s.outputs, s.live_nodes, s.lits_sop, s.lits_fac, s.depth, s.cubes
            ),
            Err(e) => eprintln!("stats failed: {e}"),
        }
    }

    if opts.verify {
        match equivalent_random(&original, &work, &EquivConfig::default()) {
            Ok(true) => println!("verify: PASS (random-vector equivalence)"),
            Ok(false) => {
                eprintln!("verify: FAIL — optimized circuit differs!");
                return Ok(ExitCode::FAILURE);
            }
            Err(e) => {
                eprintln!("verify error: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }

    if let Some(path) = &opts.output {
        let text = if path.ends_with(".blif") {
            write_blif(&work, "parafactor")
        } else {
            write_network(&work)
        };
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    let result = match argv.first().map(String::as_str) {
        Some("serve") => cmd_serve(rest),
        Some("submit") => cmd_submit(rest),
        Some("dist") => cmd_dist(rest),
        Some("profile") => cmd_profile(rest),
        Some("bench-json") => {
            parafactor::benchjson::cmd_bench_json(rest).map(|()| ExitCode::SUCCESS)
        }
        _ => cmd_run(&argv),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit_line(args: &str) -> String {
        let args: Vec<String> = args.split_whitespace().map(str::to_string).collect();
        submit_request(&args, 8)
            .expect("valid submit arguments")
            .line
    }

    /// The two `submit` lines the CLI sent before the knob table, byte
    /// for byte: defaults, then every knob and optional field set.
    #[test]
    fn submit_lines_are_pinned() {
        assert_eq!(
            submit_line("gen:misex3@0.05"),
            concat!(
                r#"{"op":"submit","algorithm":"seq","workload":"gen:misex3@0.05","#,
                r#""procs":2,"par_threads":0,"batch_rects":16,"tile_width":4}"#
            )
        );
        assert_eq!(
            submit_line(
                "-a lshaped -p 2 --batch-rects 1 --tile-width 0 --par-threads 2 \
                 --deadline-ms 500 --delta-from seq/gen:misex3@0.05 gen:misex3@0.05"
            ),
            concat!(
                r#"{"op":"submit","algorithm":"lshaped","workload":"gen:misex3@0.05","#,
                r#""procs":2,"par_threads":2,"batch_rects":1,"tile_width":0,"#,
                r#""deadline_ms":500,"delta_from":"seq/gen:misex3@0.05"}"#
            )
        );
    }
}
