//! `pfbench` — the repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! pfbench run [--seed N] [--seconds S] [--smoke]          every workload, each in its own process
//! pfbench run --workload W [--seed N] [--seconds S]       one workload, in this process
//!         [--trace 0|1]                                   0: end-to-end metrics only, 1: per-layer only
//! pfbench selfcheck [--seed N] [--seconds S]              two full sets on one build, compared
//! pfbench golden                                          prints a fresh golden.json
//! ```

mod adapter;
mod eval;
mod golden;
mod inputs;
mod library;
mod metrics;
mod procfs;
mod service;
mod stats;
mod trace;

use adapter::Json;
use golden::Golden;
use inputs::{workload_by_name, Driver, Kind, Workload, WORKLOADS};
use metrics::{Better, Values, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Seconds of measured run per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// A full set takes each workload's seconds in this many interleaved
/// rounds, so drift of the host spreads over all workloads.
const ROUNDS: usize = 3;
/// Set-ups per process; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Share of the wall the layers may leave unexplained before a full set
/// fails: on the seq workloads and on the parallel drivers.
const MAX_UNATTRIBUTED_PCT: f64 = 10.0;
const MAX_PHASES_GAP_PCT: f64 = 5.0;

/// What one process measures.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Length of the measured run with tracing off.
    pub untraced_secs: f64,
    /// Length of the traced run after it; 0 for none. The per-layer
    /// metrics are reported exactly when there is a traced run.
    pub traced_secs: f64,
    pub setup_repeats: usize,
    pub report_e2e: bool,
    /// Whether a run outside its validity band (cache hit ratio) fails.
    pub strict: bool,
}

/// What one process found.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Verified jobs behind the end-to-end percentiles.
    pub samples: usize,
    /// The run broke a condition that makes its numbers meaningless.
    pub invalid: bool,
    pub notes: Vec<String>,
    pub values: Values,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && !self.invalid
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit of the checkout the benchmark was built in, if it is one.
fn git_commit() -> String {
    let out = Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
        .output();
    let hash = out
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok());
    hash.map_or("unknown".into(), |h| h.trim().to_string())
}

/// Where a result came from, as JSON object members.
fn provenance(seed: u64, seconds: f64) -> Vec<(String, Json)> {
    let members = [
        ("git_commit", Json::str(git_commit())),
        ("seed", Json::u64(seed)),
        ("seconds", Json::num(seconds)),
        (
            "available_parallelism",
            Json::u64(procfs::available_parallelism() as u64),
        ),
        ("cpu_model", Json::str(procfs::cpu_model())),
        ("rustc", Json::str(env!("PFBENCH_RUSTC_VERSION"))),
    ];
    members
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// `{"<metric>": {"value": …, "unit": …}, …}` for the named metrics.
fn metrics_json<'a>(values: &Values, names: impl Iterator<Item = (&'a str, &'a str)>) -> Json {
    let member = |(name, unit): (&str, &str)| {
        let value = Json::obj([
            ("value", Json::num(values.get(name))),
            ("unit", Json::str(unit)),
        ]);
        (name.to_string(), value)
    };
    Json::Obj(names.map(member).collect())
}

/// Every metric of the vocabulary as `(name, unit)`.
fn all_metrics() -> impl Iterator<Item = (&'static str, &'static str)> {
    let e2e = END_TO_END.iter().map(|m| (m.name, m.unit));
    e2e.chain(PER_LAYER.iter().copied())
}

/// Writes `out/trace-<workload>.json` in Chrome trace format.
pub fn write_trace(
    workload: &str,
    spans: &[trace::Span],
    plan: &Plan,
    result: &RunResult,
) -> Result<(), String> {
    let mut meta = provenance(plan.seed, plan.untraced_secs + plan.traced_secs);
    meta.push(("workload".to_string(), Json::str(workload)));
    meta.push((
        "untraced_samples".to_string(),
        Json::u64(result.samples as u64),
    ));
    meta.push(("spans".to_string(), Json::u64(spans.len() as u64)));
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(
        &path,
        trace::chrome_json(spans, &Json::Obj(meta).to_string()),
    )
    .map_err(|e| format!("{}: {e}", path.display()))
}

// ---- command line ----

#[derive(Debug, Default)]
struct Args {
    command: String,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u8>,
    smoke: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: argv
            .next()
            .ok_or("missing command (run | selfcheck | golden)")?,
        ..Args::default()
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|t| *t <= 1)
                        .ok_or("--trace takes 0 or 1")?,
                )
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    let seed = args.seed.unwrap_or(golden::GOLDEN_SEED);
    let outcome = match (args.command.as_str(), &args.workload) {
        ("run", Some(name)) => run_one(name, seed, &args, started),
        ("run", None) => {
            let seconds = if args.smoke { 1.0 } else { args.seconds.unwrap_or(DEFAULT_SECONDS) };
            let rounds = if args.smoke { 1 } else { ROUNDS };
            run_set(seed, seconds, rounds, args.smoke).map(|set| {
                print_set(&set);
                set.passed
            })
        }
        ("selfcheck", None) => selfcheck(seed, args.seconds.unwrap_or(DEFAULT_SECONDS)),
        ("golden", None) => golden::record().map(|text| {
            print!("{text}");
            true
        }),
        _ => return usage_error("usage: pfbench run|selfcheck|golden [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]"),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("pfbench: {message}");
    ExitCode::from(2)
}

// ---- one workload, in this process ----

fn run_one(name: &str, seed: u64, args: &Args, started: Instant) -> Result<bool, String> {
    let workload = workload_by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("no workload {name}; there are {}", names.join(", "))
    })?;
    let cores = procfs::available_parallelism();
    if workload.threads() > cores {
        return Err(format!(
            "oversubscribed: {name} needs {} threads, the host offers {cores}; no number",
            workload.threads()
        ));
    }
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let plan = match args.trace {
        Some(0) => Plan {
            seed,
            untraced_secs: seconds,
            traced_secs: 0.0,
            setup_repeats: SETUP_REPEATS,
            report_e2e: true,
            strict: true,
        },
        Some(_) => Plan {
            seed,
            untraced_secs: seconds / 2.0,
            traced_secs: seconds / 2.0,
            setup_repeats: 1,
            report_e2e: false,
            strict: true,
        },
        None => Plan {
            seed,
            untraced_secs: seconds,
            traced_secs: seconds / 2.0,
            setup_repeats: if args.smoke { 1 } else { SETUP_REPEATS },
            report_e2e: true,
            strict: !args.smoke,
        },
    };
    let golden = Golden::load()?;
    let result = match workload.kind {
        Kind::Library { driver, circuits } => {
            library::run(name, driver, circuits, &plan, &golden, started)?
        }
        Kind::Service => service::run(name, &plan, &golden, started)?,
    };

    println!("# pfbench {name}: {}", Json::Obj(provenance(seed, seconds)));
    println!("# why: {}", workload.why);
    for note in &result.notes {
        println!("# note: {note}");
    }
    let reported: Vec<(&str, &str)> = END_TO_END
        .iter()
        .filter(|_| plan.report_e2e)
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().filter(|_| plan.traced_secs > 0.0).copied())
        .collect();
    for (metric, unit) in &reported {
        println!(
            "{name:<12} {metric:<34} {:>14.4} {unit:<9} n={}",
            result.values.get(metric),
            result.samples
        );
    }
    let metrics = metrics_json(&result.values, reported.iter().copied());
    let mut line = vec![
        ("correct".to_string(), Json::Bool(result.correct())),
        ("attempted".to_string(), Json::u64(result.attempted.max(1))),
        ("failed".to_string(), Json::u64(result.failed)),
        ("metrics".to_string(), metrics),
    ];
    if args.trace.is_none() {
        // Extra members for the parent `run`; the four above are the
        // whole line whenever `--trace` is given.
        line.push(("samples".to_string(), Json::u64(result.samples as u64)));
        line.push((
            "notes".to_string(),
            Json::Arr(result.notes.iter().map(Json::str).collect()),
        ));
    }
    println!("{}", Json::Obj(line));
    Ok(result.correct())
}

// ---- every workload, each in its own process ----

/// One workload's numbers over the rounds of a set.
struct WorkloadReport {
    workload: &'static Workload,
    /// Median over rounds, by metric name.
    values: Values,
    samples: u64,
    attempted: u64,
    failed: u64,
    correct: bool,
    notes: Vec<String>,
}

struct SetReport {
    seed: u64,
    seconds: f64,
    rounds: usize,
    workloads: Vec<WorkloadReport>,
    accounting: Vec<String>,
    passed: bool,
}

/// Runs this executable on one workload and parses its last line.
fn run_child(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "run",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    match adapter::parse_json(last) {
        Ok(json) if json.get("metrics").is_some() => Ok(json),
        _ => Err(format!(
            "{workload} printed no result ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn run_set(seed: u64, seconds: f64, rounds: usize, smoke: bool) -> Result<SetReport, String> {
    let mut lines: Vec<Vec<Json>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for round in 0..rounds {
        for (w, collected) in WORKLOADS.iter().zip(&mut lines) {
            eprintln!("pfbench: round {}/{rounds}: {}", round + 1, w.name);
            collected.push(run_child(w.name, seed, seconds / rounds as f64, smoke)?);
        }
    }
    let mut workloads = Vec::new();
    for (workload, answers) in WORKLOADS.iter().zip(&lines) {
        let sum = |key: &str| {
            answers
                .iter()
                .filter_map(|r| r.get(key).and_then(Json::as_u64))
                .sum::<u64>()
        };
        let mut values = Values::default();
        for (name, _) in all_metrics() {
            let per_round: Vec<f64> = answers
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            values.set(name, stats::median(&per_round));
        }
        let mut notes: Vec<String> = answers
            .iter()
            .filter_map(|r| match r.get("notes") {
                Some(Json::Arr(items)) => Some(
                    items
                        .iter()
                        .filter_map(Json::as_str)
                        .map(String::from)
                        .collect::<Vec<_>>(),
                ),
                _ => None,
            })
            .flatten()
            .collect();
        notes.dedup();
        workloads.push(WorkloadReport {
            workload,
            values,
            samples: sum("samples"),
            attempted: sum("attempted"),
            failed: sum("failed"),
            correct: answers
                .iter()
                .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true)),
            notes,
        });
    }

    // The layers must account for the wall (not judged on a 1-second
    // smoke run, where a handful of jobs decide the medians).
    let mut accounting = Vec::new();
    let mut passed = workloads.iter().all(|w| w.correct);
    for w in &workloads {
        let Kind::Library { driver, .. } = w.workload.kind else {
            continue;
        };
        let (metric, limit) = match driver {
            Driver::SeqDefault | Driver::SeqTuned => {
                ("core.unattributed_pct", MAX_UNATTRIBUTED_PCT)
            }
            Driver::Dist => continue,
            _ => ("core.phases_gap_pct", MAX_PHASES_GAP_PCT),
        };
        let value = w.values.get(metric);
        let ok = value.abs() <= limit;
        accounting.push(format!(
            "{:<12} {metric} = {value:.2} % (limit {limit} %): {}",
            w.workload.name,
            if ok { "ok" } else { "EXCEEDED" }
        ));
        passed &= ok || smoke;
    }
    let set = SetReport {
        seed,
        seconds,
        rounds,
        workloads,
        accounting,
        passed,
    };
    write_result_file(&set)?;
    Ok(set)
}

fn print_set(set: &SetReport) {
    println!(
        "# pfbench: {}",
        Json::Obj(provenance(set.seed, set.seconds))
    );
    println!("\n## end to end (median over rounds; n = verified jobs over all rounds)\n");
    for m in END_TO_END {
        println!("# {} [{}]: {}", m.name, m.unit, m.meaning);
    }
    println!();
    for w in &set.workloads {
        for m in END_TO_END {
            println!(
                "{:<12} {:<20} {:>12.4} {:<9} n={}",
                w.workload.name,
                m.name,
                w.values.get(m.name),
                m.unit,
                w.samples
            );
        }
    }
    println!("\n## per layer (traced run; 0 = the workload does not reach the layer)\n");
    for w in &set.workloads {
        for (name, unit) in PER_LAYER {
            println!(
                "{:<12} {:<34} {:>14.4} {unit}",
                w.workload.name,
                name,
                w.values.get(name)
            );
        }
    }
    println!("\n## checks\n");
    for w in &set.workloads {
        let verdict = if w.correct { "ok" } else { "FAILED" };
        println!(
            "{:<12} verification: {verdict} ({} of {} jobs failed)",
            w.workload.name, w.failed, w.attempted
        );
        for note in &w.notes {
            println!("{:<12} note: {note}", w.workload.name);
        }
    }
    for line in &set.accounting {
        println!("{line}");
    }
    println!("\n{}", if set.passed { "PASS" } else { "FAIL" });
}

/// `out/result-seed<N>.json`: provenance, then every metric by workload.
fn write_result_file(set: &SetReport) -> Result<(), String> {
    let workloads = set
        .workloads
        .iter()
        .map(|w| {
            let report = Json::obj([
                ("samples", Json::u64(w.samples)),
                ("attempted", Json::u64(w.attempted)),
                ("failed", Json::u64(w.failed)),
                ("correct", Json::Bool(w.correct)),
                ("metrics", metrics_json(&w.values, all_metrics())),
            ]);
            (w.workload.name.to_string(), report)
        })
        .collect();
    let mut doc = provenance(set.seed, set.seconds);
    doc.push(("rounds".to_string(), Json::u64(set.rounds as u64)));
    doc.push(("workloads".to_string(), Json::Obj(workloads)));
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("result-seed{}.json", set.seed));
    std::fs::write(&path, format!("{}\n", Json::Obj(doc)))
        .map_err(|e| format!("{}: {e}", path.display()))
}

// ---- A/A ----

/// Runs two full sets on this build and compares every end-to-end metric
/// pair against its bound: the evidence the bounds rest on.
fn selfcheck(seed: u64, seconds: f64) -> Result<bool, String> {
    let a = run_set(seed, seconds, ROUNDS, false)?;
    let b = run_set(seed, seconds, ROUNDS, false)?;
    let mut passed = a.passed && b.passed;
    println!("| workload | metric | first | second | worse by | bound | |");
    println!("|---|---|---:|---:|---:|---:|---|");
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        for m in END_TO_END {
            let (x, y) = (wa.values.get(m.name), wb.values.get(m.name));
            let deterministic =
                matches!(wa.workload.kind, Kind::Library { driver, .. } if driver.deterministic());
            let exact = m.name == "verified_jobs_pct" || (m.name == "lc_after" && deterministic);
            // Neither set is "the change": the worse of the two is
            // measured against the better one as its parent.
            let parent = if m.better == Better::Lower {
                x.min(y)
            } else {
                x.max(y)
            };
            let spread = stats::ratio((x - y).abs(), parent);
            let ok = if exact { x == y } else { spread <= m.bound };
            passed &= ok;
            let direction = if m.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            println!(
                "| {} | {} ({}, {direction} is better) | {x:.4} | {y:.4} | {:.2} % | {} | {} |",
                wa.workload.name,
                m.name,
                m.unit,
                100.0 * spread,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{} %", 100.0 * m.bound)
                },
                if ok { "ok" } else { "OUTSIDE" },
            );
        }
    }
    println!("\n{}", if passed { "PASS" } else { "FAIL" });
    Ok(passed)
}
