//! Cross-driver invariants for phase accounting and tracing.
//!
//! Every driver's `ExtractReport.phases` must cover `elapsed`: the
//! per-phase durations are measured against the same monotonic clock and
//! the last phase absorbs the remainder, so their sum stays within a
//! small tolerance of the reported wall-clock time. The tolerance only
//! exists because `elapsed` is sampled once more after the final phase
//! checkpoint.

use pf_core::{
    extract_common_cubes, extract_kernels, independent_extract, independent_extract_cubes,
    iterative_extract, lshaped_extract, lshaped_extract_cubes, replicated_extract,
    CubeExtractConfig, ExtractConfig, ExtractReport, IndependentConfig, IterativeConfig,
    LShapedConfig, LShapedCxConfig, ReplicatedConfig, RunCtl, Tracer,
};
use pf_kcmatrix::SearchConfig;
use pf_network::example::example_1_1;
use pf_partition::PartitionConfig;
use std::time::Duration;

/// Phase sums are compared against `elapsed` with a slack that covers the
/// final `Instant::now()` call and summation rounding only.
const SLACK: Duration = Duration::from_millis(2);

fn assert_phases_cover(report: &ExtractReport, expect_names: &[&str], who: &str) {
    let names: Vec<&str> = report.phases.iter().map(|p| p.name).collect();
    assert_eq!(names, expect_names, "{who}: phase vocabulary");
    let sum = report.phases_total();
    assert!(
        sum <= report.elapsed + SLACK,
        "{who}: phases sum {sum:?} exceeds elapsed {:?}",
        report.elapsed
    );
    assert!(
        sum + SLACK >= report.elapsed,
        "{who}: phases sum {sum:?} does not cover elapsed {:?}",
        report.elapsed
    );
}

#[test]
fn seq_phases_cover_elapsed() {
    let (mut nw, _) = example_1_1();
    let report = extract_kernels(&mut nw, &[], &ExtractConfig::default());
    assert_phases_cover(&report, &["matrix", "pool", "cover"], "seq");
}

#[test]
fn seq_expired_deadline_still_reports_phases() {
    let (mut nw, _) = example_1_1();
    let cfg = ExtractConfig {
        ctl: RunCtl::with_deadline(Duration::ZERO),
        ..ExtractConfig::default()
    };
    let report = extract_kernels(&mut nw, &[], &cfg);
    assert!(report.timed_out);
    assert_phases_cover(&report, &["matrix", "pool", "cover"], "seq early-return");
}

#[test]
fn replicated_phases_cover_elapsed() {
    let (mut nw, _) = example_1_1();
    let report = replicated_extract(&mut nw, &ReplicatedConfig::default());
    assert_phases_cover(&report, &["replicate", "cover"], "replicated");
}

#[test]
fn independent_phases_cover_elapsed() {
    let (mut nw, _) = example_1_1();
    let report = independent_extract(&mut nw, &IndependentConfig::default());
    assert_phases_cover(&report, &["partition", "extract", "merge"], "independent");
}

#[test]
fn lshaped_phases_cover_elapsed() {
    let (mut nw, _) = example_1_1();
    let report = lshaped_extract(&mut nw, &LShapedConfig::default());
    assert_phases_cover(&report, &["setup", "extract", "merge"], "lshaped");
}

#[test]
fn cx_phases_cover_elapsed() {
    let (mut nw, _) = example_1_1();
    let report = extract_common_cubes(&mut nw, &[], &CubeExtractConfig::default());
    assert_phases_cover(&report, &["matrix", "cover"], "cx");
}

#[test]
fn independent_cx_phases_cover_elapsed() {
    let (mut nw, _) = example_1_1();
    let report = independent_extract_cubes(
        &mut nw,
        2,
        &CubeExtractConfig::default(),
        &PartitionConfig::default(),
    );
    assert_phases_cover(
        &report,
        &["partition", "extract", "merge"],
        "independent-cx",
    );
}

#[test]
fn lshaped_cx_phases_cover_elapsed() {
    let (mut nw, _) = example_1_1();
    let report = lshaped_extract_cubes(&mut nw, &LShapedCxConfig::default());
    assert_phases_cover(&report, &["setup", "extract", "merge"], "lshaped-cx");
}

#[test]
fn iterative_phases_cover_elapsed() {
    let (mut nw, _) = example_1_1();
    let report = iterative_extract(&mut nw, &IterativeConfig::default());
    assert_phases_cover(&report, &["extract", "cleanup"], "iterative");
}

/// An armed tracer threaded through a driver records the same span names
/// as the report's phases, plus the per-pass search/apply spans, and the
/// phase spans cover ≥95% of `elapsed` — the invariant the `parafactor
/// profile` subcommand's output rests on.
#[test]
fn armed_trace_spans_cover_report_elapsed() {
    let (mut nw, _) = example_1_1();
    // The one-per-pass engine: exactly one search span per extraction
    // plus the final empty one.
    let cfg = ExtractConfig {
        trace: Tracer::armed(),
        search: SearchConfig::classic(),
        ..ExtractConfig::default()
    };
    let report = extract_kernels(&mut nw, &[], &cfg);
    let trace = cfg.trace.take();
    assert_eq!(trace.dropped, 0);

    let covered = trace.span_ns("matrix") + trace.span_ns("cover");
    let elapsed_ns = report.elapsed.as_nanos() as u64;
    assert!(
        covered as f64 >= elapsed_ns as f64 * 0.95,
        "phase spans cover {covered} of {elapsed_ns} ns"
    );

    // One search span per cover pass (successful or final empty one),
    // each carrying the SearchStats counters; one apply per extraction.
    let searches: Vec<_> = trace.events.iter().filter(|e| e.name == "search").collect();
    assert_eq!(searches.len(), report.extractions + 1);
    for s in &searches {
        let keys: Vec<&str> = s.args.iter().map(|(k, _)| *k).collect();
        assert!(keys.contains(&"visited") && keys.contains(&"pruned"));
        assert!(keys.contains(&"bound_updates"));
    }
    let applies = trace.events.iter().filter(|e| e.name == "apply").count();
    assert_eq!(applies, report.extractions);
}

/// Parallel drivers share one tracer across all worker lanes; every
/// worker's spans land in the merged timeline with distinct lane ids.
#[test]
fn parallel_drivers_record_per_worker_lanes() {
    let (mut nw, _) = example_1_1();
    let cfg = IndependentConfig {
        procs: 2,
        extract: ExtractConfig {
            trace: Tracer::armed(),
            ..ExtractConfig::default()
        },
        ..IndependentConfig::default()
    };
    let report = independent_extract(&mut nw, &cfg);
    let trace = cfg.extract.trace.take();
    assert!(trace.lanes.iter().any(|l| l == "independent"));
    assert!(
        trace.lanes.iter().any(|l| l.starts_with("p0_")),
        "worker lanes present: {:?}",
        trace.lanes
    );
    assert!(trace.events.iter().any(|e| e.name == "partition"));
    assert!(trace.events.iter().any(|e| e.name == "merge"));
    let applies = trace.events.iter().filter(|e| e.name == "apply").count();
    assert_eq!(applies, report.extractions);
}
