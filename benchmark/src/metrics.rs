//! The metric vocabulary: every name the benchmark reports, with its
//! unit. `BENCHMARK.json` repeats these tables (a test compares them).

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    pub meaning: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "process start to first measured job: generation, golden checks, service start, warm-up (median of 5 set-ups)",
    },
    EndToEnd {
        name: "job_wall_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        meaning: "median wall of one job (request latency on serve_mix), tracing off, in the quietest fifth of the run",
    },
    EndToEnd {
        name: "job_wall_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "nearest-rank 90th percentile of job wall in the fifth of the run where it is lowest",
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        meaning: "completed, verified jobs per second of measured wall in the fifth of the run where it is highest",
    },
    EndToEnd {
        name: "lc_after",
        unit: "literals",
        better: Better::Lower,
        bound: 0.01,
        meaning: "literal count after factoring, summed over the workload's distinct inputs, median over jobs",
    },
    EndToEnd {
        name: "verified_jobs_pct",
        unit: "%",
        better: Better::Higher,
        bound: 0.001,
        meaning: "jobs that completed and passed the benchmark's equivalence check, of jobs attempted",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        meaning: "VmHWM of the workload's process when it ends",
    },
];

/// Per-layer metrics `(name, unit)`, grouped by the module they
/// attribute to. A workload reports 0 for a layer it does not reach.
pub const PER_LAYER: &[(&str, &str)] = &[
    // pf-workloads (set-up only)
    ("workloads.generate_ms", "ms"),
    ("workloads.nodes", "count"),
    ("workloads.lc_before", "literals"),
    // pf-sop
    ("sop.kernels_ms", "ms"),
    ("sop.kernels_pairs", "count"),
    // pf-kcmatrix
    ("kcmatrix.build_ms", "ms"),
    ("kcmatrix.rows", "count"),
    ("kcmatrix.cols", "count"),
    ("kcmatrix.entries", "count"),
    ("kcmatrix.search_ms", "ms"),
    ("kcmatrix.search_calls", "count"),
    ("kcmatrix.search_us_per_call", "us"),
    ("kcmatrix.search_visited", "count"),
    ("kcmatrix.search_pruned", "count"),
    ("kcmatrix.search_budget_exhausted", "count"),
    ("kcmatrix.batch_candidates", "count"),
    ("kcmatrix.batch_accept_ratio", "ratio"),
    // pf-core, sequential engine
    ("core.apply_ms", "ms"),
    ("core.apply_calls", "count"),
    ("core.apply_us_per_call", "us"),
    ("core.layers_sum_ms", "ms"),
    ("core.unattributed_pct", "%"),
    ("core.trace_overhead_pct", "%"),
    // pf-core, parallel drivers
    ("core.r.replicate_ms", "ms"),
    ("core.r.cover_ms", "ms"),
    ("core.i.partition_ms", "ms"),
    ("core.i.extract_ms", "ms"),
    ("core.i.merge_ms", "ms"),
    ("core.l.setup_ms", "ms"),
    ("core.l.extract_ms", "ms"),
    ("core.l.merge_ms", "ms"),
    ("core.l.shipped_rects", "count"),
    ("core.phases_gap_pct", "%"),
    ("core.extractions", "count"),
    ("core.seq_ref_ms", "ms"),
    ("core.speedup_vs_seq", "ratio"),
    ("core.lc_excess_vs_seq_pct", "%"),
    // pf-core::dist
    ("dist.partition_ms", "ms"),
    ("dist.extract_ms", "ms"),
    ("dist.merge_ms", "ms"),
    ("dist.frontier_ms", "ms"),
    ("dist.resub_ms", "ms"),
    ("dist.sweep_ms", "ms"),
    ("dist.unattributed_ms", "ms"),
    ("dist.leases_issued", "count"),
    ("dist.leases_expired", "count"),
    ("dist.leases_stolen", "count"),
    ("dist.recovery_rects", "count"),
    ("dist.resub_pairs_considered", "count"),
    ("dist.resub_divide_ratio", "ratio"),
    ("dist.gap_closed_pct", "%"),
    // pf-partition
    ("partition.kway_ms", "ms"),
    ("partition.cut_size", "count"),
    ("partition.imbalance_pct", "%"),
    // pf-network
    ("network.verify_ms", "ms"),
    // process
    ("proc.cpu_ms_per_job", "ms"),
    ("proc.cpu_per_wall", "ratio"),
    // pf-serve
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p90", "us"),
    ("serve.run_us_p50", "us"),
    ("serve.front_us_p50", "us"),
    ("serve.parse_us", "us"),
    ("serve.resolve_us", "us"),
    ("serve.digest_us", "us"),
    ("serve.serialise_us", "us"),
    ("serve.hit.wall_ms_p50", "ms"),
    ("serve.miss.wall_ms_p50", "ms"),
    ("serve.rejected", "count"),
    ("serve.balanced", "bool"),
    // pf-cache
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    let e2e = END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit);
    e2e.or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

/// Measured values by metric name. Setting a name outside the
/// vocabulary is a bug in the benchmark.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "{name} is not in the metric vocabulary"
        );
        assert!(value.is_finite(), "{name} = {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Direction of a per-layer metric, for `BENCHMARK.json`: ratios of
/// useful work and the two identities are better higher; times, counts
/// of work done and waste are better lower.
#[cfg(test)]
pub fn higher_is_better(name: &str) -> bool {
    matches!(
        name,
        "kcmatrix.batch_accept_ratio"
            | "core.speedup_vs_seq"
            | "dist.gap_closed_pct"
            | "dist.resub_divide_ratio"
            | "serve.balanced"
            | "cache.hit_ratio"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{parse_json, Json};
    use crate::inputs::WORKLOADS;

    /// `BENCHMARK.json` is what the driver reads; the tables here are
    /// what the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_vocabulary() {
        let manifest = parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        let list = |key: &str| match manifest.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(
                (text(j, "name"), text(j, "why")),
                (w.name.to_string(), w.why.to_string())
            );
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better") == "lower", m.better == Better::Lower);
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(
                (text(j, "name"), text(j, "unit")),
                (m.0.to_string(), m.1.to_string())
            );
            assert_eq!(
                text(j, "better"),
                if higher_is_better(m.0) {
                    "higher"
                } else {
                    "lower"
                }
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for name in names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }
}
