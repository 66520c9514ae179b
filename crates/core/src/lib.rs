#![warn(missing_docs)]

//! # pf-core — sequential and parallel kernel extraction
//!
//! The paper's primary contribution, reimplemented end to end:
//!
//! * [`seq`] — the sequential greedy rectangle-cover loop equivalent to
//!   SIS's `gkx` kernel extraction: build the KC matrix, extract the
//!   maximum-valued rectangle, divide the affected nodes, repeat. This is
//!   the baseline every speedup in the paper is measured against.
//! * [`replicated`] — **Algorithm R** (§3): the rectangle search divided
//!   by leftmost column among `procs` workers. The paper replicates the
//!   circuit and matrix per processor; here the workers are the search
//!   pool's and share one matrix, so R is the sequential cover with a
//!   parallel search. Same extractions as sequential.
//! * [`independent`] — **Algorithm I** (§4): min-cut partition the
//!   circuit, extract on each part independently, merge. Fast and
//!   memory-scalable, loses the rectangles that span partitions.
//! * [`lshaped`] — **Algorithm L** (§5): disjoint kernel-cube ownership
//!   plus overlapping `B_ij` blocks form L-shaped per-processor
//!   matrices; the shared cube-state protocol (value / trueval / owner,
//!   Table 5) and the kernel-cost-zero division re-check (§5.3) preserve
//!   quality without synchronizing the search.
//! * [`model`] — the analytic speedup model of Equation 3.
//! * [`script`] — a miniature synthesis script (sweep / simplify /
//!   eliminate / repeated extraction / resub) used to reproduce Table 1's
//!   "fraction of time spent factoring".
//!
//! Beyond the paper's core (each documented in DESIGN.md §8):
//!
//! * [`cx`] — common-**cube** extraction on the cube–literal matrix (§2
//!   names it as the sibling rectangle-cover problem) and its
//!   Algorithm-I-style partitioned variant;
//! * [`lshaped_cx`] — Algorithm L transplanted onto that second cover
//!   problem, realizing §6's "directly applied … provided the algorithms
//!   are formulated in terms of a rectangular cover problem";
//! * [`iterative`] — ProperPART-style iterative repartitioning (the
//!   paper's reference \[3\]) layered over Algorithm I;
//! * [`fault`] — a seeded, deterministic fault-injection plane riding on
//!   [`ctl`]'s barrier checkpoints (panic / latency / forced cancel at
//!   named sites), compiled to a no-op when no plan is attached;
//! * [`trace`] — a span/event recorder threaded through every driver
//!   (per-worker ring-buffer lanes, phase + per-pass search spans),
//!   a single branch per hook when disarmed, like [`fault`].

pub mod cached;
pub mod ctl;
pub mod cx;
pub mod dist;
pub mod fault;
pub mod independent;
pub mod iterative;
pub mod lshaped;
pub mod lshaped_cx;
mod mailbox;
pub mod merge;
pub mod model;
pub mod replicated;
pub mod report;
pub mod script;
pub mod seq;
pub mod trace;

pub use cached::{extract_kernels_cached, run_cached, CacheEvents, CacheHandle};
pub use ctl::{RunCtl, StopReason};
pub use cx::{extract_common_cubes, independent_extract_cubes, CubeExtractConfig};
pub use dist::{
    block_base_for, distributed_extract, execute_sub_job, frontier_nodes, DistConfig, DistEvent,
    DistStats, DistTransport, LocalTransport, SubJob, SubKind,
};
pub use fault::{FaultKind, FaultPlan, FaultRule};
pub use independent::{independent_extract, IndependentConfig};
pub use iterative::{iterative_extract, IterativeConfig};
pub use lshaped::{lshaped_extract, LShapedConfig};
pub use lshaped_cx::{lshaped_extract_cubes, LShapedCxConfig};
pub use model::{predicted_speedup, SparsityFactors};
pub use pf_kcmatrix::{CeilingUpdate, SearchPool};
pub use replicated::{replicated_extract, ReplicatedConfig};
pub use report::{ExtractReport, PhaseTiming};
pub use seq::{extract_kernels, extract_kernels_pooled, ExtractConfig};
pub use trace::{Lane, Span, Trace, TraceEvent, Tracer};
