#![warn(missing_docs)]

//! # pf-network — the Boolean network substrate
//!
//! A multi-level logic network in the MIS/SIS sense: a DAG of nodes, each
//! computing a sum-of-products over primary inputs and other nodes'
//! outputs. This is the object the paper's factorization algorithms
//! transform; its **literal count** (LC) is the paper's area metric.
//!
//! Signals and variables share one index space: the [`pf_sop::Var`] with
//! index `i` *is* the output of signal `i`, so node functions are plain
//! [`pf_sop::Sop`] values and algebraic extraction is just "make a node,
//! divide the affected functions by its variable".
//!
//! Provided here:
//! * [`Network`] — construction, fanin/fanout queries, topological order,
//!   literal count, structural validation;
//! * [`PackedNetwork`] — a network in flat, exactly sized arrays, for
//!   copies that are kept only to be rebuilt ([`Network::pack`]);
//! * transforms ([`transform`]) — kernel/cube extraction plumbing
//!   (`extract_node`, `divide_node_by`), `eliminate`, `sweep`;
//! * simulation ([`sim`]) — random-vector evaluation and functional
//!   equivalence checking used as the test oracle for every optimizer;
//! * a small text format ([`io`]) to read and write networks;
//! * the paper's worked Example 1.1 network ([`example::example_1_1`]),
//!   used as a golden fixture throughout the workspace.

pub mod blif;
pub mod example;
pub mod io;
pub mod network;
pub mod packed;
pub mod resub;
pub mod sim;
pub mod stats;
pub mod transform;

pub use network::{Network, NetworkError, SignalId, SignalKind};
pub use packed::PackedNetwork;
pub use sim::{equivalent_random, simulate, EquivConfig};
