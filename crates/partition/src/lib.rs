#![warn(missing_docs)]

//! # pf-partition — min-cut circuit partitioning
//!
//! The paper's Algorithms I and L both start from a min-cut partition of
//! the circuit: "The circuit is mapped to a graph, by transforming the
//! nodes to vertices and the fanin-fanout relation between node pairs
//! into edges. We apply a min cut based graph partitioning algorithm \[6\]
//! to partition the circuit into n parts" (§4, citing Sanchis).
//!
//! This crate reimplements that substrate: a [`graph::CircuitGraph`]
//! built from a [`pf_network::Network`], and a direct k-way
//! Fiduccia–Mattheyses-style iterative-improvement partitioner
//! ([`kway`]) with vertex locking, per-pass rollback to the best prefix,
//! and literal-count balance constraints — the same family of heuristics
//! as Sanchis's multiple-way network partitioning.

pub mod graph;
pub mod kway;

pub use graph::CircuitGraph;
pub use kway::{partition_network, Partition, PartitionConfig};
