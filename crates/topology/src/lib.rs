//! # mmdiag-topology
//!
//! Interconnection-network substrate for the `mmdiag` workspace — the graph
//! layer underneath the comparison-model fault-diagnosis algorithm of
//! Stewart, *"A general algorithm for detecting faults under the comparison
//! diagnosis model"* (IPDPS 2010).
//!
//! Provides:
//!
//! * [`graph::Topology`] — the abstract network interface (dense node ids,
//!   arithmetic adjacency) and [`graph::AdjGraph`], a CSR materialisation;
//! * [`partition::Partitionable`] — the paper's §5 decomposition hook:
//!   node-disjoint connected subgraphs with designated representatives;
//! * [`families`] — all fourteen network families the paper applies its
//!   algorithm to, each with the exact decomposition §5 uses;
//! * [`algorithms`] — BFS/connectivity utilities plus an exact Menger
//!   (max-flow) vertex-connectivity computation used to machine-verify the
//!   `κ ≥ δ` hypothesis on small instances;
//! * [`perm`] — permutation (un)ranking for the permutation families;
//! * [`cached::Cached`] — a materialised view with precomputed part labels;
//! * [`verify`] — structural assertions shared by the family test-suites.
#![forbid(unsafe_code)]

pub mod algorithms;
pub mod cached;
pub mod families;
pub mod graph;
pub mod partition;
pub mod perm;
pub mod verify;

pub use cached::Cached;
pub use graph::{AdjGraph, NodeId, Topology};
pub use partition::{
    certified_fault_capacity, certified_partition_dim, honest_probe_contributors, Partitionable,
};
