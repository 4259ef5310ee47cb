//! [`Cached`]: a materialised view of any partitionable topology.
//!
//! The permutation families compute `part_of` by unranking, which costs
//! `O(n²)` per call; the diagnosis driver calls it per visited edge. For
//! benchmarking, `Cached` precomputes the CSR adjacency *and* the part
//! label of every node, turning both operations into array reads while
//! preserving the family's metadata and decomposition.

use crate::graph::{AdjGraph, NodeId, Topology};
use crate::partition::Partitionable;
use std::sync::atomic::Ordering;

/// A CSR-materialised topology with precomputed partition labels.
#[derive(Clone, Debug)]
pub struct Cached {
    csr: AdjGraph,
    part_labels: Vec<u32>,
    representatives: Vec<NodeId>,
    part_sizes: Vec<usize>,
    driver_fault_bound: usize,
}

impl Cached {
    /// Materialise `t`, caching adjacency, part labels, representatives and
    /// sizes. Counts the call on `t` when it keeps a count
    /// ([`Partitionable::materialisations`]) — the memory event the
    /// implicit (CSR-free) scale path must never trigger.
    pub fn new<T: Partitionable + ?Sized>(t: &T) -> Self {
        if let Some(n) = t.materialisations() {
            n.fetch_add(1, Ordering::Relaxed);
        }
        let csr = AdjGraph::from_topology(t);
        let parts = t.part_count();
        let part_labels = (0..t.node_count())
            .map(|u| {
                let p = t.part_of(u);
                debug_assert!(p < parts);
                u32::try_from(p).expect("more than u32::MAX parts")
            })
            .collect();
        let representatives = (0..parts).map(|p| t.representative(p)).collect();
        let part_sizes = (0..parts).map(|p| t.part_size(p)).collect();
        Cached {
            csr,
            part_labels,
            representatives,
            part_sizes,
            driver_fault_bound: t.driver_fault_bound(),
        }
    }

    /// The underlying CSR graph.
    pub fn csr(&self) -> &AdjGraph {
        &self.csr
    }
}

impl Topology for Cached {
    fn node_count(&self) -> usize {
        self.csr.node_count()
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        self.csr.neighbors_into(u, out)
    }
    fn neighbors_into_sorted(&self, u: NodeId, out: &mut Vec<NodeId>) {
        self.csr.neighbors_into_sorted(u, out)
    }
    fn degree(&self, u: NodeId) -> usize {
        self.csr.degree(u)
    }
    fn max_degree(&self) -> usize {
        self.csr.max_degree()
    }
    fn min_degree(&self) -> usize {
        self.csr.min_degree()
    }
    fn diagnosability(&self) -> usize {
        self.csr.diagnosability()
    }
    fn connectivity(&self) -> usize {
        self.csr.connectivity()
    }
    fn name(&self) -> String {
        self.csr.name()
    }
    fn are_adjacent(&self, u: NodeId, v: NodeId) -> bool {
        self.csr.are_adjacent(u, v)
    }
    fn edge_count(&self) -> usize {
        self.csr.edge_count()
    }
}

impl Partitionable for Cached {
    fn part_count(&self) -> usize {
        self.representatives.len()
    }
    fn part_of(&self, u: NodeId) -> usize {
        self.part_labels[u] as usize
    }
    fn representative(&self, part: usize) -> NodeId {
        self.representatives[part]
    }
    fn part_size(&self, part: usize) -> usize {
        self.part_sizes[part]
    }
    fn driver_fault_bound(&self) -> usize {
        self.driver_fault_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{Pancake, StarGraph};
    use crate::partition::validate_partition;

    #[test]
    fn cached_star_matches_original() {
        let s = StarGraph::new(5);
        let c = Cached::new(&s);
        assert_eq!(c.node_count(), s.node_count());
        assert_eq!(c.part_count(), s.part_count());
        for u in (0..s.node_count()).step_by(7) {
            let mut a = s.neighbors(u);
            let mut b = c.neighbors(u);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
            assert_eq!(s.part_of(u), c.part_of(u));
        }
        validate_partition(&c).unwrap();
    }

    #[test]
    fn cached_preserves_metadata() {
        let p = Pancake::new(5);
        let c = Cached::new(&p);
        assert_eq!(c.diagnosability(), 4);
        assert_eq!(c.connectivity(), 4);
        assert_eq!(c.driver_fault_bound(), 4);
        assert_eq!(c.name(), "P_5");
    }
}
