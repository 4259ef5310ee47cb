//! [`Cached`]: a materialised view of any partitionable topology.
//!
//! The driver calls `part_of` per visited edge. Generator math answers it
//! without the heap, but never as a plain read: the permutation families
//! unrank the node (one division per symbol, ~40–60 ns at `n = 10`,
//! against ~2 ns for the hypercube's shift). `Cached` precomputes the CSR
//! adjacency *and* the part label of every node, turning both operations
//! into array reads while preserving the family's metadata and
//! decomposition.

use crate::graph::{AdjGraph, NodeId, Topology};
use crate::partition::Partitionable;

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
    /// sizes. Neighbour lists keep `t`'s (ascending) order, so a diagnosis
    /// on the copy equals one on `t`.
    pub fn new<T: Partitionable + ?Sized>(t: &T) -> Self {
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
            assert_eq!(s.neighbors(u), c.neighbors(u));
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
