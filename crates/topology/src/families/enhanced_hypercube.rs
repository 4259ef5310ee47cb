//! The enhanced hypercube `Q_{n,m}` (Tzeng & Wei \[22\]).
//!
//! `Q_n` plus the *skip* matching: node `u` is additionally adjacent to the
//! node obtained by flipping bits `n−1, n−2, …, m−1` (the top `n − m + 1`
//! components), for a parameter `1 ≤ m ≤ n`. `Q_{n,1}` is the folded
//! hypercube. `Q_{n,m}` is `(n+1)`-regular with connectivity `n + 1` and,
//! for `n ≥ 4`, diagnosability `n + 1` (via \[6\]).
//!
//! As for `FQ_n`, the general algorithm partitions the spanning `Q_n` by
//! prefixes; the skip edges flip bit `n−1` and therefore always cross
//! parts.

use crate::families::minimal_partition_dim;
use crate::graph::{NodeId, Topology};
use crate::partition::Partitionable;
use std::sync::OnceLock;

/// The enhanced hypercube `Q_{n,m}` with the spanning-`Q_n` prefix
/// decomposition (`part_dim` = the subcube dimension of the decomposition,
/// distinct from the skip parameter `m`).
#[derive(Clone, Debug)]
pub struct EnhancedHypercube {
    n: usize,
    skip_m: usize,
    part_dim: usize,
    /// Memoised certified fault capacity (see `driver_fault_bound`).
    capacity: OnceLock<usize>,
}

impl EnhancedHypercube {
    /// Build `Q_{n,m}` with the minimal valid partition dimension for fault
    /// bound `δ = n + 1`.
    pub fn new(n: usize, skip_m: usize) -> Self {
        assert!(n >= 2 && n < usize::BITS as usize - 1);
        assert!(
            (1..n).contains(&skip_m),
            "enhanced hypercube needs 1 ≤ m ≤ n−1 (m = n would duplicate a hypercube edge)"
        );
        let part_dim = minimal_partition_dim(2, n, n + 1).unwrap_or_else(|| {
            panic!("Q_({n},{skip_m}): no partition dimension satisfies Theorem 3")
        });
        EnhancedHypercube {
            n,
            skip_m,
            part_dim,
            capacity: OnceLock::new(),
        }
    }

    /// Build with an explicit partition subcube dimension.
    pub fn with_partition_dim(n: usize, skip_m: usize, part_dim: usize) -> Self {
        assert!((1..n).contains(&skip_m));
        assert!(part_dim >= 1 && part_dim < n);
        EnhancedHypercube {
            n,
            skip_m,
            part_dim,
            capacity: OnceLock::new(),
        }
    }

    /// Dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The skip parameter `m` of `Q_{n,m}`.
    pub fn skip_param(&self) -> usize {
        self.skip_m
    }

    /// Mask flipping bits `n−1 .. m−1`.
    fn skip_mask(&self) -> usize {
        let full = (1usize << self.n) - 1;
        let low = (1usize << (self.skip_m - 1)) - 1;
        full ^ low
    }
}

impl Topology for EnhancedHypercube {
    fn node_count(&self) -> usize {
        1 << self.n
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        for i in 0..self.n {
            out.push(u ^ (1 << i));
        }
        out.push(u ^ self.skip_mask());
        out.sort_unstable();
    }
    fn degree(&self, _u: NodeId) -> usize {
        self.n + 1
    }
    fn max_degree(&self) -> usize {
        self.n + 1
    }
    fn min_degree(&self) -> usize {
        self.n + 1
    }
    fn diagnosability(&self) -> usize {
        self.n + 1
    }
    fn connectivity(&self) -> usize {
        self.n + 1
    }
    fn name(&self) -> String {
        format!("Q_({},{})", self.n, self.skip_m)
    }
}

impl Partitionable for EnhancedHypercube {
    fn part_count(&self) -> usize {
        1 << (self.n - self.part_dim)
    }
    fn part_of(&self, u: NodeId) -> usize {
        u >> self.part_dim
    }
    fn representative(&self, part: usize) -> NodeId {
        part << self.part_dim
    }
    fn part_size(&self, _part: usize) -> usize {
        1 << self.part_dim
    }
    fn driver_fault_bound(&self) -> usize {
        // The subcube parts certify at most 10 internal nodes for
        // part_dim = 4, below δ = n + 1 from n = 9 up; cap the bound at
        // what every part can certify. The O(Δ·N) capacity scan runs once
        // per struct, memoised behind a `OnceLock`.
        *self.capacity.get_or_init(|| {
            crate::partition::certified_fault_capacity(self).min(self.diagnosability())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AdjGraph;
    use crate::partition::validate_partition;
    use crate::verify::assert_family_structure;

    #[test]
    fn q41_is_folded_hypercube() {
        use crate::families::folded_hypercube::FoldedHypercube;
        let e = EnhancedHypercube::with_partition_dim(4, 1, 2);
        let f = FoldedHypercube::with_partition_dim(4, 2);
        let ge = AdjGraph::from_topology(&e);
        let gf = AdjGraph::from_topology(&f);
        for u in 0..16 {
            assert_eq!(ge.neighbors(u), gf.neighbors(u), "u={u}");
        }
    }

    #[test]
    fn structure_various_skips() {
        assert_family_structure(&EnhancedHypercube::with_partition_dim(4, 2, 2), 16, 5, true);
        assert_family_structure(&EnhancedHypercube::with_partition_dim(4, 3, 2), 16, 5, true);
        assert_family_structure(&EnhancedHypercube::with_partition_dim(5, 4, 3), 32, 6, true);
    }

    #[test]
    fn skip_mask_flips_top_bits() {
        let e = EnhancedHypercube::with_partition_dim(6, 4, 3);
        // flips bits 5..3: mask = 0b111000
        assert_eq!(e.skip_mask(), 0b111000);
    }

    #[test]
    #[should_panic(expected = "m ≤ n−1")]
    fn skip_m_equal_n_rejected() {
        // m = n would make the skip edge coincide with the top hypercube
        // dimension, creating a parallel edge.
        EnhancedHypercube::new(4, 4);
    }

    #[test]
    fn skip_edges_cross_parts() {
        let e = EnhancedHypercube::with_partition_dim(6, 3, 3);
        for u in 0..e.node_count() {
            let v = u ^ e.skip_mask();
            assert_ne!(e.part_of(u), e.part_of(v));
        }
        validate_partition(&e).unwrap();
    }

    #[test]
    fn default_partition_for_q9_3() {
        let e = EnhancedHypercube::new(9, 3);
        assert_eq!(e.part_count(), 32);
        e.check_partition_preconditions().unwrap();
    }
}
