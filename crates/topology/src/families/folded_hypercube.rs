//! The folded hypercube `FQ_n` \[3\].
//!
//! `Q_n` plus the complement matching: every node `u` is additionally
//! adjacent to `ū` (all `n` bits flipped). `FQ_n` is `(n+1)`-regular with
//! connectivity `n + 1` and, for `n ≥ 4`, diagnosability `n + 1` (via \[6\]).
//!
//! For the general algorithm the paper uses the fact that `FQ_n` contains
//! `Q_n` as a spanning subgraph: the prefix decomposition of that spanning
//! hypercube into `Q_m(v)` copies still induces connected parts (each part
//! contains its `Q_m` spanning subgraph), which is all Theorem 1 needs. The
//! complement edges always leave the part since they flip the prefix.

use crate::families::minimal_partition_dim;
use crate::graph::{NodeId, Topology};
use crate::partition::Partitionable;
use std::sync::OnceLock;

/// The folded hypercube `FQ_n` with the spanning-`Q_n` prefix decomposition.
#[derive(Clone, Debug)]
pub struct FoldedHypercube {
    n: usize,
    m: usize,
    /// Memoised certified fault capacity (see `driver_fault_bound`).
    capacity: OnceLock<usize>,
}

impl FoldedHypercube {
    /// Build `FQ_n` with the minimal partition dimension for fault bound
    /// `δ = n + 1`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2 && n < usize::BITS as usize - 1);
        let m = minimal_partition_dim(2, n, n + 1).unwrap_or_else(|| {
            panic!("FQ_{n}: no partition dimension satisfies Theorem 3 (need n ≥ 9)")
        });
        FoldedHypercube {
            n,
            m,
            capacity: OnceLock::new(),
        }
    }

    /// Build `FQ_n` with an explicit subcube dimension.
    pub fn with_partition_dim(n: usize, m: usize) -> Self {
        assert!(m >= 1 && m < n);
        FoldedHypercube {
            n,
            m,
            capacity: OnceLock::new(),
        }
    }

    /// Dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    fn full_mask(&self) -> usize {
        (1 << self.n) - 1
    }
}

impl Topology for FoldedHypercube {
    fn node_count(&self) -> usize {
        1 << self.n
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        for i in 0..self.n {
            out.push(u ^ (1 << i));
        }
        out.push(u ^ self.full_mask());
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
        format!("FQ_{}", self.n)
    }
    fn are_adjacent(&self, u: NodeId, v: NodeId) -> bool {
        let d = (u ^ v).count_ones() as usize;
        d == 1 || d == self.n
    }
}

impl Partitionable for FoldedHypercube {
    fn part_count(&self) -> usize {
        1 << (self.n - self.m)
    }
    fn part_of(&self, u: NodeId) -> usize {
        u >> self.m
    }
    fn representative(&self, part: usize) -> NodeId {
        part << self.m
    }
    fn part_size(&self, _part: usize) -> usize {
        1 << self.m
    }
    fn driver_fault_bound(&self) -> usize {
        // The `Q_m` parts certify at most 10 internal nodes for m = 4,
        // which is below δ = n + 1 from `FQ_9` up; cap the bound at what
        // every part can certify. The O(Δ·N) capacity scan runs once per
        // struct, memoised behind a `OnceLock`.
        *self.capacity.get_or_init(|| {
            crate::partition::certified_fault_capacity(self).min(self.diagnosability())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::diameter;
    use crate::partition::validate_partition;
    use crate::verify::assert_family_structure;

    #[test]
    fn fq3_structure() {
        // FQ_3: 8 nodes, 4-regular, κ = 4.
        assert_family_structure(&FoldedHypercube::with_partition_dim(3, 2), 8, 4, true);
    }

    #[test]
    fn fq4_fq5_structure() {
        assert_family_structure(&FoldedHypercube::with_partition_dim(4, 2), 16, 5, true);
        assert_family_structure(&FoldedHypercube::with_partition_dim(5, 3), 32, 6, true);
    }

    #[test]
    fn folded_halves_the_diameter() {
        // diameter(FQ_n) = ⌈n/2⌉.
        assert_eq!(diameter(&FoldedHypercube::with_partition_dim(4, 2)), 2);
        assert_eq!(diameter(&FoldedHypercube::with_partition_dim(5, 3)), 3);
    }

    #[test]
    fn complement_edges_leave_every_part() {
        let g = FoldedHypercube::with_partition_dim(6, 3);
        for u in 0..g.node_count() {
            let comp = u ^ ((1 << 6) - 1);
            assert_ne!(g.part_of(u), g.part_of(comp), "u={u:06b}");
        }
        validate_partition(&g).unwrap();
    }

    #[test]
    fn default_partition_for_fq9() {
        let g = FoldedHypercube::new(9);
        // δ = 10, m minimal with 2^m > 10 → 4; parts = 2^5 = 32 > 10.
        assert_eq!(g.part_count(), 32);
        g.check_partition_preconditions().unwrap();
    }
}
