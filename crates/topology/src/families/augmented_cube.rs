//! The augmented cube `AQ_n` (Choudum & Sunitha \[10\]).
//!
//! `AQ_1 = K_2`; `AQ_n` consists of two copies `0·AQ_{n−1}` and
//! `1·AQ_{n−1}` plus, for each `x`, the *hypercube* edge `(0,x) ∼ (1,x)`
//! and the *complement* edge `(0,x) ∼ (1, x̄)` (low `n−1` bits flipped).
//! Unrolled, `u` is adjacent to
//!
//! * `u ⊕ 2^l` for `0 ≤ l < n` (hypercube edges), and
//! * `u ⊕ (2^{l+1} − 1)` for `1 ≤ l < n` (complement edges; `l = 0` would
//!   repeat the first hypercube edge),
//!
//! giving degree `2n − 1`. `AQ_n` is `(2n−1)`-regular with connectivity
//! `2n − 1` (for `n ≥ 4`; `AQ_3` exceptionally has κ = 4) and, for
//! `n ≥ 5`, diagnosability `2n − 1` (via \[6\]).
//!
//! Fixing the first bit splits `AQ_n` into two induced copies of
//! `AQ_{n−1}`; iterated, this yields the prefix decomposition of
//! Theorem 3.

use crate::families::minimal_partition_dim;
use crate::graph::{NodeId, Topology};
use crate::partition::Partitionable;
use std::sync::OnceLock;

/// The augmented cube `AQ_n` with a prefix decomposition into `AQ_m`
/// copies.
#[derive(Clone, Debug)]
pub struct AugmentedCube {
    n: usize,
    m: usize,
    /// Memoised certified fault capacity (see `driver_fault_bound`).
    capacity: OnceLock<usize>,
}

impl AugmentedCube {
    /// Build `AQ_n` with the minimal partition dimension for fault bound
    /// `δ = 2n − 1`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1 && n < usize::BITS as usize);
        let m = minimal_partition_dim(2, n, 2 * n - 1).unwrap_or_else(|| {
            panic!("AQ_{n}: no partition dimension satisfies Theorem 3 (need n ≥ 10)")
        });
        AugmentedCube {
            n,
            m,
            capacity: OnceLock::new(),
        }
    }

    /// Build `AQ_n` with an explicit subcube dimension.
    pub fn with_partition_dim(n: usize, m: usize) -> Self {
        assert!(m >= 1 && m < n);
        AugmentedCube {
            n,
            m,
            capacity: OnceLock::new(),
        }
    }

    /// Dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }
}

impl Topology for AugmentedCube {
    fn node_count(&self) -> usize {
        1 << self.n
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        for l in 0..self.n {
            out.push(u ^ (1 << l));
        }
        for l in 1..self.n {
            out.push(u ^ ((1 << (l + 1)) - 1));
        }
        out.sort_unstable();
    }
    fn degree(&self, _u: NodeId) -> usize {
        2 * self.n - 1
    }
    fn max_degree(&self) -> usize {
        2 * self.n - 1
    }
    fn min_degree(&self) -> usize {
        2 * self.n - 1
    }
    fn diagnosability(&self) -> usize {
        2 * self.n - 1
    }
    fn connectivity(&self) -> usize {
        // κ(AQ_n) = 2n − 1 for n ≠ 3; κ(AQ_3) = 4 (Choudum & Sunitha).
        if self.n == 3 {
            4
        } else {
            2 * self.n - 1
        }
    }
    fn name(&self) -> String {
        format!("AQ_{}", self.n)
    }
}

impl Partitionable for AugmentedCube {
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
        // `AQ_m` parts are extremely dense (degree 2m − 1), so their probe
        // trees are shallow: 32-node `AQ_5` parts certify only 14 internal
        // nodes against δ = 2n − 1 = 19 for `AQ_10`. Cap the bound at what
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
    fn aq1_is_k2() {
        let g = AugmentedCube {
            n: 1,
            m: 1,
            capacity: OnceLock::new(),
        };
        assert_eq!(g.neighbors(0), vec![1]);
    }

    #[test]
    fn aq2_is_k4() {
        // AQ_2: 4 nodes, 3-regular = K_4.
        assert_family_structure(&AugmentedCube::with_partition_dim(2, 1), 4, 3, true);
    }

    #[test]
    fn aq3_structure() {
        // AQ_3 is 5-regular on 8 nodes with the exceptional κ = 4.
        assert_family_structure(&AugmentedCube::with_partition_dim(3, 2), 8, 5, true);
    }

    #[test]
    fn aq4_aq5_structure() {
        assert_family_structure(&AugmentedCube::with_partition_dim(4, 2), 16, 7, true);
        assert_family_structure(&AugmentedCube::with_partition_dim(5, 3), 32, 9, true);
    }

    #[test]
    fn diameter_is_ceil_n_over_2() {
        assert_eq!(diameter(&AugmentedCube::with_partition_dim(4, 2)), 2);
        assert_eq!(diameter(&AugmentedCube::with_partition_dim(5, 3)), 3);
        assert_eq!(diameter(&AugmentedCube::with_partition_dim(6, 3)), 3);
    }

    #[test]
    fn parts_induce_augmented_cubes() {
        let g = AugmentedCube::with_partition_dim(5, 3);
        validate_partition(&g).unwrap();
        let sub = AugmentedCube {
            n: 3,
            m: 1,
            capacity: OnceLock::new(),
        };
        for p in 0..g.part_count() {
            let base = p << 3;
            for x in 0..8usize {
                let mut expect: Vec<_> = sub.neighbors(x).iter().map(|&y| base | y).collect();
                let mut got: Vec<_> = g
                    .neighbors(base | x)
                    .into_iter()
                    .filter(|&v| v >> 3 == p)
                    .collect();
                expect.sort_unstable();
                got.sort_unstable();
                assert_eq!(expect, got, "part {p}, offset {x}");
            }
        }
    }

    #[test]
    fn default_partition_for_aq9() {
        // δ = 17; m minimal with 2^m > 17 → 5; parts = 2^4 = 16 ≤ 17 → fails;
        // so AQ_9 needs... check that AQ_10 works instead.
        let g = AugmentedCube::new(10);
        assert!(g.part_count() > g.diagnosability());
        g.check_partition_preconditions().unwrap();
    }
}
