//! The augmented k-ary n-cube `AQ_{n,k}` (Xiang & Stewart \[25\]).
//!
//! `Q^k_n` extended the way `AQ_n` extends `Q_n`: besides the `2n` torus
//! edges, node `u` is adjacent to the `2(n−1)` nodes obtained by adding
//! `+1` or `−1` (mod k) to *every* digit of a suffix `u_0..u_i` of length
//! `≥ 2` (`1 ≤ i ≤ n−1`). Total degree `4n − 2`. `AQ_{n,k}` is
//! `(4n−2)`-regular with connectivity `4n − 2` \[25\] and, for
//! `(n,k) ≠ (2,3)`, diagnosability `4n − 2` (via \[6\]).
//!
//! It contains `Q^k_n` as a spanning subgraph, so §5.2 reuses the k-ary
//! prefix decomposition: parts are the prefix classes, each containing a
//! spanning (hence connected) `Q^k_m`.

use crate::families::minimal_partition_dim;
use crate::graph::{NodeId, Topology};
use crate::partition::Partitionable;
use std::sync::OnceLock;

/// The augmented k-ary n-cube `AQ_{n,k}` with the spanning-`Q^k_n` prefix
/// decomposition.
#[derive(Clone, Debug)]
pub struct AugmentedKAryNCube {
    k: usize,
    n: usize,
    m: usize,
    /// Memoised certified fault capacity (see `driver_fault_bound`).
    capacity: OnceLock<usize>,
}

impl AugmentedKAryNCube {
    /// Build `AQ_{n,k}` with the minimal partition dimension for fault
    /// bound `δ = 4n − 2`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 3, "augmented k-ary n-cube needs k ≥ 3");
        assert!(n >= 2, "augmented k-ary n-cube needs n ≥ 2");
        let m = minimal_partition_dim(k, n, 4 * n - 2)
            .unwrap_or_else(|| panic!("AQ_({n},{k}): no partition dimension satisfies §5.2"));
        AugmentedKAryNCube {
            k,
            n,
            m,
            capacity: OnceLock::new(),
        }
    }

    /// Build with an explicit partition dimension.
    pub fn with_partition_dim(n: usize, k: usize, m: usize) -> Self {
        assert!(k >= 3 && n >= 2 && m >= 1 && m < n);
        AugmentedKAryNCube {
            k,
            n,
            m,
            capacity: OnceLock::new(),
        }
    }

    /// Radix `k`.
    pub fn radix(&self) -> usize {
        self.k
    }

    /// Dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    fn pow(&self, e: usize) -> usize {
        self.k.pow(e as u32)
    }

    /// Add `delta ∈ {+1, k−1}` (mod k) to every digit in positions `0..=i`.
    fn shift_suffix(&self, u: NodeId, i: usize, delta: usize) -> NodeId {
        let mut v = u;
        let mut base = 1usize;
        for _ in 0..=i {
            let digit = (v / base) % self.k;
            let nd = (digit + delta) % self.k;
            v = v - digit * base + nd * base;
            base *= self.k;
        }
        v
    }
}

impl Topology for AugmentedKAryNCube {
    fn node_count(&self) -> usize {
        self.pow(self.n)
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        // Torus edges.
        let mut base = 1usize;
        for _ in 0..self.n {
            let digit = (u / base) % self.k;
            let up = (digit + 1) % self.k;
            let down = (digit + self.k - 1) % self.k;
            out.push(u - digit * base + up * base);
            out.push(u - digit * base + down * base);
            base *= self.k;
        }
        // Suffix edges of length ≥ 2.
        for i in 1..self.n {
            out.push(self.shift_suffix(u, i, 1));
            out.push(self.shift_suffix(u, i, self.k - 1));
        }
        out.sort_unstable();
    }
    fn degree(&self, _u: NodeId) -> usize {
        4 * self.n - 2
    }
    fn max_degree(&self) -> usize {
        4 * self.n - 2
    }
    fn min_degree(&self) -> usize {
        4 * self.n - 2
    }
    fn diagnosability(&self) -> usize {
        4 * self.n - 2
    }
    fn connectivity(&self) -> usize {
        4 * self.n - 2
    }
    fn name(&self) -> String {
        format!("AQ_({},{})", self.n, self.k)
    }
}

impl Partitionable for AugmentedKAryNCube {
    fn part_count(&self) -> usize {
        self.pow(self.n - self.m)
    }
    fn part_of(&self, u: NodeId) -> usize {
        u / self.pow(self.m)
    }
    fn representative(&self, part: usize) -> NodeId {
        part * self.pow(self.m)
    }
    fn part_size(&self, _part: usize) -> usize {
        self.pow(self.m)
    }
    fn driver_fault_bound(&self) -> usize {
        // Augmented tori have degree 4n − 2 ≈ their small parts' node
        // counts: a 16-node part of `AQ_(4,4)` certifies only 7 internal
        // nodes against δ = 14. Cap the bound at what every part can
        // certify. The O(Δ·N) capacity scan runs once per struct, memoised
        // behind a `OnceLock`.
        *self.capacity.get_or_init(|| {
            crate::partition::certified_fault_capacity(self).min(self.diagnosability())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::validate_partition;
    use crate::verify::assert_family_structure;

    #[test]
    fn aq_2_4_structure() {
        // n=2, k=4: 16 nodes, 6-regular, κ = 6.
        assert_family_structure(
            &AugmentedKAryNCube::with_partition_dim(2, 4, 1),
            16,
            6,
            true,
        );
    }

    #[test]
    fn aq_2_5_structure() {
        assert_family_structure(
            &AugmentedKAryNCube::with_partition_dim(2, 5, 1),
            25,
            6,
            true,
        );
    }

    #[test]
    fn aq_3_3_structure() {
        // n=3, k=3: 27 nodes, 10-regular, κ = 10.
        assert_family_structure(
            &AugmentedKAryNCube::with_partition_dim(3, 3, 1),
            27,
            10,
            true,
        );
    }

    #[test]
    fn suffix_shift_wraps_correctly() {
        let g = AugmentedKAryNCube::with_partition_dim(2, 3, 1);
        // node (2,2) = 8 in base 3; suffix i=1 with +1 -> (0,0) = 0.
        assert_eq!(g.shift_suffix(8, 1, 1), 0);
        assert_eq!(g.shift_suffix(0, 1, 2), 8);
    }

    #[test]
    fn contains_spanning_torus() {
        let g = AugmentedKAryNCube::with_partition_dim(3, 3, 1);
        let torus = super::super::kary::KAryNCube::with_partition_dim(3, 3, 1);
        for u in 0..27 {
            let aug = g.neighbors(u);
            for v in torus.neighbors(u) {
                assert!(aug.contains(&v), "torus edge {u}-{v} missing");
            }
        }
    }

    #[test]
    fn partition_matches_spanning_torus() {
        let g = AugmentedKAryNCube::with_partition_dim(3, 4, 2);
        validate_partition(&g).unwrap();
        assert_eq!(g.part_count(), 4);
        assert_eq!(g.part_size(0), 16);
    }

    #[test]
    fn default_for_3_4() {
        // n=3: δ = 10; k=4: m minimal with 4^m > 10 → 2; parts = 4 ≤ 10 →
        // invalid; so (3,4) has no default. (4,4): δ=14, m=2 (16>14),
        // parts=16>14 ✓.
        let g = AugmentedKAryNCube::new(4, 4);
        assert_eq!(g.m, 2);
        g.check_partition_preconditions().unwrap();
    }
}
