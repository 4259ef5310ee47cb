//! The arrangement graph `A_{n,k}` (Day & Tripathi \[11\]).
//!
//! Nodes are the `n!/(n−k)!` k-permutations of `1..=n`; `u ∼ v` iff they
//! differ in exactly one position (the differing symbol is replaced by one
//! of the `n − k` unused symbols). `A_{n,k}` is `k(n−k)`-regular with
//! connectivity `k(n−k)` \[11\] and diagnosability `k(n−k)` (via \[6\]).
//!
//! §5.2's decomposition: fixing the k-th component partitions `A_{n,k}`
//! into `n` induced copies of `A_{n−1,k−1}`. Because there are only `n`
//! parts, the partition-driven algorithm handles at most `n − 1` faults
//! (Theorem 7's bound), strictly less than the diagnosability when
//! `k(n−k) > n − 1` — this is the one family where
//! [`Partitionable::driver_fault_bound`] differs from
//! [`Topology::diagnosability`].

use crate::graph::{NodeId, Topology};
use crate::partition::Partitionable;
use crate::perm::{falling_factorial, KPerms};

/// The arrangement graph `A_{n,k}` with the k-th-component decomposition.
#[derive(Clone, Debug)]
pub struct Arrangement {
    n: usize,
    k: usize,
    perms: KPerms,
}

impl Arrangement {
    /// Build `A_{n,k}` (`2 ≤ k ≤ n−1`, `n ≤ 12`). `A_{n,1}` is the
    /// complete graph and `A_{n,n−1} ≅ S_n`; both extremes are permitted
    /// by \[11\] but `k = n` would be edgeless.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n <= 12, "arrangement graph supported for n ≤ 12");
        assert!(k >= 1 && k < n, "arrangement graph needs 1 ≤ k ≤ n−1");
        Arrangement {
            n,
            k,
            perms: KPerms::new(n, k),
        }
    }

    /// Symbol-set size `n`.
    pub fn symbols(&self) -> usize {
        self.n
    }

    /// Permutation length `k`.
    pub fn positions(&self) -> usize {
        self.k
    }
}

impl Topology for Arrangement {
    fn node_count(&self) -> usize {
        falling_factorial(self.n, self.k)
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        // A neighbour that lowers position i ranks below u, and the earlier
        // the position the lower; one that raises position i ranks above
        // u, and the earlier the position the higher. Within a position,
        // ranks ascend with the new symbol.
        out.clear();
        let p = self.perms.unrank(u);
        for i in 0..self.k {
            let lower = self.perms.unused(&p).take_while(|&s| s < p.at(i));
            out.extend(lower.map(|s| self.perms.replace(&p, i, s)));
        }
        for i in (0..self.k).rev() {
            let higher = self.perms.unused(&p).skip_while(|&s| s < p.at(i));
            out.extend(higher.map(|s| self.perms.replace(&p, i, s)));
        }
    }
    fn degree(&self, _u: NodeId) -> usize {
        self.k * (self.n - self.k)
    }
    fn max_degree(&self) -> usize {
        self.k * (self.n - self.k)
    }
    fn min_degree(&self) -> usize {
        self.k * (self.n - self.k)
    }
    fn diagnosability(&self) -> usize {
        self.k * (self.n - self.k)
    }
    fn connectivity(&self) -> usize {
        self.k * (self.n - self.k)
    }
    fn name(&self) -> String {
        format!("A_({},{})", self.n, self.k)
    }
}

impl Partitionable for Arrangement {
    fn part_count(&self) -> usize {
        self.n
    }
    fn part_of(&self, u: NodeId) -> usize {
        usize::from(self.perms.unrank(u).last()) - 1
    }
    fn representative(&self, part: usize) -> NodeId {
        assert!(
            part < self.n,
            "part {part} out of range: A_({},{}) has {} parts",
            self.n,
            self.k,
            self.n
        );
        self.perms.first_ending_with(part as u8 + 1)
    }
    fn part_size(&self, _part: usize) -> usize {
        falling_factorial(self.n - 1, self.k - 1)
    }

    /// Theorem 7: the n-part decomposition supports at most `n − 1`
    /// faults, even though diagnosability is `k(n−k)`.
    fn driver_fault_bound(&self) -> usize {
        (self.n - 1).min(self.diagnosability())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::validate_partition;
    use crate::perm::unrank_kperm;
    use crate::verify::assert_family_structure;

    #[test]
    fn a42_structure() {
        // 12 nodes, 4-regular, κ = 4.
        assert_family_structure(&Arrangement::new(4, 2), 12, 4, true);
    }

    #[test]
    fn a52_structure() {
        // 20 nodes, 6-regular.
        assert_family_structure(&Arrangement::new(5, 2), 20, 6, true);
    }

    #[test]
    fn a53_structure() {
        // 60 nodes, 6-regular.
        assert_family_structure(&Arrangement::new(5, 3), 60, 6, true);
    }

    #[test]
    fn a_n_1_is_complete() {
        let g = Arrangement::new(5, 1);
        assert_eq!(g.node_count(), 5);
        crate::verify::assert_regular(&g, 4);
    }

    #[test]
    fn neighbours_differ_in_one_position() {
        let g = Arrangement::new(5, 3);
        let mut pu = Vec::new();
        let mut pv = Vec::new();
        for u in (0..g.node_count()).step_by(11) {
            unrank_kperm(u, 5, 3, &mut pu);
            for v in g.neighbors(u) {
                unrank_kperm(v, 5, 3, &mut pv);
                let diff = pu.iter().zip(&pv).filter(|(a, b)| a != b).count();
                assert_eq!(diff, 1, "{pu:?} vs {pv:?}");
            }
        }
    }

    #[test]
    fn partition_and_fault_bound() {
        let g = Arrangement::new(6, 3);
        validate_partition(&g).unwrap();
        assert_eq!(g.part_count(), 6);
        assert_eq!(g.diagnosability(), 9);
        assert_eq!(g.driver_fault_bound(), 5);
        g.check_partition_preconditions().unwrap();
    }

    #[test]
    fn a52_preconditions_fail() {
        // Parts of A_{5,2} have 4 nodes = n − 1 = fault bound: not enough.
        let g = Arrangement::new(5, 2);
        assert!(g.check_partition_preconditions().is_err());
    }

    #[test]
    #[should_panic(expected = "part 6 out of range")]
    fn representative_past_the_last_part_panics() {
        Arrangement::new(6, 3).representative(6);
    }

    #[test]
    #[should_panic(expected = "rank 120 out of range")]
    fn neighbours_of_a_node_past_the_last_panic() {
        let g = Arrangement::new(6, 3);
        g.neighbors_into(g.node_count(), &mut Vec::new());
    }
}
