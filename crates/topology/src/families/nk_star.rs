//! The (n,k)-star graph `S_{n,k}` (Chiang & Chen \[9\]).
//!
//! Nodes are the `n!/(n−k)!` k-permutations `(p_1, …, p_k)` of `1..=n`
//! (numbered by lexicographic rank). Two kinds of edges:
//!
//! * *i-edges*: swap `p_1` with `p_i` for `i ∈ {2, …, k}` (`k − 1`
//!   neighbours);
//! * *1-edges*: replace `p_1` with any of the `n − k` symbols not present
//!   in the permutation.
//!
//! Degree `n − 1`; connectivity `n − 1` \[9\]; diagnosability `n − 1` for
//! `(n,k) ≠ (3,2)` (via \[6\]). `S_{n,n−1} ≅ S_n` and `S_{n,1} = K_n`.
//!
//! §5.2's decomposition: fixing the k-th component partitions `S_{n,k}`
//! into `n` induced copies of `S_{n−1,k−1}`. Note the paper's size remark
//! is tight: for `k = 2` the parts are cliques `K_{n−1}` with exactly
//! `n − 1 = δ` nodes, which is *not* "more than δ" — the driver's
//! precondition check rejects `k = 2`, and `k ≥ 3` is required in
//! practice.

use crate::graph::{NodeId, Topology};
use crate::partition::Partitionable;
use crate::perm::{falling_factorial, KPerms, MAX_N};

/// The (n,k)-star `S_{n,k}` with the k-th-component decomposition.
#[derive(Clone, Debug)]
pub struct NKStar {
    n: usize,
    k: usize,
    perms: KPerms,
}

impl NKStar {
    /// Build `S_{n,k}` (`2 ≤ k ≤ n−1`, `n ≤ 12`).
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n <= 12, "(n,k)-star supported for n ≤ 12");
        assert!(
            k >= 2 && k < n,
            "(n,k)-star needs 2 ≤ k ≤ n−1 (k=1 is a clique, k=n−1 the star graph)"
        );
        NKStar {
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

impl Topology for NKStar {
    fn node_count(&self) -> usize {
        falling_factorial(self.n, self.k)
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        // Each neighbour leads with a different symbol (swapped in or
        // unused before), so ranks ascend with that symbol.
        out.clear();
        let p = self.perms.unrank(u);
        let mut by_lead = [0; MAX_N + 1];
        for i in 1..self.k {
            by_lead[usize::from(p.at(i))] = self.perms.swap_first(&p, i);
        }
        for s in self.perms.unused(&p) {
            by_lead[usize::from(s)] = self.perms.replace(&p, 0, s);
        }
        let lead = usize::from(p.at(0));
        out.extend((1..=self.n).filter(|&s| s != lead).map(|s| by_lead[s]));
    }
    fn degree(&self, _u: NodeId) -> usize {
        self.n - 1
    }
    fn max_degree(&self) -> usize {
        self.n - 1
    }
    fn min_degree(&self) -> usize {
        self.n - 1
    }
    fn diagnosability(&self) -> usize {
        self.n - 1
    }
    fn connectivity(&self) -> usize {
        self.n - 1
    }
    fn name(&self) -> String {
        format!("S_({},{})", self.n, self.k)
    }
}

impl Partitionable for NKStar {
    fn part_count(&self) -> usize {
        self.n
    }
    fn part_of(&self, u: NodeId) -> usize {
        usize::from(self.perms.unrank(u).last()) - 1
    }
    fn representative(&self, part: usize) -> NodeId {
        assert!(
            part < self.n,
            "part {part} out of range: S_({},{}) has {} parts",
            self.n,
            self.k,
            self.n
        );
        self.perms.first_ending_with(part as u8 + 1)
    }
    fn part_size(&self, _part: usize) -> usize {
        falling_factorial(self.n - 1, self.k - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AdjGraph;
    use crate::partition::validate_partition;
    use crate::perm::{rank_kperm, unrank_kperm};
    use crate::verify::assert_family_structure;

    #[test]
    fn s42_structure() {
        // 12 nodes, 3-regular, κ = 3.
        assert_family_structure(&NKStar::new(4, 2), 12, 3, true);
    }

    #[test]
    fn s52_s53_structure() {
        assert_family_structure(&NKStar::new(5, 2), 20, 4, true);
        assert_family_structure(&NKStar::new(5, 3), 60, 4, true);
    }

    #[test]
    fn s_n_nminus1_is_star_graph() {
        use crate::families::star::StarGraph;
        // S_{4,3} ≅ S_4. The lexicographic ranks differ, so compare as
        // graphs via the canonical map (k-perm -> full perm by appending
        // the missing symbol).
        let nk = NKStar::new(4, 3);
        let s = StarGraph::new(4);
        assert_eq!(nk.node_count(), s.node_count());
        let map = |u: usize| -> usize {
            let mut perm = Vec::new();
            unrank_kperm(u, 4, 3, &mut perm);
            let missing = (1u8..=4).find(|s| !perm.contains(s)).unwrap();
            perm.push(missing);
            crate::perm::rank_perm(&perm, 4)
        };
        let ga = AdjGraph::from_topology(&nk);
        let gs = AdjGraph::from_topology(&s);
        for u in 0..ga.node_count() {
            let mut img: Vec<_> = ga.neighbors(u).into_iter().map(map).collect();
            img.sort_unstable();
            let mut want = gs.neighbors(map(u));
            want.sort_unstable();
            assert_eq!(img, want, "u={u}");
        }
    }

    #[test]
    fn one_edges_replace_first_symbol() {
        let g = NKStar::new(5, 2);
        // node (1,2): i-edge -> (2,1); 1-edges -> (3,2),(4,2),(5,2).
        let u = rank_kperm(&[1, 2], 5);
        let nb = g.neighbors(u);
        assert_eq!(nb.len(), 4);
        assert!(nb.contains(&rank_kperm(&[2, 1], 5)));
        assert!(nb.contains(&rank_kperm(&[3, 2], 5)));
        assert!(nb.contains(&rank_kperm(&[4, 2], 5)));
        assert!(nb.contains(&rank_kperm(&[5, 2], 5)));
    }

    #[test]
    fn kth_component_partition() {
        let g = NKStar::new(6, 3);
        validate_partition(&g).unwrap();
        assert_eq!(g.part_count(), 6);
        assert_eq!(g.part_size(2), 20);
        g.check_partition_preconditions().unwrap();
    }

    #[test]
    fn k2_fails_partition_preconditions() {
        // Parts are K_{n−1}: exactly δ nodes, not more.
        let g = NKStar::new(5, 2);
        assert!(g.check_partition_preconditions().is_err());
    }

    #[test]
    #[should_panic(expected = "part 6 out of range")]
    fn representative_past_the_last_part_panics() {
        NKStar::new(6, 3).representative(6);
    }

    #[test]
    #[should_panic(expected = "rank 120 out of range")]
    fn neighbours_of_a_node_past_the_last_panic() {
        let g = NKStar::new(6, 3);
        g.neighbors_into(g.node_count(), &mut Vec::new());
    }
}
