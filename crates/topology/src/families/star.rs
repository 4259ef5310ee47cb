//! The star graph `S_n` (Akers, Harel & Krishnamurthy \[1\]).
//!
//! Nodes are the `n!` permutations of `1..=n` (numbered by lexicographic
//! rank); `u ∼ v` iff `v` is obtained from `u` by swapping the first symbol
//! with the symbol in some position `i ∈ {2, …, n}`. `S_n` is
//! `(n−1)`-regular with connectivity `n − 1` \[2\] and, for `n ≥ 4`,
//! diagnosability `n − 1` (Zheng et al. \[28\]).
//!
//! §5.2's decomposition (via `S_n ≅ S_{n,n−1}`): fixing the *last* symbol
//! partitions `S_n` into `n` induced copies of `S_{n−1}`.

use crate::graph::{NodeId, Topology};
use crate::partition::Partitionable;
use crate::perm::{factorial, KPerms, MAX_N};

/// The star graph `S_n` with the last-symbol decomposition.
#[derive(Clone, Debug)]
pub struct StarGraph {
    n: usize,
    perms: KPerms,
}

impl StarGraph {
    /// Build `S_n` (`2 ≤ n ≤ 12`; `12! ≈ 4.8·10⁸` is the enumeration
    /// ceiling).
    pub fn new(n: usize) -> Self {
        assert!((2..=12).contains(&n), "star graph supported for 2 ≤ n ≤ 12");
        StarGraph {
            n,
            perms: KPerms::new(n, n),
        }
    }

    /// Symbol-set size `n`.
    pub fn dim(&self) -> usize {
        self.n
    }
}

impl Topology for StarGraph {
    fn node_count(&self) -> usize {
        factorial(self.n)
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        // Each neighbour leads with a different symbol (the one swapped to
        // the front), so ranks ascend with that symbol.
        out.clear();
        let p = self.perms.unrank(u);
        let mut by_lead = [0; MAX_N + 1];
        for i in 1..self.n {
            by_lead[usize::from(p.at(i))] = self.perms.swap_first(&p, i);
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
        format!("S_{}", self.n)
    }
}

impl Partitionable for StarGraph {
    fn part_count(&self) -> usize {
        self.n
    }
    fn part_of(&self, u: NodeId) -> usize {
        usize::from(self.perms.unrank(u).last()) - 1
    }
    fn representative(&self, part: usize) -> NodeId {
        assert!(
            part < self.n,
            "part {part} out of range: S_{} has {} parts",
            self.n,
            self.n
        );
        // Smallest permutation ending in symbol `part + 1`.
        self.perms.first_ending_with(part as u8 + 1)
    }
    fn part_size(&self, _part: usize) -> usize {
        factorial(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::validate_partition;
    use crate::perm::unrank_perm;
    use crate::verify::assert_family_structure;

    #[test]
    fn s3_is_c6() {
        let g = StarGraph::new(3);
        assert_family_structure(&g, 6, 2, true);
        assert_eq!(crate::algorithms::diameter(&g), 3);
    }

    #[test]
    fn s4_structure() {
        // 24 nodes, 3-regular, κ = 3.
        assert_family_structure(&StarGraph::new(4), 24, 3, true);
    }

    #[test]
    fn s5_structure() {
        assert_family_structure(&StarGraph::new(5), 120, 4, true);
    }

    #[test]
    fn swaps_move_first_symbol() {
        let g = StarGraph::new(4);
        // identity [1,2,3,4] has rank 0; neighbours are [2,1,3,4],
        // [3,2,1,4], [4,2,3,1].
        let nb = g.neighbors(0);
        let mut perms = Vec::new();
        let mut buf = Vec::new();
        for v in nb {
            unrank_perm(v, 4, &mut buf);
            perms.push(buf.clone());
        }
        assert!(perms.contains(&vec![2, 1, 3, 4]));
        assert!(perms.contains(&vec![3, 2, 1, 4]));
        assert!(perms.contains(&vec![4, 2, 3, 1]));
    }

    #[test]
    fn star_is_bipartite() {
        // Star graphs are bipartite (swaps are transpositions).
        let g = StarGraph::new(4);
        let mut colour = vec![u8::MAX; g.node_count()];
        let mut stack = vec![0usize];
        colour[0] = 0;
        while let Some(u) = stack.pop() {
            for v in g.neighbors(u) {
                if colour[v] == u8::MAX {
                    colour[v] = colour[u] ^ 1;
                    stack.push(v);
                } else {
                    assert_ne!(colour[v], colour[u], "odd cycle in star graph");
                }
            }
        }
    }

    #[test]
    fn last_symbol_partition() {
        let g = StarGraph::new(5);
        validate_partition(&g).unwrap();
        assert_eq!(g.part_count(), 5);
        assert_eq!(g.part_size(0), 24);
        g.check_partition_preconditions().unwrap();
    }

    #[test]
    #[should_panic(expected = "part 6 out of range")]
    fn representative_past_the_last_part_panics() {
        StarGraph::new(6).representative(6);
    }

    #[test]
    #[should_panic(expected = "rank 720 out of range")]
    fn neighbours_of_a_node_past_the_last_panic() {
        let g = StarGraph::new(6);
        g.neighbors_into(g.node_count(), &mut Vec::new());
    }
}
