//! The pancake graph `P_n` (Akers & Krishnamurthy \[2\]).
//!
//! Nodes are the `n!` permutations of `1..=n`; `u ∼ v` iff `v` is obtained
//! from `u` by reversing a prefix of length `l ∈ {2, …, n}`. `P_n` is
//! `(n−1)`-regular with connectivity `n − 1` \[2\] and, for `n ≥ 4`,
//! diagnosability `n − 1` (via \[6\]).
//!
//! §5.2's decomposition: fixing the last symbol partitions `P_n` into `n`
//! induced copies of `P_{n−1}` (prefix reversals of length `< n` never
//! move position `n`).

use crate::graph::{NodeId, Topology};
use crate::partition::Partitionable;
use crate::perm::{factorial, KPerms, MAX_N};

/// The pancake graph `P_n` with the last-symbol decomposition.
#[derive(Clone, Debug)]
pub struct Pancake {
    n: usize,
    perms: KPerms,
}

impl Pancake {
    /// Build `P_n` (`2 ≤ n ≤ 12`).
    pub fn new(n: usize) -> Self {
        assert!(
            (2..=12).contains(&n),
            "pancake graph supported for 2 ≤ n ≤ 12"
        );
        Pancake {
            n,
            perms: KPerms::new(n, n),
        }
    }

    /// Symbol-set size `n`.
    pub fn dim(&self) -> usize {
        self.n
    }
}

impl Topology for Pancake {
    fn node_count(&self) -> usize {
        factorial(self.n)
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        // Each neighbour leads with a different symbol (the last of the
        // reversed prefix), so ranks ascend with that symbol.
        out.clear();
        let p = self.perms.unrank(u);
        let mut by_lead = [0; MAX_N + 1];
        for l in 2..=self.n {
            by_lead[usize::from(p.at(l - 1))] = self.perms.reverse_prefix(&p, l);
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
        format!("P_{}", self.n)
    }
}

impl Partitionable for Pancake {
    fn part_count(&self) -> usize {
        self.n
    }
    fn part_of(&self, u: NodeId) -> usize {
        usize::from(self.perms.unrank(u).last()) - 1
    }
    fn representative(&self, part: usize) -> NodeId {
        assert!(
            part < self.n,
            "part {part} out of range: P_{} has {} parts",
            self.n,
            self.n
        );
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
    fn p3_is_c6() {
        assert_family_structure(&Pancake::new(3), 6, 2, true);
    }

    #[test]
    fn p4_structure() {
        assert_family_structure(&Pancake::new(4), 24, 3, true);
    }

    #[test]
    fn p5_structure() {
        assert_family_structure(&Pancake::new(5), 120, 4, true);
    }

    #[test]
    fn prefix_reversals() {
        let g = Pancake::new(4);
        // identity -> [2,1,3,4], [3,2,1,4], [4,3,2,1]
        let nb = g.neighbors(0);
        let mut perms = Vec::new();
        let mut buf = Vec::new();
        for v in nb {
            unrank_perm(v, 4, &mut buf);
            perms.push(buf.clone());
        }
        assert!(perms.contains(&vec![2, 1, 3, 4]));
        assert!(perms.contains(&vec![3, 2, 1, 4]));
        assert!(perms.contains(&vec![4, 3, 2, 1]));
    }

    #[test]
    fn pancake_has_odd_cycles_for_n_ge_3() {
        // Unlike the star graph, P_n is not bipartite (prefix reversals of
        // length 3 are even permutations, length 2 odd — mixing parities
        // only rules out the obvious 2-colouring; check directly).
        let g = Pancake::new(4);
        let mut colour = vec![u8::MAX; g.node_count()];
        let mut stack = vec![0usize];
        colour[0] = 0;
        let mut bipartite = true;
        while let Some(u) = stack.pop() {
            for v in g.neighbors(u) {
                if colour[v] == u8::MAX {
                    colour[v] = colour[u] ^ 1;
                    stack.push(v);
                } else if colour[v] == colour[u] {
                    bipartite = false;
                }
            }
        }
        assert!(!bipartite);
    }

    #[test]
    fn last_symbol_partition() {
        let g = Pancake::new(5);
        validate_partition(&g).unwrap();
        assert_eq!(g.part_count(), 5);
        assert_eq!(g.part_size(0), 24);
        g.check_partition_preconditions().unwrap();
    }

    #[test]
    fn only_full_reversal_crosses_parts() {
        let g = Pancake::new(5);
        let mut perm = Vec::new();
        for u in (0..g.node_count()).step_by(7) {
            unrank_perm(u, 5, &mut perm);
            let nb = g.neighbors(u);
            let crossing = nb.iter().filter(|&&v| g.part_of(v) != g.part_of(u)).count();
            assert_eq!(crossing, 1, "u={perm:?}");
        }
    }

    #[test]
    #[should_panic(expected = "part 6 out of range")]
    fn representative_past_the_last_part_panics() {
        Pancake::new(6).representative(6);
    }

    #[test]
    #[should_panic(expected = "rank 720 out of range")]
    fn neighbours_of_a_node_past_the_last_panic() {
        let g = Pancake::new(6);
        g.neighbors_into(g.node_count(), &mut Vec::new());
    }
}
