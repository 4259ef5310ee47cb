//! The crossed cube `CQ_n` (Efe; topological properties in \[12\]).
//!
//! Nodes are `n`-bit strings. Writing `u = u_{n−1}…u_0`, nodes `u` and `v`
//! are adjacent iff there is a *dimension* `l` with
//!
//! 1. `u_{n−1…l+1} = v_{n−1…l+1}`,
//! 2. `u_l ≠ v_l`,
//! 3. `u_{l−1} = v_{l−1}` when `l` is odd, and
//! 4. each bit-pair `(u_{2i+1}u_{2i}, v_{2i+1}v_{2i})` with `2i + 1 < l`
//!    is *pair-related*: `(00,00), (10,10), (01,11), (11,01)`.
//!
//! The pair-related map is deterministic (`00↦00, 10↦10, 01↦11, 11↦01`, i.e.
//! flip the high bit of the pair iff the low bit is set), so each dimension
//! contributes exactly one neighbour and `CQ_n` is `n`-regular. `CQ_n` has
//! connectivity `n` \[16\] and diagnosability `n` for `n ≥ 4` \[14\].
//!
//! Fixing the first (high) bit splits `CQ_n` into two induced copies of
//! `CQ_{n−1}` \[12\]; iterating, fixing the first `n − m` bits yields
//! `2^{n−m}` copies of `CQ_m` — the decomposition used by Theorem 3.

use crate::families::minimal_partition_dim;
use crate::graph::{NodeId, Topology};
use crate::partition::Partitionable;
use std::sync::OnceLock;

/// The crossed cube `CQ_n` with a prefix decomposition into `CQ_m` copies.
#[derive(Clone, Debug)]
pub struct CrossedCube {
    n: usize,
    m: usize,
    /// Memoised certified fault capacity (see `driver_fault_bound`).
    capacity: OnceLock<usize>,
}

/// The dimension-`l` neighbour of `u` in any crossed cube of dimension
/// `> l`: flip bit `l`, then apply the pair-related map to every complete
/// bit-pair below `l`.
#[inline]
pub fn crossed_neighbor(u: NodeId, l: usize) -> NodeId {
    let mut v = u ^ (1 << l);
    // Pairs (2i+1, 2i) entirely below l: i < floor(l / 2).
    for i in 0..(l / 2) {
        if (u >> (2 * i)) & 1 == 1 {
            v ^= 1 << (2 * i + 1);
        }
    }
    v
}

impl CrossedCube {
    /// Build `CQ_n` with the paper's minimal partition dimension. Panics if
    /// Theorem 3's size constraints cannot be met (needs `n ≥ 7`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1 && n < usize::BITS as usize);
        let m = minimal_partition_dim(2, n, n).unwrap_or_else(|| {
            panic!("CQ_{n}: no partition dimension satisfies Theorem 3 (need n ≥ 7)")
        });
        CrossedCube {
            n,
            m,
            capacity: OnceLock::new(),
        }
    }

    /// Build `CQ_n` with an explicit subcube dimension.
    pub fn with_partition_dim(n: usize, m: usize) -> Self {
        assert!(m >= 1 && m < n);
        CrossedCube {
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

impl Topology for CrossedCube {
    fn node_count(&self) -> usize {
        1 << self.n
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        for l in 0..self.n {
            out.push(crossed_neighbor(u, l));
        }
        out.sort_unstable();
    }
    fn degree(&self, _u: NodeId) -> usize {
        self.n
    }
    fn max_degree(&self) -> usize {
        self.n
    }
    fn min_degree(&self) -> usize {
        self.n
    }
    fn diagnosability(&self) -> usize {
        self.n
    }
    fn connectivity(&self) -> usize {
        self.n
    }
    fn name(&self) -> String {
        format!("CQ_{}", self.n)
    }
}

impl Partitionable for CrossedCube {
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
        // `CQ_m` parts grow shallow probe trees (8 internal nodes for
        // `CQ_4` parts, not enough for δ = 8 at `CQ_8`); cap the bound at
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
    use crate::algorithms::diameter;
    use crate::partition::validate_partition;
    use crate::verify::assert_family_structure;

    #[test]
    fn cq1_is_k2() {
        let g = CrossedCube {
            n: 1,
            m: 1,
            capacity: OnceLock::new(),
        };
        assert_eq!(g.neighbors(0), vec![1]);
        assert_eq!(g.neighbors(1), vec![0]);
    }

    #[test]
    fn cq2_is_c4() {
        let g = CrossedCube::with_partition_dim(2, 1);
        assert_family_structure(&g, 4, 2, true);
        assert_eq!(diameter(&g), 2);
    }

    #[test]
    fn cq3_structure() {
        let g = CrossedCube::with_partition_dim(3, 2);
        assert_family_structure(&g, 8, 3, true);
    }

    #[test]
    fn cq4_cq5_structure() {
        assert_family_structure(&CrossedCube::with_partition_dim(4, 2), 16, 4, true);
        assert_family_structure(&CrossedCube::with_partition_dim(5, 3), 32, 5, true);
    }

    #[test]
    fn cq6_connectivity() {
        assert_family_structure(&CrossedCube::with_partition_dim(6, 3), 64, 6, true);
    }

    #[test]
    fn dimension_neighbours_are_involutions() {
        for n in 1..=8usize {
            for u in 0..(1usize << n) {
                for l in 0..n {
                    let v = crossed_neighbor(u, l);
                    assert_ne!(u, v);
                    assert_eq!(crossed_neighbor(v, l), u, "n={n} u={u:b} l={l}");
                    // bits above l agree
                    assert_eq!(u >> (l + 1), v >> (l + 1));
                    // bit l differs
                    assert_eq!((u >> l) & 1, 1 ^ ((v >> l) & 1));
                    if l % 2 == 1 {
                        // condition (3)
                        assert_eq!((u >> (l - 1)) & 1, (v >> (l - 1)) & 1);
                    }
                }
            }
        }
    }

    #[test]
    fn crossed_cube_has_smaller_diameter_than_hypercube() {
        // The hallmark of CQ_n: diameter ⌈(n+1)/2⌉ vs n for Q_n.
        let g = CrossedCube::with_partition_dim(5, 3);
        assert_eq!(diameter(&g), 3);
        let g6 = CrossedCube::with_partition_dim(6, 3);
        assert_eq!(diameter(&g6), 4); // ⌈7/2⌉ = 4
    }

    #[test]
    fn prefix_parts_induce_crossed_cubes() {
        let g = CrossedCube::with_partition_dim(5, 3);
        validate_partition(&g).unwrap();
        // Part p induces a graph isomorphic (by identity on low bits) to CQ_3.
        let sub = CrossedCube {
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
    fn default_partition_for_cq7() {
        let g = CrossedCube::new(7);
        assert_eq!(g.part_count(), 8);
        g.check_partition_preconditions().unwrap();
    }
}
