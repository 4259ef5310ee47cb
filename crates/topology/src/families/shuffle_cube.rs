//! The shuffle-cube `SQ_n` (Li, Tan, Hsu & Sung \[17\]), defined for
//! `n ≡ 2 (mod 4)`.
//!
//! `SQ_2 = Q_2`; `SQ_n` consists of 16 copies of `SQ_{n−4}` indexed by the
//! first (high) four bits, plus cross edges: a node `u` in the copy with
//! prefix `p` has four cross neighbours with prefixes `p ⊕ s`, `s ∈ S_c`,
//! where `c = u_1u_0` (the two lowest bits) and the `S_c` are fixed size-4
//! sets of nonzero 4-bit vectors. Cross neighbours keep all remaining bits,
//! so the edge relation is symmetric. Total degree: `(n − 4) + 4 = n`.
//!
//! The published definition specifies particular `S_c`; we fix concrete
//! sets (below) with the properties the paper's algorithm needs —
//! `n`-regularity, connectivity `n` (machine-verified for `SQ_6` by the
//! Menger check) and the 16-way decomposition into `SQ_{n−4}` copies used
//! by Theorem 3.

use crate::graph::{NodeId, Topology};
use crate::partition::Partitionable;

/// Cross-edge prefix offsets keyed by the two lowest bits of the node.
/// Each set holds four distinct nonzero 4-bit vectors.
pub const CROSS_SETS: [[usize; 4]; 4] = [
    [0x1, 0x2, 0x4, 0x8], // c = 00
    [0x3, 0x6, 0xC, 0x9], // c = 01
    [0x5, 0xA, 0x7, 0xE], // c = 10
    [0xB, 0xD, 0xF, 0x1], // c = 11
];

/// The shuffle-cube `SQ_n` (`n ≡ 2 mod 4`) with a prefix decomposition
/// into `SQ_m` copies (`m ≡ 2 mod 4`).
#[derive(Clone, Debug)]
pub struct ShuffleCube {
    n: usize,
    m: usize,
}

impl ShuffleCube {
    /// Build `SQ_n` choosing the smallest legal partition dimension
    /// `m ∈ {2, 6, 10, …}` with `2^m > n` and `16^{(n−m)/4} > n`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2 && n % 4 == 2 && n < usize::BITS as usize);
        let mut m = 2;
        while m < n && (1usize << m) <= n + 1 {
            m += 4;
        }
        assert!(
            m < n && (1usize << (n - m)) > n,
            "SQ_{n}: no partition dimension satisfies Theorem 3 (need n ≥ 10)"
        );
        ShuffleCube { n, m }
    }

    /// Build `SQ_n` with an explicit subcube dimension (`m ≡ 2 mod 4`,
    /// `m < n`).
    pub fn with_partition_dim(n: usize, m: usize) -> Self {
        assert!(n % 4 == 2 && m % 4 == 2 && m >= 2 && m < n);
        ShuffleCube { n, m }
    }

    /// Dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }
}

impl Topology for ShuffleCube {
    fn node_count(&self) -> usize {
        1 << self.n
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        // Base Q_2 on the two lowest bits.
        out.push(u ^ 1);
        out.push(u ^ 2);
        // Cross edges at each recursion level: level w joins the 16 copies
        // of SQ_{w−4} inside the enclosing SQ_w; prefix bits are w−4..w−1.
        let c = u & 0b11;
        let mut w = self.n;
        while w > 2 {
            for &s in &CROSS_SETS[c] {
                out.push(u ^ (s << (w - 4)));
            }
            w -= 4;
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
        format!("SQ_{}", self.n)
    }
}

impl Partitionable for ShuffleCube {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::validate_partition;
    use crate::verify::assert_family_structure;

    #[test]
    fn cross_sets_are_valid() {
        for set in CROSS_SETS {
            let mut sorted = set;
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                assert_ne!(w[0], w[1], "duplicate cross offset");
            }
            for s in set {
                assert!(s > 0 && s < 16);
            }
        }
    }

    #[test]
    fn sq2_is_q2() {
        let g = ShuffleCube { n: 2, m: 2 };
        let mut nb = g.neighbors(0);
        nb.sort_unstable();
        assert_eq!(nb, vec![1, 2]);
    }

    #[test]
    fn sq6_structure() {
        // 64 nodes, 6-regular, κ = 6 — the key machine check for the chosen
        // cross sets.
        assert_family_structure(&ShuffleCube::with_partition_dim(6, 2), 64, 6, true);
    }

    #[test]
    fn sq10_regularity_and_partition() {
        let g = ShuffleCube::with_partition_dim(10, 6);
        assert_eq!(g.node_count(), 1024);
        crate::verify::assert_simple_undirected(&g);
        crate::verify::assert_regular(&g, 10);
        assert!(crate::algorithms::is_connected(&g));
        validate_partition(&g).unwrap();
    }

    #[test]
    fn parts_induce_shuffle_cubes() {
        let g = ShuffleCube::with_partition_dim(6, 2);
        let sub = ShuffleCube { n: 2, m: 2 };
        for p in 0..g.part_count() {
            let base = p << 2;
            for x in 0..4usize {
                let mut expect: Vec<_> = sub.neighbors(x).iter().map(|&y| base | y).collect();
                let mut got: Vec<_> = g
                    .neighbors(base | x)
                    .into_iter()
                    .filter(|&v| v >> 2 == p)
                    .collect();
                expect.sort_unstable();
                got.sort_unstable();
                assert_eq!(expect, got, "part {p}, offset {x}");
            }
        }
    }

    #[test]
    fn default_partition_for_sq10() {
        let g = ShuffleCube::new(10);
        // m = 6 (2^2 = 4 ≤ 10 at m=2, 2^6 = 64 > 10); parts = 16 > 10.
        assert_eq!(g.m, 6);
        assert_eq!(g.part_count(), 16);
        g.check_partition_preconditions().unwrap();
    }

    #[test]
    #[should_panic]
    fn odd_dimension_rejected() {
        ShuffleCube::new(7);
    }
}
