//! The twisted N-cube `TQ′_n` (Esfahanian, Ni & Sagan \[13\]).
//!
//! `TQ′_n` is the hypercube `Q_n` with one pair of edges of a 4-cycle
//! "twisted": in the base case `TQ′_3`, the 4-cycle on `{000, 001, 011,
//! 010}` loses edges `000–001` and `010–011` and gains `000–011` and
//! `010–001`. For `n > 3`, `TQ′_n` consists of a copy of `Q_{n−1}`
//! (prefix 0) and a copy of `TQ′_{n−1}` (prefix 1) joined by the identity
//! matching — exactly the decomposition §5.1 quotes: fixing the first
//! component splits `TQ′_n` into a `Q_{n−1}` and a `TQ′_{n−1}`.
//!
//! `TQ′_n` is `n`-regular with connectivity `n` \[13\] and, for `n ≥ 4`,
//! diagnosability `n` (via \[6\]).
//!
//! The general-algorithm decomposition fixes the first `n − m` bits; every
//! part induces `Q_m` except the all-ones prefix, which induces `TQ′_m` —
//! all connected with `2^m` nodes, which is all Theorem 1 needs.

use crate::families::minimal_partition_dim;
use crate::graph::{NodeId, Topology};
use crate::partition::Partitionable;

/// The twisted N-cube `TQ′_n` with a prefix decomposition.
#[derive(Clone, Debug)]
pub struct TwistedNCube {
    n: usize,
    m: usize,
}

impl TwistedNCube {
    /// Build `TQ′_n` with the paper's minimal partition dimension
    /// (`n ≥ 7`; the partition dimension is forced to at least 3 so the
    /// twisted part stays intact).
    pub fn new(n: usize) -> Self {
        assert!(n >= 3 && n < usize::BITS as usize);
        let m = minimal_partition_dim(2, n, n)
            .unwrap_or_else(|| {
                panic!("TQ'_{n}: no partition dimension satisfies Theorem 3 (need n ≥ 7)")
            })
            .max(3);
        TwistedNCube { n, m }
    }

    /// Build `TQ′_n` with an explicit subcube dimension `3 ≤ m < n` (the
    /// lower bound keeps the twisted 4-cycle inside a single part).
    pub fn with_partition_dim(n: usize, m: usize) -> Self {
        assert!(n >= 3 && m >= 3 && m < n);
        TwistedNCube { n, m }
    }

    /// Dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }
}

/// Neighbours of `u` in the base case `TQ′_3`.
fn base3_neighbors(u: usize, out: &mut Vec<usize>, offset: usize) {
    out.push(offset | (u ^ 0b100));
    out.push(offset | (u ^ 0b010));
    if u >> 2 == 0 {
        // Twisted low edges: 000–011, 001–010.
        out.push(offset | (u ^ 0b011));
    } else {
        out.push(offset | (u ^ 0b001));
    }
}

impl Topology for TwistedNCube {
    fn node_count(&self) -> usize {
        1 << self.n
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        // Peel levels n, n−1, …, 4: at level w the node sits either in the
        // Q_{w−1} half (bit w−1 = 0) — plain hypercube from here on — or in
        // the TQ′_{w−1} half; either way the matching edge flips bit w−1.
        let mut w = self.n;
        loop {
            if w == 3 {
                let offset = u >> 3 << 3;
                base3_neighbors(u & 0b111, out, offset);
                break;
            }
            out.push(u ^ (1 << (w - 1)));
            if (u >> (w - 1)) & 1 == 0 {
                // Inside Q_{w−1}: the rest is pure hypercube.
                for i in 0..(w - 1) {
                    out.push(u ^ (1 << i));
                }
                break;
            }
            w -= 1;
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
        format!("TQ'_{}", self.n)
    }
}

impl Partitionable for TwistedNCube {
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
    fn tq3_structure() {
        let g = TwistedNCube { n: 3, m: 3 };
        assert_eq!(g.node_count(), 8);
        crate::verify::assert_simple_undirected(&g);
        crate::verify::assert_regular(&g, 3);
        assert_eq!(crate::algorithms::vertex_connectivity(&g), 3);
    }

    #[test]
    fn tq3_has_exactly_the_twisted_edges() {
        let g = TwistedNCube { n: 3, m: 3 };
        assert!(g.neighbors(0b000).contains(&0b011));
        assert!(g.neighbors(0b010).contains(&0b001));
        assert!(!g.neighbors(0b000).contains(&0b001));
        assert!(!g.neighbors(0b010).contains(&0b011));
        // Untouched upper 4-cycle.
        assert!(g.neighbors(0b100).contains(&0b101));
        assert!(g.neighbors(0b110).contains(&0b111));
    }

    #[test]
    fn tq4_tq5_structure() {
        assert_family_structure(&TwistedNCube::with_partition_dim(4, 3), 16, 4, true);
        assert_family_structure(&TwistedNCube::with_partition_dim(5, 3), 32, 5, true);
    }

    #[test]
    fn tq3_is_not_bipartite() {
        // The defining property of the twist: it creates odd cycles.
        let g = TwistedNCube { n: 3, m: 3 };
        let mut colour = [u8::MAX; 8];
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
    fn zero_prefix_half_is_plain_hypercube() {
        let g = TwistedNCube::with_partition_dim(5, 3);
        for u in 0..16usize {
            // prefix-0 nodes: intra-half neighbours are Hamming-1.
            let intra: Vec<_> = g.neighbors(u).into_iter().filter(|&v| v < 16).collect();
            for v in &intra {
                assert_eq!((u ^ v).count_ones(), 1, "u={u:05b} v={v:05b}");
            }
            assert_eq!(intra.len(), 4);
        }
    }

    #[test]
    fn parts_are_valid_and_connected() {
        let g = TwistedNCube::with_partition_dim(6, 3);
        validate_partition(&g).unwrap();
    }

    #[test]
    fn default_partition_for_tqp7() {
        let g = TwistedNCube::new(7);
        assert_eq!(g.part_count(), 8);
        g.check_partition_preconditions().unwrap();
    }
}
