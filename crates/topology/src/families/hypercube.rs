//! The `n`-dimensional hypercube `Q_n`.
//!
//! Nodes are the `2ⁿ` bit-strings of length `n`; two nodes are adjacent iff
//! they differ in exactly one bit. `Q_n` is `n`-regular with connectivity
//! `n` and, for `n ≥ 5`, diagnosability `n` under the MM model (Wang \[23\]).
//!
//! The paper's decomposition (§5.1): fixing the first `n − m` components
//! partitions `Q_n` into `2^{n−m}` node-disjoint copies of `Q_m`, with
//! `(v, 0^m)` the representative of the copy `Q_m(v)`.

use crate::families::minimal_partition_dim;
use crate::graph::{NodeId, Topology};
use crate::partition::{certified_partition_dim, Partitionable};

/// The hypercube `Q_n` with a prefix decomposition into subcubes `Q_m(v)`.
#[derive(Clone, Debug)]
pub struct Hypercube {
    n: usize,
    m: usize,
}

impl Hypercube {
    /// Build `Q_n` with the paper's minimal partition dimension
    /// (`m` minimal with `2^m > n`). Requires `n ≥ 7` so that the number of
    /// parts `2^{n−m}` also exceeds `n` (Theorem 2's hypothesis); smaller
    /// `n` panics — use [`Hypercube::with_partition_dim`] to experiment.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 1 && n < usize::BITS as usize,
            "Q_n needs 1 ≤ n < word size"
        );
        let m = minimal_partition_dim(2, n, n).unwrap_or_else(|| {
            panic!("Q_{n}: no partition dimension satisfies Theorem 2 (need n ≥ 7)")
        });
        Hypercube { n, m }
    }

    /// Build `Q_n` with an explicit subcube dimension `1 ≤ m < n` (used by
    /// the ABL-PART ablation bench; preconditions are then checked by the
    /// driver rather than here).
    pub fn with_partition_dim(n: usize, m: usize) -> Self {
        assert!(m >= 1 && m < n, "need 1 ≤ m < n");
        Hypercube { n, m }
    }

    /// Build `Q_n` with the smallest subcube dimension whose parts
    /// *certify* — the representative's honest probe tree strictly exceeds
    /// the fault bound `n` in internal nodes ([`certified_partition_dim`]),
    /// not merely the size inequality of [`minimal_partition_dim`]. The
    /// search is part-local (one `2^m`-node probe per candidate `m`), so
    /// this stays cheap at 10⁶⁺-node scale.
    pub fn new_certified(n: usize) -> Self {
        assert!(
            n >= 1 && n < usize::BITS as usize,
            "Q_n needs 1 ≤ n < word size"
        );
        let lo = minimal_partition_dim(2, n, n).unwrap_or_else(|| {
            panic!("Q_{n}: no partition dimension satisfies Theorem 2 (need n ≥ 7)")
        });
        let m = certified_partition_dim(n, n, lo, |m| Hypercube::with_partition_dim(n, m))
            .unwrap_or_else(|| panic!("Q_{n}: no partition dimension certifies the bound {n}"));
        Hypercube { n, m }
    }

    /// Dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Subcube dimension `m` of the decomposition.
    pub fn partition_dim(&self) -> usize {
        self.m
    }
}

impl Topology for Hypercube {
    fn node_count(&self) -> usize {
        1 << self.n
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        for i in 0..self.n {
            out.push(u ^ (1 << i));
        }
    }
    fn neighbors_into_sorted(&self, u: NodeId, out: &mut Vec<NodeId>) {
        // u ^ (1 << i) < u exactly when bit i of u is set, and within each
        // group the flipped value is monotone in i (downwards for set bits,
        // upwards for clear ones) — so emitting set bits high-to-low and
        // then clear bits low-to-high is ascending without a sort. Walking
        // the two bit masks directly keeps the loop bodies branch-free: a
        // per-bit `if` on a random node id mispredicts half the time, and
        // the growth sweep generates ~Δ·N neighbour lists per diagnosis.
        out.clear();
        let mut m = u;
        while m != 0 {
            let bit = 1usize << (usize::BITS - 1 - m.leading_zeros());
            out.push(u ^ bit);
            m ^= bit;
        }
        let mut m = !u & ((1usize << self.n) - 1);
        while m != 0 {
            let low = m & m.wrapping_neg();
            out.push(u ^ low);
            m ^= low;
        }
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
        format!("Q_{}", self.n)
    }
    fn are_adjacent(&self, u: NodeId, v: NodeId) -> bool {
        (u ^ v).count_ones() == 1
    }
    fn edge_count(&self) -> usize {
        self.n << (self.n - 1)
    }
}

impl Partitionable for Hypercube {
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
    fn q3_structure() {
        let q = Hypercube::with_partition_dim(3, 2);
        assert_family_structure(&q, 8, 3, true);
        assert_eq!(q.edge_count(), 12);
    }

    #[test]
    fn q5_structure() {
        let q = Hypercube::with_partition_dim(5, 3);
        assert_family_structure(&q, 32, 5, true);
    }

    #[test]
    fn q7_default_partition() {
        let q = Hypercube::new(7);
        assert_eq!(q.partition_dim(), 4);
        assert_eq!(q.part_count(), 8);
        assert_eq!(q.part_size(0), 16);
        validate_partition(&q).unwrap();
        q.check_partition_preconditions().unwrap();
    }

    #[test]
    fn q10_partition_counts() {
        let q = Hypercube::new(10);
        assert_eq!(q.partition_dim(), 4); // 2^4 = 16 > 10
        assert_eq!(q.part_count(), 64);
        validate_partition(&q).unwrap();
    }

    #[test]
    #[should_panic(expected = "Theorem 2")]
    fn q5_default_rejected() {
        Hypercube::new(5);
    }

    #[test]
    fn sorted_neighbors_match_raw_for_every_node() {
        for q in [
            Hypercube::with_partition_dim(4, 2),
            Hypercube::with_partition_dim(7, 4),
        ] {
            let mut raw = Vec::new();
            let mut srt = Vec::new();
            for u in 0..q.node_count() {
                q.neighbors_into(u, &mut raw);
                raw.sort_unstable();
                q.neighbors_into_sorted(u, &mut srt);
                assert_eq!(srt, raw, "Q_{}: u={u}", q.dim());
            }
        }
    }

    #[test]
    fn adjacency_is_hamming_distance_one() {
        let q = Hypercube::with_partition_dim(4, 2);
        assert!(q.are_adjacent(0b0000, 0b0100));
        assert!(!q.are_adjacent(0b0000, 0b0110));
        assert!(!q.are_adjacent(0b0101, 0b0101));
    }

    #[test]
    fn certified_partition_dim_actually_certifies() {
        use crate::partition::honest_probe_contributors;
        // Q_10's size-minimal m = 4 cannot certify bound 10 (16-node parts,
        // 8 internal nodes); the certified constructor must step to m = 5.
        let q = Hypercube::new_certified(10);
        assert_eq!(q.partition_dim(), 5);
        assert!(honest_probe_contributors(&q, 0) > 10);
        q.check_partition_preconditions().unwrap();
        // Q_7's size-minimal m = 4 already certifies: no change.
        assert_eq!(Hypercube::new_certified(7).partition_dim(), 4);
    }

    #[test]
    fn sorted_neighbor_generation_matches_sorted_default() {
        let q = Hypercube::with_partition_dim(6, 3);
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        for u in 0..q.node_count() {
            q.neighbors_into_sorted(u, &mut fast);
            q.neighbors_into(u, &mut slow);
            slow.sort_unstable();
            assert_eq!(fast, slow, "node {u}");
        }
    }

    #[test]
    fn representative_is_v_zero_m() {
        let q = Hypercube::new(8); // m = 4
        assert_eq!(q.representative(0b1011), 0b1011_0000);
        assert_eq!(q.part_of(0b1011_0110), 0b1011);
    }
}
