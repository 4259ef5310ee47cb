//! The k-ary n-cube `Q^k_n` (torus; Lee-distance properties in \[5\]).
//!
//! Nodes are the `kⁿ` length-`n` strings of digits in `Z_k`; two nodes are
//! adjacent iff they agree in all but one coordinate and differ by `±1
//! (mod k)` there. For `k ≥ 3` the graph is `2n`-regular with connectivity
//! `2n` and (outside six small exceptional pairs listed in §5.2)
//! diagnosability `2n` (via \[6\]). `k = 2` degenerates to the hypercube and
//! is rejected here.
//!
//! §5.2's decomposition: fixing the first `n − m` digits partitions
//! `Q^k_n` into `k^{n−m}` copies of `Q^k_m` with representatives
//! `(v, 0^m)`.

use crate::families::minimal_partition_dim;
use crate::graph::{NodeId, Topology};
use crate::partition::{certified_partition_dim, Partitionable};

/// The exceptional parameter pairs of §5.2 for which diagnosability `2n`
/// is *not* guaranteed.
pub const EXCLUDED_PAIRS: [(usize, usize); 6] = [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)];

/// The k-ary n-cube `Q^k_n` with a prefix decomposition into `Q^k_m`
/// copies.
#[derive(Clone, Debug)]
pub struct KAryNCube {
    k: usize,
    n: usize,
    m: usize,
}

impl KAryNCube {
    /// Build `Q^k_n` with the paper's minimal partition dimension
    /// (`m` minimal with `k^m > 2n`, requiring `k^{n−m} > 2n` parts).
    /// Panics on `k < 3` or when no partition dimension exists.
    pub fn new(k: usize, n: usize) -> Self {
        assert!(k >= 3, "k-ary n-cube needs k ≥ 3 (k = 2 is the hypercube)");
        assert!(n >= 1);
        let m = minimal_partition_dim(k, n, 2 * n)
            .unwrap_or_else(|| panic!("Q^{k}_{n}: no partition dimension satisfies Theorem 4"));
        KAryNCube { k, n, m }
    }

    /// Build with an explicit partition dimension `1 ≤ m < n`.
    pub fn with_partition_dim(k: usize, n: usize, m: usize) -> Self {
        assert!(k >= 3 && m >= 1 && m < n);
        KAryNCube { k, n, m }
    }

    /// Build `Q^k_n` with the smallest partition dimension whose parts
    /// *certify* the fault bound `2n` ([`certified_partition_dim`]). This is
    /// what the `Q^3_11` discovery (ROADMAP, PR 3) asked for: the Theorem-4
    /// size inequality `k^m > 2n` admits 27-node parts whose probe trees
    /// top out at 15 internal nodes against bound 22 — certification needs
    /// one dimension more, and this constructor finds that automatically
    /// with one part-local probe per candidate `m`.
    pub fn new_certified(k: usize, n: usize) -> Self {
        assert!(k >= 3, "k-ary n-cube needs k ≥ 3 (k = 2 is the hypercube)");
        assert!(n >= 1);
        let lo = minimal_partition_dim(k, n, 2 * n)
            .unwrap_or_else(|| panic!("Q^{k}_{n}: no partition dimension satisfies Theorem 4"));
        let m = certified_partition_dim(n, 2 * n, lo, |m| KAryNCube::with_partition_dim(k, n, m))
            .unwrap_or_else(|| {
                panic!(
                    "Q^{k}_{n}: no partition dimension certifies the bound {}",
                    2 * n
                )
            });
        KAryNCube { k, n, m }
    }

    /// Radix `k`.
    pub fn radix(&self) -> usize {
        self.k
    }

    /// Dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Whether `(k, n)` is one of the exceptional pairs of §5.2.
    pub fn is_excluded_pair(&self) -> bool {
        EXCLUDED_PAIRS.contains(&(self.k, self.n))
    }

    /// `k^e`.
    fn pow(&self, e: usize) -> usize {
        self.k.pow(e as u32)
    }
}

impl Topology for KAryNCube {
    fn node_count(&self) -> usize {
        self.pow(self.n)
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let mut base = 1usize;
        for _ in 0..self.n {
            let digit = (u / base) % self.k;
            let up = if digit + 1 == self.k {
                digit + 1 - self.k
            } else {
                digit + 1
            };
            let down = if digit == 0 { self.k - 1 } else { digit - 1 };
            out.push(u - digit * base + up * base);
            out.push(u - digit * base + down * base);
            base *= self.k;
        }
    }
    fn neighbors_into_sorted(&self, u: NodeId, out: &mut Vec<NodeId>) {
        // Per dimension `i` (stride `bᵢ = kⁱ`, digit `d`) the two
        // neighbours differ from `u` by a delta in {−(k−1)bᵢ, −bᵢ, +bᵢ,
        // +(k−1)bᵢ}: ±bᵢ for interior digits, both negatives when
        // `d = k−1` (the +1 step wraps down), both positives when `d = 0`
        // (the −1 step wraps up). Every dimension-`i` magnitude is below
        // every dimension-`(i+1)` magnitude ((k−1)kⁱ < kⁱ⁺¹), so emitting
        // negative deltas with dimensions descending (most negative
        // first) and then positive deltas with dimensions ascending is
        // ascending node order with no per-call sort — which the default
        // would otherwise pay on each of the ~Δ·N lists the growth sweep
        // generates.
        out.clear();
        let mut digits = [0u32; 64];
        let mut rest = u;
        for slot in digits.iter_mut().take(self.n) {
            *slot = (rest % self.k) as u32;
            rest /= self.k;
        }
        let mut base = self.pow(self.n - 1);
        for i in (0..self.n).rev() {
            let d = digits[i] as usize;
            if d == self.k - 1 {
                out.push(u - (self.k - 1) * base); // k−1 wraps to 0
                out.push(u - base); //                k−1 steps to k−2
            } else if d > 0 {
                out.push(u - base); //                d steps to d−1
            }
            base /= self.k;
        }
        base = 1;
        for &digit in digits.iter().take(self.n) {
            let d = digit as usize;
            if d == 0 {
                out.push(u + base); //                0 steps to 1
                out.push(u + (self.k - 1) * base); // 0 wraps to k−1
            } else if d < self.k - 1 {
                out.push(u + base); //                d steps to d+1
            }
            base *= self.k;
        }
    }
    fn degree(&self, _u: NodeId) -> usize {
        2 * self.n
    }
    fn max_degree(&self) -> usize {
        2 * self.n
    }
    fn min_degree(&self) -> usize {
        2 * self.n
    }
    fn diagnosability(&self) -> usize {
        2 * self.n
    }
    fn connectivity(&self) -> usize {
        2 * self.n
    }
    fn name(&self) -> String {
        format!("Q^{}_{}", self.k, self.n)
    }
}

impl Partitionable for KAryNCube {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::validate_partition;
    use crate::verify::assert_family_structure;

    #[test]
    fn q3_2_is_3x3_torus() {
        let g = KAryNCube::with_partition_dim(3, 2, 1);
        assert_family_structure(&g, 9, 4, true);
    }

    #[test]
    fn q4_2_and_q3_3_structure() {
        assert_family_structure(&KAryNCube::with_partition_dim(4, 2, 1), 16, 4, true);
        assert_family_structure(&KAryNCube::with_partition_dim(3, 3, 1), 27, 6, true);
    }

    #[test]
    fn q5_2_structure() {
        assert_family_structure(&KAryNCube::with_partition_dim(5, 2, 1), 25, 4, true);
    }

    #[test]
    fn k3_digit_wraparound() {
        let g = KAryNCube::with_partition_dim(3, 2, 1);
        // node (0,0) = 0: neighbours (0,1)=3, (0,2)=6, (1,0)=1, (2,0)=2
        let mut nb = g.neighbors(0);
        nb.sort_unstable();
        assert_eq!(nb, vec![1, 2, 3, 6]);
    }

    #[test]
    fn sorted_neighbors_match_raw_for_every_node() {
        for g in [
            KAryNCube::with_partition_dim(3, 2, 1),
            KAryNCube::with_partition_dim(4, 3, 1),
            KAryNCube::with_partition_dim(5, 2, 1),
            KAryNCube::with_partition_dim(3, 6, 3),
        ] {
            let mut raw = Vec::new();
            let mut srt = Vec::new();
            for u in 0..g.node_count() {
                g.neighbors_into(u, &mut raw);
                raw.sort_unstable();
                g.neighbors_into_sorted(u, &mut srt);
                assert_eq!(srt, raw, "Q^{}_{}: u={u}", g.radix(), g.dim());
            }
        }
    }

    #[test]
    fn excluded_pairs_flagged() {
        assert!(KAryNCube::with_partition_dim(3, 2, 1).is_excluded_pair());
        assert!(!KAryNCube::with_partition_dim(3, 5, 3).is_excluded_pair());
    }

    #[test]
    fn partition_of_q3_5() {
        // δ = 10; m minimal with 3^m > 10 → 3; parts = 9 ≤ 10 → m=3 invalid!
        // minimal_partition_dim must therefore reject (3,5).
        assert!(super::super::minimal_partition_dim(3, 5, 10).is_none());
        // but (3,6) works: m = 3, parts = 27 > 12.
        let g = KAryNCube::new(3, 6);
        assert_eq!(g.m, 3);
        assert_eq!(g.part_count(), 27);
        validate_partition(&g).unwrap();
        g.check_partition_preconditions().unwrap();
    }

    #[test]
    fn partition_of_q4_4() {
        let g = KAryNCube::new(4, 4);
        // δ = 8; 4^2 = 16 > 8, parts = 16 > 8.
        assert_eq!(g.m, 2);
        validate_partition(&g).unwrap();
    }

    #[test]
    #[should_panic(expected = "k ≥ 3")]
    fn binary_radix_rejected() {
        KAryNCube::new(2, 5);
    }

    #[test]
    fn certified_dim_recovers_the_q3_11_hand_pin() {
        use crate::partition::honest_probe_contributors;
        // The ROADMAP PR 3 discovery: Q^3_11's Theorem-4 m = 3 gives
        // 27-node parts with 15-internal-node probe trees against bound 22,
        // and the bench catalog hand-pinned m = 4. The capacity-aware
        // chooser must land on the same m = 4 without the pin.
        let g = KAryNCube::new_certified(3, 11);
        assert_eq!(g.m, 4);
        assert!(honest_probe_contributors(&g, 0) > 22);
        // Q^3_6's size-minimal m = 3 already certifies bound 12.
        assert_eq!(KAryNCube::new_certified(3, 6).m, 3);
    }
}
