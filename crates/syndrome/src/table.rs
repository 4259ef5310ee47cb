//! The fully materialised syndrome table.
//!
//! This is the object the paper calls "the syndrome": for every node `u`
//! and every unordered pair `{v, w}` of `u`'s neighbours, one bit
//! `s_u(v, w)`. Stored bit-packed per tester over the triangular pair
//! index, with the tester's sorted neighbour list used for position
//! lookup. Total size is `Σ_u C(deg u, 2)` bits — `O(N·Δ²)`.
//!
//! Building the table performs *every* MM test, which is exactly what
//! Chiang–Tan-style algorithms need and what `Set_Builder` avoids; the
//! bench harness uses the table's construction cost and entry count as the
//! "full syndrome" baseline of §6.

use crate::fault::FaultSet;
use crate::model::{ground_truth, TestResult, TesterBehavior};
use crate::source::SyndromeSource;
use mmdiag_topology::{NodeId, Topology};
use std::cell::Cell;

/// A complete syndrome table. Its reads count nothing; the counts its
/// readers report add up in a plain `Cell` tally, so one table serves one
/// thread.
pub struct SyndromeTable {
    /// Sorted neighbour list per node (CSR).
    nbr_offsets: Vec<usize>,
    nbrs: Vec<NodeId>,
    /// Bit offset of each node's triangular block.
    bit_offsets: Vec<usize>,
    bits: Vec<u64>,
    lookups: Cell<u64>,
}

/// A non-counting view of the ground truth, used to materialise tables.
struct GroundTruthSource<'a> {
    faults: &'a FaultSet,
    behavior: TesterBehavior,
}

impl SyndromeSource for GroundTruthSource<'_> {
    fn read(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
        ground_truth(self.faults, u, v, w, self.behavior)
    }
}

impl SyndromeTable {
    /// Run every MM test on `g` under `faults`/`behavior` and record the
    /// results.
    pub fn generate<T: Topology + ?Sized>(
        g: &T,
        faults: &FaultSet,
        behavior: TesterBehavior,
    ) -> Self {
        assert_eq!(
            faults.universe(),
            g.node_count(),
            "fault set universe mismatch"
        );
        Self::capture(g, &GroundTruthSource { faults, behavior })
    }

    /// Materialise the table by reading *every* entry of an existing source
    /// — `Σ_u C(deg u, 2)` lookups, the up-front bill any table-first
    /// algorithm pays (and that lazy `Set_Builder` avoids). The source's
    /// lookup counter tallies the full cost.
    pub fn capture<T, S>(g: &T, s: &S) -> Self
    where
        T: Topology + ?Sized,
        S: SyndromeSource + ?Sized,
    {
        let n = g.node_count();
        let mut nbr_offsets = Vec::with_capacity(n + 1);
        let mut nbrs = Vec::new();
        let mut bit_offsets = Vec::with_capacity(n + 1);
        let mut buf = Vec::new();
        nbr_offsets.push(0);
        bit_offsets.push(0);
        let mut total_bits = 0usize;
        for u in 0..n {
            g.neighbors_into(u, &mut buf);
            buf.sort_unstable();
            nbrs.extend_from_slice(&buf);
            nbr_offsets.push(nbrs.len());
            let d = buf.len();
            total_bits += d * (d.saturating_sub(1)) / 2;
            bit_offsets.push(total_bits);
        }
        let mut bits = vec![0u64; total_bits.div_ceil(64)];
        for u in 0..n {
            let start = nbr_offsets[u];
            let end = nbr_offsets[u + 1];
            let base = bit_offsets[u];
            let neigh = &nbrs[start..end];
            let mut idx = 0usize;
            for i in 0..neigh.len() {
                for j in (i + 1)..neigh.len() {
                    if s.lookup(u, neigh[i], neigh[j]) == TestResult::Disagree {
                        let bit = base + idx;
                        bits[bit / 64] |= 1 << (bit % 64);
                    }
                    idx += 1;
                }
            }
        }
        SyndromeTable {
            nbr_offsets,
            nbrs,
            bit_offsets,
            bits,
            lookups: Cell::new(0),
        }
    }

    /// Total number of test results stored — the size of the "whole
    /// syndrome table" of §6.
    pub fn entry_count(&self) -> usize {
        *self.bit_offsets.last().unwrap()
    }

    /// Sorted neighbour slice of `u`, as recorded at build time.
    pub fn neighbors_slice(&self, u: NodeId) -> &[NodeId] {
        &self.nbrs[self.nbr_offsets[u]..self.nbr_offsets[u + 1]]
    }

    /// Index of `v` within `u`'s sorted neighbour list.
    #[inline]
    fn nbr_index(&self, u: NodeId, v: NodeId) -> usize {
        let s = self.nbr_offsets[u];
        let e = self.nbr_offsets[u + 1];
        match self.nbrs[s..e].binary_search(&v) {
            Ok(i) => i,
            Err(_) => panic!("syndrome lookup: {v} is not a neighbour of {u}"),
        }
    }

    /// Triangular index of the unordered pair `(i, j)` with `i < j` among
    /// `d` neighbours: row-major upper triangle.
    #[inline]
    fn pair_index(i: usize, j: usize, d: usize) -> usize {
        debug_assert!(i < j && j < d);
        // entries before row i: sum_{r<i} (d-1-r) = i(2d - i - 1)/2
        i * (2 * d - i - 1) / 2 + (j - i - 1)
    }
}

impl SyndromeSource for SyndromeTable {
    fn read(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
        let d = self.nbr_offsets[u + 1] - self.nbr_offsets[u];
        let mut i = self.nbr_index(u, v);
        let mut j = self.nbr_index(u, w);
        assert_ne!(i, j, "syndrome lookup with v == w at tester {u}");
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let bit = self.bit_offsets[u] + Self::pair_index(i, j, d);
        if (self.bits[bit / 64] >> (bit % 64)) & 1 == 1 {
            TestResult::Disagree
        } else {
            TestResult::Agree
        }
    }

    fn count(&self, n: u64) {
        self.lookups.set(self.lookups.get() + n);
    }

    fn lookups(&self) -> u64 {
        self.lookups.get()
    }

    fn reset_lookups(&self) {
        self.lookups.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdiag_topology::families::Hypercube;
    use mmdiag_topology::AdjGraph;

    #[test]
    fn pair_index_is_a_bijection() {
        for d in 2..8 {
            let mut seen = std::collections::HashSet::new();
            for i in 0..d {
                for j in (i + 1)..d {
                    let idx = SyndromeTable::pair_index(i, j, d);
                    assert!(idx < d * (d - 1) / 2);
                    assert!(seen.insert(idx), "collision at ({i},{j}) d={d}");
                }
            }
            assert_eq!(seen.len(), d * (d - 1) / 2);
        }
    }

    #[test]
    fn table_matches_ground_truth() {
        let g = Hypercube::with_partition_dim(4, 2);
        let faults = FaultSet::new(16, &[3, 9]);
        for b in crate::model::behavior_sweep(5) {
            let t = SyndromeTable::generate(&g, &faults, b);
            let mut buf = Vec::new();
            for u in 0..16 {
                g.neighbors_into(u, &mut buf);
                for i in 0..buf.len() {
                    for j in 0..buf.len() {
                        if i == j {
                            continue;
                        }
                        assert_eq!(
                            t.lookup(u, buf[i], buf[j]),
                            ground_truth(&faults, u, buf[i], buf[j], b),
                            "u={u} pair=({},{})",
                            buf[i],
                            buf[j]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn entry_count_matches_formula() {
        let g = Hypercube::with_partition_dim(5, 3);
        let t = SyndromeTable::generate(&g, &FaultSet::empty(32), TesterBehavior::AllZero);
        // 32 nodes, each C(5,2) = 10 tests.
        assert_eq!(t.entry_count(), 320);
    }

    #[test]
    fn lookups_counted() {
        let g = AdjGraph::from_edges(3, &[(0, 1), (0, 2)], "P3");
        let t = SyndromeTable::generate(&g, &FaultSet::empty(3), TesterBehavior::AllZero);
        assert_eq!(t.lookups(), 0);
        t.lookup(0, 1, 2);
        t.lookup(0, 2, 1);
        assert_eq!(t.lookups(), 2);
        t.reset_lookups();
        assert_eq!(t.lookups(), 0);
    }

    #[test]
    #[should_panic(expected = "not a neighbour")]
    fn non_neighbour_lookup_panics() {
        let g = AdjGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)], "g");
        let t = SyndromeTable::generate(&g, &FaultSet::empty(4), TesterBehavior::AllZero);
        t.lookup(0, 1, 3);
    }

    #[test]
    fn irregular_degrees_handled() {
        // Star K_{1,3} plus an edge: varied degrees exercise the offset
        // arithmetic.
        let g = AdjGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)], "g");
        let faults = FaultSet::new(5, &[4]);
        let t = SyndromeTable::generate(&g, &faults, TesterBehavior::AllOne);
        assert_eq!(t.lookup(0, 1, 2), TestResult::Agree);
        assert_eq!(t.lookup(0, 1, 4), TestResult::Disagree);
        assert_eq!(t.lookup(1, 0, 2), TestResult::Agree);
        // entry count: deg0=4 -> 6, deg1=2 -> 1, deg2=2 -> 1, deg3=1 -> 0, deg4=1 -> 0
        assert_eq!(t.entry_count(), 8);
    }
}
