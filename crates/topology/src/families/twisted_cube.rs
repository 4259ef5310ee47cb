//! A twisted cube `TQ_n`.
//!
//! Hilbers, Koopman and van de Snepscheut's twisted cube \[15\] is defined for
//! odd `n` only, while the paper's §5.1 uses a twisted cube that decomposes,
//! for *every* `n ≥ 2`, into two induced copies of `TQ_{n−1}` obtained by
//! fixing leading bits. We therefore implement the recursive
//! "two copies + twisted matching" construction:
//!
//! * `TQ_1 = K_2`;
//! * `TQ_n` consists of `0·TQ_{n−1}` and `1·TQ_{n−1}` plus the perfect
//!   matching `(0, x) ∼ (1, σ(x))`, where the twist `σ` flips bit 0 of `x`
//!   exactly when the remaining bits `x_{w−1}…x_1` have odd parity (an
//!   involution — the parity of the upper bits is unchanged by it — hence a
//!   well-defined matching, and one that mirrors the parity functions of
//!   Hilbers et al.).
//!
//! This graph is `n`-regular, `n`-connected (machine-verified for small `n`
//! by the Menger check below) and has the prefix decomposition required by
//! Theorem 3. Diagnosability is `n` for `n ≥ 4` via Chang et al. \[6\]
//! (`n`-regular + `n`-connected + `≥ 2n+3` nodes).

use crate::families::minimal_partition_dim;
use crate::graph::{NodeId, Topology};
use crate::partition::Partitionable;
use std::sync::OnceLock;

/// The twist applied by the level-`w` matching to a `w`-bit string: flip
/// bit 0 iff the bits above it have odd parity (identity when `w < 2`).
/// An involution, and parity-mixing — which is what makes the resulting
/// cube genuinely twisted (non-bipartite) rather than a relabelled `Q_n`.
#[inline]
fn twist(x: usize, width: usize) -> usize {
    if width >= 2 {
        x ^ (((x >> 1).count_ones() & 1) as usize)
    } else {
        x
    }
}

/// The twisted cube `TQ_n` with a prefix decomposition into `TQ_m` copies.
#[derive(Clone, Debug)]
pub struct TwistedCube {
    n: usize,
    m: usize,
    /// Memoised certified fault capacity (see `driver_fault_bound`).
    capacity: OnceLock<usize>,
}

impl TwistedCube {
    /// Build `TQ_n` with the paper's minimal partition dimension (`n ≥ 7`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1 && n < usize::BITS as usize);
        let m = minimal_partition_dim(2, n, n).unwrap_or_else(|| {
            panic!("TQ_{n}: no partition dimension satisfies Theorem 3 (need n ≥ 7)")
        });
        TwistedCube {
            n,
            m,
            capacity: OnceLock::new(),
        }
    }

    /// Build `TQ_n` with an explicit subcube dimension.
    pub fn with_partition_dim(n: usize, m: usize) -> Self {
        assert!(m >= 1 && m < n);
        TwistedCube {
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

impl Topology for TwistedCube {
    fn node_count(&self) -> usize {
        1 << self.n
    }
    fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        // Matching edges, from the outermost level down: at level w the
        // matching joins the two (w−1)-sub-twisted-cubes inside the copy of
        // TQ_w containing u.
        for w in (2..=self.n).rev() {
            let above = u >> w << w; // bits ≥ w (the enclosing copy)
            let side = (u >> (w - 1)) & 1;
            let low = u & ((1 << (w - 1)) - 1);
            let v = above | ((side ^ 1) << (w - 1)) | twist(low, w - 1);
            out.push(v);
        }
        // Base level: TQ_1 = K_2.
        out.push(u ^ 1);
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
        format!("TQ_{}", self.n)
    }
}

impl Partitionable for TwistedCube {
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
        // The twisted `TQ_m` parts are dense and shallow, so the honest
        // probe tree's internal-node count — not the part size — limits the
        // §4.1 certificate (`TQ_4` parts top out at 7 internal nodes, below
        // δ = 7 for `TQ_7`). Cap at what every part can certify; the O(Δ·N)
        // capacity scan runs once per struct, memoised behind a `OnceLock`.
        *self.capacity.get_or_init(|| {
            crate::partition::certified_fault_capacity(self).min(self.diagnosability())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::validate_partition;
    use crate::verify::assert_family_structure;

    #[test]
    fn tq1_is_k2() {
        let g = TwistedCube {
            n: 1,
            m: 1,
            capacity: OnceLock::new(),
        };
        assert_eq!(g.neighbors(0), vec![1]);
    }

    #[test]
    fn tq2_is_c4() {
        let g = TwistedCube::with_partition_dim(2, 1);
        assert_family_structure(&g, 4, 2, true);
    }

    #[test]
    fn tq3_to_tq6_structure() {
        assert_family_structure(&TwistedCube::with_partition_dim(3, 2), 8, 3, true);
        assert_family_structure(&TwistedCube::with_partition_dim(4, 2), 16, 4, true);
        assert_family_structure(&TwistedCube::with_partition_dim(5, 3), 32, 5, true);
        assert_family_structure(&TwistedCube::with_partition_dim(6, 3), 64, 6, true);
    }

    #[test]
    fn twist_is_an_involution() {
        for w in 0..6usize {
            for x in 0..(1usize << w.max(1)) {
                assert_eq!(twist(twist(x, w), w), x);
            }
        }
    }

    #[test]
    fn is_genuinely_twisted() {
        // TQ_3 must not be isomorphic to Q_3: Q_3 is bipartite (no odd
        // cycles), while the twist creates a 5-cycle. Check for an odd cycle
        // by 2-colouring.
        let g = TwistedCube::with_partition_dim(3, 2);
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
        assert!(!bipartite, "TQ_3 should contain an odd cycle");
    }

    #[test]
    fn prefix_parts_induce_twisted_cubes() {
        let g = TwistedCube::with_partition_dim(5, 3);
        validate_partition(&g).unwrap();
        let sub = TwistedCube {
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
    fn fault_bound_is_memoised() {
        let g = TwistedCube::new(7);
        assert!(g.capacity.get().is_none(), "computed lazily, not eagerly");
        let b = g.driver_fault_bound();
        assert_eq!(g.capacity.get(), Some(&b));
        assert_eq!(g.driver_fault_bound(), b);
        // A clone carries the memoised value along.
        assert_eq!(g.clone().driver_fault_bound(), b);
    }

    #[test]
    fn default_partition_for_tq7() {
        let g = TwistedCube::new(7);
        assert_eq!(g.part_count(), 8);
        g.check_partition_preconditions().unwrap();
    }
}
