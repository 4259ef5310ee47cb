//! Per-link latency models.
//!
//! A latency model assigns every directed edge a fixed positive delay. The
//! cost model in the crate root is exactly the [`LatencyModel::Unit`] case;
//! the other models open the regimes the static cost sheet cannot express:
//! uniformly slower fabrics, skew by neighbour index, and reproducible
//! random jitter.

use crate::event::Time;
use mmdiag_topology::NodeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic assignment of delivery delays to directed edges.
///
/// `dim` is the index of the target in the source's neighbour list, which
/// every topology emits ascending: index 0 is the source's smallest
/// neighbour. Latencies are clamped to ≥ 1 so virtual time always advances
/// across a hop.
#[derive(Clone, Debug)]
pub enum LatencyModel {
    /// Every link delivers in exactly 1 — the synchronous-round regime the
    /// closed-form cost model assumes.
    Unit,
    /// Every link delivers in the same constant time.
    Uniform(Time),
    /// Link latency by neighbour index: `dims[dim]`, with the last entry
    /// reused for higher dimensions. Asymmetric by construction whenever
    /// the edge sits at different indices of its endpoints' lists.
    PerDimension(Vec<Time>),
    /// Per-edge latency drawn uniformly from `min..=max`, keyed on the
    /// undirected edge through the vendored ChaCha shim — deterministic
    /// for a given seed, symmetric per edge.
    SeededRandom {
        /// Stream selector: same seed, same latency assignment.
        seed: u64,
        /// Smallest latency any edge may get (clamped to ≥ 1).
        min: Time,
        /// Largest latency any edge may get (`max ≥ min`).
        max: Time,
    },
}

impl LatencyModel {
    /// Delay of the directed edge `u → v`, where `v` is neighbour number
    /// `dim` of `u`.
    pub fn latency(&self, u: NodeId, v: NodeId, dim: usize) -> Time {
        match self {
            LatencyModel::Unit => 1,
            LatencyModel::Uniform(c) => (*c).max(1),
            LatencyModel::PerDimension(dims) => {
                assert!(!dims.is_empty(), "PerDimension needs at least one entry");
                dims[dim.min(dims.len() - 1)].max(1)
            }
            LatencyModel::SeededRandom { seed, min, max } => {
                let (a, b) = if u < v { (u, v) } else { (v, u) };
                let lo = (*min).max(1);
                let hi = (*max).max(lo);
                // One cheap ChaCha stream per edge, keyed on (seed, edge).
                let key = seed ^ ((a as u64) << 32 | b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut rng = ChaCha8Rng::seed_from_u64(key);
                lo + rng.gen_below(hi - lo + 1)
            }
        }
    }

    /// Upper bound on any latency this model can produce (used for sanity
    /// checks and trace summaries).
    pub fn max_latency(&self) -> Time {
        match self {
            LatencyModel::Unit => 1,
            LatencyModel::Uniform(c) => (*c).max(1),
            LatencyModel::PerDimension(dims) => dims.iter().copied().max().unwrap_or(1).max(1),
            LatencyModel::SeededRandom { min, max, .. } => (*max).max((*min).max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_and_uniform() {
        assert_eq!(LatencyModel::Unit.latency(0, 1, 0), 1);
        assert_eq!(LatencyModel::Uniform(5).latency(3, 4, 2), 5);
        // Degenerate constants clamp to 1 so time always advances.
        assert_eq!(LatencyModel::Uniform(0).latency(3, 4, 2), 1);
    }

    #[test]
    fn per_dimension_reuses_last_entry() {
        let m = LatencyModel::PerDimension(vec![1, 2, 7]);
        assert_eq!(m.latency(0, 1, 0), 1);
        assert_eq!(m.latency(0, 1, 2), 7);
        assert_eq!(m.latency(0, 1, 9), 7);
        assert_eq!(m.max_latency(), 7);
    }

    #[test]
    fn seeded_random_is_deterministic_symmetric_and_in_range() {
        let m = LatencyModel::SeededRandom {
            seed: 42,
            min: 2,
            max: 6,
        };
        let mut seen = std::collections::BTreeSet::new();
        for u in 0..20usize {
            for v in (u + 1)..20 {
                let l = m.latency(u, v, 0);
                assert!((2..=6).contains(&l), "latency {l} out of range");
                assert_eq!(l, m.latency(v, u, 3), "asymmetric edge ({u},{v})");
                assert_eq!(l, m.latency(u, v, 0), "non-deterministic ({u},{v})");
                seen.insert(l);
            }
        }
        assert!(seen.len() > 2, "190 edges should spread over the range");
        let other = LatencyModel::SeededRandom {
            seed: 43,
            min: 2,
            max: 6,
        };
        assert!(
            (0..20).any(|v| other.latency(0, v + 1, 0) != m.latency(0, v + 1, 0)),
            "different seeds should reassign some edge"
        );
    }
}
