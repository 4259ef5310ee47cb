//! Fault sets: which nodes of the network are faulty.
//!
//! [`FaultSet`] answers membership from an `O(N)` bitmap; [`MemberSet`]
//! answers it from `O(|F|)` state — the sorted members behind a 1024-bit
//! pre-filter — for the 10⁶–10⁷-node paths that must not allocate per
//! node.

use mmdiag_topology::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Words in the [`MemberSet`] pre-filter: 16 × 64 = 1024 positions, 128
/// bytes — two cache lines, L1-resident across an entire growth sweep.
const FILTER_WORDS: usize = 16;

/// One multiply-shift hash position in the 1024-bit filter.
#[inline]
fn filter_slot(u: NodeId) -> (usize, u64) {
    let h = (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54;
    ((h >> 6) as usize, 1u64 << (h & 63))
}

/// A sorted, deduplicated node set with a membership pre-filter.
///
/// Almost every node a diagnosis or a verifier asks about is *not* a
/// member, and with `|F| ≲ Δ` members the 1024-bit one-hash Bloom filter
/// answers ≈ 98 % of those in one multiply and one L1 load instead of a
/// `log |F|` branchy search. A set bit falls through to the exact binary
/// search, so answers never depend on the filter.
#[derive(Clone, Debug)]
pub struct MemberSet {
    filter: [u64; FILTER_WORDS],
    members: Vec<NodeId>,
}

impl MemberSet {
    /// Build from an arbitrary list of node ids (sorted and deduplicated
    /// here).
    pub fn new(nodes: &[NodeId]) -> Self {
        let mut members = nodes.to_vec();
        members.sort_unstable();
        members.dedup();
        let mut filter = [0u64; FILTER_WORDS];
        for &m in &members {
            let (w, bit) = filter_slot(m);
            filter[w] |= bit;
        }
        MemberSet { filter, members }
    }

    /// Whether `u` is a member — one filter probe for the common
    /// non-member case, `O(log |F|)` on a filter hit.
    #[inline]
    pub fn contains(&self, u: NodeId) -> bool {
        let (w, bit) = filter_slot(u);
        self.filter[w] & bit != 0 && self.members.binary_search(&u).is_ok()
    }

    /// The members, ascending.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// A set of faulty nodes with `O(1)` membership tests and a canonical
/// (sorted) listing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSet {
    members: Vec<NodeId>,
    bitmap: Vec<bool>,
}

impl FaultSet {
    /// Build from an arbitrary list of node ids (duplicates are collapsed).
    /// `n` is the number of nodes in the network.
    pub fn new(n: usize, nodes: &[NodeId]) -> Self {
        let mut bitmap = vec![false; n];
        for &f in nodes {
            assert!(f < n, "faulty node {f} out of range (n = {n})");
            bitmap[f] = true;
        }
        let members = (0..n).filter(|&u| bitmap[u]).collect();
        FaultSet { members, bitmap }
    }

    /// The empty fault set over `n` nodes.
    pub fn empty(n: usize) -> Self {
        FaultSet {
            members: Vec::new(),
            bitmap: vec![false; n],
        }
    }

    /// Sample a uniformly random fault set of exactly `size` nodes.
    pub fn random<R: Rng + ?Sized>(n: usize, size: usize, rng: &mut R) -> Self {
        assert!(size <= n, "cannot pick {size} faults among {n} nodes");
        let mut ids: Vec<NodeId> = (0..n).collect();
        ids.shuffle(rng);
        ids.truncate(size);
        FaultSet::new(n, &ids)
    }

    /// Whether node `u` is faulty.
    #[inline]
    pub fn contains(&self, u: NodeId) -> bool {
        self.bitmap[u]
    }

    /// The faulty nodes in ascending order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of faulty nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Network size this set was built over.
    pub fn universe(&self) -> usize {
        self.bitmap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn construction_dedups_and_sorts() {
        let f = FaultSet::new(10, &[7, 2, 7, 5]);
        assert_eq!(f.members(), &[2, 5, 7]);
        assert_eq!(f.len(), 3);
        assert!(f.contains(2) && f.contains(5) && f.contains(7));
        assert!(!f.contains(3));
    }

    #[test]
    fn empty_set() {
        let f = FaultSet::empty(4);
        assert!(f.is_empty());
        assert_eq!(f.universe(), 4);
    }

    #[test]
    fn random_has_exact_size_and_range() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        for size in 0..=8 {
            let f = FaultSet::random(32, size, &mut rng);
            assert_eq!(f.len(), size);
            for &m in f.members() {
                assert!(m < 32);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        FaultSet::new(3, &[3]);
    }

    #[test]
    fn member_set_dedups_and_sorts() {
        let m = MemberSet::new(&[7, 3, 7, 99]);
        assert_eq!(m.as_slice(), &[3, 7, 99]);
        assert_eq!(m.len(), 3);
        assert!(m.contains(7) && !m.contains(8));
        assert!(MemberSet::new(&[]).is_empty());
    }
}
