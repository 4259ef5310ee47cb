//! The streaming syndrome oracle — `O(|F|)` state for 10⁶–10⁷-node runs.
//!
//! [`crate::oracle::OracleSyndrome`] already synthesises outcomes lazily,
//! but it owns a [`crate::fault::FaultSet`] whose bitmap is `O(N)`: one
//! byte per node of the network, allocated before the first lookup. That is
//! harmless at bench sizes and wrong at scale — a 10⁷-node instance should
//! not pay 10 MB of syndrome state to describe twenty faults.
//!
//! [`OnDemandOracle`] keeps only the fault members (a
//! [`crate::fault::MemberSet`]: sorted, behind a 1024-bit pre-filter) and
//! the behaviour seed; every outcome funnels through the same
//! [`crate::model::outcome_from_flags`] kernel as the bitmap oracle, so
//! the two are bit-identical on every defined entry (the test-suite sweeps
//! this). The driver's workspaces, batch
//! submissions and the execution backends consume it unchanged through
//! [`SyndromeSource`].

use crate::fault::{FaultSet, MemberSet};
use crate::model::{outcome_from_flags, row_from_flags, TestResult, TesterBehavior};
use crate::source::SyndromeSource;
use mmdiag_topology::NodeId;
use mmdiag_trace::Counter;

/// A lazy, counting syndrome source holding `O(|F|)` state: the fault
/// members as a [`MemberSet`] plus the faulty-tester behaviour.
///
/// One instance serves an entire diagnosis, or several at once: reads
/// take `&self` and the tally behind [`SyndromeSource::count`] is atomic,
/// so the jobs of a pooled batch that share one oracle query it from their
/// workers without any per-run setup or teardown. Reads count nothing: each
/// reader counts its own, the growth once per layer, and attributes lookups
/// to rounds by differencing [`SyndromeSource::lookups`] before and after
/// each round — exact while one run reads the oracle at a time; batch jobs
/// sharing it count each other's reads.
pub struct OnDemandOracle {
    /// Three membership probes per `read` (a row takes two, plus one per
    /// entry), ~Δ·N reads per large-instance grow: the set's pre-filter
    /// answers the common healthy case.
    members: MemberSet,
    universe: usize,
    behavior: TesterBehavior,
    lookups: Counter,
}

impl OnDemandOracle {
    /// Create an oracle over a network of `universe` nodes with the given
    /// faulty members (deduplicated and sorted here) and tester behaviour.
    pub fn new(universe: usize, members: &[NodeId], behavior: TesterBehavior) -> Self {
        let members = MemberSet::new(members);
        if let Some(&last) = members.as_slice().last() {
            assert!(
                last < universe,
                "faulty node {last} out of range (n = {universe})"
            );
        }
        OnDemandOracle {
            members,
            universe,
            behavior,
            lookups: Counter::new(),
        }
    }

    /// Build from a dense [`FaultSet`], keeping only its member list.
    pub fn from_fault_set(faults: &FaultSet, behavior: TesterBehavior) -> Self {
        Self::new(faults.universe(), faults.members(), behavior)
    }

    /// Whether node `u` is faulty — one filter probe for the common
    /// healthy case, `O(log |F|)` on a filter hit.
    #[inline]
    pub fn is_faulty(&self, u: NodeId) -> bool {
        self.members.contains(u)
    }

    /// The planted fault members, ascending (ground truth — only tests and
    /// the bench agreement checks should read this).
    pub fn planted_members(&self) -> &[NodeId] {
        self.members.as_slice()
    }

    /// Network size this oracle describes.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The faulty-tester behaviour.
    pub fn behavior(&self) -> TesterBehavior {
        self.behavior
    }

    /// Expand to a dense [`FaultSet`] (tests and small-instance
    /// cross-checks only — this re-introduces the `O(N)` bitmap the oracle
    /// exists to avoid).
    pub fn to_fault_set(&self) -> FaultSet {
        FaultSet::new(self.universe, self.members.as_slice())
    }
}

impl SyndromeSource for OnDemandOracle {
    fn read(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
        outcome_from_flags(
            self.is_faulty(u),
            self.is_faulty(v),
            self.is_faulty(w),
            u,
            v,
            w,
            self.behavior,
        )
    }

    /// Two membership probes for the whole row, then one per entry
    /// (`model::row_from_flags`).
    fn read_row(&self, u: NodeId, v: NodeId, ws: &[NodeId]) -> u64 {
        row_from_flags(|x| self.is_faulty(x), u, v, ws, self.behavior)
    }

    fn count(&self, n: u64) {
        self.lookups.add(n);
    }

    fn lookups(&self) -> u64 {
        self.lookups.get()
    }

    fn reset_lookups(&self) {
        self.lookups.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::behavior_sweep;
    use crate::oracle::OracleSyndrome;
    use mmdiag_topology::families::{KAryNCube, StarGraph};
    use mmdiag_topology::Topology;

    /// The streaming oracle and the bitmap oracle must agree on every
    /// defined entry, for every behaviour.
    #[test]
    fn streaming_equals_bitmap_oracle_everywhere() {
        let graphs: Vec<Box<dyn Topology>> = vec![
            Box::new(KAryNCube::with_partition_dim(3, 2, 1)),
            Box::new(StarGraph::new(4)),
        ];
        for g in &graphs {
            let n = g.node_count();
            let members = [1, n / 2, n - 1];
            let faults = FaultSet::new(n, &members);
            for b in behavior_sweep(23) {
                let dense = OracleSyndrome::new(faults.clone(), b);
                let sparse = OnDemandOracle::new(n, &members, b);
                let mut buf = Vec::new();
                for u in 0..n {
                    g.neighbors_into(u, &mut buf);
                    for i in 0..buf.len() {
                        for j in (i + 1)..buf.len() {
                            assert_eq!(
                                dense.lookup(u, buf[i], buf[j]),
                                sparse.lookup(u, buf[i], buf[j]),
                                "{}: u={u}, pair=({},{}), {b:?}",
                                g.name(),
                                buf[i],
                                buf[j]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn construction_dedups_sorts_and_roundtrips() {
        let o = OnDemandOracle::new(100, &[7, 3, 7, 99], TesterBehavior::AllZero);
        assert_eq!(o.planted_members(), &[3, 7, 99]);
        assert!(o.is_faulty(7) && !o.is_faulty(8));
        assert_eq!(o.universe(), 100);
        let dense = o.to_fault_set();
        assert_eq!(dense.members(), o.planted_members());
        let back = OnDemandOracle::from_fault_set(&dense, TesterBehavior::AllZero);
        assert_eq!(back.planted_members(), o.planted_members());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_member_rejected() {
        OnDemandOracle::new(3, &[3], TesterBehavior::AllZero);
    }

    /// The Bloom pre-filter must never change an answer: sweep every node
    /// of a universe against the exact member list, including a dense
    /// member set that saturates the 1024-bit filter.
    #[test]
    fn filter_never_flips_membership() {
        let sparse = [3usize, 977, 2048, 4095];
        let dense: Vec<usize> = (0..3000).step_by(2).collect();
        for members in [&sparse[..], &dense[..]] {
            let o = OnDemandOracle::new(4096, members, TesterBehavior::AllZero);
            for u in 0..4096 {
                assert_eq!(
                    o.is_faulty(u),
                    members.binary_search(&u).is_ok(),
                    "node {u}"
                );
            }
        }
    }

    #[test]
    fn lookups_counted_and_reset() {
        let o = OnDemandOracle::new(8, &[2], TesterBehavior::Truthful);
        assert_eq!(o.lookups(), 0);
        for _ in 0..7 {
            o.lookup(0, 1, 2);
        }
        assert_eq!(o.lookups(), 7);
        o.reset_lookups();
        assert_eq!(o.lookups(), 0);
        assert_eq!(o.behavior(), TesterBehavior::Truthful);
    }
}
