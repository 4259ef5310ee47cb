//! Per-processor wave state.
//!
//! Each processor, on first contact, timestamps itself and re-broadcasts
//! to its (in-part) neighbours ([`NodeState`]). MM faults are responsive,
//! so the wave covers every in-part directed edge regardless of the
//! syndrome — exactly the accounting of the closed-form cost model in the
//! crate root. Which nodes join the `Set_Builder` sets is decided by
//! `mmdiag-core` over the results the wave carried (see [`crate::sim`]).

use crate::event::Time;

/// Wave-layer state of one processor during one flood.
#[derive(Clone, Debug, Default)]
pub struct NodeState {
    reached_at: Option<Time>,
    hops: u32,
}

impl NodeState {
    /// Handle a wave message arriving at `at` after `hops` hops. Returns
    /// `true` exactly once — on first contact — which is the processor's
    /// cue to re-broadcast.
    pub fn on_contact(&mut self, at: Time, hops: u32) -> bool {
        if self.reached_at.is_some() {
            return false;
        }
        self.reached_at = Some(at);
        self.hops = hops;
        true
    }

    /// When the processor was first contacted, if ever.
    pub fn reached_at(&self) -> Option<Time> {
        self.reached_at
    }

    /// Hop count of the path that first contacted this processor.
    pub fn hops(&self) -> u32 {
        self.hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdiag_core::{set_builder_filtered, SetBuilderOutcome, Workspace};
    use mmdiag_syndrome::SyndromeSource;
    use mmdiag_syndrome::TestResult::{self, Agree, Disagree};
    use mmdiag_topology::{AdjGraph, NodeId};

    #[test]
    fn node_state_fires_once() {
        let mut s = NodeState::default();
        assert!(s.on_contact(3, 2));
        assert!(!s.on_contact(4, 1), "second contact must not re-broadcast");
        assert_eq!(s.reached_at(), Some(3));
        assert_eq!(s.hops(), 2);
    }

    /// The membership rules the simulator applies to the results its wave
    /// carried: `mmdiag-core`'s `Set_Builder` from seed 0 over `edges`,
    /// with a closure-backed syndrome.
    fn grow_levels(
        edges: &[(NodeId, NodeId)],
        bound: usize,
        syn: impl Fn(NodeId, NodeId, NodeId) -> TestResult,
        accept: impl Fn(NodeId) -> bool,
    ) -> SetBuilderOutcome {
        struct FnSource<F>(F);
        impl<F: Fn(NodeId, NodeId, NodeId) -> TestResult> SyndromeSource for FnSource<F> {
            fn read(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
                (self.0)(u, v, w)
            }
        }
        let n = 1 + edges.iter().map(|&(a, b)| a.max(b)).max().unwrap_or(0);
        let g = AdjGraph::from_edges(n, edges, "small");
        set_builder_filtered(&g, &FnSource(syn), 0, bound, accept, &mut Workspace::new(n))
    }

    /// The 4-cycle 0-1-3-2-0.
    const CYCLE: &[(NodeId, NodeId)] = &[(0, 1), (1, 3), (3, 2), (2, 0)];

    /// All-Agree syndrome: everything joins, u0 = 0 and one of its
    /// neighbours contribute.
    #[test]
    fn grow_levels_all_agree_cycle() {
        let out = grow_levels(CYCLE, 2, |_, _, _| Agree, |_| true);
        assert_eq!(out.members, vec![0, 1, 2, 3]);
        assert_eq!(out.contributors, 2, "u0 plus one of {{1,2}}");
        assert_eq!(out.rounds, 2);
        assert!(!out.all_healthy, "2 contributors is not > bound 2");
        let out = grow_levels(CYCLE, 1, |_, _, _| Agree, |_| true);
        assert!(out.all_healthy);
    }

    #[test]
    fn grow_levels_without_witness_pair_is_bare_seed() {
        let out = grow_levels(&[(0, 1), (1, 2)], 1, |_, _, _| Agree, |_| true);
        assert_eq!(out.members, vec![0], "one neighbour cannot form a pair");
        assert_eq!(out.rounds, 0);
        assert_eq!(out.contributors, 0);
    }

    #[test]
    fn grow_levels_respects_accept_filter() {
        let out = grow_levels(CYCLE, 0, |_, _, _| Agree, |v| v != 3);
        assert_eq!(out.members, vec![0, 1, 2]);
        assert_eq!(out.contributors, 1);
        assert_eq!(out.rounds, 1);
        assert!(out.all_healthy, "1 contributor is > bound 0");
    }

    #[test]
    fn grow_levels_stops_at_disagreeing_frontier() {
        // Node 3 is rejected by every tester.
        let edges = &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)];
        let out = grow_levels(
            edges,
            3,
            |_, v, w| if v == 3 || w == 3 { Disagree } else { Agree },
            |_| true,
        );
        assert_eq!(out.members, vec![0, 1, 2]);
        assert!(!out.members.contains(&3));
        assert_eq!(out.contributors, 1);
        assert_eq!(out.rounds, 1);
        assert!(!out.all_healthy);
    }
}
