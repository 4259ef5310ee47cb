//! # mmdiag-distsim
//!
//! Distributed deployment of the paper's diagnosis procedure, modelled two
//! ways that are validated against each other:
//!
//! The centralised driver reads a syndrome; in a distributed deployment each
//! processor holds only its own comparison results and the probe of a part
//! becomes a message-passing computation: the representative floods the
//! part, one tree level per round, exactly mirroring the levels
//! `U_1 ⊆ U_2 ⊆ …` of `Set_Builder`.
//!
//! **The closed-form cost model** quantifies that deployment on paper:
//!
//! * [`probe_rounds`] — rounds and messages for one part's restricted probe
//!   (rounds = in-part eccentricity of the representative, messages = one
//!   per in-part directed edge scanned);
//! * [`plan`] — the whole driver: every part probed concurrently (the §5
//!   phase the parallel driver already exploits shared-memory-style), then
//!   the unrestricted growth from the certified seed;
//! * [`SimPlan`] / [`ProbeCost`] — the resulting cost sheet.
//!
//! **The event-level simulator** executes the same protocol as timestamped
//! messages and observes what the cost sheet predicts:
//!
//! * [`event`] — a deterministic priority queue of timestamped messages;
//! * [`link`] — per-link latency models (unit, uniform, per-dimension
//!   skew, seeded-random jitter);
//! * [`inject`] — fault timelines with mid-protocol onsets;
//! * [`node`] — per-processor wave state and the §4.1 level rules;
//! * [`sim`] — [`simulate`]: concurrent restricted probes, certified-seed
//!   selection, unrestricted growth, yielding a [`SimReport`].
//!
//! Under unit latencies the simulator's observed (rounds, messages)
//! reproduce the cost model exactly, and on a static fault timeline its
//! diagnosis is bit-identical to `mmdiag_core::diagnose` — asserted per
//! cell by the bench sweep and the workspace cross-check suite. Skewed
//! latencies and mid-protocol onsets are the regimes only the simulator
//! can express.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod inject;
pub mod link;
pub mod node;
pub mod sim;

pub use event::{EventQueue, QueueTelemetry, Time};
pub use inject::{EpochEvent, EpochEventKind, EpochTimeline, FaultTimeline};
pub use link::LatencyModel;
pub use sim::{
    simulate, simulate_unchecked, simulate_with_plan, GrowthTrace, ProbeTrace, SimError, SimReport,
};

use mmdiag_topology::algorithms::bfs_distances;
use mmdiag_topology::{NodeId, Partitionable, Topology};

/// Cost of one part's restricted probe, in synchronous rounds and messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeCost {
    /// The part probed.
    pub part: usize,
    /// Synchronous rounds: BFS depth of the part from its representative
    /// (0 if the part is the bare representative).
    pub rounds: usize,
    /// Messages exchanged: every in-part directed edge is traversed once
    /// per probe (test requests + replies are counted as one message each
    /// way combined).
    pub messages: usize,
    /// Nodes reached — equals the part size when the part is connected.
    pub reached: usize,
}

/// The cost sheet of a full distributed diagnosis pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimPlan {
    /// Per-part probe costs.
    pub probes: Vec<ProbeCost>,
    /// Rounds if all parts probe concurrently (max over parts).
    pub probe_rounds_concurrent: usize,
    /// Total messages across all probes.
    pub probe_messages_total: usize,
    /// Rounds of the final unrestricted growth, bounded by the graph
    /// diameter from the worst representative (conservative: max over
    /// representatives of whole-graph BFS depth).
    pub growth_rounds_worst: usize,
}

/// Compute the round/message cost of the restricted probe of `part`.
///
/// The probe is a per-level flood: in round `r` every node attached at
/// level `r − 1` asks its in-part neighbours to run the comparison test
/// against its own parent, so rounds equal the in-part BFS eccentricity of
/// the representative, and each in-part edge carries at most one
/// request/reply exchange in each direction over the whole probe.
pub fn probe_rounds<T: Partitionable + ?Sized>(g: &T, part: usize) -> ProbeCost {
    let rep = g.representative(part);
    let n = g.node_count();
    let mut seen = vec![false; n];
    let mut frontier = vec![rep];
    seen[rep] = true;
    let mut rounds = 0usize;
    let mut messages = 0usize;
    let mut reached = 1usize;
    let mut next = Vec::new();
    let mut buf = Vec::new();
    while !frontier.is_empty() {
        next.clear();
        for &u in &frontier {
            g.neighbors_into(u, &mut buf);
            for &v in &buf {
                if g.part_of(v) != part {
                    continue;
                }
                messages += 1; // u contacts v this round (request + reply).
                if !seen[v] {
                    seen[v] = true;
                    reached += 1;
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        rounds += 1;
        std::mem::swap(&mut frontier, &mut next);
    }
    ProbeCost {
        part,
        rounds,
        messages,
        reached,
    }
}

/// Cost sheet for a full distributed diagnosis pass over `g`.
pub fn plan<T: Partitionable + ?Sized>(g: &T) -> SimPlan {
    let probes: Vec<ProbeCost> = (0..g.part_count()).map(|p| probe_rounds(g, p)).collect();
    let probe_rounds_concurrent = probes.iter().map(|p| p.rounds).max().unwrap_or(0);
    let probe_messages_total = probes.iter().map(|p| p.messages).sum();
    let growth_rounds_worst = (0..g.part_count())
        .map(|p| bfs_depth(g, g.representative(p)))
        .max()
        .unwrap_or(0);
    SimPlan {
        probes,
        probe_rounds_concurrent,
        probe_messages_total,
        growth_rounds_worst,
    }
}

/// Whole-graph BFS depth (eccentricity) of `src`.
fn bfs_depth<T: Topology + ?Sized>(g: &T, src: NodeId) -> usize {
    bfs_distances(g, src)
        .into_iter()
        .filter(|&d| d != usize::MAX)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdiag_topology::families::{Hypercube, StarGraph};

    #[test]
    fn hypercube_part_probe_is_subcube_flood() {
        // Q_7 parts are Q_4 subcubes: eccentricity of any node is 4, and
        // every directed in-part edge (16 nodes × 4 in-part neighbours) is
        // contacted once.
        let g = Hypercube::new(7);
        let c = probe_rounds(&g, 0);
        assert_eq!(c.rounds, 4);
        assert_eq!(c.reached, 16);
        assert_eq!(c.messages, 16 * 4);
    }

    #[test]
    fn plan_aggregates_all_parts() {
        let g = Hypercube::new(7);
        let p = plan(&g);
        assert_eq!(p.probes.len(), 8);
        assert_eq!(p.probe_rounds_concurrent, 4);
        assert_eq!(p.probe_messages_total, 8 * 16 * 4);
        // Unrestricted growth from any corner of Q_7 reaches depth 7.
        assert_eq!(p.growth_rounds_worst, 7);
    }

    #[test]
    fn star_graph_parts_are_substars() {
        // S_6 parts are S_5 copies (120 nodes, degree 4 in part).
        let g = StarGraph::new(6);
        let c = probe_rounds(&g, 0);
        assert_eq!(c.reached, 120);
        assert_eq!(c.messages, 120 * 4);
        assert!(c.rounds > 0);
    }
}
