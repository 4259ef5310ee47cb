//! The delta contract: an empty delta is the one input the monitor
//! trusts. It reuses the last labelling; every other epoch runs the whole
//! diagnosis and reads every label off the current syndrome. So
//!
//! * a non-empty delta that leaves a change out still yields the
//!   from-scratch labelling, wherever the change lies: past the winner, at
//!   the certified part's representative, elsewhere in the certified
//!   part, or in a part below it;
//! * a delta that names a node whose status did not change is harmless;
//! * a delta that names a node outside the network is an error that
//!   leaves the session as it was.

use mmdiag::diagnosis::{diagnose, Diagnosis, DiagnosisError};
use mmdiag::syndrome::{behavior_sweep, FaultSet, OracleSyndrome, TesterBehavior};
use mmdiag::topology::families::Hypercube;
use mmdiag::topology::{NodeId, Partitionable, Topology};
use mmdiag::trace::Tracer;
use mmdiag::MonitorSession;

fn oracle(g: &Hypercube, faults: &[NodeId], b: TesterBehavior) -> OracleSyndrome {
    OracleSyndrome::new(FaultSet::new(g.node_count(), faults), b)
}

fn assert_from_scratch(got: &Diagnosis, g: &Hypercube, faults: &[NodeId], b: TesterBehavior) {
    let want = diagnose(g, &oracle(g, faults, b)).unwrap();
    assert_eq!(got.faults, want.faults, "{b:?}: faults");
    assert_eq!(got.certified_part, want.certified_part, "{b:?}: part");
    assert_eq!(got.probes, want.probes, "{b:?}: probes");
    assert_eq!(got.healthy_count, want.healthy_count, "{b:?}: healthy");
    assert_eq!(got.tree.edges(), want.tree.edges(), "{b:?}: tree");
}

/// A monitor after one epoch with `faults`, and its certified part.
fn monitor<'g>(
    g: &'g Hypercube,
    faults: &[NodeId],
    b: TesterBehavior,
) -> (MonitorSession<'g>, usize) {
    let mut m = MonitorSession::new(g, g.driver_fault_bound(), Tracer::disabled());
    m.ingest(&oracle(g, faults, b), faults).unwrap();
    let part = m.certificate().unwrap().part;
    (m, part)
}

/// The first node of the first part above `part`.
fn above(g: &Hypercube, part: usize) -> NodeId {
    (0..g.node_count())
        .find(|&v| g.part_of(v) > part)
        .expect("a part above the certified one")
}

#[test]
fn an_onset_missing_from_the_delta_past_the_winner_is_still_read() {
    let g = Hypercube::new(8);
    for b in behavior_sweep(0xDE17A) {
        let before = [90, 200];
        let (mut m, part) = monitor(&g, &before, b);
        let onset = above(&g, part) + 5;
        assert!(g.part_of(onset) > part && g.part_of(90) != part);
        // 90 recovers (and is named); the onset goes unreported.
        let mut now = vec![200, onset];
        now.sort_unstable();
        let report = m.ingest(&oracle(&g, &now, b), &[90]).unwrap();
        assert_eq!(report.escalation, None, "{b:?}");
        assert!(!report.quiescent, "{b:?}");
        assert!(report.diagnosis.faults.contains(&onset), "{b:?}");
        assert_from_scratch(&report.diagnosis, &g, &now, b);
    }
}

/// On Q_8 (16 parts of 16 nodes, bound 8), one change left out of a
/// delta that names only node 200, outside the certified part:
///
/// * an onset at the certified part's representative, node 0;
/// * an onset elsewhere in the certified part, node 7, beside node 1's
///   standing fault, which stops part 0 from certifying;
/// * a recovery at node 0 that lets part 0, below the winner, certify
///   again.
///
/// Each epoch gives the from-scratch labelling under every behaviour.
#[test]
fn a_change_left_out_of_a_non_empty_delta_cannot_change_the_labelling() {
    let g = Hypercube::new(8);
    let delta = [200];
    let placements = [
        ("onset at the representative", &[90, 200][..], &[0, 90][..]),
        ("onset in the certified part", &[1, 90, 200], &[1, 7, 90]),
        ("recovery below the winner", &[0, 90], &[90]),
    ];
    for (name, before, now) in placements {
        for b in behavior_sweep(0x0417) {
            let (mut m, part) = monitor(&g, before, b);
            let left_out: Vec<NodeId> = before
                .iter()
                .filter(|v| !now.contains(v))
                .chain(now.iter().filter(|v| !before.contains(v)))
                .copied()
                .filter(|v| !delta.contains(v))
                .collect();
            assert_eq!(left_out.len(), 1, "{name}: one change left out");
            assert_ne!(g.part_of(delta[0]), part, "{name}: delta clear of the part");
            let report = m
                .ingest(&oracle(&g, now, b), &delta)
                .unwrap_or_else(|e| panic!("{name} {b:?}: {e}"));
            assert!(!report.quiescent, "{name} {b:?}");
            assert_from_scratch(&report.diagnosis, &g, now, b);
        }
    }
}

#[test]
fn a_delta_naming_an_unchanged_node_is_harmless() {
    let g = Hypercube::new(8);
    for b in behavior_sweep(0x5A1E) {
        let before = [90, 200];
        let (mut m, part) = monitor(&g, &before, b);
        let onset = above(&g, part) + 9;
        let still = above(&g, part) + 1;
        let mut now = vec![90, 200, onset];
        now.sort_unstable();
        // One real onset, one healthy node and one fault that stayed put.
        let report = m
            .ingest(&oracle(&g, &now, b), &[onset, still, 200])
            .unwrap();
        assert_eq!(report.escalation, None, "{b:?}");
        assert_from_scratch(&report.diagnosis, &g, &now, b);
        // Naming an unchanged node of the certified part is a run like
        // any other: no escalation, the from-scratch labelling.
        let rep = g.representative(part) + 1;
        let report = m.ingest(&oracle(&g, &now, b), &[rep]).unwrap();
        assert_eq!(report.escalation, None, "{b:?}");
        assert!(!report.quiescent, "{b:?}");
        assert_from_scratch(&report.diagnosis, &g, &now, b);
    }
}

#[test]
fn a_delta_naming_a_node_outside_the_network_is_rejected_and_changes_nothing() {
    let g = Hypercube::new(8);
    let n = g.node_count();
    for b in behavior_sweep(0x0B0B) {
        let before = [90, 200];
        let (mut m, part) = monitor(&g, &before, b);
        let onset = above(&g, part) + 7;
        let mut now = vec![90, 200, onset];
        now.sort_unstable();
        let err = m.ingest(&oracle(&g, &now, b), &[onset, n]).unwrap_err();
        assert_eq!(
            err,
            DiagnosisError::NodeOutOfRange {
                node: n,
                node_count: n
            },
            "{b:?}"
        );
        assert_eq!(m.epochs_run(), 1, "{b:?}: no epoch counted");
        assert_eq!(m.last_faults(), Some(&before[..]), "{b:?}: labelling kept");
        // The next valid epoch runs on the state the rejected one left.
        let report = m.ingest(&oracle(&g, &now, b), &[onset]).unwrap();
        assert_eq!(report.escalation, None, "{b:?}");
        assert_eq!(report.epoch, 1, "{b:?}");
        assert_from_scratch(&report.diagnosis, &g, &now, b);
    }
}
