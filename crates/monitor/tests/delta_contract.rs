//! The delta contract: the delta only decides which cached probes to
//! drop, and the growth reads every label off the current syndrome. So
//!
//! * a delta that omits an onset outside the certified part, and outside
//!   the parts below it, still yields the from-scratch labelling;
//! * a delta that names a node whose status did not change is harmless;
//! * a delta that names a node outside the network is an error that
//!   leaves the session as it was.

use mmdiag_core::{diagnose, Diagnosis, DiagnosisError};
use mmdiag_monitor::{EscalationReason, MonitorSession};
use mmdiag_syndrome::{behavior_sweep, FaultSet, OracleSyndrome, TesterBehavior};
use mmdiag_topology::families::Hypercube;
use mmdiag_topology::{NodeId, Partitionable, Topology};
use mmdiag_trace::Tracer;

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
        // Naming an unchanged node of the certified part only escalates.
        let rep = g.representative(part) + 1;
        let report = m.ingest(&oracle(&g, &now, b), &[rep]).unwrap();
        assert_eq!(
            report.escalation,
            Some(EscalationReason::CertificateInvalidated { part }),
            "{b:?}"
        );
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
