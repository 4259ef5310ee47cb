//! Property suite for the monitor's epoch contract, driven by the
//! distsim Poisson fault timelines:
//!
//! * every epoch — escalated, run or quiescent — is **bit-identical** to
//!   a from-scratch diagnosis of the same instantaneous fault set;
//! * only the first epoch escalates ([`EscalationReason::Initial`]), at
//!   the from-scratch cost;
//! * every later epoch with a non-empty delta runs the from-scratch probe
//!   scan, at the from-scratch probe lookups, and its growth costs no
//!   more than the full walk; some epoch grows **strictly** cheaper.

use mmdiag::diagnosis::session::run_sequential;
use mmdiag::diagnosis::{Diagnosis, SessionOptions};
use mmdiag::distsim::EpochTimeline;
use mmdiag::syndrome::{OracleSyndrome, SyndromeSource, TesterBehavior};
use mmdiag::topology::families::{Hypercube, StarGraph};
use mmdiag::topology::{Partitionable, Topology};
use mmdiag::trace::Tracer;
use mmdiag::{EscalationReason, MonitorSession};

fn assert_bit_identical(got: &Diagnosis, want: &Diagnosis, ctx: &str) {
    assert_eq!(got.faults, want.faults, "{ctx}: fault sets");
    assert_eq!(got.certified_part, want.certified_part, "{ctx}: part");
    assert_eq!(got.probes, want.probes, "{ctx}: probes");
    assert_eq!(got.healthy_count, want.healthy_count, "{ctx}: healthy");
    assert_eq!(got.tree.edges(), want.tree.edges(), "{ctx}: tree");
}

/// Replay a Poisson timeline through a monitor, asserting the epoch
/// contract against from-scratch runs. Returns
/// (escalated, run, quiescent, strictly_cheaper) epoch counts.
fn replay(
    g: &(dyn Partitionable + Sync),
    timeline: &EpochTimeline,
    ctx: &str,
) -> (usize, usize, usize, usize) {
    let bound = g.driver_fault_bound();
    let mut m = MonitorSession::new(g, bound, Tracer::disabled());
    let (mut escalated, mut run, mut quiescent, mut cheaper) = (0, 0, 0, 0);
    for e in 0..timeline.epoch_count() {
        let faults = timeline.faults_at(e);
        let delta = timeline.delta_at(e);
        let s = OracleSyndrome::new(faults.clone(), timeline.behavior());
        let report = match m.ingest(&s, &delta) {
            Ok(r) => r,
            Err(err) => panic!("{ctx} epoch {e}: {err}"),
        };
        let scratch = OracleSyndrome::new(faults.clone(), timeline.behavior());
        let want = run_sequential(g, &scratch, &SessionOptions::default())
            .unwrap_or_else(|err| panic!("{ctx} epoch {e} from-scratch: {err}"));
        assert_bit_identical(
            &report.diagnosis,
            &want.diagnosis,
            &format!("{ctx} epoch {e}"),
        );
        assert_eq!(report.parts_reused, 0, "{ctx} epoch {e}: retired field");
        match report.escalation {
            Some(reason) => {
                escalated += 1;
                assert_eq!(
                    (e, reason),
                    (0, EscalationReason::Initial),
                    "{ctx}: only the first epoch escalates"
                );
                assert_eq!(
                    report.lookups, want.diagnosis.lookups_used,
                    "{ctx} epoch {e}: escalated cost must equal from-scratch"
                );
            }
            None if report.quiescent => {
                quiescent += 1;
                assert!(delta.is_empty(), "{ctx} epoch {e}: quiescent with a delta");
                assert_eq!(report.lookups, 0, "{ctx} epoch {e}: quiescent lookups");
            }
            None => {
                run += 1;
                assert!(
                    !delta.is_empty(),
                    "{ctx} epoch {e}: a run on an empty delta"
                );
                // The probe scan is the from-scratch scan; only the growth
                // may read less.
                assert_eq!(
                    report.telemetry.probe_lookups, want.telemetry.probe_lookups,
                    "{ctx} epoch {e}: probe lookups"
                );
                assert_eq!(report.parts_reprobed, want.diagnosis.probes);
                assert!(
                    report.telemetry.grow_lookups <= want.telemetry.grow_lookups,
                    "{ctx} epoch {e}: growth {} > from-scratch {}",
                    report.telemetry.grow_lookups,
                    want.telemetry.grow_lookups
                );
                cheaper += usize::from(report.lookups < want.diagnosis.lookups_used);
            }
        }
    }
    (escalated, run, quiescent, cheaper)
}

#[test]
fn poisson_replay_holds_the_epoch_contract_on_the_hypercube() {
    let g = Hypercube::new(7);
    let bound = g.driver_fault_bound();
    let mut totals = (0, 0, 0, 0);
    for seed in 0..6u64 {
        let timeline = EpochTimeline::poisson(
            g.node_count(),
            16,
            0.8,
            0.5,
            bound,
            seed,
            TesterBehavior::Random { seed: seed ^ 0x5a },
        );
        let (e, r, q, c) = replay(&g, &timeline, &format!("Q7 seed {seed}"));
        totals = (totals.0 + e, totals.1 + r, totals.2 + q, totals.3 + c);
    }
    // The sweep must actually exercise every path — a vacuous pass
    // (e.g. every epoch quiescent) would prove nothing.
    assert_eq!(totals.0, 6, "one escalation per replay: {totals:?}");
    assert!(totals.1 > 0, "runs: {totals:?}");
    assert!(totals.2 > 0, "quiescent epochs: {totals:?}");
    assert!(totals.3 > 0, "strictly-cheaper epochs: {totals:?}");
}

#[test]
fn poisson_replay_holds_the_epoch_contract_on_the_star_graph() {
    let g = StarGraph::new(5);
    let bound = g.driver_fault_bound();
    let mut exercised = (0, 0, 0);
    for seed in 0..4u64 {
        let timeline = EpochTimeline::poisson(
            g.node_count(),
            12,
            0.7,
            0.6,
            bound,
            seed,
            TesterBehavior::Random { seed: 100 + seed },
        );
        let (e, r, _, c) = replay(&g, &timeline, &format!("S5 seed {seed}"));
        exercised = (exercised.0 + e, exercised.1 + r, exercised.2 + c);
    }
    assert_eq!(exercised.0, 4, "one escalation per replay: {exercised:?}");
    assert!(
        exercised.1 > 0 && exercised.2 > 0,
        "paths hit: {exercised:?}"
    );
}

#[test]
fn quiescent_runs_between_bursts_cost_nothing() {
    // A hand-built schedule: burst, silence, burst — the silent epochs
    // must reuse the labelling wholesale.
    let g = Hypercube::new(7);
    let behavior = TesterBehavior::AllZero;
    let mut m = MonitorSession::new(&g, g.driver_fault_bound(), Tracer::disabled());
    let s0 = OracleSyndrome::new(mmdiag::syndrome::FaultSet::new(128, &[64, 90]), behavior);
    let first = m.ingest(&s0, &[64, 90]).unwrap();
    for _ in 0..5 {
        let r = m.ingest(&s0, &[]).unwrap();
        assert!(r.quiescent);
        assert_eq!(r.lookups, 0);
        assert_eq!(r.diagnosis.faults, first.diagnosis.faults);
    }
    assert_eq!(s0.lookups(), first.lookups, "silence consulted nothing");
}
