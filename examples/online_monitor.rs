//! The online diagnosis loop in ~50 lines: a long-lived
//! [`mmdiag::MonitorSession`] (opened via [`mmdiag::Diagnoser::monitor`])
//! replaying a seeded Poisson fault timeline from
//! [`mmdiag::distsim::EpochTimeline`]. Each epoch the service ingests
//! only the *delta* — the nodes whose fault status moved — and
//! re-diagnoses incrementally: certified-healthy probe outcomes from
//! clean parts are reused across epochs, the last growth tree is
//! re-read one syndrome entry per node and repaired where the fault set
//! moved, and the session escalates to an honest from-scratch walk only
//! when the delta invalidates the standing certificate.
//!
//! ```text
//! cargo run --example online_monitor
//! ```
//!
//! The same loop at bench scale: `mmdiag-bench --online` (optionally
//! `MMDIAG_EPOCHS=<n>` to pick the epoch budget).

use mmdiag::distsim::EpochTimeline;
use mmdiag::syndrome::{OracleSyndrome, TesterBehavior};
use mmdiag::topology::{Partitionable, Topology};
use mmdiag::Diagnoser;

fn main() {
    let g = mmdiag::topology::families::Hypercube::new(8);
    let behavior = TesterBehavior::Random { seed: 0xB0B };

    // A seeded Poisson schedule of fault onsets and recoveries: ~0.7
    // expected onsets and ~0.5 expected repairs per epoch, capped under
    // the driver's fault bound so every epoch stays diagnosable.
    let timeline = EpochTimeline::poisson(
        g.node_count(),
        12,
        0.7,
        0.5,
        g.driver_fault_bound(),
        42,
        behavior,
    );

    // `monitor()` hands the session's topology view, fault bound and
    // tracer to a long-lived MonitorSession that owns the epoch state.
    let session = Diagnoser::new(&g);
    let mut monitor = session.monitor().expect("in-process session");

    println!("epoch  faults  delta  lookups  reused  mode");
    for e in 0..timeline.epoch_count() {
        let faults = timeline.faults_at(e);
        let delta = timeline.delta_at(e);
        let s = OracleSyndrome::new(faults.clone(), behavior);
        let report = monitor.ingest(&s, &delta).expect("epoch diagnoses");
        let mode = match report.escalation {
            Some(reason) => format!("escalated ({reason:?})"),
            None if report.quiescent => "quiescent (labelling reused)".into(),
            None => format!(
                "incremental ({} of {} parts re-probed)",
                report.parts_reprobed,
                g.part_count()
            ),
        };
        println!(
            "{:>5}  {:>6}  {:>5}  {:>7}  {:>6}  {mode}",
            report.epoch,
            report.diagnosis.faults.len(),
            delta.len(),
            report.lookups,
            report.parts_reused,
        );
    }

    let last = monitor.last_faults().expect("timeline replayed");
    println!(
        "final labelling after {} epochs: {last:?} (certified part {})",
        monitor.epochs_run(),
        monitor.certificate().expect("standing certificate").part,
    );
}
