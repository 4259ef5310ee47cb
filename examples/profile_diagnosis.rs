//! Trace one Q_17 diagnosis end-to-end: an enabled session tracer and
//! the drained trace rolled back up into the same numbers the report
//! carries.
//!
//! Run: `cargo run --release --example profile_diagnosis`

use mmdiag::syndrome::{FaultSet, OracleSyndrome, SyndromeSource, TesterBehavior};
use mmdiag::topology::families::Hypercube;
use mmdiag::topology::Topology;
use mmdiag::trace::{MetricValue, TraceConfig, TraceSummary};
use mmdiag::{Diagnoser, VerificationVerdict};

fn main() {
    // Q_17: 131 072 nodes, the bench driver tier's hypercube cell.
    let g = Hypercube::new(17);
    let n = g.node_count();
    let faults = FaultSet::new(n, &[3, 6_400, 90_000, 120_001]);
    let s = OracleSyndrome::new(faults, TesterBehavior::Random { seed: 17 });

    let session = Diagnoser::new(&g)
        .trace(TraceConfig::default())
        .verify_sampled(2, 7);

    let report = session.run(&s).unwrap();
    println!(
        "Q_17 ({} nodes): {} faults, certified part {}",
        n,
        report.diagnosis.faults.len(),
        report.diagnosis.certified_part,
    );

    // --- Phase summary from the drained trace. ---------------------------
    let tracer = session.tracer();
    let summary = TraceSummary::from_events(&tracer.drain(), tracer.dropped());
    println!("\nphases (from the trace — identical to the report telemetry):");
    for (name, nanos, lookups) in [
        ("probe", summary.probe_nanos, summary.probe_lookups),
        ("certify", summary.certify_nanos, 0),
        ("grow", summary.grow_nanos, summary.grow_lookups),
    ] {
        println!(
            "  {name:<8} {:>10.1} µs  {lookups:>8} lookups",
            nanos as f64 / 1e3
        );
    }
    // The trace *is* the telemetry — exact, not approximately equal.
    assert_eq!(summary.probe_nanos, report.telemetry.probe_nanos);
    assert_eq!(summary.certify_nanos, report.telemetry.certify_nanos);
    assert_eq!(summary.grow_nanos, report.telemetry.grow_nanos);
    assert_eq!(summary.probe_lookups, report.telemetry.probe_lookups);
    assert_eq!(summary.grow_lookups, report.telemetry.grow_lookups);
    if let VerificationVerdict::Sampled { nanos, agree, .. } = report.verification {
        println!(
            "  {:<8} {:>10.1} µs  agree = {agree}",
            "verify",
            nanos as f64 / 1e3
        );
    }

    // --- The session counts every entry its calls read. ------------------
    for m in tracer.metrics().expect("tracing session").snapshot() {
        if let MetricValue::Counter(v) = m.value {
            println!("\nmetric {} = {v}", m.name);
            if m.name == "oracle.lookups" {
                assert_eq!(v, s.lookups(), "the session read every counted entry");
            }
        }
    }
}
