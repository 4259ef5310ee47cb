//! Trace one Q_17 diagnosis end-to-end: an enabled session tracer, an
//! instrumented pool, and the drained trace rolled back up into the same
//! numbers the report carries — then the per-worker executor stats.
//!
//! Run: `cargo run --release --example profile_diagnosis`

use mmdiag::exec::Pool;
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

    // An instrumented pool counts per-worker tasks / steals / parks and
    // buckets task run times regardless of MMDIAG_TRACE.
    let pool = Pool::new_instrumented(4);
    let session = Diagnoser::new(&g)
        .pooled_on(&pool)
        .trace(TraceConfig::default())
        .verify_sampled(2, 7);

    let report = session.run(&s).unwrap();
    println!(
        "Q_17 ({} nodes): {} faults, certified part {}, backend {}",
        n,
        report.diagnosis.faults.len(),
        report.diagnosis.certified_part,
        report.backend,
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

    // --- Per-worker executor stats. --------------------------------------
    let stats = pool.stats().expect("instrumented pool");
    println!("\nworkers (tasks / steals / injector pops / parks):");
    for (i, w) in stats.workers.iter().enumerate() {
        println!(
            "  w{i}: {:>4} tasks  {:>4} steals  {:>4} pops  {:>4} parks  \
             run p50 {} ns  p99 {} ns",
            w.tasks,
            w.steals,
            w.injector_pops,
            w.parks,
            w.run_ns.p50(),
            w.run_ns.p99(),
        );
    }
    let totals = stats.totals();
    println!(
        "  total: {} tasks, run-time histogram count {}",
        totals.tasks, totals.run_ns.count
    );
    assert_eq!(totals.tasks, totals.run_ns.count, "every task timed");
}
