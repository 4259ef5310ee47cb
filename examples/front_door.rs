//! One front door, every policy: the same `Diagnoser` session diagnosing
//! one instance in-process, with verification riding the call, and as
//! timestamped messages in the event simulator.
//!
//! Run: `cargo run --release --example front_door`

use mmdiag::distsim::LatencyModel;
use mmdiag::syndrome::{FaultSet, OracleSyndrome, SyndromeSource, TesterBehavior};
use mmdiag::topology::families::Hypercube;
use mmdiag::topology::Topology;
use mmdiag::{Diagnoser, VerificationVerdict};

fn main() {
    // Q_10 needs the capacity-aware partition (16-node subcubes cannot
    // certify fault bound 10 — see `certified_partition_dim`).
    let g = Hypercube::new_certified(10);
    let n = g.node_count();
    let faults = FaultSet::new(n, &[3, 64, 90, 500, 1001]);
    let behavior = TesterBehavior::Random { seed: 7 };
    let s = OracleSyndrome::new(faults.clone(), behavior);

    // 1. The default session is `diagnose`.
    let report = Diagnoser::new(&g).run(&s).unwrap();
    println!(
        "sequential: {} faults in {} probes, {} lookups \
         (probe {:.1} µs / certify {:.1} µs / grow {:.1} µs)",
        report.diagnosis.faults.len(),
        report.diagnosis.probes,
        report.diagnosis.lookups_used,
        report.telemetry.probe_nanos as f64 / 1e3,
        report.telemetry.certify_nanos as f64 / 1e3,
        report.telemetry.grow_nanos as f64 / 1e3,
    );
    println!(
        "certificate: part {} rooted at {}, {} contributors, {} tree edges",
        report.certificate.part,
        report.certificate.representative,
        report.certificate.contributors,
        report.certificate.tree.edges().len(),
    );

    // 2. One builder call each turns on size-directed batch fan-out and
    //    the sampled verification policy. The batch policy leaves a
    //    single run on the calling thread.
    s.reset_lookups();
    let verified = Diagnoser::new(&g)
        .auto()
        .verify_sampled(3, 0xC0FFEE)
        .run(&s)
        .unwrap();
    match &verified.verification {
        VerificationVerdict::Sampled {
            samples,
            checked_tests,
            agree,
            ..
        } => println!(
            "verified (auto session, run on the calling thread): sampled verification over \
             {samples} nodes / {checked_tests} tests: agree = {agree}"
        ),
        other => println!("unexpected verdict: {other:?}"),
    }
    assert_eq!(verified.diagnosis.faults, report.diagnosis.faults);

    // 3. The same session shape replays the protocol as timestamped
    //    messages under a skewed latency model.
    let outcome = Diagnoser::new(&g)
        .simulated(LatencyModel::SeededRandom {
            seed: 11,
            min: 1,
            max: 6,
        })
        .run_planted(&faults, behavior)
        .unwrap();
    let sim = outcome.sim().unwrap();
    println!(
        "simulated: same {} faults, virtual time {}, {} events delivered",
        outcome.faults().len(),
        sim.total_time,
        sim.events_delivered,
    );
    assert_eq!(outcome.faults(), report.diagnosis.faults.as_slice());
}
