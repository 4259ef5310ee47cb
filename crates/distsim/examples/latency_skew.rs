//! Event-level simulation demo: latency skew + mid-protocol injection.
//!
//! ```sh
//! cargo run --release -p mmdiag-distsim --example latency_skew
//! ```
//!
//! Runs the distributed diagnosis protocol over a folded hypercube `FQ_8`
//! three ways and prints the observed traces:
//!
//! 1. unit latencies (the regime the closed-form cost model predicts —
//!    the observed trace must match it exactly);
//! 2. per-dimension skew: every node's link to its smallest neighbour two
//!    orders of magnitude slower than the rest — first contact reroutes
//!    onto deeper paths the cost sheet cannot see;
//! 3. a mid-protocol injection: a healthy node turns faulty right after
//!    the probe phase — every probe certified without it, yet the growth
//!    phase tests see it and the diagnosis reports it.

use mmdiag_distsim::{plan, simulate, FaultTimeline, LatencyModel};
use mmdiag_syndrome::{FaultSet, TesterBehavior};
use mmdiag_topology::families::FoldedHypercube;
use mmdiag_topology::{Partitionable, Topology};

fn main() {
    let g = FoldedHypercube::new(8);
    let n = g.node_count();
    let faults = FaultSet::new(n, &[9, 64, 200]);
    let behavior = TesterBehavior::AllZero; // adversarial: fakes healthy trees
    let model = plan(&g);
    println!(
        "{} — {} nodes, {} parts, fault bound {}, planted faults {:?}\n",
        g.name(),
        n,
        g.part_count(),
        g.driver_fault_bound(),
        faults.members()
    );
    println!(
        "cost model: concurrent probe rounds {}, probe messages {}, growth rounds ≤ {}\n",
        model.probe_rounds_concurrent, model.probe_messages_total, model.growth_rounds_worst
    );

    // 1. Unit latencies: observation must reproduce the model exactly.
    let timeline = FaultTimeline::static_faults(faults.clone(), behavior);
    let unit = simulate(&g, &timeline, &LatencyModel::Unit).expect("unit sim");
    unit.check_against_plan(&model).expect("model must match");
    summarize("unit latencies", &unit);
    println!("  (matches the cost model exactly — checked)\n");

    // 2. Per-dimension skew: neighbour index 0 slow, the rest fast.
    let skewed =
        simulate(&g, &timeline, &LatencyModel::PerDimension(vec![100, 1])).expect("skewed sim");
    summarize("links to the smallest neighbour 100× slower", &skewed);
    println!(
        "  (same diagnosis, but the growth wave deepens {} → {} as first \
         contact reroutes around the slow links)\n",
        unit.growth.rounds, skewed.growth.rounds
    );
    assert_eq!(skewed.faults, unit.faults);

    // 3. Mid-protocol injection: node 77 turns faulty after the probes.
    let onset = unit.growth.started + 1;
    let injected = FaultTimeline::with_onsets(faults.clone(), &[(onset, 77)], behavior);
    let report = simulate(&g, &injected, &LatencyModel::Unit).expect("injection sim");
    summarize(&format!("node 77 turns faulty at t = {onset}"), &report);
    println!(
        "  (all {} probes certified before the onset, yet the diagnosis \
         includes the injected fault: {:?})",
        report.probes.len(),
        report.faults
    );
    assert_eq!(report.faults, injected.final_faults().members());
}

fn summarize(label: &str, r: &mmdiag_distsim::SimReport) {
    let probe_rounds = r.probes.iter().map(|p| p.rounds).max().unwrap_or(0);
    let probe_msgs: usize = r.probes.iter().map(|p| p.messages).sum();
    println!(
        "{label}:\n  certified part {} after {} probes; probe depth {probe_rounds}, \
         {probe_msgs} probe messages\n  growth depth {}, {} messages; diagnosis {:?}\n  \
         virtual time {} ({} events)",
        r.certified_part,
        r.probes_until_certificate,
        r.growth.rounds,
        r.growth.messages,
        r.faults,
        r.total_time,
        r.events_delivered
    );
}
