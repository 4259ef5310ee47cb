//! Faults that arrive while the protocol runs: the regime only the event
//! simulator can express, pinned run by run.
//!
//! Seeded onset schedules land inside the probe wave (before the growth
//! wave starts) and inside the growth wave, on a hypercube and a star
//! graph, under unit and seeded-random link latencies. Each run is
//! recorded as one line: the diagnosed faults (or the error), the
//! certified part, every part's certificate and contributor count, the
//! healthy set's size, the virtual finish time and the messages the
//! event engine delivered. The lines are literal, so any change to how
//! the simulator grades tests against reply times, picks the certified
//! part or sweeps `N(U_r)` shows up here.

use mmdiag_distsim::{simulate, FaultTimeline, LatencyModel, SimReport, Time};
use mmdiag_syndrome::{FaultSet, TesterBehavior};
use mmdiag_topology::families::{Hypercube, StarGraph};
use mmdiag_topology::{NodeId, Partitionable};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One run as a line: `faults … part … probes … healthy … time … events …`,
/// each probe written `c<contributors>` when it certified and
/// `-<contributors>` when it did not.
fn digest(r: &SimReport) -> String {
    let probes: Vec<String> = r
        .probes
        .iter()
        .map(|p| format!("{}{}", if p.certified { "c" } else { "-" }, p.contributors))
        .collect();
    format!(
        "faults {:?} part {} probes [{}] healthy {} time {} events {}",
        r.faults,
        r.certified_part,
        probes.join(" "),
        r.healthy_count,
        r.total_time,
        r.events_delivered
    )
}

/// `count` distinct nodes outside `taken`, drawn from `rng`.
fn victims(rng: &mut ChaCha8Rng, n: usize, taken: &FaultSet, count: usize) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::with_capacity(count);
    while out.len() < count {
        let v = rng.gen_below(n as u64) as NodeId;
        if !taken.contains(v) && !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Every run of the grid, one digest line each, in grid order.
fn grid() -> Vec<String> {
    let families: [Box<dyn Partitionable>; 2] =
        [Box::new(Hypercube::new(7)), Box::new(StarGraph::new(6))];
    let mut lines = Vec::new();
    for (fi, g) in families.iter().enumerate() {
        let g = g.as_ref();
        let n = g.node_count();
        let bound = g.driver_fault_bound();
        let latencies = [
            LatencyModel::Unit,
            LatencyModel::SeededRandom {
                seed: 0x0123 + fi as u64,
                min: 1,
                max: 8,
            },
        ];
        for (li, latency) in latencies.iter().enumerate() {
            for seed in 0..2u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    0x05E7 ^ ((fi as u64) << 8) ^ ((li as u64) << 4) ^ seed,
                );
                let behavior = if seed == 0 {
                    TesterBehavior::AllZero
                } else {
                    TesterBehavior::Random { seed }
                };
                let base = FaultSet::random(n, bound / 2, &mut rng);
                let dry = simulate(
                    g,
                    &FaultTimeline::static_faults(base.clone(), behavior),
                    latency,
                )
                .expect("the base load is within the bound");
                let (probe_end, growth_end) = (dry.growth.started, dry.total_time);
                // Onsets inside the probe wave, then inside the growth wave:
                // three scattered nodes, enough scattered nodes to pass the
                // bound, and the first two parts' representatives.
                for (lo, hi) in [(1, probe_end), (probe_end + 1, growth_end)] {
                    let schedules = [
                        victims(&mut rng, n, &base, 3),
                        victims(&mut rng, n, &base, bound / 2 + 2),
                        vec![g.representative(0), g.representative(1)],
                    ];
                    for nodes in schedules {
                        let onsets: Vec<(Time, NodeId)> = nodes
                            .into_iter()
                            .map(|v| (lo + rng.gen_below(hi - lo), v))
                            .collect();
                        let timeline = FaultTimeline::with_onsets(base.clone(), &onsets, behavior);
                        lines.push(match simulate(g, &timeline, latency) {
                            Ok(r) => digest(&r),
                            Err(e) => format!("error {e:?}"),
                        });
                    }
                }
            }
        }
    }
    lines
}

/// The grid's lines, recorded once and asserted literally.
const PINNED: [&str; 48] = [
    "faults [1, 19, 32, 77, 83, 124] part 0 probes [c9 c10 -1 c10 c9 c10 c10 c10] healthy 122 time 13 events 1408",
    "error TooManyFaults { found: 8, bound: 7 }",
    "faults [0, 1, 16, 32, 83] part 3 probes [-2 -1 -1 c10 c10 c10 c10 c10] healthy 123 time 13 events 1408",
    "faults [1, 32, 79, 83, 118] part 0 probes [c9 c10 -1 c10 c10 c10 c10 c10] healthy 123 time 13 events 1408",
    "faults [1, 19, 32, 55, 83, 102, 124] part 0 probes [c9 c10 -1 c10 c10 c10 c10 c10] healthy 121 time 13 events 1408",
    "error TooManyFaults { found: 37, bound: 7 }",
    "faults [4, 15, 36, 40, 67, 92] part 0 probes [c8 c10 c9 c10 c10 c10 c10 c10] healthy 122 time 13 events 1408",
    "error TooManyFaults { found: 8, bound: 7 }",
    "error TooManyFaults { found: 31, bound: 7 }",
    "faults [4, 15, 67, 104] part 0 probes [c8 c10 c10 c10 c10 c10 c10 c10] healthy 124 time 13 events 1408",
    "faults [4, 15, 30, 67, 81, 92] part 0 probes [c8 c10 c10 c10 c10 c10 c10 c10] healthy 122 time 13 events 1408",
    "faults [4, 15, 16, 67] part 0 probes [c8 c10 c10 c10 c10 c10 c10 c10] healthy 124 time 13 events 1408",
    "faults [16, 40, 60, 99, 117, 121] part 0 probes [c10 -1 c9 c10 c10 c10 c10 c10] healthy 122 time 44 events 1408",
    "error TooManyFaults { found: 8, bound: 7 }",
    "error TooManyFaults { found: 30, bound: 7 }",
    "faults [16, 60, 80, 95, 121] part 0 probes [c10 -1 c10 c10 c10 c10 c10 c10] healthy 123 time 44 events 1408",
    "faults [15, 16, 121] part 0 probes [c10 -1 c10 c10 c10 c10 c10 c10] healthy 125 time 44 events 1408",
    "faults [16, 60, 121] part 0 probes [c10 -1 c10 c10 c10 c10 c10 c10] healthy 125 time 44 events 1408",
    "faults [30, 42, 57, 65, 74, 83] part 0 probes [c10 c9 c10 c10 c10 c10 c10 c10] healthy 122 time 44 events 1408",
    "error TooManyFaults { found: 8, bound: 7 }",
    "error TooManyFaults { found: 30, bound: 7 }",
    "faults [30, 52, 57, 74, 103] part 0 probes [c10 c9 c10 c10 c10 c10 c10 c10] healthy 123 time 44 events 1408",
    "error TooManyFaults { found: 8, bound: 7 }",
    "faults [30, 57, 74] part 0 probes [c10 c9 c10 c10 c10 c10 c10 c10] healthy 125 time 44 events 1408",
    "faults [14, 406, 646, 664, 714] part 0 probes [c70 c67 c69 c70 c70 c69] healthy 715 time 15 events 6480",
    "error TooManyFaults { found: 6, bound: 5 }",
    "error TooManyFaults { found: 43, bound: 5 }",
    "faults [29, 38, 601, 664, 714] part 0 probes [c70 c67 c70 c70 c70 c70] healthy 715 time 15 events 6480",
    "faults [115, 334, 434, 664, 714] part 0 probes [c70 c67 c70 c70 c70 c70] healthy 715 time 15 events 6480",
    "error TooManyFaults { found: 20, bound: 5 }",
    "faults [261, 287, 425, 461, 662] part 0 probes [c71 c69 c70 c70 c69 c70] healthy 715 time 15 events 6480",
    "error TooManyFaults { found: 6, bound: 5 }",
    "error TooManyFaults { found: 23, bound: 5 }",
    "faults [358, 425, 458, 461] part 0 probes [c71 c70 c70 c70 c70 c70] healthy 716 time 15 events 6480",
    "error TooManyFaults { found: 6, bound: 5 }",
    "faults [425, 461] part 0 probes [c71 c70 c70 c70 c70 c70] healthy 718 time 15 events 6480",
    "faults [152, 356, 435, 447, 526] part 0 probes [c70 c70 c70 c69 c70 c71] healthy 715 time 66 events 6480",
    "error TooManyFaults { found: 6, bound: 5 }",
    "error TooManyFaults { found: 32, bound: 5 }",
    "faults [47, 152, 447] part 0 probes [c70 c70 c70 c70 c70 c71] healthy 717 time 66 events 6480",
    "faults [152, 208, 426, 447, 711] part 0 probes [c70 c70 c70 c70 c70 c71] healthy 715 time 66 events 6480",
    "faults [152, 447] part 0 probes [c70 c70 c70 c70 c70 c71] healthy 718 time 66 events 6480",
    "faults [120, 149, 358, 461, 477] part 0 probes [c70 c69 c70 c69 c70 c66] healthy 715 time 66 events 6480",
    "error TooManyFaults { found: 6, bound: 5 }",
    "error TooManyFaults { found: 23, bound: 5 }",
    "faults [53, 120, 149, 465] part 0 probes [c70 c70 c70 c69 c70 c66] healthy 716 time 66 events 6480",
    "error TooManyFaults { found: 6, bound: 5 }",
    "faults [33, 120, 149] part 0 probes [c70 c70 c70 c69 c70 c66] healthy 717 time 66 events 6480",
];

#[test]
fn onset_runs_are_pinned() {
    let got = grid();
    assert_eq!(got.len(), PINNED.len());
    for (i, (got, want)) in got.iter().zip(PINNED).enumerate() {
        assert_eq!(got, want, "run {i}");
    }
}
