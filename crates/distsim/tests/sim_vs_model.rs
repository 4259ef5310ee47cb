//! Property tests for the event-level simulator (ISSUE 2, satellite 3).
//!
//! 1. Under unit latencies and static faults, the simulator's observed
//!    (rounds, messages) equal the closed-form `plan` cost model and its
//!    diagnosis is bit-identical to `mmdiag_core::diagnose` — across all
//!    14 families and both adversarial tester behaviours (`AllZero`, which
//!    inflates fake healthy trees, and seeded `Random`).
//! 2. Latency skew changes virtual time but never a static diagnosis.
//! 3. Mid-protocol fault injection is visible to exactly the tests that
//!    complete after the onset.
//!
//! Set `MMDIAG_QUICK=1` to run a reduced sweep (CI smoke mode) — the same
//! env var the `mmdiag-bench` harness honours as its `--quick` flag, so
//! one knob shrinks every sweep in the workspace.

use mmdiag_core::diagnose;
use mmdiag_distsim::{plan, simulate, FaultTimeline, LatencyModel};
use mmdiag_syndrome::{FaultSet, OracleSyndrome, TesterBehavior};
use mmdiag_topology::families::{
    Arrangement, AugmentedCube, AugmentedKAryNCube, CrossedCube, EnhancedHypercube,
    FoldedHypercube, Hypercube, KAryNCube, NKStar, Pancake, ShuffleCube, StarGraph, TwistedCube,
    TwistedNCube,
};
use mmdiag_topology::{Partitionable, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn families() -> Vec<Box<dyn Partitionable>> {
    vec![
        Box::new(Hypercube::new(7)),
        Box::new(CrossedCube::new(7)),
        Box::new(TwistedCube::new(7)),
        Box::new(TwistedNCube::new(7)),
        Box::new(FoldedHypercube::new(8)),
        Box::new(EnhancedHypercube::new(8, 3)),
        Box::new(AugmentedCube::new(10)),
        Box::new(ShuffleCube::new(10)),
        Box::new(KAryNCube::new(3, 6)),
        Box::new(AugmentedKAryNCube::new(4, 4)),
        Box::new(StarGraph::new(6)),
        Box::new(NKStar::new(6, 3)),
        Box::new(Pancake::new(6)),
        Box::new(Arrangement::new(6, 3)),
    ]
}

fn quick() -> bool {
    // The one MMDIAG_QUICK knob, parsed once for the whole workspace —
    // same semantics as mmdiag-bench's --quick handling.
    mmdiag_exec::knobs().quick
}

/// The tentpole property: simulator == cost model == centralised driver.
#[test]
fn unit_latency_static_faults_match_model_and_driver() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x00D1_5751);
    for g in families() {
        let g = g.as_ref();
        let n = g.node_count();
        let bound = g.driver_fault_bound();
        let model = plan(g);
        let loads: Vec<usize> = if quick() {
            let mut v = vec![0, bound];
            v.dedup();
            v
        } else {
            let mut v = vec![0, 1, bound / 2, bound];
            v.sort_unstable();
            v.dedup();
            v
        };
        for load in loads {
            let faults = FaultSet::random(n, load, &mut rng);
            for behavior in [
                TesterBehavior::AllZero,
                TesterBehavior::Random { seed: load as u64 },
            ] {
                let timeline = FaultTimeline::static_faults(faults.clone(), behavior);
                let report = simulate(g, &timeline, &LatencyModel::Unit)
                    .unwrap_or_else(|e| panic!("{}: sim failed: {e} ({behavior:?})", g.name()));

                // Observed trace == closed-form cost model, per part.
                report
                    .check_against_plan(&model)
                    .unwrap_or_else(|e| panic!("{}: {e} ({behavior:?})", g.name()));

                // Diagnosis == the centralised driver, field for field.
                let s = OracleSyndrome::new(faults.clone(), behavior);
                let drv = diagnose(g, &s)
                    .unwrap_or_else(|e| panic!("{}: driver failed: {e} ({behavior:?})", g.name()));
                assert_eq!(report.faults, drv.faults, "{} {behavior:?}", g.name());
                assert_eq!(
                    report.certified_part,
                    drv.certified_part,
                    "{} {behavior:?}",
                    g.name()
                );
                assert_eq!(
                    report.probes_until_certificate,
                    drv.probes,
                    "{} {behavior:?}",
                    g.name()
                );
                assert_eq!(
                    report.healthy_count,
                    drv.healthy_count,
                    "{} {behavior:?}",
                    g.name()
                );
                assert_eq!(report.faults, faults.members(), "{} {behavior:?}", g.name());

                // Unit latency: virtual time of the probe phase is its
                // depth plus the final replies.
                let max_completion = report.probes.iter().map(|p| p.completion).max().unwrap();
                assert_eq!(
                    max_completion,
                    (model.probe_rounds_concurrent + 1) as u64,
                    "{}: unit-latency completion must be rounds + 1",
                    g.name()
                );
            }
        }
    }
}

/// The simulator is a pure function of its inputs.
#[test]
fn simulation_is_deterministic() {
    let g = Pancake::new(6);
    let faults = FaultSet::new(g.node_count(), &[3, 99, 500]);
    let timeline = FaultTimeline::static_faults(faults, TesterBehavior::Random { seed: 5 });
    let skew = LatencyModel::SeededRandom {
        seed: 11,
        min: 1,
        max: 9,
    };
    let a = simulate(&g, &timeline, &skew).unwrap();
    let b = simulate(&g, &timeline, &skew).unwrap();
    assert_eq!(a, b);
}

/// Latency skew stretches virtual time and can deepen first-contact paths,
/// but a static diagnosis never changes.
#[test]
fn latency_skew_changes_time_not_diagnosis() {
    let g = Hypercube::new(7);
    let n = g.node_count();
    let mut rng = ChaCha8Rng::seed_from_u64(0x0005_CE11);
    for trial in 0..3u64 {
        let faults = FaultSet::random(n, (trial as usize * 3) % 8, &mut rng);
        for behavior in [
            TesterBehavior::AllZero,
            TesterBehavior::Random { seed: trial },
        ] {
            let timeline = FaultTimeline::static_faults(faults.clone(), behavior);
            let unit = simulate(&g, &timeline, &LatencyModel::Unit).unwrap();
            for skew in [
                LatencyModel::Uniform(4),
                // Dimension 0 fast, high dimensions an order of magnitude slower.
                LatencyModel::PerDimension(vec![1, 2, 4, 8, 16]),
                LatencyModel::SeededRandom {
                    seed: trial,
                    min: 1,
                    max: 12,
                },
            ] {
                let skewed = simulate(&g, &timeline, &skew).unwrap();
                assert_eq!(skewed.faults, unit.faults, "{skew:?}");
                assert_eq!(skewed.certified_part, unit.certified_part, "{skew:?}");
                assert_eq!(skewed.healthy_count, unit.healthy_count, "{skew:?}");
                assert!(
                    skewed.total_time > unit.total_time,
                    "{skew:?}: skewed time {} should exceed unit time {}",
                    skewed.total_time,
                    unit.total_time
                );
                // Message counts are a wave invariant: skew cannot change them.
                assert_eq!(
                    skewed.probes.iter().map(|p| p.messages).sum::<usize>(),
                    unit.probes.iter().map(|p| p.messages).sum::<usize>(),
                    "{skew:?}"
                );
                assert_eq!(skewed.growth.messages, unit.growth.messages, "{skew:?}");
            }
        }
    }
}

/// Under per-dimension skew the first-contact tree follows the fast links:
/// observed wave depth can exceed what the synchronous cost model predicts
/// — the regime the cost sheet cannot express. On the folded hypercube,
/// making every node's link to its smallest neighbour (neighbour index 0)
/// slow forces first contact onto longer paths: depth 6 against 4.
#[test]
fn per_dimension_skew_deepens_the_wave() {
    let g = FoldedHypercube::new(8);
    let timeline =
        FaultTimeline::static_faults(FaultSet::empty(g.node_count()), TesterBehavior::Truthful);
    let unit = simulate(&g, &timeline, &LatencyModel::Unit).unwrap();
    // Neighbour index 0 slow, every other index unit.
    let skewed = simulate(&g, &timeline, &LatencyModel::PerDimension(vec![100, 1])).unwrap();
    assert!(
        skewed.growth.rounds > unit.growth.rounds,
        "slow links to the smallest neighbour should force deeper first-contact \
         paths: skewed depth {} vs unit depth {}",
        skewed.growth.rounds,
        unit.growth.rounds
    );
    assert_eq!(skewed.faults, unit.faults, "diagnosis must not change");
}

/// A fault whose onset lands between the probe phase and the growth phase
/// is caught: the probes certified a fault-free network, yet the diagnosis
/// reports the newly-faulty node.
#[test]
fn injection_between_probes_and_growth_is_caught() {
    let g = Hypercube::new(7);
    let n = g.node_count();
    let victim = 77;

    // Dry run to learn the phase boundary.
    let static_tl = FaultTimeline::static_faults(FaultSet::empty(n), TesterBehavior::Truthful);
    let dry = simulate(&g, &static_tl, &LatencyModel::Unit).unwrap();
    assert_eq!(dry.faults, Vec::<usize>::new());
    let onset = dry.growth.started + 1; // strictly after every probe exchange

    let timeline = FaultTimeline::with_onsets(
        FaultSet::empty(n),
        &[(onset, victim)],
        TesterBehavior::Truthful,
    );
    let report = simulate(&g, &timeline, &LatencyModel::Unit).unwrap();
    // Probes saw a fault-free network (certificates unchanged)…
    assert_eq!(report.certified_part, dry.certified_part);
    for (p, d) in report.probes.iter().zip(&dry.probes) {
        assert_eq!(p.certified, d.certified, "part {}", p.part);
    }
    // …but every growth test completed after the onset, so the diagnosis
    // reflects the injected fault.
    assert_eq!(report.faults, vec![victim]);
    assert_eq!(report.healthy_count, n - 1);
    assert_eq!(report.faults, timeline.final_faults().members());
}

/// A fault whose onset lands after the protocol finished is invisible —
/// the diagnosis is honestly stale.
#[test]
fn injection_after_completion_is_invisible() {
    let g = Hypercube::new(7);
    let n = g.node_count();
    let static_tl = FaultTimeline::static_faults(FaultSet::empty(n), TesterBehavior::Truthful);
    let dry = simulate(&g, &static_tl, &LatencyModel::Unit).unwrap();

    let timeline = FaultTimeline::with_onsets(
        FaultSet::empty(n),
        &[(dry.total_time + 1, 77)],
        TesterBehavior::Truthful,
    );
    let report = simulate(&g, &timeline, &LatencyModel::Unit).unwrap();
    assert_eq!(report.faults, Vec::<usize>::new(), "onset after completion");
    assert_eq!(timeline.final_faults().members(), &[77]);
}

/// An onset at time 0 is indistinguishable from a static base fault.
#[test]
fn onset_at_zero_equals_static_fault() {
    let g = StarGraph::new(6);
    let n = g.node_count();
    for behavior in [TesterBehavior::AllZero, TesterBehavior::Random { seed: 3 }] {
        let as_onset =
            FaultTimeline::with_onsets(FaultSet::empty(n), &[(0, 100), (0, 9)], behavior);
        let as_static = FaultTimeline::static_faults(FaultSet::new(n, &[9, 100]), behavior);
        let a = simulate(&g, &as_onset, &LatencyModel::Unit).unwrap();
        let b = simulate(&g, &as_static, &LatencyModel::Unit).unwrap();
        assert_eq!(a.faults, b.faults, "{behavior:?}");
        assert_eq!(a.faults, vec![9, 100], "{behavior:?}");
        assert_eq!(a.certified_part, b.certified_part, "{behavior:?}");
    }
}
