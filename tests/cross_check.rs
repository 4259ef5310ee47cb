//! Workspace-level cross-check property test.
//!
//! For every one of the fourteen §5 families:
//!
//! 1. **κ ≥ δ machine-verification** — the Theorem-1 hypothesis is checked
//!    two ways: the claimed connectivity of the diagnosed instance must
//!    cover its `driver_fault_bound`, and on a small probe instance of the
//!    same family the claimed connectivity is recomputed exactly with the
//!    Menger max-flow from `topology::algorithms`.
//! 2. **Six-way agreement** — random fault sets of size
//!    `≤ driver_fault_bound()` under every faulty-tester behaviour:
//!    `diagnose`, a pooled session on a dedicated 4-worker pool, a pooled
//!    session on the shared executor pool, the size-directed auto
//!    session, the naive baseline and the event-level distributed
//!    simulator (unit latencies, static timeline) must all return exactly
//!    the planted set — with the pooled/auto legs additionally
//!    bit-identical to the sequential driver (certified part, probes,
//!    healthy count, spanning tree, lookups); the simulator's observed
//!    (rounds, messages) must reproduce the `distsim::plan` cost model per
//!    part.

use mmdiag::baselines::diagnose_baseline;
use mmdiag::diagnosis::diagnose;
use mmdiag::distsim::{plan, simulate, FaultTimeline, LatencyModel};
use mmdiag::syndrome::{
    behavior_sweep, FaultSet, OnDemandOracle, OracleSyndrome, SyndromeSource, TesterBehavior,
};
use mmdiag::topology::algorithms::vertex_connectivity;
use mmdiag::topology::families::{
    Arrangement, AugmentedCube, AugmentedKAryNCube, CrossedCube, EnhancedHypercube,
    FoldedHypercube, Hypercube, KAryNCube, NKStar, Pancake, ShuffleCube, StarGraph, TwistedCube,
    TwistedNCube,
};
use mmdiag::topology::Cached;
use mmdiag::topology::{Partitionable, Topology};
use mmdiag::Diagnoser;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The two regimes only the event simulator can express: latency skew
/// (virtual time stretches, a static diagnosis never changes) and a fault
/// whose onset lands after the probe phase (every probe certified, yet the
/// growth-phase tests see the new fault and the diagnosis reports it).
#[test]
fn simulator_scenarios_latency_skew_and_mid_injection() {
    let g = Hypercube::new(7);
    let n = g.node_count();
    let faults = FaultSet::new(n, &[5, 40, 99]);
    let timeline = FaultTimeline::static_faults(faults.clone(), TesterBehavior::AllZero);
    let unit = simulate(&g, &timeline, &LatencyModel::Unit).unwrap();
    let skewed = simulate(
        &g,
        &timeline,
        &LatencyModel::SeededRandom {
            seed: 7,
            min: 1,
            max: 9,
        },
    )
    .unwrap();
    assert_eq!(skewed.faults, faults.members());
    assert_eq!(skewed.faults, unit.faults);
    assert!(
        skewed.total_time > unit.total_time,
        "skew must stretch time"
    );

    let victim = 77;
    let injected = FaultTimeline::with_onsets(
        faults.clone(),
        &[(unit.growth.started + 1, victim)],
        TesterBehavior::AllZero,
    );
    let report = simulate(&g, &injected, &LatencyModel::Unit).unwrap();
    assert_eq!(report.faults, injected.final_faults().members());
    assert!(report.faults.contains(&victim), "mid-protocol fault caught");
    assert_eq!(
        report.probes.iter().filter(|p| p.certified).count(),
        unit.probes.iter().filter(|p| p.certified).count(),
        "probes completed before the onset and certified identically"
    );
}

struct FamilyCase {
    /// The instance the algorithms diagnose (canonical constructor).
    main: Box<dyn Partitionable + Sync>,
    /// A small same-family instance whose claimed connectivity is recomputed
    /// exactly (Menger max-flow is only tractable on small graphs).
    kappa_probe: Box<dyn Topology>,
}

fn cases() -> Vec<FamilyCase> {
    vec![
        FamilyCase {
            main: Box::new(Hypercube::new(7)),
            kappa_probe: Box::new(Hypercube::with_partition_dim(5, 3)),
        },
        FamilyCase {
            main: Box::new(CrossedCube::new(7)),
            kappa_probe: Box::new(CrossedCube::with_partition_dim(5, 3)),
        },
        FamilyCase {
            main: Box::new(TwistedCube::new(7)),
            kappa_probe: Box::new(TwistedCube::with_partition_dim(5, 3)),
        },
        FamilyCase {
            main: Box::new(TwistedNCube::new(7)),
            kappa_probe: Box::new(TwistedNCube::with_partition_dim(5, 3)),
        },
        FamilyCase {
            main: Box::new(FoldedHypercube::new(8)),
            kappa_probe: Box::new(FoldedHypercube::with_partition_dim(5, 3)),
        },
        FamilyCase {
            main: Box::new(EnhancedHypercube::new(8, 3)),
            kappa_probe: Box::new(EnhancedHypercube::with_partition_dim(5, 4, 3)),
        },
        FamilyCase {
            main: Box::new(AugmentedCube::new(10)),
            kappa_probe: Box::new(AugmentedCube::with_partition_dim(5, 3)),
        },
        FamilyCase {
            main: Box::new(ShuffleCube::new(10)),
            kappa_probe: Box::new(ShuffleCube::with_partition_dim(6, 2)),
        },
        FamilyCase {
            main: Box::new(KAryNCube::new(3, 6)),
            kappa_probe: Box::new(KAryNCube::with_partition_dim(3, 3, 1)),
        },
        FamilyCase {
            main: Box::new(AugmentedKAryNCube::new(4, 4)),
            kappa_probe: Box::new(AugmentedKAryNCube::with_partition_dim(3, 3, 1)),
        },
        FamilyCase {
            main: Box::new(StarGraph::new(6)),
            kappa_probe: Box::new(StarGraph::new(5)),
        },
        FamilyCase {
            main: Box::new(NKStar::new(6, 3)),
            kappa_probe: Box::new(NKStar::new(5, 2)),
        },
        FamilyCase {
            main: Box::new(Pancake::new(6)),
            kappa_probe: Box::new(Pancake::new(5)),
        },
        FamilyCase {
            main: Box::new(Arrangement::new(6, 3)),
            kappa_probe: Box::new(Arrangement::new(5, 2)),
        },
    ]
}

/// One (materialised, family) pair per family at the cross-check sizes:
/// the family is the implicit view, served from its generator math.
fn representation_pairs() -> Vec<(Cached, Box<dyn Partitionable + Sync>)> {
    fn pair<T: Partitionable + Sync + 'static>(fam: T) -> (Cached, Box<dyn Partitionable + Sync>) {
        (Cached::new(&fam), Box::new(fam))
    }
    vec![
        pair(Hypercube::new(7)),
        pair(CrossedCube::new(7)),
        pair(TwistedCube::new(7)),
        pair(TwistedNCube::new(7)),
        pair(FoldedHypercube::new(8)),
        pair(EnhancedHypercube::new(8, 3)),
        pair(AugmentedCube::new(10)),
        pair(ShuffleCube::new(10)),
        pair(KAryNCube::new(3, 6)),
        pair(AugmentedKAryNCube::new(4, 4)),
        pair(StarGraph::new(6)),
        pair(NKStar::new(6, 3)),
        pair(Pancake::new(6)),
        pair(Arrangement::new(6, 3)),
    ]
}

/// The scale contract: a family served from its generator math must be
/// **bit-identical** to its materialised `Cached` copy — same fault set,
/// same certified part, same probe count, same healthy set, same spanning
/// tree, and (because both emit neighbours ascending, hence the same
/// lookup sequence) the same lookup accounting.
/// Additionally the `O(|F|)`-state streaming oracle must be
/// interchangeable with the bitmap oracle on both representations.
#[test]
fn implicit_and_cached_diagnoses_are_bit_identical_on_every_family() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1111_5EED);
    for (cached, family) in representation_pairs() {
        let g = family.as_ref();
        let n = g.node_count();
        let bound = g.driver_fault_bound();
        for trial in 0..2u64 {
            let size = if trial == 0 {
                bound
            } else {
                rng.gen_below(bound as u64 + 1) as usize
            };
            let faults = FaultSet::random(n, size, &mut rng);
            for b in [
                TesterBehavior::AllZero,
                TesterBehavior::Random { seed: trial },
            ] {
                let dense = OracleSyndrome::new(faults.clone(), b);
                let on_cached = diagnose(&cached, &dense)
                    .unwrap_or_else(|e| panic!("{}: cached: {e} ({b:?})", g.name()));
                dense.reset_lookups();
                let on_family = diagnose(&g, &dense)
                    .unwrap_or_else(|e| panic!("{}: family: {e} ({b:?})", g.name()));
                assert_eq!(on_family.faults, faults.members(), "{} {b:?}", g.name());
                assert_eq!(on_family.faults, on_cached.faults, "{} {b:?}", g.name());
                assert_eq!(
                    on_family.certified_part,
                    on_cached.certified_part,
                    "{} {b:?}",
                    g.name()
                );
                assert_eq!(on_family.probes, on_cached.probes, "{} {b:?}", g.name());
                assert_eq!(
                    on_family.healthy_count,
                    on_cached.healthy_count,
                    "{} {b:?}",
                    g.name()
                );
                assert_eq!(
                    on_family.tree.edges(),
                    on_cached.tree.edges(),
                    "{} {b:?}",
                    g.name()
                );
                assert_eq!(
                    on_family.lookups_used,
                    on_cached.lookups_used,
                    "{}: identical scan order implies identical lookups {b:?}",
                    g.name()
                );

                // Streaming oracle: same outcomes from O(|F|) state.
                let sparse = OnDemandOracle::new(n, faults.members(), b);
                let streamed = diagnose(&g, &sparse)
                    .unwrap_or_else(|e| panic!("{}: streaming: {e} ({b:?})", g.name()));
                assert_eq!(streamed.faults, on_family.faults, "{} {b:?}", g.name());
                assert_eq!(
                    streamed.tree.edges(),
                    on_family.tree.edges(),
                    "{} {b:?}",
                    g.name()
                );
                assert_eq!(
                    streamed.lookups_used,
                    on_family.lookups_used,
                    "{} {b:?}",
                    g.name()
                );
            }
        }
    }
}

/// The event simulator's static-timeline leg must accept a family served
/// from its generator math unchanged: same diagnosis, same certified part,
/// same cost trace as over the materialised view.
#[test]
fn simulator_accepts_implicit_topologies() {
    let family = Hypercube::new(7);
    let cached = Cached::new(&family);
    let faults = FaultSet::new(128, &[5, 40, 99]);
    let timeline = FaultTimeline::static_faults(faults.clone(), TesterBehavior::AllZero);
    let on_family = simulate(&family, &timeline, &LatencyModel::Unit).unwrap();
    let on_cached = simulate(&cached, &timeline, &LatencyModel::Unit).unwrap();
    assert_eq!(on_family.faults, faults.members());
    assert_eq!(on_family.faults, on_cached.faults);
    assert_eq!(on_family.certified_part, on_cached.certified_part);
    assert_eq!(on_family.total_time, on_cached.total_time);
    assert_eq!(on_family.events_delivered, on_cached.events_delivered);
    on_family
        .check_against_plan(&plan(&family))
        .expect("the family's cost trace matches the plan");
    // And the driver agrees with the simulated diagnosis.
    let s = OracleSyndrome::new(faults, TesterBehavior::AllZero);
    let drv = diagnose(&family, &s).unwrap();
    assert_eq!(on_family.faults, drv.faults);
    assert_eq!(on_family.probes_until_certificate, drv.probes);
}

/// A run is exact on both representations: on every family, `run_with`
/// over the cached copy and over the family itself equals `diagnose` in
/// every field of the diagnosis, `probes` and `lookups_used` included,
/// and equals the sequential run's phase lookups and every growth round's
/// frontier, acceptances and lookups. Batch policies are held to the same
/// reports by the batch matrix in `crates/core/tests/backend_families.rs`.
#[test]
fn every_backend_is_bit_identical_on_both_representations() {
    use mmdiag::diagnosis::session::{run_sequential, run_with};
    use mmdiag::diagnosis::{GrowRound, SessionOptions};

    let mut rng = ChaCha8Rng::seed_from_u64(0xF207_71E6);
    let opts = SessionOptions::default();
    for (cached, family) in representation_pairs() {
        let g = family.as_ref();
        let n = g.node_count();
        let bound = g.driver_fault_bound();
        let faults = FaultSet::random(n, bound, &mut rng);
        for b in [TesterBehavior::AllZero, TesterBehavior::Random { seed: 8 }] {
            let s = OracleSyndrome::new(faults.clone(), b);
            let drv = diagnose(&cached, &s)
                .unwrap_or_else(|e| panic!("{}: diagnose: {e} ({b:?})", g.name()));
            assert_eq!(drv.faults, faults.members(), "{} {b:?}", g.name());
            let seq = run_sequential(&cached, &s, &opts).unwrap();
            for (repr, run) in [
                ("cached", run_with(&cached, &s, &opts, None)),
                ("family", run_with(g, &s, &opts, None)),
            ] {
                let ctx = format!("{} {repr} {b:?}", g.name());
                let run = run.unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let d = &run.diagnosis;
                assert_eq!(*d, drv, "{ctx}");
                assert_eq!(
                    run.telemetry.probe_lookups, seq.telemetry.probe_lookups,
                    "{ctx}"
                );
                assert_eq!(
                    run.telemetry.grow_lookups, seq.telemetry.grow_lookups,
                    "{ctx}"
                );
                assert_eq!(
                    GrowRound::shapes(&run.telemetry.grow_rounds),
                    GrowRound::shapes(&seq.telemetry.grow_rounds),
                    "{ctx}: growth rounds"
                );
                assert_eq!(
                    run.telemetry
                        .grow_rounds
                        .iter()
                        .map(|r| r.accepted)
                        .sum::<usize>()
                        + 1,
                    d.healthy_count,
                    "{ctx}: accepted-per-round sums to |U_r|"
                );
            }
        }
    }
}

#[test]
fn kappa_at_least_delta_machine_verified() {
    for case in cases() {
        let g = case.main.as_ref();
        // Claim-level Theorem-1 hypothesis on the diagnosed instance.
        assert!(
            g.connectivity() >= g.driver_fault_bound(),
            "{}: claimed κ = {} below the driver fault bound {}",
            g.name(),
            g.connectivity(),
            g.driver_fault_bound()
        );
        // Exact Menger verification of the claim on the small probe.
        let probe = case.kappa_probe.as_ref();
        let measured = vertex_connectivity(probe);
        assert_eq!(
            measured,
            probe.connectivity(),
            "{}: measured κ = {measured}, claimed {}",
            probe.name(),
            probe.connectivity()
        );
    }
}

#[test]
fn driver_parallel_pooled_auto_baseline_and_simulator_agree_on_every_family() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_2026);
    let four_workers = mmdiag::exec::Pool::new(4);
    for case in cases() {
        let g = case.main.as_ref();
        g.check_partition_preconditions()
            .unwrap_or_else(|e| panic!("{e}"));
        let model = plan(g);
        let n = g.node_count();
        let bound = g.driver_fault_bound();
        for trial in 0..2u64 {
            // One fault load pinned to the bound, one drawn below it.
            let size = if trial == 0 {
                bound
            } else {
                rng.gen_below(bound as u64 + 1) as usize
            };
            let faults = FaultSet::random(n, size, &mut rng);
            // The full behaviour sweep is quadratic-ish in table size for
            // the baseline; restrict the largest instances to the two most
            // adversarial behaviours to keep debug-mode runtime sane.
            let behaviors: Vec<TesterBehavior> = if n <= 512 {
                behavior_sweep(trial).to_vec()
            } else {
                vec![
                    TesterBehavior::AllZero,
                    TesterBehavior::Random { seed: trial },
                ]
            };
            for b in behaviors {
                let s = OracleSyndrome::new(faults.clone(), b);
                let drv =
                    diagnose(g, &s).unwrap_or_else(|e| panic!("{}: driver: {e} ({b:?})", g.name()));
                assert_eq!(drv.faults, faults.members(), "{} driver {b:?}", g.name());

                // Executor backends: a dedicated 4-worker pool, the shared
                // pool and size-directed auto must be bit-identical to the
                // sequential driver, accounting included.
                for (label, session) in [
                    ("parallel", Diagnoser::new(g).pooled_on(&four_workers)),
                    ("pooled", Diagnoser::new(g).pooled()),
                    ("auto", Diagnoser::new(g).auto()),
                ] {
                    let d = session
                        .run(&s)
                        .unwrap_or_else(|e| panic!("{}: {label}: {e} ({b:?})", g.name()))
                        .diagnosis;
                    assert_eq!(d.faults, drv.faults, "{} {label} {b:?}", g.name());
                    assert_eq!(
                        d.certified_part,
                        drv.certified_part,
                        "{} {label} part {b:?}",
                        g.name()
                    );
                    assert_eq!(
                        d.healthy_count,
                        drv.healthy_count,
                        "{} {label} healthy count {b:?}",
                        g.name()
                    );
                    assert_eq!(
                        d.tree.edges(),
                        drv.tree.edges(),
                        "{} {label} spanning tree {b:?}",
                        g.name()
                    );
                    assert_eq!(d.probes, drv.probes, "{} {label} probes {b:?}", g.name());
                    assert_eq!(
                        d.lookups_used,
                        drv.lookups_used,
                        "{} {label} lookups {b:?}",
                        g.name()
                    );
                }

                let base = diagnose_baseline(g, &s)
                    .unwrap_or_else(|e| panic!("{}: baseline: {e} ({b:?})", g.name()));
                assert_eq!(base.faults, drv.faults, "{} baseline {b:?}", g.name());

                // The one front door: a verified session run must agree
                // with the driver bit for bit *and* carry an agreeing
                // sampled verdict (the front door's full promise is
                // tests/diagnoser_equivalence.rs's job).
                let report = Diagnoser::new(g)
                    .verify_sampled(2, trial)
                    .run(&s)
                    .unwrap_or_else(|e| panic!("{}: session: {e} ({b:?})", g.name()));
                assert_eq!(
                    report.diagnosis.faults,
                    drv.faults,
                    "{} session {b:?}",
                    g.name()
                );
                assert_eq!(
                    report.diagnosis.certified_part,
                    drv.certified_part,
                    "{} session part {b:?}",
                    g.name()
                );
                assert!(
                    report.verification.agreed_or_unverified(),
                    "{} session verification {b:?}: {:?}",
                    g.name(),
                    report.verification
                );

                // The event-level simulator through the session's
                // simulation call: it runs the same core driver over the
                // results its messages carried, so this leg checks its
                // grading, part selection and sweep plumbing. Static
                // timeline + unit latencies must be bit-identical to the
                // driver and reproduce the cost model's trace exactly.
                let timeline = FaultTimeline::static_faults(faults.clone(), b);
                let sim = Diagnoser::new(g)
                    .simulate(&timeline, &LatencyModel::Unit)
                    .unwrap_or_else(|e| panic!("{}: simulator: {e} ({b:?})", g.name()));
                assert_eq!(sim.faults, drv.faults, "{} simulator {b:?}", g.name());
                assert_eq!(
                    sim.certified_part,
                    drv.certified_part,
                    "{} simulator must certify the same part {b:?}",
                    g.name()
                );
                assert_eq!(
                    sim.probes_until_certificate,
                    drv.probes,
                    "{} simulator probe count {b:?}",
                    g.name()
                );
                sim.check_against_plan(&model)
                    .unwrap_or_else(|e| panic!("{}: sim vs cost model: {e} ({b:?})", g.name()));

                // §6's economy claim, instance-level: the driver must beat
                // the full table the baseline paid for.
                assert!(
                    drv.lookups_used < base.lookups_used,
                    "{}: driver used {} lookups vs table {}",
                    g.name(),
                    drv.lookups_used,
                    base.lookups_used
                );
            }
        }
    }
}

/// The online-monitoring contract across every family: replay a Poisson
/// fault timeline through `Diagnoser::monitor()` and assert that each
/// epoch's incremental labelling is **bit-identical** to a from-scratch
/// `diagnose` on the same instantaneous fault set, under both the
/// all-zero and the seeded-random faulty-tester behaviours — while the
/// sweep as a whole actually exercises the cache (some epoch on some
/// family must reuse probes and come in strictly under from-scratch).
#[test]
fn online_monitor_epochs_are_bit_identical_to_from_scratch_on_every_family() {
    use mmdiag::distsim::EpochTimeline;
    let mut reused_somewhere = 0usize;
    let mut cheaper_somewhere = 0usize;
    for (fi, case) in cases().iter().enumerate() {
        let g = case.main.as_ref();
        let n = g.node_count();
        let bound = g.driver_fault_bound();
        for b in [
            TesterBehavior::AllZero,
            TesterBehavior::Random {
                seed: 0xE0 + fi as u64,
            },
        ] {
            let timeline = EpochTimeline::poisson(n, 8, 0.9, 0.5, bound, 0xA1 ^ fi as u64, b);
            let session = Diagnoser::new(g);
            let mut monitor = session
                .monitor()
                .unwrap_or_else(|e| panic!("{}: monitor(): {e}", g.name()));
            for e in 0..timeline.epoch_count() {
                let faults = timeline.faults_at(e);
                let s = OracleSyndrome::new(faults.clone(), b);
                let report = monitor
                    .ingest(&s, &timeline.delta_at(e))
                    .unwrap_or_else(|err| panic!("{} epoch {e}: {err} ({b:?})", g.name()));
                let want = diagnose(g, &OracleSyndrome::new(faults.clone(), b))
                    .unwrap_or_else(|err| panic!("{} epoch {e} scratch: {err} ({b:?})", g.name()));
                assert_eq!(
                    report.diagnosis.faults,
                    want.faults,
                    "{} epoch {e} {b:?}",
                    g.name()
                );
                assert_eq!(
                    report.diagnosis.certified_part,
                    want.certified_part,
                    "{} epoch {e} part {b:?}",
                    g.name()
                );
                assert_eq!(
                    report.diagnosis.probes,
                    want.probes,
                    "{} epoch {e} probes {b:?}",
                    g.name()
                );
                assert_eq!(
                    report.diagnosis.healthy_count,
                    want.healthy_count,
                    "{} epoch {e} healthy {b:?}",
                    g.name()
                );
                assert_eq!(
                    report.diagnosis.tree.edges(),
                    want.tree.edges(),
                    "{} epoch {e} tree {b:?}",
                    g.name()
                );
                if report.parts_reused > 0 {
                    reused_somewhere += 1;
                    if report.escalation.is_none() && !report.quiescent {
                        assert!(
                            report.lookups < want.lookups_used,
                            "{} epoch {e} {b:?}: cache-served epoch not cheaper",
                            g.name()
                        );
                        cheaper_somewhere += 1;
                    }
                }
            }
        }
    }
    assert!(reused_somewhere > 0, "the sweep never exercised the cache");
    assert!(cheaper_somewhere > 0, "no epoch beat from-scratch");
}
