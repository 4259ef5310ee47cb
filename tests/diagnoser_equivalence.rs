//! What the [`Diagnoser`] front door promises, on every one of the
//! fourteen §5 families, on fault loads at the bound and below it under
//! two tester behaviours:
//!
//! * **Sequential** — the default session is bit-identical to the entry
//!   points left beside the front door (`diagnose` and the core session
//!   runs `run_sequential` / `run_with`): faults, certified part, probes,
//!   healthy count, spanning tree and the exact lookup count. So is
//!   `.unchecked_bound(b)` at the family bound.
//! * **Pooled / auto sessions** — a single run takes no policy, so a
//!   `.pooled()` or `.auto()` session's run is the same run on the
//!   calling thread: bit-identical to `diagnose`, accounting included,
//!   and labelled `"sequential"`.
//! * **Batch** — `.submit_batch(Source jobs)` equals the same jobs run one
//!   at a time, in order, accounting included, under both policies, and
//!   each job reads `"pooled"` exactly when it ran on a pool worker.
//! * **Representation** — implicit and cached sessions agree bit for bit.
//!
//! Plus the certificate contract: the report's certificate sits at the
//! diagnosis's certified part, its restricted tree is rooted at that
//! part's representative, validates, and certifies (> bound distinct
//! contributors).

use mmdiag::diagnosis::session::{run_sequential, run_with};
use mmdiag::diagnosis::{diagnose, Diagnosis, DiagnosisReport, SessionOptions};
use mmdiag::syndrome::{FaultSet, OracleSyndrome, SyndromeSource, TesterBehavior};
use mmdiag::topology::families::{
    Arrangement, AugmentedCube, AugmentedKAryNCube, CrossedCube, EnhancedHypercube,
    FoldedHypercube, Hypercube, KAryNCube, NKStar, Pancake, ShuffleCube, StarGraph, TwistedCube,
    TwistedNCube,
};
use mmdiag::topology::{NodeId, Partitionable};
use mmdiag::{BatchJob, Diagnoser};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn families() -> Vec<Box<dyn Partitionable + Sync>> {
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

/// Exact equality on every field, accounting included.
fn assert_bit_identical(report: &DiagnosisReport, legacy: &Diagnosis, ctx: &str) {
    assert_eq!(report.diagnosis, *legacy, "{ctx}: diagnosis");
    // And the telemetry's lookup split accounts for the exact total.
    assert_eq!(
        report.telemetry.probe_lookups + report.telemetry.grow_lookups,
        legacy.lookups_used,
        "{ctx}: phase lookup split"
    );
}

/// The certificate rides the report and actually certifies.
fn assert_certificate_sound(report: &DiagnosisReport, g: &(dyn Partitionable + Sync), ctx: &str) {
    let cert = &report.certificate;
    assert_eq!(
        cert.part, report.diagnosis.certified_part,
        "{ctx}: cert part"
    );
    assert_eq!(
        cert.representative,
        g.representative(cert.part),
        "{ctx}: cert representative"
    );
    assert!(
        cert.contributors > g.driver_fault_bound(),
        "{ctx}: certificate must exceed the bound ({} <= {})",
        cert.contributors,
        g.driver_fault_bound()
    );
    assert_eq!(cert.tree.root(), cert.representative, "{ctx}: cert root");
    cert.tree
        .validate()
        .unwrap_or_else(|e| panic!("{ctx}: certificate tree invalid: {e}"));
    // The restricted tree never leaves the certified part.
    assert!(
        cert.tree
            .edges()
            .iter()
            .all(|&(u, v)| g.part_of(u as NodeId) == cert.part
                && g.part_of(v as NodeId) == cert.part),
        "{ctx}: certificate tree crosses the part boundary"
    );
}

#[test]
fn diagnoser_is_bit_identical_to_every_legacy_entry_point_on_all_families() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0D1A_6005);
    let opts = SessionOptions::default();
    for g in families() {
        let g = g.as_ref();
        let n = g.node_count();
        let bound = g.driver_fault_bound();
        let session = Diagnoser::new(g);
        let pooled_session = Diagnoser::new(g).pooled();
        let auto_session = Diagnoser::new(g).auto();
        for (trial, load) in [bound, bound / 2].into_iter().enumerate() {
            let faults = FaultSet::random(n, load, &mut rng);
            for behavior in [
                TesterBehavior::AllZero,
                TesterBehavior::Random { seed: trial as u64 },
            ] {
                let s = OracleSyndrome::new(faults.clone(), behavior);
                let ctx = format!("{} {behavior:?} load {load}", g.name());

                // --- Sequential: the default builder vs `diagnose`.
                let legacy = diagnose(g, &s).unwrap();
                s.reset_lookups();
                let report = session.run(&s).unwrap();
                assert_bit_identical(&report, &legacy, &format!("{ctx} [sequential]"));
                assert_certificate_sound(&report, g, &ctx);
                assert_eq!(report.backend, "sequential", "{ctx}");

                // And vs the core session runs underneath it.
                for (label, core) in [
                    ("run_sequential", run_sequential(g, &s, &opts)),
                    ("run_with", run_with(g, &s, &opts, None)),
                ] {
                    let report = session.run(&s).unwrap();
                    let core = core.unwrap().diagnosis;
                    assert_bit_identical(&report, &core, &format!("{ctx} [{label}]"));
                }

                // --- Explicit bound, preconditions skipped.
                s.reset_lookups();
                let report = Diagnoser::new(g).unchecked_bound(bound).run(&s).unwrap();
                assert_bit_identical(&report, &legacy, &format!("{ctx} [unchecked]"));

                // --- Pooled and auto sessions: the same run on the
                // calling thread, on either side of the cutover.
                for (label, session) in [("pooled", &pooled_session), ("auto", &auto_session)] {
                    let report = session.run(&s).unwrap();
                    assert_bit_identical(&report, &legacy, &format!("{ctx} [{label}]"));
                    assert_certificate_sound(&report, g, &ctx);
                    assert_eq!(report.backend, "sequential", "{ctx} [{label}]");
                }
            }
        }
    }
}

#[test]
fn builder_default_equals_diagnose_exactly() {
    // The acceptance-criterion spelling: `Diagnoser::new(g).run(s)` ==
    // `diagnose(g, s)` on a fresh instance, every field.
    let g = Hypercube::new(8);
    let s = OracleSyndrome::new(
        FaultSet::new(256, &[17, 200, 255]),
        TesterBehavior::Random { seed: 2 },
    );
    let legacy = diagnose(&g, &s).unwrap();
    s.reset_lookups();
    let report = Diagnoser::new(&g).run(&s).unwrap();
    assert_bit_identical(&report, &legacy, "builder default");
}

#[test]
fn submit_batch_matches_one_by_one_runs_on_both_backends() {
    let g = Hypercube::new(7);
    let syndromes: Vec<OracleSyndrome> = (0..6)
        .map(|i| {
            OracleSyndrome::new(
                FaultSet::new(128, &[i, 2 * i + 40]),
                TesterBehavior::Random { seed: i as u64 },
            )
        })
        .collect();
    let one_by_one: Vec<Diagnosis> = syndromes
        .iter()
        .map(|s| {
            let d = diagnose(&g, s).unwrap();
            s.reset_lookups();
            d
        })
        .collect();
    let jobs: Vec<BatchJob> = syndromes
        .iter()
        .map(|s| BatchJob::Source(s as &(dyn SyndromeSource + Sync)))
        .collect();
    for (label, session) in [
        ("sequential", Diagnoser::new(&g)),
        ("pooled", Diagnoser::new(&g).pooled()),
    ] {
        let outcomes = session.submit_batch(&jobs);
        assert_eq!(outcomes.len(), one_by_one.len());
        for (i, (outcome, want)) in outcomes.iter().zip(&one_by_one).enumerate() {
            let report = outcome.as_ref().unwrap();
            // Batched scans are in-order under every policy: the
            // accounting must match too.
            assert_bit_identical(report, want, &format!("batch job {i} [{label}]"));
            // The test thread is no pool worker, so every pooled job ran
            // on one.
            assert_eq!(report.backend, label, "batch job {i}");
        }
        for s in &syndromes {
            s.reset_lookups();
        }
    }
}

#[test]
fn implicit_and_cached_sessions_agree_bit_for_bit() {
    // The one-front-door spelling of the scale contract.
    let fam = Hypercube::new(7);
    let cached = Diagnoser::cached(&fam);
    let implicit = Diagnoser::implicit(fam);
    let mut rng = ChaCha8Rng::seed_from_u64(0x1_5EED);
    let faults = FaultSet::random(128, 5, &mut rng);
    let s = OracleSyndrome::new(faults.clone(), TesterBehavior::Random { seed: 3 });
    let on_cached = cached.run(&s).unwrap();
    s.reset_lookups();
    let on_implicit = implicit.run(&s).unwrap();
    assert_bit_identical(&on_implicit, &on_cached.diagnosis, "implicit vs cached");
    assert_eq!(
        on_implicit.certificate.tree.edges(),
        on_cached.certificate.tree.edges()
    );
    // Streaming oracle through the same session.
    let streamed = implicit
        .run_streaming(faults.members(), TesterBehavior::Random { seed: 3 })
        .unwrap();
    assert_eq!(streamed.diagnosis.faults, on_cached.diagnosis.faults);
}
