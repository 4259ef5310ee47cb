//! Executor coverage. A single run always executes on the calling
//! thread; the pool's one job is `run_batch`'s fan-out of whole runs.
//!
//! 1. **Exactness across pool sizes** — on all 14 §5 families, a batch of
//!    four jobs (each with a source of its own) on pools of 1/2/4/8
//!    workers and under the auto policy returns, per job, a report
//!    identical to the sequential run's: every field of the diagnosis
//!    (`probes` and `lookups_used` included), the phase lookups and every
//!    growth round's frontier, acceptances and lookups. Each job reads
//!    `"pooled"` exactly when the batch fanned out, since the calling
//!    thread is no pool worker.
//! 2. **Panic propagation** — a syndrome source that panics during one
//!    job's growth unwinds out of the pooled batch into the caller, and
//!    the pool completes a healthy batch afterwards.

use mmdiag_core::session::{run_batch, run_sequential};
use mmdiag_core::{diagnose, BackendPolicy, DiagnosisReport, GrowRound, SessionOptions};
use mmdiag_exec::Pool;
use mmdiag_syndrome::{FaultSet, OracleSyndrome, SyndromeSource, TestResult, TesterBehavior};
use mmdiag_topology::families::{
    Arrangement, AugmentedCube, AugmentedKAryNCube, CrossedCube, EnhancedHypercube,
    FoldedHypercube, Hypercube, KAryNCube, NKStar, Pancake, ShuffleCube, StarGraph, TwistedCube,
    TwistedNCube,
};
use mmdiag_topology::{Cached, NodeId, Partitionable};
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

/// Every field of the diagnosis, the phase lookups and the round shapes
/// (wall times differ by construction).
fn assert_identical(got: &DiagnosisReport, want: &DiagnosisReport, ctx: &str) {
    assert_eq!(got.diagnosis, want.diagnosis, "{ctx}: diagnosis");
    let (t, u) = (&got.telemetry, &want.telemetry);
    assert_eq!(t.probe_lookups, u.probe_lookups, "{ctx}: probe lookups");
    assert_eq!(t.grow_lookups, u.grow_lookups, "{ctx}: grow lookups");
    assert_eq!(
        GrowRound::shapes(&t.grow_rounds),
        GrowRound::shapes(&u.grow_rounds),
        "{ctx}: rounds"
    );
}

/// On every family, four jobs at two fault loads and two behaviours: each
/// job's sequential run equals `diagnose`, and every pooled width and
/// auto return each job's sequential report from one batch.
#[test]
fn pooled_diagnosis_is_bit_identical_across_1_2_4_8_workers() {
    let pools: Vec<Pool> = [1usize, 2, 4, 8].into_iter().map(Pool::new).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0xE0EC_2026);
    let opts = SessionOptions::default();
    for g in families() {
        let g = g.as_ref();
        let n = g.node_count();
        let bound = g.driver_fault_bound();
        let mut jobs = Vec::new();
        for (trial, load) in [bound, bound / 2].into_iter().enumerate() {
            let faults = FaultSet::random(n, load, &mut rng);
            for behavior in [
                TesterBehavior::AllZero,
                TesterBehavior::Random { seed: trial as u64 },
            ] {
                jobs.push((faults.clone(), behavior));
            }
        }
        let sources = || -> Vec<OracleSyndrome> {
            jobs.iter()
                .map(|(f, b)| OracleSyndrome::new(f.clone(), *b))
                .collect()
        };
        let want: Vec<DiagnosisReport> = sources()
            .iter()
            .zip(&jobs)
            .map(|(s, (_, b))| {
                let legacy = diagnose(g, s)
                    .unwrap_or_else(|e| panic!("{}: diagnose: {e} ({b:?})", g.name()));
                s.reset_lookups();
                let seq = run_sequential(g, s, &opts).unwrap();
                assert_eq!(seq.diagnosis, legacy, "{}", g.name());
                seq
            })
            .collect();
        let policies = pools
            .iter()
            .map(|p| (format!("pooled x{}", p.threads()), BackendPolicy::Pooled(p)))
            .chain([("auto".to_string(), BackendPolicy::Auto)]);
        for (label, policy) in policies {
            let fans_out = policy.resolve(n).is_some();
            let backend = if fans_out { "pooled" } else { "sequential" };
            let reports = run_batch(g, &sources(), policy, &opts, None);
            assert_eq!(reports.len(), jobs.len());
            for (i, (report, want)) in reports.iter().zip(&want).enumerate() {
                let ctx = format!("{} {label} job {i} ({:?})", g.name(), jobs[i].1);
                let report = report.as_ref().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_identical(report, want, &ctx);
                assert_eq!(report.backend, backend, "{ctx}: label");
            }
        }
    }
}

/// A syndrome that panics on the first read once its count has crossed a
/// threshold — the shape of a poisoned data source mid-diagnosis.
struct PanickySyndrome {
    inner: OracleSyndrome,
    fuse: u64,
}

impl SyndromeSource for PanickySyndrome {
    fn read(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
        if self.inner.lookups() >= self.fuse {
            panic!("syndrome source poisoned after {} lookups", self.fuse);
        }
        self.inner.read(u, v, w)
    }
    fn count(&self, n: u64) {
        self.inner.count(n)
    }
    fn lookups(&self) -> u64 {
        self.inner.lookups()
    }
}

#[test]
fn syndrome_panic_unwinds_out_of_pooled_diagnosis() {
    let g = Cached::new(&Hypercube::new(7));
    let pool = Pool::new(4);
    let opts = SessionOptions::default();
    let oracle = |i: usize| OracleSyndrome::new(FaultSet::new(128, &[i]), TesterBehavior::AllZero);
    let healthy = |i: usize| PanickySyndrome {
        inner: oracle(i),
        fuse: u64::MAX,
    };
    // The fuse sits halfway through the growth of job 2: past its probe
    // phase, before its last growth lookup.
    let reference = run_sequential(&g, &oracle(2), &opts).unwrap();
    let t = &reference.telemetry;
    let fuse = t.probe_lookups + t.grow_lookups / 2;
    assert!(fuse > t.probe_lookups, "the fuse is past the probe phase");
    let jobs: Vec<PanickySyndrome> = (0..4)
        .map(|i| match i {
            2 => PanickySyndrome {
                inner: oracle(i),
                fuse,
            },
            _ => healthy(i),
        })
        .collect();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_batch(&g, &jobs, BackendPolicy::Pooled(&pool), &opts, None)
    }));
    assert!(result.is_err(), "the growth panic must reach the caller");
    assert!(jobs[2].lookups() >= fuse, "job 2 reached its fuse");
    // The pool survives: a healthy batch still runs on it.
    let jobs: Vec<PanickySyndrome> = (0..4).map(healthy).collect();
    let reports = run_batch(&g, &jobs, BackendPolicy::Pooled(&pool), &opts, None);
    for (i, report) in reports.into_iter().enumerate() {
        let report = report.unwrap();
        assert_eq!(report.diagnosis.faults, vec![i]);
        assert_eq!(report.backend, "pooled");
    }
}
