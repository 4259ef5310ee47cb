//! Executor coverage.
//!
//! 1. **Exactness across pool sizes** — on all 14 §5 families, the
//!    pooled backend on pools of 1/2/4/8 workers and the auto backend
//!    return a report identical to the sequential run's: every field of
//!    the diagnosis (`probes` and `lookups_used` included), the phase
//!    lookups and every growth round's frontier, acceptances and lookups.
//!    Once at the default cutovers and once with the frontier engine
//!    forced on (`cutovers.grow = 1`).
//! 2. **Panic propagation** — a syndrome source that panics inside a
//!    frontier-growth task unwinds out of the pooled diagnosis into the
//!    caller, and the pool stays usable afterwards.
//! 3. **Auto never regresses sub-cutover** — below the run's
//!    `Cutovers::sequential`, `BackendPolicy::Auto` routes to the
//!    identical sequential code path and labels itself so.

use mmdiag_core::session::{run_sequential, run_with};
use mmdiag_core::{
    diagnose, BackendPolicy, Diagnosis, DiagnosisError, DiagnosisReport, GrowRound, SessionOptions,
};
use mmdiag_exec::Pool;
use mmdiag_syndrome::{FaultSet, OracleSyndrome, SyndromeSource, TestResult, TesterBehavior};
use mmdiag_topology::families::{
    Arrangement, AugmentedCube, AugmentedKAryNCube, CrossedCube, EnhancedHypercube,
    FoldedHypercube, Hypercube, KAryNCube, NKStar, Pancake, ShuffleCube, StarGraph, TwistedCube,
    TwistedNCube,
};
use mmdiag_topology::{Cached, NodeId, Partitionable, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One run under `policy` with the given options, diagnosis only.
fn run<T, S>(
    g: &T,
    s: &S,
    policy: BackendPolicy<'_>,
    opts: &SessionOptions,
) -> Result<Diagnosis, DiagnosisError>
where
    T: Partitionable + Sync + ?Sized,
    S: SyndromeSource + Sync + ?Sized,
{
    run_with(g, s, policy, opts, None).map(|r| r.diagnosis)
}

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
/// (wall times and `parallel` flags differ by construction).
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

/// On every family at two fault loads and two behaviours, the sequential
/// run equals `diagnose`, and every pooled width and auto equal it.
fn assert_every_backend_identical(
    graphs: &[&(dyn Partitionable + Sync)],
    opts: &SessionOptions,
    seed: u64,
) -> usize {
    let pools: Vec<Pool> = [1usize, 2, 4, 8].into_iter().map(Pool::new).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut parallel_rounds = 0;
    for &g in graphs {
        let n = g.node_count();
        let bound = g.driver_fault_bound();
        for (trial, load) in [bound, bound / 2].into_iter().enumerate() {
            let faults = FaultSet::random(n, load, &mut rng);
            for behavior in [
                TesterBehavior::AllZero,
                TesterBehavior::Random { seed: trial as u64 },
            ] {
                let s = OracleSyndrome::new(faults.clone(), behavior);
                let legacy = diagnose(g, &s)
                    .unwrap_or_else(|e| panic!("{}: diagnose: {e} ({behavior:?})", g.name()));
                let seq = run_sequential(g, &s, opts).unwrap();
                assert_eq!(seq.diagnosis, legacy, "{}", g.name());
                let policies = pools
                    .iter()
                    .map(|p| (format!("pooled x{}", p.threads()), BackendPolicy::Pooled(p)))
                    .chain([("auto".to_string(), BackendPolicy::Auto)]);
                for (label, policy) in policies {
                    let ctx = format!("{} {label} {behavior:?} load {load}", g.name());
                    let report = run_with(g, &s, policy, opts, None)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_identical(&report, &seq, &ctx);
                    parallel_rounds += report
                        .telemetry
                        .grow_rounds
                        .iter()
                        .filter(|r| r.parallel)
                        .count();
                }
            }
        }
    }
    parallel_rounds
}

#[test]
fn pooled_diagnosis_is_bit_identical_across_1_2_4_8_workers() {
    let fams = families();
    let graphs: Vec<&(dyn Partitionable + Sync)> = fams.iter().map(|g| g.as_ref()).collect();
    assert_every_backend_identical(&graphs, &SessionOptions::default(), 0xE0EC_2026);
}

/// With the run's grow cutover at 1, every pooled run finishes its growth
/// on the frontier engine — and must still equal the sequential run in
/// every field, on every family at every pool width.
#[test]
fn frontier_growth_is_bit_identical_across_1_2_4_8_workers() {
    let mut opts = SessionOptions::default();
    opts.cutovers.grow = 1;
    let cached: Vec<Cached> = families().iter().map(|f| Cached::new(f.as_ref())).collect();
    assert!(cached.iter().all(|g| g.has_sorted_adjacency()));
    let graphs: Vec<&(dyn Partitionable + Sync)> = cached
        .iter()
        .map(|g| g as &(dyn Partitionable + Sync))
        .collect();
    let parallel_rounds = assert_every_backend_identical(&graphs, &opts, 0xF807_2026);
    assert!(parallel_rounds > 0, "some layers ran on the pool");
}

/// A syndrome that panics once a lookup threshold is crossed — the shape
/// of a poisoned data source mid-diagnosis.
struct PanickySyndrome {
    inner: OracleSyndrome,
    fuse: u64,
}

impl SyndromeSource for PanickySyndrome {
    fn lookup(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
        if self.inner.lookups() >= self.fuse {
            panic!("syndrome source poisoned after {} lookups", self.fuse);
        }
        self.inner.lookup(u, v, w)
    }
    fn lookups(&self) -> u64 {
        self.inner.lookups()
    }
}

#[test]
fn syndrome_panic_unwinds_out_of_pooled_diagnosis() {
    let g = Cached::new(&Hypercube::new(7));
    let pool = Pool::new(4);
    let mut opts = SessionOptions::default();
    opts.cutovers.grow = 1;
    let fresh = || OracleSyndrome::new(FaultSet::empty(128), TesterBehavior::AllZero);
    // The fuse sits at the first lookup of the first layer the frontier
    // engine grows: past the probe phase and the calling thread's layers.
    let reference = run_with(&g, &fresh(), BackendPolicy::Pooled(&pool), &opts, None).unwrap();
    let t = &reference.telemetry;
    let first_parallel = t.grow_rounds.iter().position(|r| r.parallel).unwrap();
    assert!(t.grow_rounds[first_parallel].lookups > 0);
    let fuse = t.probe_lookups
        + t.grow_rounds[..first_parallel]
            .iter()
            .map(|r| r.lookups)
            .sum::<u64>();
    assert!(fuse > t.probe_lookups, "the fuse is past the probe phase");
    let s = PanickySyndrome {
        inner: fresh(),
        fuse,
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = run(&g, &s, BackendPolicy::Pooled(&pool), &opts);
    }));
    assert!(
        result.is_err(),
        "the frontier-growth task panic must reach the caller"
    );
    // The pool survives: a healthy diagnosis still grows on it.
    let ok = OracleSyndrome::new(FaultSet::new(128, &[9]), TesterBehavior::AllZero);
    let report = run_with(&g, &ok, BackendPolicy::Pooled(&pool), &opts, None).unwrap();
    assert_eq!(report.diagnosis.faults, vec![9]);
    assert!(report.telemetry.grow_rounds.iter().any(|r| r.parallel));
}

#[test]
fn auto_never_regresses_vs_sequential_below_cutover() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA070_2026);
    let opts = SessionOptions::default();
    for g in families() {
        let g = g.as_ref();
        let n = g.node_count();
        let faults = FaultSet::random(n, g.driver_fault_bound(), &mut rng);
        let s = OracleSyndrome::new(faults, TesterBehavior::Random { seed: 7 });
        let seq = diagnose(g, &s).unwrap();
        s.reset_lookups();
        let report = run_with(g, &s, BackendPolicy::Auto, &opts, None).unwrap();
        let expected = if n >= opts.cutovers.sequential {
            "pooled"
        } else {
            "sequential"
        };
        assert_eq!(report.backend, expected, "{}", g.name());
        let auto = report.diagnosis;
        // The same scan on either side of the cutover: identical result,
        // accounting included.
        assert_eq!(auto.faults, seq.faults, "{}", g.name());
        assert_eq!(auto.certified_part, seq.certified_part, "{}", g.name());
        assert_eq!(auto.probes, seq.probes, "{}", g.name());
        assert_eq!(auto.lookups_used, seq.lookups_used, "{}", g.name());
        assert_eq!(auto.healthy_count, seq.healthy_count, "{}", g.name());
        assert_eq!(auto.tree.edges(), seq.tree.edges(), "{}", g.name());
    }
}
