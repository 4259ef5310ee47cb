//! Executor coverage (ISSUE 3, satellite 3).
//!
//! 1. **Determinism across pool sizes** — on all 14 §5 families, the
//!    pooled backend run on pools of 1/2/4/8 workers returns a diagnosis
//!    bit-identical to the sequential driver's: same faults, certified
//!    part, healthy set size and spanning tree. (The accounting fields
//!    `probes`/`lookups_used` are scheduling-dependent by design and are
//!    checked only for the 1-worker pool, where the scan order is exactly
//!    sequential.)
//! 2. **Panic propagation** — a syndrome source that panics mid-probe
//!    unwinds out of the pooled diagnosis into the caller, and the pool
//!    stays usable afterwards.
//! 3. **Auto never regresses sub-cutover** — below the run's
//!    `Cutovers::sequential`, `BackendPolicy::Auto` routes to the
//!    identical sequential code path: every field of the result, including
//!    the accounting, equals `diagnose`'s.

use mmdiag_core::session::run_with;
use mmdiag_core::{diagnose, BackendPolicy, Diagnosis, DiagnosisError, SessionOptions};
use mmdiag_exec::Pool;
use mmdiag_syndrome::{FaultSet, OracleSyndrome, SyndromeSource, TestResult, TesterBehavior};
use mmdiag_topology::families::{
    Arrangement, AugmentedCube, AugmentedKAryNCube, CrossedCube, EnhancedHypercube,
    FoldedHypercube, Hypercube, KAryNCube, NKStar, Pancake, ShuffleCube, StarGraph, TwistedCube,
    TwistedNCube,
};
use mmdiag_topology::{NodeId, Partitionable};
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

#[test]
fn pooled_diagnosis_is_bit_identical_across_1_2_4_8_workers() {
    let pools: Vec<Pool> = [1usize, 2, 4, 8].into_iter().map(Pool::new).collect();
    let opts = SessionOptions::default();
    let mut rng = ChaCha8Rng::seed_from_u64(0xE0EC_2026);
    for g in families() {
        let g = g.as_ref();
        let n = g.node_count();
        let bound = g.driver_fault_bound();
        for (trial, load) in [bound, bound / 2].into_iter().enumerate() {
            let faults = FaultSet::random(n, load, &mut rng);
            for behavior in [
                TesterBehavior::AllZero,
                TesterBehavior::Random { seed: trial as u64 },
            ] {
                let s = OracleSyndrome::new(faults.clone(), behavior);
                let seq = diagnose(g, &s)
                    .unwrap_or_else(|e| panic!("{}: sequential: {e} ({behavior:?})", g.name()));
                for pool in &pools {
                    s.reset_lookups();
                    let par = run(g, &s, BackendPolicy::Pooled(pool), &opts).unwrap_or_else(|e| {
                        panic!(
                            "{}: pooled x{}: {e} ({behavior:?})",
                            g.name(),
                            pool.threads()
                        )
                    });
                    let ctx = format!("{} x{} {behavior:?}", g.name(), pool.threads());
                    assert_eq!(par.faults, seq.faults, "{ctx}");
                    assert_eq!(par.certified_part, seq.certified_part, "{ctx}");
                    assert_eq!(par.healthy_count, seq.healthy_count, "{ctx}");
                    assert_eq!(par.tree.root(), seq.tree.root(), "{ctx}");
                    assert_eq!(par.tree.edges(), seq.tree.edges(), "{ctx}");
                    if pool.threads() == 1 {
                        // One lane scans parts in the sequential order:
                        // even the accounting must agree.
                        assert_eq!(par.probes, seq.probes, "{ctx}");
                        assert_eq!(par.lookups_used, seq.lookups_used, "{ctx}");
                    }
                }
            }
        }
    }
}

/// With the run's grow cutover at 1, the pooled backend's
/// frontier-parallel growth sweep must be bit-identical to the sequential
/// driver on every family at every pool width — faults, certified part,
/// healthy set, spanning tree — and on the 1-worker pool (sequential probe
/// scan order) even the full lookup accounting.
#[test]
fn frontier_growth_is_bit_identical_across_1_2_4_8_workers() {
    use mmdiag_topology::{Cached, Topology};
    let mut opts = SessionOptions::default();
    opts.cutovers.grow = 1;
    let pools: Vec<Pool> = [1usize, 2, 4, 8].into_iter().map(Pool::new).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0xF807_2026);
    for fam in families() {
        let g = Cached::new(fam.as_ref());
        assert!(g.has_sorted_adjacency(), "{}", g.name());
        let n = g.node_count();
        let bound = g.driver_fault_bound();
        for (trial, load) in [bound, bound / 2].into_iter().enumerate() {
            let faults = FaultSet::random(n, load, &mut rng);
            for behavior in [
                TesterBehavior::AllZero,
                TesterBehavior::Random { seed: trial as u64 },
            ] {
                let s = OracleSyndrome::new(faults.clone(), behavior);
                let seq = diagnose(&g, &s)
                    .unwrap_or_else(|e| panic!("{}: sequential: {e} ({behavior:?})", g.name()));
                for pool in &pools {
                    s.reset_lookups();
                    let par = run(&g, &s, BackendPolicy::Pooled(pool), &opts).unwrap_or_else(|e| {
                        panic!(
                            "{}: frontier x{}: {e} ({behavior:?})",
                            g.name(),
                            pool.threads()
                        )
                    });
                    let ctx = format!("{} frontier x{} {behavior:?}", g.name(), pool.threads());
                    assert_eq!(par.faults, seq.faults, "{ctx}");
                    assert_eq!(par.certified_part, seq.certified_part, "{ctx}");
                    assert_eq!(par.healthy_count, seq.healthy_count, "{ctx}");
                    assert_eq!(par.tree.edges(), seq.tree.edges(), "{ctx}");
                    if pool.threads() == 1 {
                        assert_eq!(par.probes, seq.probes, "{ctx}");
                        assert_eq!(par.lookups_used, seq.lookups_used, "{ctx}");
                    }
                }
            }
        }
    }
}

/// A syndrome that panics once a lookup threshold is crossed — the shape
/// of a poisoned data source mid-probe.
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
    let g = Hypercube::new(7);
    let pool = Pool::new(4);
    let s = PanickySyndrome {
        inner: OracleSyndrome::new(FaultSet::empty(128), TesterBehavior::AllZero),
        fuse: 40,
    };
    let opts = SessionOptions::default();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = run(&g, &s, BackendPolicy::Pooled(&pool), &opts);
    }));
    assert!(
        result.is_err(),
        "the probe-task panic must reach the caller"
    );
    // The pool survives: a healthy diagnosis still completes on it.
    let ok = OracleSyndrome::new(FaultSet::new(128, &[9]), TesterBehavior::AllZero);
    let d = run(&g, &ok, BackendPolicy::Pooled(&pool), &opts).unwrap();
    assert_eq!(d.faults, vec![9]);
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
        if n >= opts.cutovers.sequential {
            // Above the cutover auto goes pooled; semantic equality for
            // these instances is already covered by the tests above.
            assert_eq!(report.backend, "pooled", "{}", g.name());
            continue;
        }
        assert_eq!(report.backend, "sequential", "{}", g.name());
        let auto = report.diagnosis;
        // Identical code path ⇒ identical result, accounting included: the
        // auto entry point cannot cost a sub-cutover instance anything.
        assert_eq!(auto.faults, seq.faults, "{}", g.name());
        assert_eq!(auto.certified_part, seq.certified_part, "{}", g.name());
        assert_eq!(auto.probes, seq.probes, "{}", g.name());
        assert_eq!(auto.lookups_used, seq.lookups_used, "{}", g.name());
        assert_eq!(auto.healthy_count, seq.healthy_count, "{}", g.name());
        assert_eq!(auto.tree.edges(), seq.tree.edges(), "{}", g.name());
    }
}
