//! The general fault-diagnosis driver (Theorem 1 + §5).
//!
//! Given a decomposable network (more parts than the fault bound, each part
//! connected and bigger than the bound), some part contains no fault.
//! Probing each part's representative with the restricted `Set_Builder`
//! finds a part whose tree certifies `all_healthy`; one unrestricted
//! `Set_Builder` from that seed then grows a healthy set `U_r`, and by
//! Theorem 1 the neighbour set `N(U_r)` is exactly the fault set.
//!
//! The paper's `Faults_in_Hypercubes` probes representatives until the
//! first certificate; we probe *all* parts in order if needed, which keeps
//! the total work `O(Δ·N)` (each probe is `O(Δ·|part|)` over disjoint
//! parts) and makes the driver robust to borderline part sizes.
//!
//! The canonical implementation lives in [`crate::session`]; [`diagnose`]
//! is the thin convenience wrapper that runs the sequential session with
//! default options and returns its [`Diagnosis`].

use crate::session::{run_sequential, SessionOptions};
use crate::tree::SpanningTree;
use mmdiag_syndrome::SyndromeSource;
use mmdiag_topology::{NodeId, Partitionable};

/// A successful diagnosis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnosis {
    /// The diagnosed fault set, ascending.
    pub faults: Vec<NodeId>,
    /// Which part's representative produced the all-healthy certificate.
    pub certified_part: usize,
    /// How many restricted probes ran before the certificate.
    pub probes: usize,
    /// `|U_r|` of the final unrestricted run.
    pub healthy_count: usize,
    /// The spanning tree of the healthy set (§6's by-product).
    pub tree: SpanningTree,
    /// Total syndrome entries consulted (probes + final run + sweep reads
    /// nothing extra — the sweep uses adjacency only).
    pub lookups_used: u64,
}

/// Why diagnosis could not complete — the in-process driver's and the
/// event-level simulator's (`mmdiag-distsim`) one error type.
///
/// Marked `#[non_exhaustive]`, so the session API can grow failure modes
/// without breaking downstream matches.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DiagnosisError {
    /// The decomposition does not satisfy §5's size requirements.
    Preconditions(String),
    /// No part produced an all-healthy certificate. Under the model
    /// assumptions (`|F| ≤` bound, valid decomposition) this cannot
    /// happen; seeing it means the syndrome violates the assumptions. In
    /// the event simulator a mid-protocol fault onset can also cause it,
    /// by contaminating the last certifiable parts.
    NoPartCertified,
    /// The certified healthy set's neighbourhood is larger than the fault
    /// bound — the syndrome is inconsistent with `|F| ≤` bound (in the
    /// event simulator, also possible when faults arrive mid-protocol).
    TooManyFaults {
        /// Number of all-faulty neighbours found.
        found: usize,
        /// The fault bound the driver ran with.
        bound: usize,
    },
}

impl std::fmt::Display for DiagnosisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiagnosisError::Preconditions(msg) => write!(f, "decomposition unusable: {msg}"),
            DiagnosisError::NoPartCertified => {
                write!(
                    f,
                    "no part certified all-healthy; syndrome violates the model"
                )
            }
            DiagnosisError::TooManyFaults { found, bound } => write!(
                f,
                "{found} all-faulty neighbours exceed the fault bound {bound}"
            ),
        }
    }
}

impl std::error::Error for DiagnosisError {}

/// Diagnose with the family's canonical decomposition and fault bound,
/// checking §5's preconditions first. A thin wrapper over the sequential
/// session run ([`crate::session::run_sequential`]).
pub fn diagnose<T, S>(g: &T, s: &S) -> Result<Diagnosis, DiagnosisError>
where
    T: Partitionable + ?Sized,
    S: SyndromeSource + ?Sized,
{
    run_sequential(g, s, &SessionOptions::default()).map(|r| r.diagnosis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdiag_syndrome::{behavior_sweep, FaultSet, OracleSyndrome, TesterBehavior};
    use mmdiag_topology::families::{Hypercube, KAryNCube, Pancake, StarGraph};
    use rand::SeedableRng;

    fn check_recovers<T: Partitionable>(g: &T, faults: &[usize], seed: u64) {
        let n = g.node_count();
        let fs = FaultSet::new(n, faults);
        for b in behavior_sweep(seed) {
            let s = OracleSyndrome::new(fs.clone(), b);
            let d = diagnose(g, &s).unwrap_or_else(|e| panic!("{}: {e} ({b:?})", g.name()));
            assert_eq!(d.faults, fs.members(), "{} {b:?}", g.name());
            assert_eq!(d.healthy_count, n - fs.len(), "{} {b:?}", g.name());
            d.tree.validate().unwrap();
        }
    }

    #[test]
    fn hypercube_q7_full_fault_bound() {
        let g = Hypercube::new(7);
        check_recovers(&g, &[0, 1, 3, 64, 100, 127, 77], 1);
    }

    #[test]
    fn hypercube_q7_no_faults() {
        let g = Hypercube::new(7);
        check_recovers(&g, &[], 2);
    }

    #[test]
    fn hypercube_q7_random_fault_sets() {
        let g = Hypercube::new(7);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        for trial in 0..10 {
            let f = FaultSet::random(128, trial % 8, &mut rng);
            check_recovers(&g, f.members(), trial as u64);
        }
    }

    #[test]
    fn kary_cube_recovers() {
        let g = KAryNCube::new(3, 6); // 729 nodes, δ = 12
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let f = FaultSet::random(729, 12, &mut rng);
        check_recovers(&g, f.members(), 3);
    }

    #[test]
    fn star_graph_recovers() {
        let g = StarGraph::new(6); // 720 nodes, δ = 5
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let f = FaultSet::random(720, 5, &mut rng);
        check_recovers(&g, f.members(), 4);
    }

    #[test]
    fn pancake_recovers() {
        let g = Pancake::new(6);
        let f = [0usize, 100, 200, 300, 719];
        check_recovers(&g, &f, 8);
    }

    #[test]
    fn faults_clustered_around_one_part() {
        // All faults inside a single part: the other parts certify easily.
        let g = Hypercube::new(7); // parts of size 8
        check_recovers(&g, &[0, 1, 2, 3, 4, 5, 6], 11);
    }

    #[test]
    fn representative_nodes_faulty() {
        // Faults planted exactly on the first representatives: the driver
        // must skip contaminated parts and still certify a later one.
        let g = Hypercube::new(7);
        let reps: Vec<usize> = (0..7).map(|p| g.representative(p)).collect();
        check_recovers(&g, &reps, 12);
    }

    #[test]
    fn preconditions_enforced() {
        use mmdiag_topology::families::NKStar;
        let g = NKStar::new(5, 2); // parts have exactly δ nodes
        let s = OracleSyndrome::new(FaultSet::empty(20), TesterBehavior::AllZero);
        match diagnose(&g, &s) {
            Err(DiagnosisError::Preconditions(_)) => {}
            other => panic!("expected precondition failure, got {other:?}"),
        }
    }

    #[test]
    fn too_many_faults_reported_or_wrong() {
        // Plant more faults than the bound. The driver may legitimately
        // fail (no certificate / too many faults) — what it must NOT do is
        // return silently wrong output claiming the model held; if it does
        // return, the syndrome was consistent with some ≤ δ set. With
        // AllOne testers and 30 faults in Q_7 every probe must fail.
        let g = Hypercube::new(7);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(123);
        let f = FaultSet::random(128, 30, &mut rng);
        let s = OracleSyndrome::new(f, TesterBehavior::AllOne);
        match diagnose(&g, &s) {
            Err(_) => {}
            Ok(d) => {
                // If it succeeded, the certificate logic found a genuinely
                // healthy region; its claimed faults must then exceed no
                // bound — contradiction, so reaching here is a bug.
                panic!("diagnosis succeeded with 30 > δ faults: {:?}", d.faults);
            }
        }
    }

    #[test]
    fn lookup_count_far_below_full_table() {
        let g = Hypercube::new(8);
        let fs = FaultSet::new(256, &[17, 200]);
        let s = OracleSyndrome::new(fs, TesterBehavior::Random { seed: 9 });
        let d = diagnose(&g, &s).unwrap();
        // Full table: 256 · C(8,2) = 7168 entries. The driver reads at
        // most the §6 bound per run; total across probes stays well below
        // the table size.
        assert!(
            d.lookups_used < 7168,
            "driver consulted {} entries, full table has 7168",
            d.lookups_used
        );
    }

    #[test]
    fn diagnosis_metadata_sensible() {
        let g = Hypercube::new(7);
        let fs = FaultSet::new(128, &[9]);
        let s = OracleSyndrome::new(fs, TesterBehavior::AllZero);
        let d = diagnose(&g, &s).unwrap();
        assert_eq!(d.faults, vec![9]);
        assert!(d.probes >= 1);
        assert!(d.certified_part < g.part_count());
        assert_eq!(d.healthy_count, 127);
        assert_eq!(d.tree.node_count(), 127);
    }
}
