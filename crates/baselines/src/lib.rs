//! # mmdiag-baselines
//!
//! Naive reference diagnosers the `O(Δ·N)` driver of [`mmdiag_core`] is
//! benchmarked — and cross-checked — against.
//!
//! The paper's §6 argument is that `Set_Builder` consults far fewer syndrome
//! entries than the whole table. To make that claim measurable, this crate
//! implements the obvious table-first algorithm a practitioner would write
//! without the paper:
//!
//! 1. **Snapshot the full syndrome** — materialise a
//!    [`mmdiag_syndrome::SyndromeTable`] by reading *every* entry
//!    `s_u(v, w)` through the shared [`SyndromeSource`] interface
//!    (`Σ_u C(deg u, 2)` lookups, `O(N·Δ²)`). This is the cost
//!    Chiang–Tan-style algorithms pay up front and the driver avoids.
//! 2. **Per-seed neighbourhood-consensus growth** — for each node `u0` in
//!    order, grow a candidate healthy cluster by following `Agree` results
//!    in the snapshot (the same health-propagation rule as `Set_Builder`,
//!    minus the partition machinery), and accept the first cluster whose
//!    spanning tree has more than `fault_bound` internal nodes — the §4.1
//!    certificate, whose soundness does not depend on how the seed was
//!    chosen. Worst case `O(N · Δ·N)` work on top of the snapshot.
//! 3. **Label by elimination** — a node neither in the cluster nor on its
//!    boundary is healthy when the boundary already holds `fault_bound`
//!    nodes (a node walled in by faults, as in `F = N(v)`).
//! 4. **Consensus post-check** — re-scan the full table and verify that
//!    every claimed-healthy tester's entries (the cluster's and the
//!    eliminated nodes') are exactly what the claimed fault set predicts
//!    under the MM model.
//!
//! Because step 2 reuses the certificate, a successful run returns exactly
//! the planted fault set whenever the driver would (same model assumptions:
//! `|F| ≤ fault_bound ≤ κ`), so [`diagnose_baseline`] is interchangeable
//! with [`mmdiag_core::diagnose`] — the cross-check suite in
//! `tests/cross_check.rs` (facade crate) holds them to that.
//!
//! [`mmdiag_core`]: ../mmdiag_core/index.html
//! [`mmdiag_core::diagnose`]: ../mmdiag_core/driver/fn.diagnose.html
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sampled;

pub use sampled::{sampled_check, SampledCheck};

use mmdiag_syndrome::{SyndromeSource, SyndromeTable};
use mmdiag_topology::{NodeId, Partitionable, Topology};

/// A successful baseline diagnosis.
#[derive(Clone, Debug)]
pub struct BaselineDiagnosis {
    /// The diagnosed fault set, ascending.
    pub faults: Vec<NodeId>,
    /// The seed whose cluster produced the certificate.
    pub certified_seed: NodeId,
    /// How many seeds were tried before the certificate (≥ 1).
    pub seeds_tried: usize,
    /// Size of the certified healthy cluster.
    pub healthy_count: usize,
    /// Syndrome entries consulted — always the full table size.
    pub lookups_used: u64,
}

/// Why the baseline could not complete. `#[non_exhaustive]` like
/// `mmdiag_core::DiagnosisError`, so new failure modes do not break
/// downstream matches.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BaselineError {
    /// No seed's cluster reached the internal-node certificate. Under the
    /// model assumptions (`|F| ≤ fault_bound ≤ κ`, `N` large enough for the
    /// certificate to be reachable) this cannot happen.
    NoSeedCertified,
    /// A certified cluster plus its boundary of fewer than `fault_bound`
    /// nodes failed to label every node — the health-propagation argument
    /// did not cover the graph, which violates the `κ ≥ δ` connectivity
    /// assumption. (A boundary of `fault_bound` nodes labels the rest
    /// healthy by elimination.)
    IncompleteLabeling {
        /// Nodes left neither claimed-healthy nor claimed-faulty.
        unlabeled: usize,
    },
    /// A certified cluster's diagnosis contradicts the snapshot — the
    /// syndrome violates the model assumptions.
    Inconsistent {
        /// The tester whose recorded result mismatched the prediction.
        tester: NodeId,
    },
    /// The certified cluster's neighbourhood exceeds the fault bound.
    TooManyFaults {
        /// Number of claimed-faulty nodes found.
        found: usize,
        /// The bound the run used.
        bound: usize,
    },
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::NoSeedCertified => {
                write!(f, "no seed produced a certified healthy cluster")
            }
            BaselineError::IncompleteLabeling { unlabeled } => {
                write!(
                    f,
                    "{unlabeled} nodes left unlabeled by every certified cluster"
                )
            }
            BaselineError::Inconsistent { tester } => {
                write!(f, "syndrome inconsistent with diagnosis at tester {tester}")
            }
            BaselineError::TooManyFaults { found, bound } => {
                write!(f, "{found} claimed faults exceed the bound {bound}")
            }
        }
    }
}

impl std::error::Error for BaselineError {}

/// Baseline diagnosis with the instance's canonical fault bound — the
/// drop-in counterpart of [`mmdiag_core::diagnose`].
///
/// The baseline never uses the decomposition; the [`Partitionable`] bound
/// exists only to read [`Partitionable::driver_fault_bound`] so both
/// algorithms solve the *same* problem instance.
///
/// [`mmdiag_core::diagnose`]: ../mmdiag_core/driver/fn.diagnose.html
pub fn diagnose_baseline<T, S>(g: &T, s: &S) -> Result<BaselineDiagnosis, BaselineError>
where
    T: Partitionable + ?Sized,
    S: SyndromeSource + ?Sized,
{
    diagnose_naive(g, s, g.driver_fault_bound())
}

/// Baseline diagnosis with an explicit fault bound.
///
/// Reads the entire syndrome up front, then tries every node in order as a
/// cluster seed until the §4.1 certificate fires; see the crate docs for the
/// full procedure and its cost.
pub fn diagnose_naive<T, S>(
    g: &T,
    s: &S,
    fault_bound: usize,
) -> Result<BaselineDiagnosis, BaselineError>
where
    T: Topology + ?Sized,
    S: SyndromeSource + ?Sized,
{
    let start_lookups = s.lookups();
    let snap = SyndromeTable::capture(g, s);
    let lookups_used = s.lookups().saturating_sub(start_lookups);
    let n = g.node_count();

    let mut in_cluster = vec![false; n];
    let mut parent = vec![0 as NodeId; n];
    let mut members: Vec<NodeId> = Vec::new();
    let mut deferred: Option<BaselineError> = None;
    for seed in 0..n {
        grow_cluster(&snap, seed, &mut in_cluster, &mut parent, &mut members);
        if certified(&parent, &members, fault_bound) {
            let faults = cluster_boundary(g, &in_cluster, &members);
            if faults.len() > fault_bound {
                return Err(BaselineError::TooManyFaults {
                    found: faults.len(),
                    bound: fault_bound,
                });
            }
            // The diagnosis must label every node and survive the
            // full-table consensus re-check; a certified cluster that fails
            // either is skipped in favour of a later seed, and the first
            // such failure is reported if no seed ever succeeds. The
            // certified-healthy cluster labels itself and its all-faulty
            // boundary. A boundary of `fault_bound` nodes is the whole
            // fault set, so any node left is healthy by elimination, and
            // its own tests are re-checked with the cluster's.
            let unlabeled = n - members.len() - faults.len();
            if unlabeled > 0 && faults.len() < fault_bound {
                deferred.get_or_insert(BaselineError::IncompleteLabeling { unlabeled });
                continue;
            }
            let eliminated =
                (0..n).filter(|&v| !in_cluster[v] && faults.binary_search(&v).is_err());
            let testers: Vec<NodeId> = members.iter().copied().chain(eliminated).collect();
            match consensus_check(&snap, n, &faults, &testers) {
                Ok(()) => {
                    return Ok(BaselineDiagnosis {
                        faults,
                        certified_seed: seed,
                        seeds_tried: seed + 1,
                        healthy_count: members.len(),
                        lookups_used,
                    })
                }
                Err(e) => {
                    deferred.get_or_insert(e);
                    continue;
                }
            }
        }
    }
    Err(deferred.unwrap_or(BaselineError::NoSeedCertified))
}

/// `s_u(v, w) == Agree`, answered from the snapshot.
#[inline]
fn agrees(snap: &SyndromeTable, u: NodeId, v: NodeId, w: NodeId) -> bool {
    snap.lookup(u, v, w).is_agree()
}

/// Grow the Agree-following cluster from `seed` using only the snapshot.
///
/// Level 1 adds every neighbour `v` of the seed with a witness pair
/// `s_seed(v, w) = Agree`; later levels add `v` adjacent to a member `u`
/// when `s_u(v, t(u)) = Agree` — the same propagation rule as
/// `Set_Builder`, so the same health-soundness argument applies.
fn grow_cluster(
    snap: &SyndromeTable,
    seed: NodeId,
    in_cluster: &mut [bool],
    parent: &mut [NodeId],
    members: &mut Vec<NodeId>,
) {
    for &m in members.iter() {
        in_cluster[m] = false;
    }
    members.clear();
    in_cluster[seed] = true;
    parent[seed] = seed;
    members.push(seed);

    let seed_nbrs = snap.neighbors_slice(seed);
    for (i, &v) in seed_nbrs.iter().enumerate() {
        let witnessed = seed_nbrs
            .iter()
            .enumerate()
            .any(|(j, &w)| j != i && agrees(snap, seed, v, w));
        if witnessed {
            in_cluster[v] = true;
            parent[v] = seed;
            members.push(v);
        }
    }

    let mut head = 1; // members[0] is the seed, already expanded.
    while head < members.len() {
        let u = members[head];
        head += 1;
        let tu = parent[u];
        for &v in snap.neighbors_slice(u) {
            if !in_cluster[v] && v != tu && agrees(snap, u, v, tu) {
                in_cluster[v] = true;
                parent[v] = u;
                members.push(v);
            }
        }
    }
}

/// The §4.1 certificate: strictly more distinct internal (parent) nodes than
/// the fault bound.
fn certified(parent: &[NodeId], members: &[NodeId], fault_bound: usize) -> bool {
    if members.len() <= 1 {
        return false;
    }
    let mut internals: Vec<NodeId> = members[1..].iter().map(|&v| parent[v]).collect();
    internals.sort_unstable();
    internals.dedup();
    internals.len() > fault_bound
}

/// `N(U) \ U` — the claimed fault set, ascending.
fn cluster_boundary<T: Topology + ?Sized>(
    g: &T,
    in_cluster: &[bool],
    members: &[NodeId],
) -> Vec<NodeId> {
    let mut flagged = vec![false; in_cluster.len()];
    let mut out = Vec::new();
    let mut buf = Vec::new();
    for &m in members {
        g.neighbors_into(m, &mut buf);
        for &v in &buf {
            if !in_cluster[v] && !flagged[v] {
                flagged[v] = true;
                out.push(v);
            }
        }
    }
    out.sort_unstable();
    out
}

/// Verify the diagnosis against the whole snapshot: every claimed-healthy
/// tester's entries must be exactly what MM semantics predict for the
/// claimed fault set.
fn consensus_check(
    snap: &SyndromeTable,
    n: usize,
    faults: &[NodeId],
    members: &[NodeId],
) -> Result<(), BaselineError> {
    let mut faulty = vec![false; n];
    for &f in faults {
        faulty[f] = true;
    }
    for &u in members {
        let neigh = snap.neighbors_slice(u);
        for i in 0..neigh.len() {
            for j in (i + 1)..neigh.len() {
                let predicted_agree = !faulty[neigh[i]] && !faulty[neigh[j]];
                if agrees(snap, u, neigh[i], neigh[j]) != predicted_agree {
                    return Err(BaselineError::Inconsistent { tester: u });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdiag_core::diagnose;
    use mmdiag_syndrome::{behavior_sweep, FaultSet, OracleSyndrome, TesterBehavior};
    use mmdiag_topology::families::{Hypercube, KAryNCube, StarGraph};
    use rand::SeedableRng;

    #[test]
    fn snapshot_counts_the_whole_table() {
        let g = Hypercube::new(7);
        let s = OracleSyndrome::new(FaultSet::empty(128), TesterBehavior::AllZero);
        let snap = SyndromeTable::capture(&g, &s);
        // 128 testers × C(7,2) pairs.
        assert_eq!(snap.entry_count(), 128 * 21);
        assert_eq!(s.lookups(), 128 * 21);
    }

    #[test]
    fn recovers_planted_faults_across_behaviors() {
        let g = Hypercube::new(7);
        let faults = [3usize, 64, 90];
        for b in behavior_sweep(5) {
            let s = OracleSyndrome::new(FaultSet::new(128, &faults), b);
            let d = diagnose_baseline(&g, &s).unwrap_or_else(|e| panic!("{e} ({b:?})"));
            assert_eq!(d.faults, faults, "{b:?}");
            assert_eq!(d.healthy_count, 125, "{b:?}");
            assert_eq!(d.lookups_used, 128 * 21, "{b:?}");
        }
    }

    #[test]
    fn no_faults_certifies_from_first_seed() {
        let g = Hypercube::new(7);
        let s = OracleSyndrome::new(FaultSet::empty(128), TesterBehavior::AllZero);
        let d = diagnose_baseline(&g, &s).unwrap();
        assert!(d.faults.is_empty());
        assert_eq!(d.certified_seed, 0);
        assert_eq!(d.seeds_tried, 1);
        assert_eq!(d.healthy_count, 128);
    }

    #[test]
    fn faulty_low_seeds_are_skipped() {
        // Seeds 0..7 are all faulty (and AllOne makes their clusters tiny):
        // the baseline must walk past them and still answer correctly.
        let g = Hypercube::new(7);
        let faults: Vec<usize> = (0..7).collect();
        let s = OracleSyndrome::new(FaultSet::new(128, &faults), TesterBehavior::AllOne);
        let d = diagnose_baseline(&g, &s).unwrap();
        assert_eq!(d.faults, faults);
        assert!(d.seeds_tried > 1);
    }

    #[test]
    fn matches_driver_on_random_instances() {
        let g = KAryNCube::new(3, 6); // 729 nodes, bound 12
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
        for trial in 0..4u64 {
            let f = FaultSet::random(729, (3 * trial as usize) % 13, &mut rng);
            let s = OracleSyndrome::new(f.clone(), TesterBehavior::Random { seed: trial });
            let drv = diagnose(&g, &s).unwrap();
            let base = diagnose_baseline(&g, &s).unwrap();
            assert_eq!(drv.faults, base.faults, "trial {trial}");
            assert_eq!(base.faults, f.members(), "trial {trial}");
        }
    }

    #[test]
    fn permutation_family_handled() {
        let g = StarGraph::new(6); // 720 nodes, bound 5
        let faults = [0usize, 100, 350, 719];
        for b in behavior_sweep(9) {
            let s = OracleSyndrome::new(FaultSet::new(720, &faults), b);
            let d = diagnose_baseline(&g, &s).unwrap_or_else(|e| panic!("{e} ({b:?})"));
            assert_eq!(d.faults, faults, "{b:?}");
        }
    }

    #[test]
    fn over_bound_fault_load_is_rejected_not_misreported() {
        // 30 > δ faults with AllOne testers: every cluster stays small, so
        // the baseline must fail rather than return a wrong answer.
        let g = Hypercube::new(7);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(123);
        let f = FaultSet::random(128, 30, &mut rng);
        let s = OracleSyndrome::new(f.clone(), TesterBehavior::AllOne);
        match diagnose_baseline(&g, &s) {
            Err(_) => {}
            Ok(d) => assert_eq!(
                d.faults,
                f.members(),
                "a certified answer must still be the truth"
            ),
        }
    }

    /// `F = N(v)` with `|N(v)|` the bound walls `v` in: no cluster reaches
    /// it, and it is healthy by elimination. A faulty `v` that answers 0
    /// on two of its faulty neighbours contradicts that, so the claim is
    /// rejected; with a bound above `|N(v)|` nothing eliminates `v`.
    #[test]
    fn a_walled_in_node_is_healthy_by_elimination() {
        let g = Hypercube::new(7);
        let v = 77;
        let around = g.neighbors(v);
        assert_eq!(around.len(), g.driver_fault_bound());
        for b in behavior_sweep(17) {
            let s = OracleSyndrome::new(FaultSet::new(128, &around), b);
            let d = diagnose_baseline(&g, &s).unwrap_or_else(|e| panic!("{e} ({b:?})"));
            assert_eq!(d.faults, around, "{b:?}");
            assert_eq!(d.healthy_count, 128 - 8, "{b:?}: the cluster leaves v out");
            assert_eq!(
                diagnose_naive(&g, &s, around.len() + 1).unwrap_err(),
                BaselineError::IncompleteLabeling { unlabeled: 1 },
                "{b:?}"
            );
        }
        let mut with_v = around.clone();
        with_v.push(v);
        with_v.sort_unstable();
        let s = OracleSyndrome::new(FaultSet::new(128, &with_v), TesterBehavior::AllZero);
        assert_eq!(
            diagnose_baseline(&g, &s).unwrap_err(),
            BaselineError::Inconsistent { tester: v }
        );
    }

    #[test]
    fn explicit_bound_variant_agrees() {
        let g = Hypercube::new(7);
        let s = OracleSyndrome::new(FaultSet::new(128, &[9, 17]), TesterBehavior::Inverted);
        let auto = diagnose_baseline(&g, &s).unwrap();
        let manual = diagnose_naive(&g, &s, 7).unwrap();
        assert_eq!(auto.faults, manual.faults);
    }
}
