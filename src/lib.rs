//! Facade crate for the `mmdiag` workspace: the [`Diagnoser`] session
//! front door plus re-exports of every subsystem crate.
//!
//! ```
//! use mmdiag::Diagnoser;
//! use mmdiag::syndrome::{FaultSet, OracleSyndrome, TesterBehavior};
//! use mmdiag::topology::families::Hypercube;
//!
//! let g = Hypercube::new(7);
//! let s = OracleSyndrome::new(FaultSet::new(128, &[3, 64]), TesterBehavior::AllZero);
//!
//! // The default session is `diagnose` — one builder call per
//! // policy turns on batch fan-out or verification.
//! let report = Diagnoser::new(&g).auto().verify_full().run(&s).unwrap();
//! assert_eq!(report.diagnosis.faults, vec![3, 64]);
//! assert!(report.verification.agreed_or_unverified());
//! ```
#![forbid(unsafe_code)]

pub mod session;

pub use mmdiag_baselines as baselines;
pub use mmdiag_core as diagnosis;
pub use mmdiag_distsim as distsim;
pub use mmdiag_exec as exec;
pub use mmdiag_monitor as monitor;
pub use mmdiag_syndrome as syndrome;
pub use mmdiag_topology as topology;
pub use mmdiag_trace as trace;

pub use mmdiag_core::{
    BackendPolicy, Certificate, DiagnosisError, DiagnosisReport, PhaseTelemetry,
    VerificationVerdict,
};
pub use mmdiag_monitor::{EpochReport, EscalationReason, MonitorSession};
pub use session::{BatchJob, Diagnoser, TopologySource, VerificationPolicy};

#[cfg(test)]
mod tests {
    use super::*;
    use mmdiag_topology::families::{Hypercube, StarGraph};
    use mmdiag_topology::graph::{NodeId, Topology};
    use mmdiag_topology::perm::{rank_perm, unrank_perm};
    use mmdiag_topology::Cached;

    #[test]
    fn neighbors_are_sorted_and_match_inner_as_sets() {
        // An implicit session serves the star graph's own emitter: its lists
        // ascend strictly and hold exactly the first-symbol swaps.
        let session = Diagnoser::implicit(StarGraph::new(5));
        let g = session.topology();
        let mut perm = Vec::new();
        for u in (0..g.node_count()).step_by(11) {
            let sorted = g.neighbors(u);
            assert!(sorted.windows(2).all(|w| w[0] < w[1]), "node {u}");
            unrank_perm(u, 5, &mut perm);
            let mut raw: Vec<NodeId> = (1..5)
                .map(|i| {
                    perm.swap(0, i);
                    let v = rank_perm(&perm, 5);
                    perm.swap(0, i);
                    v
                })
                .collect();
            raw.sort_unstable();
            assert_eq!(sorted, raw, "node {u}");
        }
    }

    #[test]
    fn hypercube_sorted_generation_matches_cached_csr() {
        // The implicit hypercube uses the ascending bit-trick generator;
        // its neighbour lists must equal the CSR's sorted slices exactly.
        let fam = Hypercube::new(7);
        let cached = Cached::new(&fam);
        let session = Diagnoser::implicit(fam);
        let g = session.topology();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for u in 0..g.node_count() {
            g.neighbors_into(u, &mut a);
            cached.neighbors_into(u, &mut b);
            assert_eq!(a, b, "node {u}");
        }
    }
}
