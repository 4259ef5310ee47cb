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
pub use mmdiag_core::monitor;
pub use mmdiag_distsim as distsim;
pub use mmdiag_exec as exec;
pub use mmdiag_syndrome as syndrome;
pub use mmdiag_topology as topology;
pub use mmdiag_trace as trace;

pub use mmdiag_core::monitor::{EpochReport, EscalationReason, MonitorSession};
pub use mmdiag_core::{
    BackendPolicy, Certificate, DiagnosisError, DiagnosisReport, PhaseTelemetry,
    VerificationVerdict,
};
pub use session::{BatchJob, Diagnoser, TopologySource, VerificationPolicy};

#[cfg(test)]
mod tests {
    use super::*;
    use mmdiag_core::session::run_sequential;
    use mmdiag_core::{diagnose, Diagnosis, SessionOptions};
    use mmdiag_syndrome::{FaultSet, OracleSyndrome, SyndromeSource, TesterBehavior};
    use mmdiag_topology::families::{Hypercube, StarGraph};
    use mmdiag_topology::graph::{NodeId, Topology};
    use mmdiag_topology::perm::{rank_perm, unrank_perm};
    use mmdiag_topology::{Cached, Partitionable};
    use mmdiag_trace::{Tracer, CAT_MONITOR, MONITOR_EPOCH};

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

    // The epoch monitor's unit contract: every epoch that is not
    // quiescent is the from-scratch run, probe scan included.

    fn oracle(n: usize, faults: &[usize], behavior: TesterBehavior) -> OracleSyndrome {
        OracleSyndrome::new(FaultSet::new(n, faults), behavior)
    }

    fn assert_bit_identical(got: &Diagnosis, want: &Diagnosis) {
        assert_eq!(got.faults, want.faults);
        assert_eq!(got.certified_part, want.certified_part);
        assert_eq!(got.probes, want.probes);
        assert_eq!(got.healthy_count, want.healthy_count);
        assert_eq!(got.tree.edges(), want.tree.edges());
    }

    /// An epoch after the first, against the from-scratch run on the same
    /// syndrome: the same labelling, the same probe scan at the same
    /// cost, and a growth that costs no more.
    fn assert_from_scratch_run(
        report: &EpochReport,
        g: &Hypercube,
        faults: &[usize],
        b: TesterBehavior,
    ) {
        let s = oracle(g.node_count(), faults, b);
        let want = run_sequential(g, &s, &SessionOptions::default()).unwrap();
        assert_eq!(report.escalation, None);
        assert!(!report.quiescent);
        assert_bit_identical(&report.diagnosis, &want.diagnosis);
        assert_eq!(report.telemetry.probe_lookups, want.telemetry.probe_lookups);
        assert!(report.telemetry.grow_lookups <= want.telemetry.grow_lookups);
        assert_eq!(report.parts_reprobed, want.diagnosis.probes);
        assert_eq!(report.parts_reused, 0);
        assert_eq!(
            report.lookups,
            report.telemetry.probe_lookups + report.telemetry.grow_lookups
        );
    }

    #[test]
    fn first_epoch_escalates_initial_and_matches_from_scratch() {
        let g = Hypercube::new(7);
        let mut m = MonitorSession::new(&g, g.driver_fault_bound(), Tracer::disabled());
        let faults = [64usize, 90];
        let behavior = TesterBehavior::Random { seed: 5 };
        let s = oracle(128, &faults, behavior);
        let report = m.ingest(&s, &faults).unwrap();
        assert_eq!(report.escalation, Some(EscalationReason::Initial));
        assert!(!report.quiescent);
        let want = diagnose(&g, &oracle(128, &faults, behavior)).unwrap();
        assert_bit_identical(&report.diagnosis, &want);
        assert_eq!(report.lookups, report.diagnosis.lookups_used);
        assert_eq!(
            report.telemetry.probe_lookups + report.telemetry.grow_lookups,
            report.lookups
        );
        assert_eq!(m.last_faults(), Some(&faults[..]));
        assert_eq!(m.certificate().unwrap().part, report.certificate.part);
    }

    #[test]
    fn quiescent_epoch_reuses_the_labelling_at_zero_lookups() {
        let g = Hypercube::new(7);
        let mut m = MonitorSession::new(&g, g.driver_fault_bound(), Tracer::disabled());
        let behavior = TesterBehavior::AllZero;
        let s = oracle(128, &[64, 90], behavior);
        let first = m.ingest(&s, &[64, 90]).unwrap();
        let before = s.lookups();
        let second = m.ingest(&s, &[]).unwrap();
        assert!(second.quiescent);
        assert_eq!(second.escalation, None);
        assert_eq!(second.lookups, 0);
        assert_eq!(s.lookups(), before, "the syndrome was never consulted");
        assert_bit_identical(&second.diagnosis, &first.diagnosis);
        assert_eq!(second.telemetry.probe_nanos, 0);
    }

    #[test]
    fn a_disjoint_delta_runs_the_from_scratch_probe_scan() {
        let g = Hypercube::new(7);
        let behavior = TesterBehavior::Random { seed: 11 };
        let mut m = MonitorSession::new(&g, g.driver_fault_bound(), Tracer::disabled());
        let e0 = [64usize, 90];
        m.ingest(&oracle(128, &e0, behavior), &e0).unwrap();
        let certified = m.certificate().unwrap().part;
        // A new fault in a part disjoint from the certified one.
        let e1 = [64usize, 90, 100];
        assert_ne!(g.part_of(100), certified, "test instance stays disjoint");
        let report = m.ingest(&oracle(128, &e1, behavior), &[100]).unwrap();
        assert_eq!(report.dirty_parts, 1);
        assert_from_scratch_run(&report, &g, &e1, behavior);
    }

    #[test]
    fn a_delta_in_the_certified_part_runs_the_from_scratch_probe_scan() {
        let g = Hypercube::new(7);
        let behavior = TesterBehavior::Random { seed: 3 };
        let mut m = MonitorSession::new(&g, g.driver_fault_bound(), Tracer::disabled());
        let e0 = [64usize, 90];
        m.ingest(&oracle(128, &e0, behavior), &e0).unwrap();
        let certified = m.certificate().unwrap().part;
        // Fault onset inside the certified part (node 3 is in part 0 of
        // Q_7's canonical Q_4 decomposition).
        let onset = g
            .representative(certified)
            .checked_add(3)
            .filter(|&v| g.part_of(v) == certified)
            .expect("part 0 spans nodes 0..16");
        let e1 = [onset, 64, 90];
        let report = m.ingest(&oracle(128, &e1, behavior), &[onset]).unwrap();
        assert_from_scratch_run(&report, &g, &e1, behavior);
    }

    #[test]
    fn a_failed_epoch_drops_state_and_the_next_escalates_state_lost() {
        let g = Hypercube::new(7);
        let behavior = TesterBehavior::Random { seed: 7 };
        // Bound 1: three faults make the growth sweep find more faulty
        // neighbours than the bound allows.
        let mut m = MonitorSession::new(&g, 1, Tracer::disabled());
        let e0 = [64usize];
        m.ingest(&oracle(128, &e0, behavior), &e0).unwrap();
        let e1 = [64usize, 90, 100];
        let err = m.ingest(&oracle(128, &e1, behavior), &[90, 100]);
        assert!(matches!(err, Err(DiagnosisError::TooManyFaults { .. })));
        assert_eq!(m.last_faults(), None, "the labelling was dropped");
        // Recovery epoch: back to a single fault, rebuilt from scratch.
        let e2 = [64usize];
        let report = m.ingest(&oracle(128, &e2, behavior), &[90, 100]).unwrap();
        assert_eq!(report.escalation, Some(EscalationReason::StateLost));
        // Same bound as the monitor: 1, not the family's canonical bound.
        let mut opts = SessionOptions::default();
        opts.fault_bound = Some(1);
        opts.check_preconditions = false;
        let want = run_sequential(&g, &oracle(128, &e2, behavior), &opts)
            .unwrap()
            .diagnosis;
        assert_bit_identical(&report.diagnosis, &want);
        assert_eq!(report.lookups, want.lookups_used, "a full walk");
    }

    #[test]
    fn monitor_metrics_accumulate_per_epoch() {
        use mmdiag_trace::{MetricValue, TraceConfig};
        let g = Hypercube::new(7);
        let tracer = Tracer::new(TraceConfig::default());
        let behavior = TesterBehavior::AllZero;
        let mut m = MonitorSession::new(&g, g.driver_fault_bound(), tracer.clone());
        let e0 = [64usize, 90];
        m.ingest(&oracle(128, &e0, behavior), &e0).unwrap();
        m.ingest(&oracle(128, &e0, behavior), &[]).unwrap();
        let e1 = [64usize, 90, 100];
        m.ingest(&oracle(128, &e1, behavior), &[100]).unwrap();
        let snap = tracer.metrics().unwrap().snapshot();
        let counter = |name: &str| {
            snap.iter()
                .find(|s| s.name == name)
                .map(|s| match s.value {
                    MetricValue::Counter(n) => n,
                    ref other => panic!("{name} is {other:?}"),
                })
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert_eq!(counter("monitor.epochs"), 3);
        assert_eq!(counter("monitor.escalations"), 1, "only the initial epoch");
        assert_eq!(counter("monitor.quiescent"), 1);
        assert!(counter("monitor.lookups") > 0);
        // Three epochs, three monitor.epoch spans.
        let epochs = tracer
            .drain()
            .into_iter()
            .filter(|e| e.cat == CAT_MONITOR && e.name == MONITOR_EPOCH)
            .count();
        assert_eq!(epochs, 3);
    }
}
