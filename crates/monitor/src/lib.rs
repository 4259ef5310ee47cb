//! # mmdiag-monitor
//!
//! The long-lived diagnosis service: an epoch-based monitoring loop on
//! top of the Theorem-1 driver. Everything else in the workspace is
//! one-shot — a session diagnoses once and is done — but a fleet-health
//! system diagnoses *continuously*: faults arrive and get repaired over
//! time, and each round only a handful of test outcomes move.
//!
//! A [`MonitorSession`] holds the last [`Certificate`] and fault
//! labelling, ingests **syndrome deltas** (the nodes whose fault status
//! changed since the previous epoch) and re-diagnoses incrementally:
//!
//! * **Dirty-part rule.** The restricted probe of part `p` consults only
//!   tests `s_u(v, w)` with `u`, `v`, `w` all inside `p`
//!   (`set_builder_in_part` filters candidates and witnesses by part
//!   membership), so a cached probe outcome stays valid until a node *of
//!   that part* changes status. Each epoch invalidates exactly the parts
//!   hit by the delta and re-runs the probe scan with every clean part
//!   served from cache at zero lookups.
//! * **Certified-seed reuse.** The winning probe's certificate is cached
//!   with the rest, so epochs that keep the same certified part pay no
//!   probe lookups at all — only the unrestricted growth, which must
//!   re-read the moved syndrome (it is what discovers the new fault set).
//!   It re-reads it through the session's [`GrowthMemo`]: the last growth
//!   tree is re-witnessed one syndrome entry per node, in its parents'
//!   rows, and repaired where the fault set moved, instead of walking
//!   every neighbour of every node again. Every label is still read off
//!   the current syndrome. A change within the first `L_s` layers (those
//!   the certificate's spread heuristic shaped), a different winning part
//!   or an escalation grows in full, at the full walk's cost.
//! * **Escalation.** When the delta touches the certified part itself,
//!   the certificate — probe tree witnesses included, since they are all
//!   in-part — is invalidated and the session escalates to a full
//!   from-scratch walk ([`EscalationReason::CertificateInvalidated`]),
//!   reported honestly with its full cost. The first epoch
//!   ([`EscalationReason::Initial`]) and the epoch after a failed one
//!   ([`EscalationReason::StateLost`]) escalate the same way.
//! * **Quiescence.** An empty delta reuses the previous labelling at
//!   zero lookups.
//!
//! **Correctness bar:** after every epoch the incremental labelling is
//! **bit-identical** to a from-scratch `diagnose` on the same
//! instantaneous fault set — same faults, certified part, spanning tree
//! and healthy count. The argument: a cached probe outcome equals what a
//! fresh probe would return (dirty-part rule), so the cache-served scan
//! lands on the same lowest certifying part as the from-scratch scan,
//! and the unrestricted growth from that seed is deterministic: the
//! memo's repair yields exactly what that growth yields, which core's
//! memo suite checks growth by growth on all 14 families. The workspace
//! cross-check suite asserts the whole contract per epoch across all 14
//! families; the bench `--online` axis re-asserts it at 10⁶ nodes.
//!
//! Each epoch records a `monitor.epoch` span (value = the epoch's
//! syndrome lookups) with the standard probe/certify/grow phase spans
//! nested inside it, and accumulates `monitor.*` counters into the
//! session tracer's metrics registry — attach the registry to the
//! process-wide `MetricsHub` (e.g. via `Diagnoser::stats`) and the
//! monitor's counters ride the same fleet snapshots as everything else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mmdiag_core::session::{probe_part, PartProbe};
use mmdiag_core::set_builder::Workspace;
use mmdiag_core::{Certificate, Diagnosis, DiagnosisError, GrowthMemo, PhaseTelemetry};
use mmdiag_syndrome::SyndromeSource;
use mmdiag_topology::{NodeId, Partitionable};
use mmdiag_trace::{
    checked_delta, Tracer, CAT_MONITOR, CAT_PHASE, MONITOR_EPOCH, PHASE_CERTIFY, PHASE_GROW,
    PHASE_PROBE,
};

/// Why an epoch ran the full from-scratch walk instead of the
/// cache-served incremental scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EscalationReason {
    /// The first epoch of the session — there is nothing cached yet, so
    /// a full run is the only option.
    Initial,
    /// The syndrome delta touched the certified part: the §4.1
    /// certificate (probe tree witnesses included — they are all
    /// in-part) is invalidated, so the session re-derives everything
    /// from scratch.
    CertificateInvalidated {
        /// The certified part the delta touched.
        part: usize,
    },
    /// The previous epoch failed (e.g. the instantaneous fault set
    /// exceeded the bound), dropping the session's labelling; this epoch
    /// rebuilds from scratch.
    StateLost,
}

/// What one monitoring epoch produced.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// Zero-based index of this epoch within the session.
    pub epoch: usize,
    /// The labelling — bit-identical to a from-scratch `diagnose` on the
    /// same instantaneous fault set. `diagnosis.lookups_used` is the
    /// *epoch's* cost (cache-served probes are free), not the
    /// from-scratch cost; the other fields match from-scratch exactly.
    pub diagnosis: Diagnosis,
    /// The §4.1 certificate in force after this epoch.
    pub certificate: Certificate,
    /// Per-phase wall times and lookups of this epoch's work. All-zero
    /// on a quiescent epoch (no phase ran).
    pub telemetry: PhaseTelemetry,
    /// Syndrome entries consulted this epoch (probe re-runs + growth).
    pub lookups: u64,
    /// Parts the delta marked dirty.
    pub dirty_parts: usize,
    /// Parts actually re-probed this epoch.
    pub parts_reprobed: usize,
    /// Cached probe outcomes served without consulting the syndrome.
    pub parts_reused: usize,
    /// `Some` when this epoch escalated to a full from-scratch walk.
    pub escalation: Option<EscalationReason>,
    /// `true` when the delta was empty and the previous labelling was
    /// reused wholesale (zero lookups).
    pub quiescent: bool,
}

/// The labelling carried across epochs.
struct LastEpoch {
    diagnosis: Diagnosis,
    certificate: Certificate,
}

/// A long-lived monitoring session over one topology: the incremental
/// epoch loop described in the [crate docs](self).
///
/// Drive it with [`MonitorSession::ingest`], handing over the current
/// syndrome plus the delta — the complete set of nodes whose fault
/// status changed since the previous `ingest` (an onset *or* a
/// recovery; a node that flipped twice between epochs nets out and must
/// not be listed). The delta only decides which cached probes to drop:
/// the growth reads every label off the current syndrome. A node listed
/// without a change costs a re-probe (an escalation, in the certified
/// part) and nothing else. Omitting a
/// changed node inside the certified part or a part below it can keep a
/// stale probe in force, and with it breaks the bit-identity guarantee;
/// an omission elsewhere is read off the syndrome like any other label.
pub struct MonitorSession<'g> {
    g: &'g (dyn Partitionable + Sync),
    fault_bound: usize,
    tracer: Tracer,
    ws: Workspace,
    /// Per-part cached probe outcome; `None` = never probed or
    /// invalidated by a delta. Boxed, so the parts past the winner, which
    /// the scan never fills, cost a pointer each.
    cache: Vec<Option<Box<PartProbe>>>,
    /// The last growth, repaired by the next epoch that keeps its part.
    memo: GrowthMemo,
    last: Option<LastEpoch>,
    epoch: usize,
    state_lost: bool,
}

impl<'g> MonitorSession<'g> {
    /// A monitoring session over `g` with the given fault bound,
    /// recording spans and `monitor.*` metrics through `tracer` (pass
    /// [`Tracer::disabled`] to record nothing).
    pub fn new(g: &'g (dyn Partitionable + Sync), fault_bound: usize, tracer: Tracer) -> Self {
        MonitorSession {
            g,
            fault_bound,
            tracer,
            ws: Workspace::new(g.node_count()),
            cache: vec![None; g.part_count()],
            memo: GrowthMemo::new(),
            last: None,
            epoch: 0,
            state_lost: false,
        }
    }

    /// Epochs ingested so far (failed epochs included).
    pub fn epochs_run(&self) -> usize {
        self.epoch
    }

    /// The current labelling's fault set, if the last epoch succeeded.
    pub fn last_faults(&self) -> Option<&[NodeId]> {
        self.last.as_ref().map(|l| l.diagnosis.faults.as_slice())
    }

    /// The certificate in force, if the last epoch succeeded.
    pub fn certificate(&self) -> Option<&Certificate> {
        self.last.as_ref().map(|l| &l.certificate)
    }

    /// Ingest one epoch: the current syndrome `s` and the sorted-or-not
    /// list of nodes whose fault status changed since the previous
    /// epoch. Returns the epoch's report; on error (no part certifies,
    /// or the fault set exceeds the bound) the session's labelling is
    /// dropped and the next epoch rebuilds from scratch
    /// ([`EscalationReason::StateLost`]). A delta naming a node outside
    /// the network is rejected before anything changes
    /// ([`DiagnosisError::NodeOutOfRange`]): no epoch is counted, and
    /// the cached probes, the memo and the labelling stay in force.
    pub fn ingest<S>(&mut self, s: &S, delta: &[NodeId]) -> Result<EpochReport, DiagnosisError>
    where
        S: SyndromeSource + ?Sized,
    {
        let node_count = self.g.node_count();
        if let Some(&node) = delta.iter().find(|&&v| v >= node_count) {
            return Err(DiagnosisError::NodeOutOfRange { node, node_count });
        }
        let epoch = self.epoch;
        self.epoch += 1;
        // Clone the handle (a pointer copy) so the span borrows the local,
        // not `self` — `run_epoch` needs `&mut self` underneath it.
        let tracer = self.tracer.clone();
        let epoch_span = tracer.span(CAT_MONITOR, MONITOR_EPOCH);
        let start_lookups = s.lookups();
        let result = self.run_epoch(s, delta, epoch, start_lookups);
        let lookups = checked_delta(s.lookups(), start_lookups);
        epoch_span.finish_with_value(lookups);
        if let Some(metrics) = self.tracer.metrics() {
            metrics.counter("monitor.epochs").inc();
            metrics.counter("monitor.lookups").add(lookups);
            match &result {
                Ok(report) => {
                    if report.escalation.is_some() {
                        metrics.counter("monitor.escalations").inc();
                    }
                    if report.quiescent {
                        metrics.counter("monitor.quiescent").inc();
                    }
                    metrics
                        .counter("monitor.parts_reprobed")
                        .add(report.parts_reprobed as u64);
                    metrics
                        .counter("monitor.parts_reused")
                        .add(report.parts_reused as u64);
                }
                Err(_) => metrics.counter("monitor.failed_epochs").inc(),
            }
        }
        result
    }

    fn run_epoch<S>(
        &mut self,
        s: &S,
        delta: &[NodeId],
        epoch: usize,
        start_lookups: u64,
    ) -> Result<EpochReport, DiagnosisError>
    where
        S: SyndromeSource + ?Sized,
    {
        let tracer = self.tracer.clone();
        // Classify the epoch before touching any state.
        let escalation = if self.last.is_none() {
            Some(if self.state_lost {
                EscalationReason::StateLost
            } else {
                EscalationReason::Initial
            })
        } else {
            let certified = self
                .last
                .as_ref()
                .map(|l| l.certificate.part)
                .expect("last is Some");
            delta
                .iter()
                .any(|&v| self.g.part_of(v) == certified)
                .then_some(EscalationReason::CertificateInvalidated { part: certified })
        };

        // Quiescent fast path: nothing moved, the previous labelling is
        // the current labelling — zero lookups, no phases.
        if escalation.is_none() && delta.is_empty() {
            let last = self.last.as_ref().expect("non-escalated epoch has state");
            return Ok(EpochReport {
                epoch,
                diagnosis: last.diagnosis.clone(),
                certificate: last.certificate.clone(),
                telemetry: PhaseTelemetry::default(),
                lookups: 0,
                dirty_parts: 0,
                parts_reprobed: 0,
                parts_reused: 0,
                escalation: None,
                quiescent: true,
            });
        }

        // Cache maintenance. Escalation drops everything (the honest
        // full re-run); the incremental path invalidates exactly the
        // parts the delta touched — a part's restricted probe consults
        // only in-part statuses, so every other entry is still what a
        // fresh probe would return.
        let dirty = self.count_dirty(delta);
        if escalation.is_some() {
            self.cache.fill(None);
            self.memo.forget();
        } else {
            for &v in delta {
                self.cache[self.g.part_of(v)] = None;
            }
        }

        // The probe scan, cache-served: identical part order to the
        // from-scratch sequential walk, so it lands on the same lowest
        // certifying part.
        let probe_span = tracer.span(CAT_PHASE, PHASE_PROBE);
        let mut reprobed = 0usize;
        let mut reused = 0usize;
        let mut winner: Option<usize> = None;
        for part in 0..self.g.part_count() {
            let entry = match &self.cache[part] {
                Some(cached) => {
                    reused += 1;
                    &**cached
                }
                None => {
                    reprobed += 1;
                    let probe = probe_part(self.g, s, part, self.fault_bound, &mut self.ws);
                    &**self.cache[part].insert(Box::new(probe))
                }
            };
            if entry.all_healthy {
                winner = Some(part);
                break;
            }
        }
        let probe_lookups = checked_delta(s.lookups(), start_lookups);
        let probe_nanos = u128::from(probe_span.finish_with_value(probe_lookups));
        let Some(part) = winner else {
            self.fail();
            return Err(DiagnosisError::NoPartCertified);
        };

        let certify_span = tracer.span(CAT_PHASE, PHASE_CERTIFY);
        let certificate = self.cache[part]
            .as_ref()
            .and_then(|p| p.certificate.clone())
            .expect("the winning probe certified, so it carries a certificate");
        let certify_nanos = u128::from(certify_span.finish());

        // The unrestricted growth re-reads the syndrome every
        // non-quiescent epoch. It is deterministic from the certified
        // seed, which is exactly what makes the incremental labelling
        // bit-identical to from-scratch; the memo repairs the last tree
        // when the part held, and grows in full otherwise. `probes`
        // mirrors the sequential scan's count (parts 0..=part),
        // cache-served or not.
        let grow_span = tracer.span(CAT_PHASE, PHASE_GROW);
        let diagnosis = match self.memo.grow(
            self.g,
            s,
            &certificate,
            part + 1,
            self.fault_bound,
            start_lookups,
            &mut self.ws,
        ) {
            Ok(d) => d,
            Err(e) => {
                self.fail();
                return Err(e);
            }
        };
        let grow_lookups = checked_delta(checked_delta(s.lookups(), start_lookups), probe_lookups);
        let grow_nanos = u128::from(grow_span.finish_with_value(grow_lookups));

        self.state_lost = false;
        self.last = Some(LastEpoch {
            diagnosis: diagnosis.clone(),
            certificate: certificate.clone(),
        });
        Ok(EpochReport {
            epoch,
            diagnosis,
            certificate,
            telemetry: PhaseTelemetry {
                probe_nanos,
                certify_nanos,
                grow_nanos,
                probe_lookups,
                grow_lookups,
                grow_rounds: Vec::new(),
            },
            lookups: probe_lookups + grow_lookups,
            dirty_parts: dirty,
            parts_reprobed: reprobed,
            parts_reused: reused,
            escalation,
            quiescent: false,
        })
    }

    /// Distinct parts the delta touches.
    fn count_dirty(&self, delta: &[NodeId]) -> usize {
        let mut parts: Vec<usize> = delta.iter().map(|&v| self.g.part_of(v)).collect();
        parts.sort_unstable();
        parts.dedup();
        parts.len()
    }

    /// An epoch failed: the labelling is no longer trustworthy. The
    /// probe cache keeps entries that were (re)validated against the
    /// *current* syndrome, but with no labelling to diff the next delta
    /// against, the next epoch rebuilds from scratch.
    fn fail(&mut self) {
        self.last = None;
        self.state_lost = true;
        self.cache.fill(None);
        self.memo.forget();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdiag_core::{diagnose, Diagnosis};
    use mmdiag_syndrome::{FaultSet, OracleSyndrome, TesterBehavior};
    use mmdiag_topology::families::Hypercube;
    use mmdiag_topology::Topology;

    fn oracle(n: usize, faults: &[usize], behavior: TesterBehavior) -> OracleSyndrome {
        OracleSyndrome::new(FaultSet::new(n, faults), behavior)
    }

    fn fresh(g: &Hypercube, faults: &[usize], behavior: TesterBehavior) -> Diagnosis {
        diagnose(g, &oracle(g.node_count(), faults, behavior)).unwrap()
    }

    /// Net delta between two instantaneous fault sets: the symmetric
    /// difference.
    fn delta(prev: &[usize], cur: &[usize]) -> Vec<usize> {
        let mut d: Vec<usize> = prev
            .iter()
            .filter(|v| !cur.contains(v))
            .chain(cur.iter().filter(|v| !prev.contains(v)))
            .copied()
            .collect();
        d.sort_unstable();
        d
    }

    fn assert_bit_identical(got: &Diagnosis, want: &Diagnosis) {
        assert_eq!(got.faults, want.faults);
        assert_eq!(got.certified_part, want.certified_part);
        assert_eq!(got.probes, want.probes);
        assert_eq!(got.healthy_count, want.healthy_count);
        assert_eq!(got.tree.edges(), want.tree.edges());
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
        assert_bit_identical(&report.diagnosis, &fresh(&g, &faults, behavior));
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
    fn disjoint_delta_reuses_cached_probes_and_costs_strictly_less() {
        let g = Hypercube::new(7);
        let behavior = TesterBehavior::Random { seed: 11 };
        let mut m = MonitorSession::new(&g, g.driver_fault_bound(), Tracer::disabled());
        let e0 = [64usize, 90];
        m.ingest(&oracle(128, &e0, behavior), &e0).unwrap();
        let certified = m.certificate().unwrap().part;
        // A new fault in a part disjoint from the certified one.
        let e1 = [64usize, 90, 100];
        assert_ne!(g.part_of(100), certified, "test instance stays disjoint");
        let s1 = oracle(128, &e1, behavior);
        let report = m.ingest(&s1, &delta(&e0, &e1)).unwrap();
        assert_eq!(report.escalation, None);
        assert_eq!(report.dirty_parts, 1);
        let want = fresh(&g, &e1, behavior);
        assert_bit_identical(&report.diagnosis, &want);
        // Cached probes are free, so the epoch costs strictly less than
        // the from-scratch run on the same syndrome.
        assert!(
            report.lookups < want.lookups_used,
            "incremental {} !< from-scratch {}",
            report.lookups,
            want.lookups_used
        );
        // The scan stops at the certified part; the dirty part beyond it
        // is never re-probed.
        assert!(report.parts_reused >= 1);
        assert_eq!(report.telemetry.probe_lookups, 0, "all probes cache-served");
    }

    #[test]
    fn delta_in_the_certified_part_escalates_with_full_cost() {
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
        let s1 = oracle(128, &e1, behavior);
        let report = m.ingest(&s1, &delta(&e0, &e1)).unwrap();
        assert_eq!(
            report.escalation,
            Some(EscalationReason::CertificateInvalidated { part: certified })
        );
        let want = fresh(&g, &e1, behavior);
        assert_bit_identical(&report.diagnosis, &want);
        // The escalated epoch is an honest full walk: exactly the
        // from-scratch cost, with no cached probe served.
        assert_eq!(report.lookups, want.lookups_used);
        assert_eq!(report.parts_reused, 0);
        assert_eq!(report.parts_reprobed, want.probes);
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
        let err = m.ingest(&oracle(128, &e1, behavior), &delta(&e0, &e1));
        assert!(matches!(err, Err(DiagnosisError::TooManyFaults { .. })));
        assert_eq!(m.last_faults(), None, "the labelling was dropped");
        // Recovery epoch: back to a single fault, rebuilt from scratch.
        let e2 = [64usize];
        let report = m
            .ingest(&oracle(128, &e2, behavior), &delta(&e1, &e2))
            .unwrap();
        assert_eq!(report.escalation, Some(EscalationReason::StateLost));
        // Same bound as the monitor: 1, not the family's canonical bound.
        let mut opts = mmdiag_core::SessionOptions::default();
        opts.fault_bound = Some(1);
        opts.check_preconditions = false;
        let want = mmdiag_core::session::run_sequential(&g, &oracle(128, &e2, behavior), &opts)
            .unwrap()
            .diagnosis;
        assert_bit_identical(&report.diagnosis, &want);
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
        m.ingest(&oracle(128, &e1, behavior), &delta(&e0, &e1))
            .unwrap();
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
