//! The epoch monitor: a fleet-health loop that diagnoses continuously.
//! Each epoch a [`MonitorSession`] ingests the current syndrome plus a
//! **delta**, the nodes whose fault status changed since the previous
//! epoch, and the epoch is one of two things:
//!
//! * **Quiescent.** An empty delta reuses the last labelling without
//!   reading the syndrome. It is the one input the monitor trusts: a
//!   change it leaves out goes unseen until a delta is not empty.
//! * **A run.** Every other epoch is one call of the session run
//!   ([`crate::session`]): the in-order probe scan, then the growth from
//!   the lowest certifying part through the session's [`GrowthMemo`],
//!   which repairs its last growth when the seed and the first `L_s`
//!   layers match it, and walks in full otherwise. Every label is read
//!   off the current syndrome.
//!
//! Beyond that, the delta is range-checked and counted
//! ([`EpochReport::dirty_parts`]), and decides nothing. So every epoch
//! that is not quiescent is **bit-identical** to a from-scratch
//! `diagnose` on the same syndrome — faults, certified part, probes,
//! spanning tree and healthy count — whatever the delta names: the probe
//! scan is the from-scratch scan, and core's memo suite holds the memo's
//! growth equal to the full walk on all 14 families.
//!
//! Each epoch records a `monitor.epoch` span (value = the epoch's
//! syndrome lookups) with the run's phase spans nested inside it: a
//! `grow.round` span per layer the growth walked, and a `grow.repair` span
//! for a repaired growth's re-witness. It adds to `monitor.*` counters in
//! the tracer's metrics registry.

use crate::driver::{Diagnosis, DiagnosisError};
use crate::memo::GrowthMemo;
use crate::session::{run_in_ws, Certificate, PhaseTelemetry};
use crate::set_builder::Workspace;
use mmdiag_syndrome::SyndromeSource;
use mmdiag_topology::{NodeId, Partitionable};
use mmdiag_trace::{checked_delta, Tracer, CAT_MONITOR, MONITOR_EPOCH};

/// Why an epoch had no labelling to start from: its growth walked in
/// full, at the from-scratch cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EscalationReason {
    /// The first epoch of the session.
    Initial,
    /// The previous epoch failed (e.g. the instantaneous fault set
    /// exceeded the bound), dropping the session's labelling and memo;
    /// this epoch rebuilds from scratch.
    StateLost,
}

/// What one monitoring epoch produced.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// Zero-based index of this epoch within the session.
    pub epoch: usize,
    /// The labelling — bit-identical to a from-scratch `diagnose` on the
    /// same syndrome. `diagnosis.lookups_used` is the *epoch's* cost,
    /// which the memo's repair makes lower than from-scratch; a quiescent
    /// epoch repeats the last labelling whole.
    pub diagnosis: Diagnosis,
    /// The §4.1 certificate in force after this epoch.
    pub certificate: Certificate,
    /// Per-phase wall times and lookups of this epoch's run, with its
    /// growth rounds: every layer of a full walk, or the layers a repaired
    /// growth re-grew before its re-witness
    /// ([`GrowthMemo::grow`](crate::GrowthMemo::grow)). All-zero on a
    /// quiescent epoch (no phase ran).
    pub telemetry: PhaseTelemetry,
    /// Syndrome entries consulted this epoch (probes + growth).
    pub lookups: u64,
    /// Parts the delta touches.
    pub dirty_parts: usize,
    /// Parts this epoch's probe scan probed (`diagnosis.probes`; 0 on a
    /// quiescent epoch).
    pub parts_reprobed: usize,
    /// Always 0: no probe outcome is kept across epochs. Retired; kept
    /// only because the repository benchmark (`mmbench/`) still reads it.
    pub parts_reused: usize,
    /// `Some` when this epoch had no labelling to start from.
    pub escalation: Option<EscalationReason>,
    /// `true` when the delta was empty and the previous labelling was
    /// reused wholesale (zero lookups).
    pub quiescent: bool,
}

/// A long-lived monitoring session over one topology: the epoch loop
/// described in the [module docs](self).
///
/// Drive it with [`MonitorSession::ingest`], handing over the current
/// syndrome plus the delta — the nodes whose fault status changed since
/// the previous `ingest` (an onset *or* a recovery). Only an empty delta
/// is trusted: it reuses the last labelling. Any other delta, complete or
/// not, gives the from-scratch labelling.
pub struct MonitorSession<'g> {
    g: &'g (dyn Partitionable + Sync),
    fault_bound: usize,
    tracer: Tracer,
    ws: Workspace,
    /// The last growth, repaired by the next run that certifies its part.
    memo: GrowthMemo,
    /// The last epoch, unless it failed.
    last: Option<EpochReport>,
    epoch: usize,
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
            memo: GrowthMemo::new(),
            last: None,
            epoch: 0,
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
    /// the memo and the labelling stay in force.
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
        let result = self.run_epoch(s, delta, epoch);
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
    ) -> Result<EpochReport, DiagnosisError>
    where
        S: SyndromeSource + ?Sized,
    {
        let escalation = match &self.last {
            // Quiescent: the last labelling stands — zero lookups, no
            // phases.
            Some(last) if delta.is_empty() => {
                return Ok(EpochReport {
                    epoch,
                    telemetry: PhaseTelemetry::default(),
                    lookups: 0,
                    dirty_parts: 0,
                    parts_reprobed: 0,
                    escalation: None,
                    quiescent: true,
                    ..last.clone()
                })
            }
            Some(_) => None,
            None if epoch == 0 => Some(EscalationReason::Initial),
            None => Some(EscalationReason::StateLost),
        };
        let run = match run_in_ws(
            self.g,
            s,
            self.fault_bound,
            &self.tracer,
            &mut self.ws,
            Some(&mut self.memo),
        ) {
            Ok(run) => run,
            Err(e) => {
                // The labelling is no longer trustworthy: the next epoch
                // rebuilds from scratch.
                self.last = None;
                self.memo.forget();
                return Err(e);
            }
        };
        let mut dirty: Vec<usize> = delta.iter().map(|&v| self.g.part_of(v)).collect();
        dirty.sort_unstable();
        dirty.dedup();
        let report = EpochReport {
            epoch,
            lookups: run.diagnosis.lookups_used,
            dirty_parts: dirty.len(),
            parts_reprobed: run.diagnosis.probes,
            parts_reused: 0,
            escalation,
            quiescent: false,
            diagnosis: run.diagnosis,
            certificate: run.certificate,
            telemetry: run.telemetry,
        };
        self.last = Some(report.clone());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{run_sequential, GrowRound, SessionOptions};
    use mmdiag_syndrome::{FaultSet, OracleSyndrome, TesterBehavior};
    use mmdiag_topology::families::Hypercube;
    use mmdiag_topology::Topology;
    use mmdiag_trace::{TraceConfig, TraceSummary, PHASE_GROW_REPAIR, PHASE_GROW_ROUND};

    /// How many spans named `name` the trace holds, and their values' sum.
    fn spans(trace: &TraceSummary, name: &str) -> (usize, u64) {
        trace
            .names
            .iter()
            .find(|stat| stat.name == name)
            .map_or((0, 0), |stat| (stat.count as usize, stat.value_sum))
    }

    /// A traced monitor records its growth like a run. A full-walk epoch
    /// (the first, and one whose onset changes the layers the spread rule
    /// grew) records one `grow.round` span per layer, and its rounds are
    /// a from-scratch run's. A repaired epoch returns the rounds of the
    /// layers it re-grew and records one `grow.repair` span, whose value
    /// is the rest of the growth's lookups. An untraced monitor returns the
    /// same rounds and records nothing.
    #[test]
    fn a_traced_epoch_records_its_growth_like_a_run() {
        let g = Hypercube::new_certified(10);
        let (n, bound) = (g.node_count(), g.driver_fault_bound());
        let b = TesterBehavior::Random { seed: 6 };
        let traced = Tracer::new(TraceConfig::default());
        let mut monitor = MonitorSession::new(&g, bound, traced.clone());
        let off = Tracer::disabled();
        let mut untraced = MonitorSession::new(&g, bound, off.clone());
        for (faults, delta, what, repaired) in [
            (vec![], vec![], "initial", false),
            (vec![n - 1], vec![n - 1], "an onset far from the seed", true),
            (vec![4, n - 1], vec![4], "an onset beside the seed", false),
        ] {
            let syndrome = || OracleSyndrome::new(FaultSet::new(n, &faults), b);
            let report = monitor.ingest(&syndrome(), &delta).unwrap();
            let trace = TraceSummary::from_events(&traced.drain(), traced.dropped());
            let run = run_sequential(&g, &syndrome(), &SessionOptions::default()).unwrap();
            assert_eq!(
                report.diagnosis,
                Diagnosis {
                    lookups_used: report.lookups,
                    ..run.diagnosis.clone()
                }
            );

            let (t, rounds) = (&report.telemetry, &report.telemetry.grow_rounds);
            let round_lookups: u64 = rounds.iter().map(|r| r.lookups).sum();
            assert_eq!(
                spans(&trace, PHASE_GROW_ROUND),
                (rounds.len(), round_lookups),
                "{what}"
            );
            let (repairs, rewitness) = spans(&trace, PHASE_GROW_REPAIR);
            assert_eq!(repairs, usize::from(repaired), "{what}");
            assert_eq!(round_lookups + rewitness, t.grow_lookups, "{what}");
            assert_eq!(trace.grow_lookups, t.grow_lookups, "{what}");
            let (got, want) = (
                GrowRound::shapes(rounds),
                GrowRound::shapes(&run.telemetry.grow_rounds),
            );
            if repaired {
                assert!(got.len() < want.len() && rewitness > 0, "{what}");
                assert_eq!(got, want[..got.len()], "{what}");
            } else {
                assert_eq!(got, want, "{what}");
            }

            let quiet = untraced.ingest(&syndrome(), &delta).unwrap();
            assert_eq!(
                GrowRound::shapes(&quiet.telemetry.grow_rounds),
                got,
                "{what}"
            );
        }
        assert!(off.drain().is_empty() && off.dropped() == 0);
    }
}
