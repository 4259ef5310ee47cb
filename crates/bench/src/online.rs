//! The `--online` axis: epoch-based monitoring vs from-scratch.
//!
//! Every other bench axis diagnoses each cell once; this one measures
//! the long-lived service story — a [`mmdiag::MonitorSession`] per
//! small-catalog family replaying a seeded Poisson fault timeline
//! ([`mmdiag::distsim::EpochTimeline`]) and re-diagnosing incrementally
//! each epoch. Per family the record rolls up:
//!
//! * **correctness** — every epoch's incremental labelling is compared
//!   bit-for-bit against a from-scratch `diagnose` on the same
//!   instantaneous fault set (faults, certified part, probe count,
//!   healthy count, spanning tree); any difference counts as a
//!   disagreement and fails the binary. Every fourth epoch the sampled
//!   spot-checker re-verifies the labelling independently.
//! * **amortised cost** — over the *sparse* epochs (delta touching ≤ 1
//!   part, not escalated), the monitor's lookups per epoch against the
//!   from-scratch lookups on the same syndromes. The monitor's whole
//!   claim is that this ratio is below one on every family.
//! * **detection latency** — wall time (the epoch's phase spans) of the
//!   epochs whose labelling gained at least one new fault: how long the
//!   service takes to *notice* an onset, as a latency histogram.
//! * **escalation honesty** — escalated epochs are counted separately;
//!   their full from-scratch cost stays in the per-epoch totals rather
//!   than being laundered out of the average.
//!
//! Beside the fourteen families, one cell runs at 10⁶ nodes
//! ([`run_online_scale`]): an implicit `Q_20` with streaming syndromes,
//! where the growth, not the probes, is the cost. Its record keeps both
//! wall times of every epoch, the monitor's and the from-scratch run's,
//! and counts any epoch whose labelling differs as a disagreement.
//!
//! Epoch count: `MMDIAG_EPOCHS` (through the exec config door), else 8
//! under `--quick`, else 24.

use crate::fault_sizes;
use mmdiag::diagnosis::{diagnose, Diagnosis};
use mmdiag::distsim::EpochTimeline;
use mmdiag::syndrome::{OnDemandOracle, OracleSyndrome, TesterBehavior};
use mmdiag::topology::families::Hypercube;
use mmdiag::topology::Partitionable;
use mmdiag::Diagnoser;
use mmdiag_trace::clock::Stopwatch;
use mmdiag_trace::{Histogram, HistogramSummary};

/// One family's epoch-loop rollup.
#[derive(Clone, Debug)]
pub struct OnlineFamilyRecord {
    /// Family key (matches the sweep records).
    pub family: &'static str,
    /// Instance name.
    pub instance: String,
    /// Node count.
    pub nodes: usize,
    /// Decomposition parts.
    pub parts: usize,
    /// Epochs replayed.
    pub epochs: usize,
    /// Epochs that escalated to a full from-scratch walk (the initial
    /// epoch included).
    pub escalated: usize,
    /// Epochs with an empty delta (labelling reused at zero lookups).
    pub quiescent: usize,
    /// Sparse epochs: non-escalated with ≤ 1 dirty part (quiescent
    /// included) — the regime the amortised comparison is over.
    pub sparse_epochs: usize,
    /// Monitor lookups summed over the sparse epochs.
    pub sparse_incremental_lookups: u64,
    /// From-scratch lookups on the same syndromes, same epochs.
    pub sparse_scratch_lookups: u64,
    /// Monitor lookups summed over *all* epochs (escalations at full
    /// cost included — the honest total).
    pub total_incremental_lookups: u64,
    /// From-scratch lookups summed over all epochs.
    pub total_scratch_lookups: u64,
    /// `sparse_incremental_lookups / sparse_epochs`.
    pub amortized_incremental: f64,
    /// `sparse_scratch_lookups / sparse_epochs`.
    pub amortized_scratch: f64,
    /// Amortised sparse-epoch cost strictly below from-scratch — the
    /// axis's acceptance bar, per family.
    pub sparse_cheaper: bool,
    /// Wall time of the epochs that detected a new fault onset.
    pub detection_latency_ns: HistogramSummary,
    /// Sampled spot-checks run (every fourth epoch).
    pub verified: usize,
    /// Epochs whose labelling differed from from-scratch in any field,
    /// or whose spot-check disagreed.
    pub disagreements: u64,
}

/// The whole `--online` axis outcome, rendered additively into the v2
/// trajectory document under the top-level `"online"` key.
#[derive(Clone, Debug)]
pub struct OnlineRecord {
    /// Epochs replayed per family.
    pub epochs_per_family: usize,
    /// Poisson onset rate (expected new faults per epoch).
    pub onset_rate: f64,
    /// Poisson recovery rate (expected repairs per epoch).
    pub recovery_rate: f64,
    /// Per-family rollups, small-catalog order.
    pub families: Vec<OnlineFamilyRecord>,
    /// Sum of per-family disagreements. Folded into the binary's exit
    /// code.
    pub disagreements: u64,
    /// Families whose amortised sparse-epoch cost failed to beat
    /// from-scratch — must be zero for the axis to pass.
    pub families_without_savings: usize,
    /// The 10⁶-node cell, when it ran ([`OnlineRecord::with_scale`]).
    pub scale: Option<OnlineScaleRecord>,
}

impl OnlineRecord {
    /// Attach the 10⁶-node cell, folding its disagreements into the
    /// axis total.
    pub fn with_scale(mut self, scale: OnlineScaleRecord) -> Self {
        self.disagreements += scale.disagreements;
        self.scale = Some(scale);
        self
    }
}

/// The online axis at 10⁶ nodes: one monitor over an implicit `Q_20`,
/// each epoch timed against a from-scratch run on the same syndrome.
#[derive(Clone, Debug)]
pub struct OnlineScaleRecord {
    /// Instance name.
    pub instance: String,
    /// Node count.
    pub nodes: usize,
    /// Epochs replayed.
    pub epochs: usize,
    /// Epochs that escalated to a full walk (the initial one included).
    pub escalated: usize,
    /// Epochs with an empty delta.
    pub quiescent: usize,
    /// Wall time of each epoch's `ingest`, in nanoseconds.
    pub monitor_ns: Vec<u64>,
    /// Wall time of each epoch's from-scratch diagnosis, in nanoseconds.
    pub scratch_ns: Vec<u64>,
    /// Syndrome entries each epoch's `ingest` read.
    pub monitor_lookups: Vec<u64>,
    /// Syndrome entries each from-scratch diagnosis read.
    pub scratch_lookups: Vec<u64>,
    /// Epochs whose labelling differed from from-scratch in any field, or
    /// that failed.
    pub disagreements: u64,
}

/// Expected fault onsets per epoch. Low enough that most epochs move at
/// most one node (the sparse regime the monitor exists for), high enough
/// that every family sees onsets, escalations and recoveries within the
/// default epoch budget.
const ONSET_RATE: f64 = 0.6;
/// Expected fault recoveries per epoch (applied to currently-faulty
/// nodes; capped by how many there are).
const RECOVERY_RATE: f64 = 0.45;

fn bit_identical(got: &Diagnosis, want: &Diagnosis) -> bool {
    got.faults == want.faults
        && got.certified_part == want.certified_part
        && got.probes == want.probes
        && got.healthy_count == want.healthy_count
        && got.tree.edges() == want.tree.edges()
}

/// Run the online axis over the small catalog (all fourteen families).
/// `quick` shrinks the epoch budget, not the family coverage — the
/// per-family savings bar is the point of the axis.
pub fn run_online(quick: bool) -> OnlineRecord {
    let epochs = mmdiag_exec::config::knobs()
        .epochs
        .unwrap_or(if quick { 8 } else { 24 });
    let mut families = Vec::new();
    for (fi, inst) in crate::small_catalog().iter().enumerate() {
        let g: &(dyn Partitionable + Sync) = inst.graph.as_ref();
        let n = g.node_count();
        let bound = g.driver_fault_bound();
        // Cap concurrent faults below the bound so every epoch is
        // diagnosable; reuse the sweep's fault ladder to stay consistent.
        let max_faults = fault_sizes(bound).into_iter().max().unwrap_or(1);
        let behavior = TesterBehavior::Random {
            seed: 0x0A11 + fi as u64,
        };
        let timeline = EpochTimeline::poisson(
            n,
            epochs,
            ONSET_RATE,
            RECOVERY_RATE,
            max_faults,
            0x0E9 + fi as u64,
            behavior,
        );
        let session = Diagnoser::new(g).verify_sampled(2, 0x51 + fi as u64);
        let mut monitor = session.monitor().expect("in-process session");
        let detection = Histogram::new();
        let mut rec = OnlineFamilyRecord {
            family: inst.family,
            instance: g.name(),
            nodes: n,
            parts: g.part_count(),
            epochs,
            escalated: 0,
            quiescent: 0,
            sparse_epochs: 0,
            sparse_incremental_lookups: 0,
            sparse_scratch_lookups: 0,
            total_incremental_lookups: 0,
            total_scratch_lookups: 0,
            amortized_incremental: 0.0,
            amortized_scratch: 0.0,
            sparse_cheaper: false,
            detection_latency_ns: HistogramSummary::empty(),
            verified: 0,
            disagreements: 0,
        };
        let mut prev_faults: Vec<usize> = Vec::new();
        for e in 0..timeline.epoch_count() {
            let faults = timeline.faults_at(e);
            let s = OracleSyndrome::new(faults.clone(), behavior);
            let report = match monitor.ingest(&s, &timeline.delta_at(e)) {
                Ok(r) => r,
                Err(_) => {
                    // The timeline is capped under the bound, so a failed
                    // epoch is itself a disagreement with the model.
                    rec.disagreements += 1;
                    continue;
                }
            };
            let scratch = OracleSyndrome::new(faults.clone(), behavior);
            let want = match diagnose(g, &scratch) {
                Ok(d) => d,
                Err(_) => {
                    rec.disagreements += 1;
                    continue;
                }
            };
            if !bit_identical(&report.diagnosis, &want) {
                rec.disagreements += 1;
            }
            if report.escalation.is_some() {
                rec.escalated += 1;
            }
            if report.quiescent {
                rec.quiescent += 1;
            }
            rec.total_incremental_lookups += report.lookups;
            rec.total_scratch_lookups += want.lookups_used;
            if report.escalation.is_none() && report.dirty_parts <= 1 {
                rec.sparse_epochs += 1;
                rec.sparse_incremental_lookups += report.lookups;
                rec.sparse_scratch_lookups += want.lookups_used;
            }
            if report
                .diagnosis
                .faults
                .iter()
                .any(|f| !prev_faults.contains(f))
            {
                let nanos = report.telemetry.total_nanos();
                detection.record(u64::try_from(nanos).unwrap_or(u64::MAX));
            }
            if e % 4 == 3 {
                rec.verified += 1;
                let verdict = session.verify_claim(
                    &s,
                    &report.diagnosis.faults,
                    report.diagnosis.certified_part,
                );
                if !verdict.agreed_or_unverified() {
                    rec.disagreements += 1;
                }
            }
            prev_faults = report.diagnosis.faults.clone();
        }
        if rec.sparse_epochs > 0 {
            rec.amortized_incremental =
                rec.sparse_incremental_lookups as f64 / rec.sparse_epochs as f64;
            rec.amortized_scratch = rec.sparse_scratch_lookups as f64 / rec.sparse_epochs as f64;
            rec.sparse_cheaper = rec.amortized_incremental < rec.amortized_scratch;
        }
        rec.detection_latency_ns = detection.snapshot();
        families.push(rec);
    }
    let disagreements = families.iter().map(|f| f.disagreements).sum();
    let families_without_savings = families.iter().filter(|f| !f.sparse_cheaper).count();
    OnlineRecord {
        epochs_per_family: epochs,
        onset_rate: ONSET_RATE,
        recovery_rate: RECOVERY_RATE,
        families,
        disagreements,
        families_without_savings,
        scale: None,
    }
}

/// Onsets and recoveries per epoch at scale: enough that nearly every
/// epoch moves a few of 10⁶ nodes.
const SCALE_RATE: f64 = 2.5;

/// The 10⁶-node cell of the online axis: one implicit monitor over
/// `Hypercube::new_certified(20)` for the axis' epoch budget, timed
/// against from-scratch epoch by epoch.
pub fn run_online_scale(quick: bool) -> OnlineScaleRecord {
    let epochs = mmdiag_exec::config::knobs()
        .epochs
        .unwrap_or(if quick { 8 } else { 24 });
    online_scale_cell(Hypercube::new_certified(20), epochs)
}

/// One implicit monitor over `g` replaying `epochs` epochs of a seeded
/// Poisson timeline with streaming syndromes; every epoch's labelling is
/// held bit-identical to a from-scratch run on the same syndrome.
fn online_scale_cell(g: Hypercube, epochs: usize) -> OnlineScaleRecord {
    let session = Diagnoser::implicit(g);
    let g = session.topology();
    let n = g.node_count();
    let behavior = TesterBehavior::Random { seed: 0x5CA1E };
    let timeline = EpochTimeline::poisson(
        n,
        epochs,
        SCALE_RATE,
        SCALE_RATE,
        g.driver_fault_bound() - 1,
        0x0E9A,
        behavior,
    );
    let mut monitor = session.monitor().expect("in-process session");
    let mut rec = OnlineScaleRecord {
        instance: g.name(),
        nodes: n,
        epochs,
        escalated: 0,
        quiescent: 0,
        monitor_ns: Vec::new(),
        scratch_ns: Vec::new(),
        monitor_lookups: Vec::new(),
        scratch_lookups: Vec::new(),
        disagreements: 0,
    };
    for e in 0..timeline.epoch_count() {
        let faults = timeline.faults_at(e);
        let s = OnDemandOracle::from_fault_set(faults, behavior);
        let sw = Stopwatch::start();
        let got = monitor.ingest(&s, &timeline.delta_at(e));
        rec.monitor_ns.push(sw.elapsed_ns());
        let scratch = OnDemandOracle::from_fault_set(faults, behavior);
        let sw = Stopwatch::start();
        let want = diagnose(g, &scratch);
        rec.scratch_ns.push(sw.elapsed_ns());
        match (got, want) {
            (Ok(report), Ok(want)) => {
                rec.disagreements += u64::from(!bit_identical(&report.diagnosis, &want));
                rec.escalated += usize::from(report.escalation.is_some());
                rec.quiescent += usize::from(report.quiescent);
                rec.monitor_lookups.push(report.lookups);
                rec.scratch_lookups.push(want.lookups_used);
            }
            _ => rec.disagreements += 1,
        }
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scale cell's protocol on a small hypercube: every epoch agrees
    /// and both wall times are kept.
    #[test]
    fn online_scale_cell_agrees_every_epoch() {
        let rec = online_scale_cell(Hypercube::new_certified(10), 6);
        assert_eq!(rec.disagreements, 0);
        assert!(rec.escalated >= 1, "the initial epoch escalates");
        assert_eq!(rec.monitor_ns.len(), 6);
        assert_eq!(rec.scratch_ns.len(), 6);
        assert_eq!(rec.monitor_lookups.len(), 6);
    }

    #[test]
    fn online_axis_quick_covers_every_family_and_agrees() {
        let rec = run_online(true);
        assert_eq!(rec.families.len(), 14, "all fourteen families replayed");
        assert_eq!(rec.disagreements, 0, "every epoch bit-identical");
        assert_eq!(
            rec.families_without_savings,
            0,
            "sparse epochs beat from-scratch on every family: {:?}",
            rec.families
                .iter()
                .filter(|f| !f.sparse_cheaper)
                .map(|f| (
                    f.family,
                    f.sparse_epochs,
                    f.amortized_incremental,
                    f.amortized_scratch
                ))
                .collect::<Vec<_>>()
        );
        for f in &rec.families {
            assert!(
                f.escalated >= 1,
                "{}: the initial epoch escalates",
                f.family
            );
            assert!(f.sparse_epochs > 0, "{}: no sparse epoch seen", f.family);
            assert!(
                f.total_incremental_lookups <= f.total_scratch_lookups,
                "{}: honest totals still at or below from-scratch",
                f.family
            );
        }
    }
}
