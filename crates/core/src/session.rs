//! The session layer: the one canonical, phase-instrumented
//! implementation of the Theorem-1 driver, and the substrate of the
//! umbrella crate's `mmdiag::Diagnoser` front door.
//!
//! * [`run_with`] — one run on the calling thread, in the caller slot of
//!   a session's [`WorkspacePool`]; [`run_sequential`] is the same run in
//!   a transient workspace (what [`crate::diagnose`] wraps). Neither takes
//!   a policy;
//! * [`run_batch`] — one batch of syndromes under a [`BackendPolicy`],
//!   resolved per instance against
//!   [`SEQUENTIAL_CUTOVER_NODES`](crate::SEQUENTIAL_CUTOVER_NODES): in
//!   order on the calling thread, or fanned out over a pool;
//! * [`probe_part`] / [`grow_from_certificate`] — the two halves of a
//!   run as separate steps, for callers that rebuild the run from its
//!   parts (the repository benchmark times each one this way);
//!   [`GrowthMemo::grow`](crate::GrowthMemo::grow) returns the diagnosis
//!   [`grow_from_certificate`] returns, with its growth rounds;
//! * [`DiagnosisReport`] — the [`Diagnosis`] plus the §4.1
//!   [`Certificate`] (the restricted probe tree, up to the first flush
//!   that certifies, that proved the seed part all-healthy), per-phase
//!   [`PhaseTelemetry`] (probe/certify/grow wall times and lookup counts,
//!   growth round by round), the backend label
//!   (`"pooled"` only for a batch job that ran on a pool worker), and a
//!   [`VerificationVerdict`] slot the umbrella session fills from its
//!   verification policy.
//!
//! Every entry point runs one function: the in-order probe scan on a
//! workspace slot, then one growth loop, on the thread that runs the job.
//! A pool's only job is [`run_batch`]'s fan-out of whole runs. The epoch
//! monitor ([`crate::monitor`]) runs the same function in its own
//! workspace, growing through its [`GrowthMemo`].
//!
//! **Determinism contract**: a batch job probes the same parts in the
//! same order and grows the same layers as a single run, so a report is
//! bit-identical across policies — faults, certificate, healthy set,
//! spanning tree and the accounting (`probes`, `lookups_used`, the phase
//! lookups and every round's frontier, acceptances and lookups). Only
//! wall times differ, and, in a pooled [`run_batch`] whose jobs share one
//! source, the accounting (see there). The phase
//! instrumentation is a handful of monotonic-clock reads per growth round
//! (through the `mmdiag_trace::clock` door) — it consults no extra
//! syndrome entries.
//! When [`SessionOptions::tracer`] is enabled, each phase and round
//! additionally records one span into the trace sink whose duration and
//! lookup attribute are *the same values* stored in [`PhaseTelemetry`] —
//! `mmdiag_trace::TraceSummary` built from the drained trace agrees with
//! the report exactly.

use crate::backend::{BackendPolicy, WorkspacePool};
use crate::driver::{Diagnosis, DiagnosisError};
use crate::grow::grow_and_sweep;
use crate::memo::GrowthMemo;
use crate::set_builder::{set_builder_in_part, SetBuilderOutcome, Workspace};
use crate::tree::SpanningTree;
use mmdiag_syndrome::SyndromeSource;
use mmdiag_topology::{NodeId, Partitionable, Topology};
use mmdiag_trace::{checked_delta, Tracer, CAT_PHASE, PHASE_CERTIFY, PHASE_GROW, PHASE_PROBE};

/// The §4.1 all-healthy certificate: the restricted tree grown at the
/// certified part's representative up to the first layer flush that
/// certifies, whose distinct internal contributors exceed the fault bound
/// there (see `set_builder`'s module docs for why the probe stops). The
/// free-function API always discarded this artifact (only
/// `Diagnosis::certified_part` survived); the session keeps it so callers
/// can inspect the proof.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// The certified part (equals `Diagnosis::certified_part`).
    pub part: usize,
    /// The part's representative — the probe seed and tree root.
    pub representative: NodeId,
    /// Distinct internal contributors of the probe tree at the flush
    /// where it stopped (> fault bound).
    pub contributors: usize,
    /// Levels the restricted growth built up to that flush.
    pub rounds: usize,
    /// The restricted probe tree itself, up to that flush.
    pub tree: SpanningTree,
}

impl Certificate {
    /// Takes the probe outcome by value so the restricted tree is moved,
    /// not cloned — certificate assembly costs no per-node work.
    fn from_probe(part: usize, representative: NodeId, probe: SetBuilderOutcome) -> Self {
        Certificate {
            part,
            representative,
            contributors: probe.contributors,
            rounds: probe.rounds,
            tree: probe.tree,
        }
    }
}

/// Wall time and lookup accounting per driver phase. Timings are
/// monotonic-clock nanoseconds around the phase; lookups are deltas of
/// the source's counter (the same accounting as
/// `Diagnosis::lookups_used`), identical across batch policies.
#[derive(Clone, Debug, Default)]
pub struct PhaseTelemetry {
    /// Restricted probe scan (parts probed in order until one certifies).
    pub probe_nanos: u128,
    /// Certificate selection + artifact assembly (cloning the winning
    /// restricted tree out of the probe outcome).
    pub certify_nanos: u128,
    /// Unrestricted growth from the certified seed + the `N(U_r)` sweep.
    pub grow_nanos: u128,
    /// Syndrome entries consulted by the probe phase.
    pub probe_lookups: u64,
    /// Syndrome entries consulted by the growth phase (the sweep reads
    /// adjacency only).
    pub grow_lookups: u64,
    /// Per-layer breakdown of the growth phase, one round per layer, all
    /// grown on the thread that runs the job. Round lookups partition
    /// [`PhaseTelemetry::grow_lookups`] exactly, except in an epoch
    /// monitor's repaired growth: its rounds are the layers it re-grew,
    /// and the re-witness reads the rest (the `grow.repair` span; see
    /// [`GrowthMemo::grow`](crate::GrowthMemo::grow)). Round times nest
    /// inside [`PhaseTelemetry::grow_nanos`].
    pub grow_rounds: Vec<GrowRound>,
}

/// One layer of the growth phase (each round is also a `grow.round`
/// trace span nested inside the `grow` phase span). Everything but
/// `nanos` is the same under every batch policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct GrowRound {
    /// Nodes scanned as this round's frontier.
    pub frontier: usize,
    /// Nodes accepted into the new layer.
    pub accepted: usize,
    /// Syndrome entries consulted during the round.
    pub lookups: u64,
    /// Wall time of the round in nanoseconds.
    pub nanos: u128,
    /// Always `false`: every layer runs on the calling thread. Retired;
    /// kept only because the repository benchmark (`mmbench/`) still
    /// reads it.
    pub parallel: bool,
}

impl GrowRound {
    /// `(frontier, accepted, lookups)` of every round: the part of the
    /// growth telemetry every batch policy agrees on.
    pub fn shapes(rounds: &[GrowRound]) -> Vec<(usize, usize, u64)> {
        rounds
            .iter()
            .map(|r| (r.frontier, r.accepted, r.lookups))
            .collect()
    }
}

impl PhaseTelemetry {
    /// Sum of the phase wall times — the session's own account of how
    /// long the diagnosis took, excluding precondition checks and
    /// verification.
    pub fn total_nanos(&self) -> u128 {
        self.probe_nanos + self.certify_nanos + self.grow_nanos
    }
}

/// What a verification policy concluded about a finished diagnosis.
///
/// The data shape lives here in `mmdiag-core` so [`DiagnosisReport`] can
/// carry it, but core never *runs* a verification — the umbrella crate's
/// `Diagnoser` fills this from `mmdiag-baselines` (the sampled
/// spot-checker or the full-table baseline) per its configured policy.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum VerificationVerdict {
    /// No verification was requested (`VerificationPolicy::None`).
    Unverified,
    /// The seeded sampled spot-check ran: certificate re-derived from the
    /// live syndrome, per-part samples re-checked against the claimed
    /// labelling (one-sided error — see `mmdiag_baselines::sampled_check`).
    Sampled {
        /// Nodes sampled across all parts.
        samples: usize,
        /// Syndrome entries the label re-checks consulted.
        checked_tests: u64,
        /// Sampled nodes whose neighbourhood contradicted the diagnosis.
        disagreements: usize,
        /// Did the re-derived probe tree certify at the claimed part?
        certificate_ok: bool,
        /// Certificate ok, no disagreements, fault bound respected.
        agree: bool,
        /// Wall time of the check.
        nanos: u128,
    },
    /// The full-table baseline re-diagnosed the instance independently.
    FullBaseline {
        /// Syndrome entries the baseline consulted (the whole table).
        lookups: u64,
        /// Baseline fault set equals the session's.
        agree: bool,
        /// Wall time of the baseline run.
        nanos: u128,
    },
    /// The verification itself could not run (e.g. the baseline erred on
    /// a borderline instance) — distinct from a refutation, so callers
    /// can tell "could not check" from "checked and disagreed".
    Failed {
        /// Which policy failed (`"full_baseline"`: the sampled check
        /// always returns a verdict).
        method: &'static str,
        /// The underlying error, rendered.
        error: String,
    },
}

impl VerificationVerdict {
    /// `false` when a verification ran and disagreed, or could not run.
    pub fn agreed_or_unverified(&self) -> bool {
        match self {
            VerificationVerdict::Unverified => true,
            VerificationVerdict::Sampled { agree, .. } => *agree,
            VerificationVerdict::FullBaseline { agree, .. } => *agree,
            VerificationVerdict::Failed { .. } => false,
        }
    }
}

/// Everything one session run produced: the classic [`Diagnosis`], the
/// §4.1 certificate, per-phase telemetry, the backend label and the
/// verification verdict (filled by the umbrella `Diagnoser`;
/// [`VerificationVerdict::Unverified`] at this layer).
#[derive(Clone, Debug)]
pub struct DiagnosisReport {
    /// The diagnosis — identical to what [`crate::diagnose`] returns.
    pub diagnosis: Diagnosis,
    /// The §4.1 certificate at the certified part.
    pub certificate: Certificate,
    /// Per-phase wall times and lookup counts.
    pub telemetry: PhaseTelemetry,
    /// `"pooled"` for a batch job that ran on a pool worker, else
    /// `"sequential"`: every single run is `"sequential"`.
    pub backend: &'static str,
    /// The verification policy's conclusion.
    pub verification: VerificationVerdict,
}

/// Per-run session options.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct SessionOptions {
    /// Explicit fault bound; `None` means the family's
    /// [`Partitionable::driver_fault_bound`].
    pub fault_bound: Option<usize>,
    /// Run §5's decomposition precondition check first (off for
    /// borderline instances run with an explicit bound).
    pub check_preconditions: bool,
    /// Where phase spans are recorded. The default is the disabled
    /// tracer (a cloneable `None` handle — recording costs one `Option`
    /// check and stores nothing); the umbrella `Diagnoser` installs an
    /// enabled one via `.trace(...)` or `.stats(...)`.
    pub tracer: Tracer,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            fault_bound: None,
            check_preconditions: true,
            tracer: Tracer::disabled(),
        }
    }
}

impl SessionOptions {
    /// The run's fault bound on `g`: the explicit one, else `g`'s
    /// [`Partitionable::driver_fault_bound`].
    pub fn bound<T: Partitionable + ?Sized>(&self, g: &T) -> usize {
        self.fault_bound.unwrap_or_else(|| g.driver_fault_bound())
    }

    /// §5's precondition check on `g` (unless disabled), then
    /// [`SessionOptions::bound`].
    pub fn checked_bound<T: Partitionable + ?Sized>(&self, g: &T) -> Result<usize, DiagnosisError> {
        if self.check_preconditions {
            g.check_partition_preconditions()
                .map_err(DiagnosisError::Preconditions)?;
        }
        Ok(self.bound(g))
    }
}

/// One part's restricted probe as a first-class outcome: one iteration of
/// every run's probe scan. The restricted probe at part `p` consults only
/// tests `s_u(v, w)` with `u`, `v`, `w` all inside `p`
/// (`set_builder_in_part` filters candidates and witnesses by part
/// membership), and grows the restricted tree up to the first layer flush
/// that certifies, or through the whole part when none does.
#[derive(Clone, Debug)]
pub struct PartProbe {
    /// The probed part.
    pub part: usize,
    /// The part's representative — the probe seed.
    pub representative: NodeId,
    /// Did the restricted tree certify the part all-healthy?
    pub all_healthy: bool,
    /// Syndrome entries this probe consulted, up to the flush where it
    /// stopped.
    pub lookups: u64,
    /// The §4.1 certificate, present exactly when `all_healthy`.
    pub certificate: Option<Certificate>,
}

/// Probe a single part: the restricted `Set_Builder` growth at the part's
/// representative up to the first layer flush that certifies, packaged
/// with its certificate when it certifies. This is one iteration of every
/// run's probe scan, split out so a caller can drive the scan itself.
pub fn probe_part<T, S>(
    g: &T,
    s: &S,
    part: usize,
    fault_bound: usize,
    ws: &mut Workspace,
) -> PartProbe
where
    T: Partitionable + ?Sized,
    S: SyndromeSource + ?Sized,
{
    let u0 = g.representative(part);
    let start = s.lookups();
    let probe = set_builder_in_part(g, s, u0, fault_bound, ws);
    let lookups = checked_delta(s.lookups(), start);
    let all_healthy = probe.all_healthy;
    PartProbe {
        part,
        representative: u0,
        all_healthy,
        lookups,
        certificate: all_healthy.then(|| Certificate::from_probe(part, u0, probe)),
    }
}

/// Unrestricted growth + sweep from an existing certificate — the
/// post-probe half of the Theorem-1 driver as a first-class step. The
/// growth from a given certified seed is deterministic, so re-running it
/// against a moved syndrome yields exactly the labelling a from-scratch
/// `diagnose` would produce once the probe scan lands on the same part.
/// `probes` and `start_lookups` seed the diagnosis' accounting fields
/// (a caller passes its walk so far, so `lookups_used` reports its whole
/// cost). Growth runs on the calling thread, untraced.
/// [`GrowthMemo::grow`](crate::GrowthMemo::grow) takes the same
/// arguments and a tracer, and returns the same diagnosis with its growth
/// rounds, repairing its last growth instead of walking again.
pub fn grow_from_certificate<T, S>(
    g: &T,
    s: &S,
    certificate: &Certificate,
    probes: usize,
    fault_bound: usize,
    start_lookups: u64,
    ws: &mut Workspace,
) -> Result<Diagnosis, DiagnosisError>
where
    T: Topology + ?Sized,
    S: SyndromeSource + ?Sized,
{
    grow_and_sweep(
        g,
        s,
        certificate.representative,
        certificate.part,
        probes,
        fault_bound,
        start_lookups,
        ws,
        &Tracer::disabled(),
    )
    .map(|(diagnosis, _)| diagnosis)
}

/// The one session run, in a caller-provided workspace: the in-order
/// probe scan, then growth from the lowest certifying part. With a
/// `memo` (the epoch monitor's), the growth goes through it: the same
/// diagnosis, repaired from the memo's last growth when that came from
/// the same seed, with the rounds [`GrowthMemo::grow`] returns. Requires
/// no `Sync` bounds; the report is labelled `"sequential"`.
pub(crate) fn run_in_ws<T, S>(
    g: &T,
    s: &S,
    fault_bound: usize,
    tracer: &Tracer,
    ws: &mut Workspace,
    memo: Option<&mut GrowthMemo>,
) -> Result<DiagnosisReport, DiagnosisError>
where
    T: Partitionable + ?Sized,
    S: SyndromeSource + ?Sized,
{
    let start_lookups = s.lookups();
    let probe_span = tracer.span(CAT_PHASE, PHASE_PROBE);
    let mut winner: Option<(usize, NodeId, SetBuilderOutcome)> = None;
    let mut probes = 0usize;
    for part in 0..g.part_count() {
        let u0 = g.representative(part);
        probes += 1;
        let probe = set_builder_in_part(g, s, u0, fault_bound, ws);
        if probe.all_healthy {
            winner = Some((part, u0, probe));
            break;
        }
    }
    let probe_lookups = checked_delta(s.lookups(), start_lookups);
    // The span's return *is* the telemetry value, so the trace and the
    // report can never disagree on a phase duration.
    let probe_nanos = u128::from(probe_span.finish_with_value(probe_lookups));
    let (part, u0, probe) = winner.ok_or(DiagnosisError::NoPartCertified)?;

    let certify_span = tracer.span(CAT_PHASE, PHASE_CERTIFY);
    let certificate = Certificate::from_probe(part, u0, probe);
    let certify_nanos = u128::from(certify_span.finish());

    let grow_span = tracer.span(CAT_PHASE, PHASE_GROW);
    let (diagnosis, grow_rounds) = match memo {
        Some(memo) => memo.grow(
            g,
            s,
            &certificate,
            probes,
            fault_bound,
            start_lookups,
            ws,
            tracer,
        )?,
        None => grow_and_sweep(
            g,
            s,
            u0,
            part,
            probes,
            fault_bound,
            start_lookups,
            ws,
            tracer,
        )?,
    };
    let grow_lookups = checked_delta(checked_delta(s.lookups(), start_lookups), probe_lookups);
    let grow_nanos = u128::from(grow_span.finish_with_value(grow_lookups));

    Ok(DiagnosisReport {
        diagnosis,
        certificate,
        telemetry: PhaseTelemetry {
            probe_nanos,
            certify_nanos,
            grow_nanos,
            probe_lookups,
            grow_lookups,
            grow_rounds,
        },
        backend: "sequential",
        verification: VerificationVerdict::Unverified,
    })
}

/// One run in the workspace slot of `worker` (the caller slot for
/// `None`), labelled `"pooled"` exactly when it ran on a pool worker.
fn run_in_slot<T, S>(
    g: &T,
    s: &S,
    fault_bound: usize,
    opts: &SessionOptions,
    wsp: &WorkspacePool,
    worker: Option<usize>,
) -> Result<DiagnosisReport, DiagnosisError>
where
    T: Partitionable + ?Sized,
    S: SyndromeSource + ?Sized,
{
    let mut report = wsp.with(worker, |ws| {
        run_in_ws(g, s, fault_bound, &opts.tracer, ws, None)
    })?;
    if worker.is_some() {
        report.backend = "pooled";
    }
    Ok(report)
}

/// [`run_with`] in a transient workspace.
pub fn run_sequential<T, S>(
    g: &T,
    s: &S,
    opts: &SessionOptions,
) -> Result<DiagnosisReport, DiagnosisError>
where
    T: Partitionable + ?Sized,
    S: SyndromeSource + ?Sized,
{
    run_with(g, s, opts, None)
}

/// One session run — what the umbrella `Diagnoser::run` calls.
/// Preconditions (unless disabled), bound resolution, then the canonical
/// probe → certify → grow pipeline with phase telemetry, on the calling
/// thread, in the caller slot of `ws_pool` (or a transient workspace).
/// The report is labelled `"sequential"`.
pub fn run_with<T, S>(
    g: &T,
    s: &S,
    opts: &SessionOptions,
    ws_pool: Option<&WorkspacePool>,
) -> Result<DiagnosisReport, DiagnosisError>
where
    T: Partitionable + ?Sized,
    S: SyndromeSource + ?Sized,
{
    let bound = opts.checked_bound(g)?;
    match ws_pool {
        Some(wsp) => run_in_slot(g, s, bound, opts, wsp, None),
        None => run_in_ws(
            g,
            s,
            bound,
            &opts.tracer,
            &mut Workspace::new(g.node_count()),
            None,
        ),
    }
}

/// Evaluate many syndromes against one instance in a single session
/// submission — what the umbrella `Diagnoser::submit_batch` calls.
///
/// Sequential resolution: the caller slot, syndromes in order. Pooled
/// resolution: syndromes fan out over the pool through [`Pool::map`],
/// each run whole inside one job on that worker's workspace slot and
/// labelled `"pooled"`. A one-job batch has nothing to fan out: `map`
/// runs it on the calling thread, in the caller slot, and it reads
/// `"sequential"`. Results come back **in input order** and are
/// bit-identical to one-at-a-time runs.
///
/// [`Pool::map`]: mmdiag_exec::Pool::map
///
/// The accounting (`lookups_used`, the phase and round lookups) is read
/// off the source's own counter, so it is exact only when every job has
/// a source of its own. Pooled jobs that share one source run
/// concurrently, and each job's counts then include what its siblings
/// read meanwhile; every other field stays exact.
pub fn run_batch<T, S>(
    g: &T,
    syndromes: &[S],
    policy: BackendPolicy<'_>,
    opts: &SessionOptions,
    ws_pool: Option<&WorkspacePool>,
) -> Vec<Result<DiagnosisReport, DiagnosisError>>
where
    T: Partitionable + Sync + ?Sized,
    S: SyndromeSource + Sync,
{
    let bound = match opts.checked_bound(g) {
        Ok(bound) => bound,
        Err(e) => return syndromes.iter().map(|_| Err(e.clone())).collect(),
    };
    let owned;
    let wsp = match ws_pool {
        Some(wsp) => wsp,
        None => {
            owned = WorkspacePool::for_policy(g.node_count(), &policy);
            &owned
        }
    };
    match policy.resolve(g.node_count()) {
        Some(pool) => pool.map(syndromes, |_, s| {
            run_in_slot(g, s, bound, opts, wsp, pool.worker_index())
        }),
        None => syndromes
            .iter()
            .map(|s| run_in_slot(g, s, bound, opts, wsp, None))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::diagnose;
    use mmdiag_exec::Pool;
    use mmdiag_syndrome::{FaultSet, OracleSyndrome, TesterBehavior};
    use mmdiag_topology::families::Hypercube;

    #[test]
    fn sequential_report_carries_certificate_and_telemetry() {
        let g = Hypercube::new(7);
        let s = OracleSyndrome::new(
            FaultSet::new(128, &[3, 64, 90]),
            TesterBehavior::Random { seed: 1 },
        );
        let legacy = diagnose(&g, &s).unwrap();
        s.reset_lookups();
        let report = run_sequential(&g, &s, &SessionOptions::default()).unwrap();
        // The diagnosis is bit-identical to the free function's.
        assert_eq!(report.diagnosis, legacy);
        // The certificate is the restricted tree at the certified part.
        assert_eq!(report.certificate.part, legacy.certified_part);
        assert_eq!(
            report.certificate.representative,
            g.representative(legacy.certified_part)
        );
        assert!(report.certificate.contributors > g.driver_fault_bound());
        report.certificate.tree.validate().unwrap();
        assert_eq!(
            report.certificate.tree.root(),
            g.representative(legacy.certified_part)
        );
        // Telemetry: lookups split exactly, timings non-trivial.
        assert_eq!(
            report.telemetry.probe_lookups + report.telemetry.grow_lookups,
            legacy.lookups_used
        );
        assert!(report.telemetry.probe_nanos > 0);
        assert!(report.telemetry.grow_nanos > 0);
        assert!(report.telemetry.total_nanos() >= report.telemetry.probe_nanos);
        assert_eq!(report.backend, "sequential");
        assert!(report.verification.agreed_or_unverified());
    }

    #[test]
    fn traced_sequential_run_agrees_with_telemetry_exactly() {
        use mmdiag_trace::{TraceConfig, TraceSummary, PHASE_GROW_ROUND};
        let g = Hypercube::new(7);
        let s = OracleSyndrome::new(
            FaultSet::new(128, &[3, 64, 90]),
            TesterBehavior::Random { seed: 7 },
        );
        let opts = SessionOptions {
            tracer: Tracer::new(TraceConfig::default()),
            ..SessionOptions::default()
        };
        let report = run_sequential(&g, &s, &opts).unwrap();
        let summary = TraceSummary::from_events(&opts.tracer.drain(), opts.tracer.dropped());
        // Nanosecond-exact: the span `finish` return *is* the telemetry.
        assert_eq!(summary.probe_nanos, report.telemetry.probe_nanos);
        assert_eq!(summary.certify_nanos, report.telemetry.certify_nanos);
        assert_eq!(summary.grow_nanos, report.telemetry.grow_nanos);
        assert_eq!(summary.probe_lookups, report.telemetry.probe_lookups);
        assert_eq!(summary.grow_lookups, report.telemetry.grow_lookups);
        // Per-round telemetry partitions the grow lookups exactly.
        let rounds = &report.telemetry.grow_rounds;
        assert!(!rounds.is_empty(), "a sequential growth records its rounds");
        assert!(rounds.iter().all(|r| !r.parallel));
        assert_eq!(
            rounds.iter().map(|r| r.lookups).sum::<u64>(),
            report.telemetry.grow_lookups
        );
        assert_eq!(rounds[0].frontier, 1, "round 0 is the level-1 seed scan");
        assert_eq!(
            rounds.iter().map(|r| r.accepted).sum::<usize>() + 1,
            report.diagnosis.healthy_count,
            "accepted nodes across rounds + the seed = |U_r|"
        );
        // The grow.round spans' value attributes sum to the grow lookups,
        // and their time nests inside the grow phase span.
        assert_eq!(
            summary.value_sum(PHASE_GROW_ROUND),
            report.telemetry.grow_lookups
        );
        assert!(summary.total_ns(PHASE_GROW_ROUND) <= summary.grow_nanos);
        assert_eq!(
            summary.span_count,
            3 + rounds.len(),
            "one span per phase and per growth round"
        );
        assert_eq!(summary.dropped, 0);
    }

    /// A deliberately degenerate decomposition: zero parts, with the
    /// precondition hook relaxed to let it through.
    struct NoParts;
    impl Topology for NoParts {
        fn node_count(&self) -> usize {
            4
        }
        fn neighbors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
            out.clear();
            out.push((u + 1) % 4);
            out.push((u + 3) % 4);
        }
        fn diagnosability(&self) -> usize {
            0
        }
        fn name(&self) -> String {
            "C4/no-parts".into()
        }
    }
    impl Partitionable for NoParts {
        fn part_count(&self) -> usize {
            0
        }
        fn part_of(&self, _u: NodeId) -> usize {
            0
        }
        fn representative(&self, _part: usize) -> NodeId {
            0
        }
        fn check_partition_preconditions(&self) -> Result<(), String> {
            Ok(()) // relaxed on purpose
        }
    }

    #[test]
    fn zero_part_decomposition_is_an_error_not_a_panic() {
        let g = NoParts;
        let s = OracleSyndrome::new(FaultSet::empty(4), TesterBehavior::AllZero);
        let pool = Pool::new(2);
        let opts = SessionOptions::default();
        assert!(matches!(
            run_with(&g, &s, &opts, None),
            Err(DiagnosisError::NoPartCertified)
        ));
        for policy in [
            BackendPolicy::Sequential,
            BackendPolicy::Pooled(&pool),
            BackendPolicy::Auto,
        ] {
            assert!(matches!(
                run_batch(&g, &[&s], policy, &opts, None)[..],
                [Err(DiagnosisError::NoPartCertified)]
            ));
        }
    }

    #[test]
    fn batch_reports_are_in_order_and_bit_identical_across_policies() {
        let g = Hypercube::new(7);
        let syndromes: Vec<OracleSyndrome> = (0..5)
            .map(|i| {
                OracleSyndrome::new(
                    FaultSet::new(128, &[i, 50 + i]),
                    TesterBehavior::Random { seed: i as u64 },
                )
            })
            .collect();
        let pool = Pool::new(4);
        let opts = SessionOptions::default();
        let seq = run_batch(&g, &syndromes, BackendPolicy::Sequential, &opts, None);
        for s in &syndromes {
            s.reset_lookups();
        }
        let par = run_batch(&g, &syndromes, BackendPolicy::Pooled(&pool), &opts, None);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.diagnosis, b.diagnosis);
            assert_eq!(a.certificate.contributors, b.certificate.contributors);
            assert_eq!(a.certificate.rounds, b.certificate.rounds);
            assert_eq!(a.certificate.tree.edges(), b.certificate.tree.edges());
            // The calling thread is no pool worker: every pooled job ran
            // on one.
            assert_eq!((a.backend, b.backend), ("sequential", "pooled"));
            assert_eq!(
                a.telemetry.probe_lookups + a.telemetry.grow_lookups,
                a.diagnosis.lookups_used
            );
        }
    }

    /// Pooled batch jobs that share one source diagnose exactly, but
    /// read through one counter: each job's accounting lies between its
    /// own reads and all the jobs' reads, and the source's total is exact.
    #[test]
    fn pooled_batch_jobs_sharing_a_source_count_through_one_counter() {
        use mmdiag_topology::Cached;
        let base = Hypercube::new_certified(10);
        let g = Cached::new(&base);
        let s = OracleSyndrome::new(
            FaultSet::new(1024, &[1, 500, 1000]),
            TesterBehavior::Random { seed: 5 },
        );
        let opts = SessionOptions::default();
        let solo = run_sequential(&g, &s, &opts).unwrap().diagnosis;
        let pool = Pool::new(2);
        s.reset_lookups();
        let reports = run_batch(&g, &[&s, &s], BackendPolicy::Pooled(&pool), &opts, None);
        assert_eq!(s.lookups(), 2 * solo.lookups_used);
        for report in reports {
            let d = report.unwrap().diagnosis;
            let counted = d.lookups_used;
            assert!(
                (solo.lookups_used..=2 * solo.lookups_used).contains(&counted),
                "{counted} lookups against {} solo",
                solo.lookups_used
            );
            assert_eq!(
                Diagnosis {
                    lookups_used: solo.lookups_used,
                    ..d
                },
                solo
            );
        }
    }

    /// A run that ends in `NoPartCertified` has probed every part. Each
    /// probe starts by zeroing the visited-bitmap words the probe before it
    /// touched, and nothing more: over a whole Q_16 scan the
    /// words cleared number at most the nodes the probes visited, which
    /// lie in disjoint parts, not one bitmap per part.
    #[test]
    fn probing_every_part_clears_only_the_words_each_probe_touched() {
        let g = Hypercube::new_certified(16);
        let (n, parts, bound) = (g.node_count(), g.part_count(), g.driver_fault_bound());
        // Every representative faulty, more faults than the bound: no
        // probe certifies.
        let seeds: Vec<NodeId> = (0..parts).map(|p| g.representative(p)).collect();
        assert!(seeds.len() > bound);
        let s = OracleSyndrome::new(FaultSet::new(n, &seeds), TesterBehavior::Random { seed: 2 });
        let mut ws = Workspace::new(n);
        let got = run_in_ws(&g, &s, bound, &Tracer::disabled(), &mut ws, None);
        assert_eq!(got.unwrap_err(), DiagnosisError::NoPartCertified);

        // What each probe but the last touched, the next one cleared.
        let mut other = Workspace::new(n);
        let (mut visited, mut touched) = (0, 0);
        for &u0 in &seeds[..parts - 1] {
            let probe = set_builder_in_part(&g, &s, u0, bound, &mut other);
            let mut words: Vec<NodeId> = probe.members.iter().map(|&v| v / 64).collect();
            words.sort_unstable();
            words.dedup();
            visited += probe.members.len();
            touched += words.len();
        }
        assert_eq!(ws.cleared, touched);
        assert!(
            touched <= visited && visited <= n,
            "{touched} words cleared for {visited} nodes visited over {parts} probes; \
             a whole bitmap per probe is {} words",
            parts * n.div_ceil(64)
        );
    }

    /// On S_7 and P_7 (720-node parts), fault-free and at the bound, the
    /// probe scan stops at its certificate: the run's probe lookups are
    /// within the §6 bound for the certificate's tree, and strictly below
    /// a full restricted growth of the same part.
    #[test]
    fn the_probe_scan_reads_no_further_than_its_certificate() {
        use crate::set_builder::{lookup_bound, set_builder_filtered};
        use mmdiag_topology::families::{Pancake, StarGraph};
        use mmdiag_topology::Cached;
        let bases: [Box<dyn Partitionable>; 2] =
            [Box::new(StarGraph::new(7)), Box::new(Pancake::new(7))];
        for base in &bases {
            let g = Cached::new(base.as_ref());
            let (n, bound) = (g.node_count(), g.driver_fault_bound());
            // The bound's faults scattered over the other parts' nodes.
            let faults: Vec<NodeId> = (0..n)
                .filter(|&v| g.part_of(v) != 0)
                .step_by(n / (bound + 1))
                .take(bound)
                .collect();
            for planted in [&[][..], &faults] {
                let s = OracleSyndrome::new(
                    FaultSet::new(n, planted),
                    TesterBehavior::Random { seed: 7 },
                );
                let report = run_sequential(&g, &s, &SessionOptions::default()).unwrap();
                assert_eq!(report.diagnosis.faults, planted);
                let (cert, ctx) = (&report.certificate, format!("{} {planted:?}", g.name()));
                assert_eq!((cert.part, report.diagnosis.probes), (0, 1), "{ctx}");
                let read = report.telemetry.probe_lookups;
                let most = lookup_bound(g.max_degree(), cert.tree.node_count());
                assert!(read <= most, "{ctx}: {read} probe lookups, bound {most}");
                let in_part = |v| g.part_of(v) == 0;
                let u0 = cert.representative;
                let full = set_builder_filtered(&g, &s, u0, bound, in_part, &mut Workspace::new(n));
                assert!(
                    read < full.lookups_used,
                    "{ctx}: {read} probe lookups, {} growing the whole part",
                    full.lookups_used
                );
            }
        }
    }

    #[test]
    fn unchecked_options_skip_preconditions() {
        use mmdiag_topology::families::NKStar;
        let g = NKStar::new(5, 2); // fails the §5 size preconditions
        let s = OracleSyndrome::new(FaultSet::empty(20), TesterBehavior::AllZero);
        assert!(matches!(
            run_sequential(&g, &s, &SessionOptions::default()),
            Err(DiagnosisError::Preconditions(_))
        ));
        // With the check off the scan itself runs. The parts are too
        // shallow to certify the nominal bound (that is *why* the
        // precondition fails), but a zero bound certifies from the first
        // internal node — exactly the borderline-instance use case the
        // unchecked options exist for.
        let opts = SessionOptions {
            fault_bound: Some(0),
            check_preconditions: false,
            ..SessionOptions::default()
        };
        let report = run_sequential(&g, &s, &opts).unwrap();
        assert!(report.diagnosis.faults.is_empty());
    }
}
