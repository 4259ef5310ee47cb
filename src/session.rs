//! One front door: the [`Diagnoser`] session API.
//!
//! A [`Diagnoser`] owns everything a diagnosis needs behind one builder:
//!
//! * **topology** — borrowed, materialised ([`mmdiag_topology::Cached`])
//!   or an owned family served from its generator math, behind the one
//!   [`TopologySource`] abstraction;
//! * **syndrome** — any live [`SyndromeSource`] (bitmap
//!   [`OracleSyndrome`] or streaming
//!   [`mmdiag_syndrome::OnDemandOracle`]) through [`Diagnoser::run`], or
//!   planted fault sets through [`Diagnoser::run_planted`] /
//!   [`Diagnoser::run_streaming`];
//! * **batch fan-out** — a [`BackendPolicy`] (sequential, a pool, or
//!   size-directed auto against
//!   [`SEQUENTIAL_CUTOVER_NODES`](mmdiag_core::SEQUENTIAL_CUTOVER_NODES))
//!   deciding whether [`Diagnoser::submit_batch`] fans out. A single run
//!   takes no policy: it runs on the calling thread and never spawns a
//!   pool;
//! * **verification** — a [`VerificationPolicy`]: none, the seeded
//!   sampled spot-check, or the full-table baseline — run as part of the
//!   same call, its [`VerificationVerdict`] riding on the report;
//! * **batching** — [`Diagnoser::submit_batch`] runs many jobs against one
//!   instance and reuses the session's own workspace pool across
//!   submissions;
//! * **simulation** — [`Diagnoser::simulate`] replays a
//!   [`FaultTimeline`] as timestamped messages under a [`LatencyModel`]
//!   in the event-level simulator, which runs the same core `Set_Builder`
//!   over the test results its messages carried.
//!
//! Underneath is one core run ([`mmdiag_core::session`]), so
//! `Diagnoser::new(&g).run(&s)` is bit-identical to
//! `mmdiag_core::diagnose(&g, &s)` — the workspace equivalence suite
//! asserts exactly that across all fourteen families and every policy.
//!
//! ```
//! use mmdiag::Diagnoser;
//! use mmdiag::syndrome::{FaultSet, OracleSyndrome, TesterBehavior};
//! use mmdiag::topology::families::Hypercube;
//!
//! let g = Hypercube::new(7);
//! let s = OracleSyndrome::new(
//!     FaultSet::new(128, &[3, 64, 90]),
//!     TesterBehavior::Random { seed: 1 },
//! );
//! let report = Diagnoser::new(&g).verify_full().run(&s).unwrap();
//! assert_eq!(report.diagnosis.faults, vec![3, 64, 90]);
//! assert!(report.verification.agreed_or_unverified());
//! assert_eq!(report.certificate.part, report.diagnosis.certified_part);
//! ```

use mmdiag_baselines::{diagnose_naive, sampled_check};
use mmdiag_core::monitor::MonitorSession;
use mmdiag_core::session::{self, SessionOptions};
use mmdiag_core::{
    BackendPolicy, DiagnosisError, DiagnosisReport, VerificationVerdict, WorkspacePool,
};
use mmdiag_distsim::{simulate_unchecked, FaultTimeline, LatencyModel, SimReport};
use mmdiag_syndrome::{FaultSet, OnDemandOracle, OracleSyndrome, SyndromeSource, TesterBehavior};
use mmdiag_topology::{Cached, NodeId, Partitionable};
use mmdiag_trace::{checked_delta, HubSession, MetricsHub, TraceConfig, Tracer};
use std::sync::OnceLock;

/// Where a session's topology comes from: a caller-borrowed instance, or
/// an owned materialised / implicit representation. One abstraction in
/// front of the `Cached`-CSR and generator-math paths, so every session
/// call is representation-agnostic: every topology emits its neighbours
/// ascending, so a family and its CSR copy give bit-identical diagnoses.
pub enum TopologySource<'g> {
    /// A borrowed instance (any `Partitionable + Sync`, trait object or
    /// concrete family).
    Borrowed(&'g (dyn Partitionable + Sync)),
    /// An owned instance — built by [`TopologySource::cached`] /
    /// [`TopologySource::implicit`], or any boxed custom topology.
    Owned(Box<dyn Partitionable + Sync>),
}

impl<'g> TopologySource<'g> {
    /// Materialise `fam` into a CSR ([`Cached`]) the session owns.
    pub fn cached<T: Partitionable + ?Sized>(fam: &T) -> TopologySource<'static> {
        TopologySource::Owned(Box::new(Cached::new(fam)))
    }

    /// Serve `fam` CSR-free from its generator math — the 10⁶–10⁷-node
    /// scale path. The session owns the family itself: no `O(N·Δ)` copy.
    pub fn implicit<T: Partitionable + Sync + 'static>(fam: T) -> TopologySource<'static> {
        TopologySource::Owned(Box::new(fam))
    }

    /// The topology view every session call runs against.
    pub fn view(&self) -> &(dyn Partitionable + Sync) {
        match self {
            TopologySource::Borrowed(g) => *g,
            TopologySource::Owned(g) => g.as_ref(),
        }
    }
}

/// How (and whether) a finished diagnosis is independently verified
/// within the same session call.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub enum VerificationPolicy {
    /// No verification; the report carries
    /// [`VerificationVerdict::Unverified`].
    None,
    /// The seeded sampled spot-check
    /// ([`mmdiag_baselines::sampled_check`]): certificate re-derivation
    /// plus per-part label samples. One-sided error, `O(parts·k·Δ²)`
    /// lookups — the verification that scales to 10⁷ nodes.
    Sampled {
        /// Samples per part (the bench default is 2).
        samples_per_part: usize,
        /// Seed of the label-independent sampling walks.
        seed: u64,
    },
    /// The full-table baseline re-diagnosis
    /// ([`mmdiag_baselines::diagnose_naive`]): reads every syndrome
    /// entry — the strongest check, infeasible beyond ~10⁵ nodes.
    FullBaseline,
}

/// One job of a [`Diagnoser::submit_batch`] submission.
pub enum BatchJob<'a> {
    /// A live syndrome source.
    Source(&'a (dyn SyndromeSource + Sync)),
    /// A planted fault set under a tester behaviour, diagnosed through an
    /// [`OracleSyndrome`] the session builds.
    Planted {
        /// The planted fault set.
        faults: FaultSet,
        /// The faulty-tester behaviour.
        behavior: TesterBehavior,
    },
}

/// The builder-configured session: one front door over diagnosis,
/// verification and simulation. See the [module docs](self) for the full
/// policy axes; the default session (`Diagnoser::new(&g)`) is
/// sequential and unverified — exactly `diagnose(&g, &s)`.
pub struct Diagnoser<'g> {
    topology: TopologySource<'g>,
    backend: BackendPolicy<'g>,
    verification: VerificationPolicy,
    /// Fault bound, precondition check and trace handle: what every core
    /// run and the monitor take from this session. The tracer is disabled
    /// by default (recording costs one `Option` check), enabled by
    /// [`Diagnoser::trace`] or [`Diagnoser::stats`].
    opts: SessionOptions,
    /// Lazily-built workspace pool shared by every call on this session,
    /// so batches and repeated runs reuse their `O(N)` scratch: single
    /// runs reuse its caller slot.
    ws: OnceLock<WorkspacePool>,
    /// The session's registration on the process-wide [`MetricsHub`],
    /// held so dropping the session detaches it ([`Diagnoser::stats`]).
    hub_session: Option<HubSession<'static>>,
}

impl<'g> Diagnoser<'g> {
    /// A session over a borrowed topology, with defaults equivalent to
    /// `diagnose`: sequential batches, preconditions checked, family
    /// fault bound, no verification.
    pub fn new(g: &'g (dyn Partitionable + Sync)) -> Self {
        Diagnoser::from_source(TopologySource::Borrowed(g))
    }

    /// A session over an owned [`TopologySource`].
    pub fn from_source(topology: TopologySource<'g>) -> Self {
        Diagnoser {
            topology,
            backend: BackendPolicy::Sequential,
            verification: VerificationPolicy::None,
            opts: SessionOptions::default(),
            ws: OnceLock::new(),
            hub_session: None,
        }
    }

    /// A session that materialises `fam` into an owned CSR.
    pub fn cached<T: Partitionable + ?Sized>(fam: &T) -> Diagnoser<'static> {
        Diagnoser::from_source(TopologySource::cached(fam))
    }

    /// A session serving `fam` CSR-free from its generator math.
    pub fn implicit<T: Partitionable + Sync + 'static>(fam: T) -> Diagnoser<'static> {
        Diagnoser::from_source(TopologySource::implicit(fam))
    }

    /// The topology every call on this session runs against.
    pub fn topology(&self) -> &(dyn Partitionable + Sync) {
        self.topology.view()
    }

    // --- batch policy ---------------------------------------------------

    /// Set the batch policy explicitly. Single runs ignore it.
    pub fn backend(mut self, policy: BackendPolicy<'g>) -> Self {
        self.backend = policy;
        // The workspace pool is shaped for the policy's fan-out.
        self.ws = OnceLock::new();
        self
    }

    /// Batches run in order on the calling thread (the default).
    pub fn sequential(self) -> Self {
        self.backend(BackendPolicy::Sequential)
    }

    /// Batches fan out over the process-wide global pool, which this call
    /// spawns if it does not exist yet.
    pub fn pooled(self) -> Self {
        self.backend(BackendPolicy::Pooled(mmdiag_exec::global()))
    }

    /// [`Diagnoser::pooled`] on a caller-owned pool.
    pub fn pooled_on(self, pool: &'g mmdiag_exec::Pool) -> Self {
        self.backend(BackendPolicy::Pooled(pool))
    }

    /// Size-directed batches: in order below
    /// [`SEQUENTIAL_CUTOVER_NODES`](mmdiag_core::SEQUENTIAL_CUTOVER_NODES)
    /// nodes, fanned out over the global pool at or above it. Only such a
    /// batch spawns the global pool.
    pub fn auto(self) -> Self {
        self.backend(BackendPolicy::Auto)
    }

    // --- verification policy --------------------------------------------

    /// Set the verification policy explicitly.
    pub fn verification(mut self, policy: VerificationPolicy) -> Self {
        self.verification = policy;
        self
    }

    /// Verify every diagnosis with the seeded sampled spot-check.
    pub fn verify_sampled(self, samples_per_part: usize, seed: u64) -> Self {
        self.verification(VerificationPolicy::Sampled {
            samples_per_part,
            seed,
        })
    }

    /// Verify every diagnosis against the full-table baseline.
    pub fn verify_full(self) -> Self {
        self.verification(VerificationPolicy::FullBaseline)
    }

    // --- tracing --------------------------------------------------------

    /// Record a structured trace of every call on this session: one span
    /// per diagnosis phase (probe / certify / grow) plus verification
    /// spans, buffered in ring buffers sized by `cfg`. Drain through
    /// [`Diagnoser::tracer`] (`drain()` + `mmdiag_trace::export`) —
    /// the recorded phase durations and lookup counts are exactly the
    /// report's [`PhaseTelemetry`](mmdiag_core::PhaseTelemetry) values.
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.opts.tracer = Tracer::new(cfg);
        self
    }

    /// The session's trace handle (clone to keep draining after the
    /// session is dropped). Disabled unless [`Diagnoser::trace`] or
    /// [`Diagnoser::stats`] was called.
    pub fn tracer(&self) -> &Tracer {
        &self.opts.tracer
    }

    /// Attach this session's metrics registry to the process-wide
    /// [`MetricsHub`] under `name`: fleet snapshots
    /// ([`MetricsHub::merged_snapshot`]) and the stats reporter stream
    /// (`mmdiag_exec::start_stats_reporter`) then include this session's
    /// counters alongside every other attached session's. Implies
    /// tracing — a disabled tracer is upgraded to a default-config one,
    /// since the metrics registry lives on the trace sink. The
    /// registration is dropped (and the hub forgets the session) when
    /// the `Diagnoser` is dropped.
    ///
    /// A pool's contention cells are not the session's: a pool from
    /// `Pool::new_profiled` records into the cells its caller passes, and
    /// the caller attaches them to the hub if it wants them there.
    ///
    /// Call `stats` *after* [`Diagnoser::trace`]: `trace` replaces the
    /// tracer (and its registry), which would strand an earlier
    /// attachment on the abandoned registry.
    pub fn stats(mut self, name: &str) -> Self {
        if self.opts.tracer.metrics_handle().is_none() {
            self.opts.tracer = Tracer::new(TraceConfig::default());
        }
        let registry = self
            .opts
            .tracer
            .metrics_handle()
            .expect("the tracer was just enabled");
        self.hub_session = Some(MetricsHub::global().attach(name, registry));
        self
    }

    // --- bound / preconditions ------------------------------------------

    /// Override the family's canonical fault bound.
    pub fn fault_bound(mut self, bound: usize) -> Self {
        self.opts.fault_bound = Some(bound);
        self
    }

    /// Explicit fault bound with §5's precondition check skipped — for
    /// borderline instances the caller knows to be workable.
    pub fn unchecked_bound(mut self, bound: usize) -> Self {
        self.opts.fault_bound = Some(bound);
        self.opts.check_preconditions = false;
        self
    }

    /// When tracing, add `reads` syndrome entries to the session's own
    /// `oracle.lookups` counter. Every call adds what it read itself —
    /// diagnosis and verification, whichever sources they were — so the
    /// metric sums the session's reads across calls and sources.
    fn count_reads(&self, reads: u64) {
        if let Some(metrics) = self.opts.tracer.metrics() {
            metrics.counter("oracle.lookups").add(reads);
        }
    }

    fn ws_pool(&self) -> &WorkspacePool {
        self.ws.get_or_init(|| {
            let n = self.topology.view().node_count();
            WorkspacePool::for_policy(n, &self.backend)
        })
    }

    // --- running --------------------------------------------------------

    /// Diagnose a live syndrome source on the calling thread, honouring
    /// the session's verification policy. The report is bit-identical to
    /// `diagnose`'s and labelled `"sequential"` under every batch policy;
    /// no pool is touched or spawned.
    pub fn run<S>(&self, s: &S) -> Result<DiagnosisReport, DiagnosisError>
    where
        S: SyndromeSource + ?Sized,
    {
        let g = self.topology.view();
        let start = s.lookups();
        let run = session::run_with(g, s, &self.opts, Some(self.ws_pool()));
        self.count_reads(checked_delta(s.lookups(), start));
        let mut report = run?;
        report.verification =
            self.verify_claim(s, &report.diagnosis.faults, report.diagnosis.certified_part);
        Ok(report)
    }

    /// Open a long-lived monitoring session over this session's
    /// topology: the epoch loop ([`MonitorSession`]). Each
    /// [`ingest`](MonitorSession::ingest) takes the current syndrome
    /// plus the delta of nodes whose status changed. An empty delta
    /// reuses the last labelling without reading the syndrome; any other
    /// epoch is one core run whose growth re-reads the last growth tree
    /// one syndrome entry per node and repairs it where the fault set
    /// moved, so its labelling is bit-identical to a from-scratch
    /// [`run`](Diagnoser::run) on the same syndrome, whatever the delta
    /// names.
    ///
    /// The monitor borrows the session's topology, shares its tracer
    /// (epoch spans and `monitor.*` counters land in the same sink and
    /// any [`stats`](Diagnoser::stats) hub attachment) and honours its
    /// fault bound and precondition policy. Each epoch runs on the
    /// calling thread, so the batch policy does not apply.
    pub fn monitor(&self) -> Result<MonitorSession<'_>, DiagnosisError> {
        let g = self.topology.view();
        Ok(MonitorSession::new(
            g,
            self.opts.checked_bound(g)?,
            self.opts.tracer.clone(),
        ))
    }

    /// Diagnose a planted fault set under a tester behaviour:
    /// [`Diagnoser::run`] over a bitmap [`OracleSyndrome`].
    pub fn run_planted(
        &self,
        faults: &FaultSet,
        behavior: TesterBehavior,
    ) -> Result<DiagnosisReport, DiagnosisError> {
        self.run(&OracleSyndrome::new(faults.clone(), behavior))
    }

    /// [`Diagnoser::run_planted`] for the `O(|F|)`-state streaming
    /// oracle: outcomes stream from an [`OnDemandOracle`] (no bitmap —
    /// the 10⁶–10⁷-node path).
    pub fn run_streaming(
        &self,
        members: &[NodeId],
        behavior: TesterBehavior,
    ) -> Result<DiagnosisReport, DiagnosisError> {
        let n = self.topology.view().node_count();
        self.run(&OnDemandOracle::new(n, members, behavior))
    }

    /// Replay a fault timeline as timestamped messages in the event-level
    /// simulator under `latency` ([`mmdiag_distsim::simulate`]),
    /// honouring the session's fault bound and precondition policy. The
    /// simulator grades each test at the instant its replies arrived and
    /// runs the core `Set_Builder` over those results, so on a static
    /// timeline its faults and certified part equal
    /// [`Diagnoser::run_planted`]'s. The batch and verification policies
    /// do not apply: to verify a simulated claim, pass the planted
    /// syndrome to [`Diagnoser::verify_claim`].
    pub fn simulate(
        &self,
        timeline: &FaultTimeline,
        latency: &LatencyModel,
    ) -> Result<SimReport, DiagnosisError> {
        let g = self.topology.view();
        simulate_unchecked(g, timeline, latency, self.opts.checked_bound(g)?)
    }

    /// Evaluate many jobs against this session's instance in one
    /// submission. Jobs fan out over the pool the batch policy resolves
    /// to, or run in order on the calling thread when it resolves to
    /// none. A one-job batch runs on the calling thread either way, so its
    /// report reads `"sequential"`. Batches reuse the session's workspace
    /// pool, so `k` jobs allocate `O(workers)` scratch. Every job is
    /// verified under the session's policy, and results come back in
    /// input order. Jobs that name one source share its lookup counter,
    /// so on a pooled session their lookup accounting includes each
    /// other's reads (see [`mmdiag_core::session::run_batch`]); the
    /// session's `oracle.lookups` still counts each read exactly once.
    pub fn submit_batch(
        &self,
        jobs: &[BatchJob<'_>],
    ) -> Vec<Result<DiagnosisReport, DiagnosisError>> {
        let planted: Vec<OracleSyndrome> = jobs
            .iter()
            .filter_map(|job| match job {
                BatchJob::Planted { faults, behavior } => {
                    Some(OracleSyndrome::new(faults.clone(), *behavior))
                }
                BatchJob::Source(_) => None,
            })
            .collect();
        let mut planted_sources = planted.iter();
        let sources: Vec<&(dyn SyndromeSource + Sync)> = jobs
            .iter()
            .map(|job| match job {
                BatchJob::Source(s) => *s,
                BatchJob::Planted { .. } => {
                    planted_sources.next().expect("one oracle per planted job")
                        as &(dyn SyndromeSource + Sync)
                }
            })
            .collect();

        // Each distinct source's reads, however many jobs share it.
        let addr =
            |s: &&(dyn SyndromeSource + Sync)| (*s as *const dyn SyndromeSource).cast::<()>();
        let mut distinct = sources.clone();
        distinct.sort_by_key(addr);
        distinct.dedup_by_key(|s| addr(s));
        let before: Vec<u64> = distinct.iter().map(|s| s.lookups()).collect();
        let reports = session::run_batch(
            self.topology.view(),
            &sources,
            self.backend,
            &self.opts,
            Some(self.ws_pool()),
        );
        self.count_reads(
            distinct
                .iter()
                .zip(before)
                .map(|(s, start)| checked_delta(s.lookups(), start))
                .sum(),
        );
        reports
            .into_iter()
            .zip(&sources)
            .map(|(report, s)| {
                let mut report = report?;
                report.verification = self.verify_claim(
                    *s,
                    &report.diagnosis.faults,
                    report.diagnosis.certified_part,
                );
                Ok(report)
            })
            .collect()
    }

    // --- verification ---------------------------------------------------

    /// Run the session's verification policy against a claimed diagnosis
    /// (fault set + certified part) over the live syndrome `s`. Called by
    /// every run path; public so harnesses can verify without re-running
    /// the diagnosis. The claimed faults are a set: order and duplicates do
    /// not change the verdict under either policy. The entries it reads
    /// count toward the session's `oracle.lookups`.
    pub fn verify_claim<S>(
        &self,
        s: &S,
        claimed_faults: &[NodeId],
        certified_part: usize,
    ) -> VerificationVerdict
    where
        S: SyndromeSource + ?Sized,
    {
        let start = s.lookups();
        let verdict = self.verdict(s, claimed_faults, certified_part);
        self.count_reads(checked_delta(s.lookups(), start));
        verdict
    }

    fn verdict<S>(
        &self,
        s: &S,
        claimed_faults: &[NodeId],
        certified_part: usize,
    ) -> VerificationVerdict
    where
        S: SyndromeSource + ?Sized,
    {
        let mut claimed = claimed_faults.to_vec();
        claimed.sort_unstable();
        claimed.dedup();
        let claimed_faults = &claimed[..];
        let g = self.topology.view();
        match self.verification {
            VerificationPolicy::None => VerificationVerdict::Unverified,
            VerificationPolicy::Sampled {
                samples_per_part,
                seed,
            } => {
                let span = self.opts.tracer.span("verify", "sampled");
                let check = sampled_check(
                    g,
                    s,
                    claimed_faults,
                    certified_part,
                    self.opts.bound(g),
                    samples_per_part,
                    seed,
                );
                VerificationVerdict::Sampled {
                    samples: check.samples.len(),
                    checked_tests: check.checked_tests,
                    disagreements: check.disagreements.len(),
                    certificate_ok: check.certificate_ok,
                    agree: check.agree,
                    nanos: u128::from(span.finish_with_value(check.checked_tests)),
                }
            }
            VerificationPolicy::FullBaseline => {
                let span = self.opts.tracer.span("verify", "full_baseline");
                match diagnose_naive(g, s, self.opts.bound(g)) {
                    Ok(base) => VerificationVerdict::FullBaseline {
                        lookups: base.lookups_used,
                        agree: base.faults == claimed_faults,
                        nanos: u128::from(span.finish_with_value(base.lookups_used)),
                    },
                    // An erroring baseline is "could not check", not a
                    // refutation — keep the two distinguishable.
                    Err(e) => VerificationVerdict::Failed {
                        method: "full_baseline",
                        error: e.to_string(),
                    },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdiag_core::{diagnose, GrowRound};
    use mmdiag_syndrome::TestResult;
    use mmdiag_topology::families::Hypercube;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn builder_default_equals_legacy_diagnose() {
        let g = Hypercube::new(7);
        let s = OracleSyndrome::new(
            FaultSet::new(128, &[3, 64, 90]),
            TesterBehavior::Random { seed: 9 },
        );
        let legacy = diagnose(&g, &s).unwrap();
        s.reset_lookups();
        let report = Diagnoser::new(&g).run(&s).unwrap();
        assert_eq!(report.diagnosis.faults, legacy.faults);
        assert_eq!(report.diagnosis.certified_part, legacy.certified_part);
        assert_eq!(report.diagnosis.probes, legacy.probes);
        assert_eq!(report.diagnosis.lookups_used, legacy.lookups_used);
        assert_eq!(report.diagnosis.tree.edges(), legacy.tree.edges());
        assert!(matches!(
            report.verification,
            VerificationVerdict::Unverified
        ));
    }

    /// A correct claim passed unsorted and with a duplicate is the same
    /// set: both policies must accept it.
    #[test]
    fn shuffled_correct_claim_agrees_under_both_policies() {
        let g = Hypercube::new(7);
        let s = OracleSyndrome::new(
            FaultSet::new(128, &[3, 64, 90]),
            TesterBehavior::Random { seed: 3 },
        );
        let d = diagnose(&g, &s).unwrap();
        let shuffled = [90, 3, 64, 3];
        for session in [
            Diagnoser::new(&g).verify_sampled(2, 5),
            Diagnoser::new(&g).verify_full(),
        ] {
            let verdict = session.verify_claim(&s, &shuffled, d.certified_part);
            assert!(
                matches!(
                    verdict,
                    VerificationVerdict::Sampled { agree: true, .. }
                        | VerificationVerdict::FullBaseline { agree: true, .. }
                ),
                "{verdict:?}"
            );
        }
    }

    #[test]
    fn traced_session_trace_matches_report_telemetry_exactly() {
        use mmdiag_trace::{MetricValue, TraceSummary};
        let g = Hypercube::new(7);
        let s = OracleSyndrome::new(
            FaultSet::new(128, &[3, 64, 90]),
            TesterBehavior::Random { seed: 5 },
        );
        let session = Diagnoser::new(&g)
            .trace(TraceConfig::default())
            .verify_sampled(2, 11);
        let report = session.run(&s).unwrap();
        let tracer = session.tracer().clone();
        let events = tracer.drain();
        let summary = TraceSummary::from_events(&events, tracer.dropped());
        // Exact agreement, not approximate: the phase spans *are* the
        // telemetry.
        assert_eq!(summary.probe_nanos, report.telemetry.probe_nanos);
        assert_eq!(summary.certify_nanos, report.telemetry.certify_nanos);
        assert_eq!(summary.grow_nanos, report.telemetry.grow_nanos);
        assert_eq!(summary.probe_lookups, report.telemetry.probe_lookups);
        assert_eq!(summary.grow_lookups, report.telemetry.grow_lookups);
        // The verification span rode along.
        match report.verification {
            VerificationVerdict::Sampled {
                nanos,
                checked_tests,
                ..
            } => {
                assert_eq!(summary.total_ns("sampled"), nanos);
                assert_eq!(summary.value_sum("sampled"), checked_tests);
            }
            ref other => panic!("expected a sampled verdict, got {other:?}"),
        }
        // The session counted what the diagnosis and the verification read.
        let metrics = tracer.metrics().unwrap().snapshot();
        let oracle = metrics
            .iter()
            .find(|m| m.name == "oracle.lookups")
            .expect("the run counted its reads");
        assert_eq!(oracle.value, MetricValue::Counter(s.lookups()));
    }

    /// `oracle.lookups` sums every call's reads, whichever sources they
    /// came from: two runs and a batch on one traced session, the batch
    /// naming one of its sources twice.
    #[test]
    fn oracle_lookups_count_every_call_and_source() {
        use mmdiag_trace::MetricValue;
        let g = Hypercube::new(7);
        let session = Diagnoser::new(&g)
            .trace(TraceConfig::default())
            .verify_sampled(2, 3);
        let sources: Vec<OracleSyndrome> = (0..4)
            .map(|i| {
                OracleSyndrome::new(
                    FaultSet::new(128, &[3 + i, 64, 90]),
                    TesterBehavior::Random { seed: i as u64 },
                )
            })
            .collect();
        session.run(&sources[0]).unwrap();
        session.run(&sources[1]).unwrap();
        let jobs = [
            BatchJob::Source(&sources[2]),
            BatchJob::Source(&sources[3]),
            BatchJob::Source(&sources[3]),
        ];
        assert!(session.submit_batch(&jobs).iter().all(Result::is_ok));
        let read: u64 = sources.iter().map(|s| s.lookups()).sum();
        assert!(sources.iter().all(|s| s.lookups() > 0));
        let metrics = session.tracer().metrics().unwrap().snapshot();
        let counted = metrics
            .iter()
            .find(|m| m.name == "oracle.lookups")
            .map(|m| m.value.clone());
        assert_eq!(counted, Some(MetricValue::Counter(read)));
    }

    #[test]
    fn untraced_session_records_nothing() {
        let g = Hypercube::new(7);
        let s = OracleSyndrome::new(FaultSet::new(128, &[5]), TesterBehavior::AllZero);
        let session = Diagnoser::new(&g);
        let report = session.run(&s).unwrap();
        assert!(report.telemetry.probe_nanos > 0, "telemetry still measured");
        // No knob turns tracing on: the default session's tracer is off
        // whatever the environment holds.
        assert!(!session.tracer().is_enabled());
        assert!(session.tracer().drain().is_empty());
        assert!(session.tracer().metrics().is_none());
    }

    #[test]
    fn hub_merged_snapshot_equals_sum_of_concurrent_session_registries() {
        use mmdiag_trace::{merge_snapshots, MetricSnapshot, MetricValue, MetricsHub};
        // Four sessions on four threads, each attached to the hub under a
        // recognisable name; every run adds its reads to the session's
        // `oracle.lookups` counter. A `Diagnoser` is not `Send`
        // (boxed `dyn Partitionable + Sync` topology), so the sessions
        // stay on their threads: `ready` holds them alive while the main
        // thread snapshots, `release` lets them drop.
        use std::sync::{Arc, Barrier};
        let ready = Arc::new(Barrier::new(5));
        let release = Arc::new(Barrier::new(5));
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let (ready, release) = (Arc::clone(&ready), Arc::clone(&release));
            handles.push(
                mmdiag_exec::sync::thread::spawn_named(format!("hubtest-worker-{i}"), move || {
                    let g = Hypercube::new(7);
                    let session = Diagnoser::cached(&g)
                        .pooled()
                        .stats(&format!("hubtest-{i}"));
                    let s = OracleSyndrome::new(
                        FaultSet::new(128, &[1 + i as usize, 64, 90]),
                        TesterBehavior::Random { seed: 7 + i },
                    );
                    // No unwraps before `ready` — a panic here would strand
                    // the barrier; failures surface through the join below.
                    let runs_ok = (0..3).all(|_| session.run(&s).is_ok());
                    let lookups = s.lookups();
                    ready.wait();
                    release.wait();
                    drop(session);
                    (runs_ok, lookups)
                })
                .unwrap(),
            );
        }
        ready.wait();
        // Other tests may be on the hub concurrently — restrict to our own
        // attachments.
        let per_session: Vec<Vec<MetricSnapshot>> = MetricsHub::global()
            .snapshot_sessions()
            .into_iter()
            .filter(|(name, _)| name.starts_with("hubtest-"))
            .map(|(_, snap)| snap)
            .collect();
        assert_eq!(per_session.len(), 4, "all four sessions attached");
        let merged = merge_snapshots(&per_session);
        let lookups = merged
            .iter()
            .find(|m| m.name == "oracle.lookups")
            .expect("every session counted its reads");
        release.wait();
        let results: Vec<(bool, u64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|(ok, _)| *ok), "every run diagnosed");
        let expected: u64 = results.iter().map(|(_, n)| n).sum();
        assert_eq!(
            lookups.value,
            MetricValue::Counter(expected),
            "hub merge is exactly the sum of the live registries"
        );
        // The threads dropped their sessions after `release` — the hub
        // forgets the names.
        assert!(
            MetricsHub::global()
                .snapshot_sessions()
                .iter()
                .all(|(name, _)| !name.starts_with("hubtest-")),
            "detach on drop"
        );
    }

    /// A static timeline simulates to the labelling `run_planted`
    /// returns, and the session verifies the simulated claim against the
    /// planted syndrome: the right set agrees, a set missing a fault does
    /// not.
    #[test]
    fn simulate_labels_like_run_planted_and_verify_claim_checks_it() {
        let g = Hypercube::new(7);
        let session = Diagnoser::new(&g).verify_full();
        let faults = FaultSet::new(128, &[5, 40, 99]);
        let behavior = TesterBehavior::AllZero;
        let timeline = FaultTimeline::static_faults(faults.clone(), behavior);
        let sim = session.simulate(&timeline, &LatencyModel::Unit).unwrap();
        let planted = session.run_planted(&faults, behavior).unwrap();
        assert_eq!(sim.faults, faults.members());
        assert_eq!(sim.faults, planted.diagnosis.faults);
        assert_eq!(sim.certified_part, planted.diagnosis.certified_part);
        assert_eq!(sim.probes_until_certificate, planted.diagnosis.probes);
        let s = OracleSyndrome::new(faults, behavior);
        let verdict = session.verify_claim(&s, &sim.faults, sim.certified_part);
        assert!(
            matches!(
                verdict,
                VerificationVerdict::FullBaseline { agree: true, .. }
            ),
            "{verdict:?}"
        );
        let short = session.verify_claim(&s, &sim.faults[1..], sim.certified_part);
        assert!(!short.agreed_or_unverified(), "{short:?}");
    }

    /// A source that panics on its `at`-th read and otherwise reads
    /// `inner`.
    struct PanicsAt<'a> {
        inner: &'a OracleSyndrome,
        at: u64,
        read: AtomicU64,
    }

    impl<'a> PanicsAt<'a> {
        fn new(inner: &'a OracleSyndrome, at: u64) -> Self {
            PanicsAt {
                inner,
                at,
                read: AtomicU64::new(0),
            }
        }
    }

    impl SyndromeSource for PanicsAt<'_> {
        fn read(&self, u: NodeId, v: NodeId, w: NodeId) -> TestResult {
            let k = self.read.fetch_add(1, Ordering::Relaxed) + 1;
            assert!(k != self.at, "planted panic at read {k}");
            self.inner.read(u, v, w)
        }
    }

    /// A run whose source panics unwinds out of the session's caller
    /// slot; the session's next run equals a fresh session's.
    #[test]
    fn a_run_after_a_panicking_source_equals_a_fresh_sessions() {
        let g = Hypercube::new(7);
        let s = OracleSyndrome::new(
            FaultSet::new(128, &[3, 64, 90]),
            TesterBehavior::Random { seed: 2 },
        );
        let session = Diagnoser::new(&g);
        let panicking = PanicsAt::new(&s, 50);
        assert!(catch_unwind(AssertUnwindSafe(|| session.run(&panicking))).is_err());
        s.reset_lookups();
        let got = session.run(&s).unwrap();
        s.reset_lookups();
        let want = Diagnoser::new(&g).run(&s).unwrap();
        assert_eq!(got.diagnosis, want.diagnosis);
        assert_eq!(got.certificate.tree.edges(), want.certificate.tree.edges());
        assert_eq!(
            GrowRound::shapes(&got.telemetry.grow_rounds),
            GrowRound::shapes(&want.telemetry.grow_rounds)
        );
    }

    /// A pooled batch with a panicking job unwinds out of a worker's
    /// slot; every later batch on the session equals its jobs run one by
    /// one.
    #[test]
    fn pooled_batches_after_a_panicking_job_equal_sequential_runs() {
        let base = Hypercube::new_certified(10);
        let g = Cached::new(&base);
        let pool = mmdiag_exec::Pool::new(2);
        let session = Diagnoser::new(&g).pooled_on(&pool);
        let sources: Vec<OracleSyndrome> = (0..4)
            .map(|i| {
                OracleSyndrome::new(
                    FaultSet::new(1024, &[1 + i, 500 + i, 1000]),
                    TesterBehavior::Random { seed: i as u64 },
                )
            })
            .collect();
        let panicking = PanicsAt::new(&sources[0], 50);
        let mut jobs: Vec<BatchJob> = sources.iter().map(|s| BatchJob::Source(s)).collect();
        jobs[0] = BatchJob::Source(&panicking);
        assert!(catch_unwind(AssertUnwindSafe(|| session.submit_batch(&jobs))).is_err());

        let jobs: Vec<BatchJob> = sources.iter().map(|s| BatchJob::Source(s)).collect();
        let sequential = Diagnoser::new(&g);
        for batch in 0..20 {
            let reports = session.submit_batch(&jobs);
            for (s, report) in sources.iter().zip(reports) {
                let want = sequential.run(s).unwrap();
                assert_eq!(report.unwrap().diagnosis, want.diagnosis, "batch {batch}");
            }
        }
    }

    #[test]
    fn submit_batch_mixes_job_kinds_in_order() {
        let g = Hypercube::new(7);
        let session = Diagnoser::new(&g).verify_sampled(2, 7);
        let live = OracleSyndrome::new(FaultSet::new(128, &[11, 60]), TesterBehavior::AllZero);
        let jobs = vec![
            BatchJob::Source(&live),
            BatchJob::Planted {
                faults: FaultSet::new(128, &[3, 64, 90]),
                behavior: TesterBehavior::Random { seed: 4 },
            },
            BatchJob::Planted {
                faults: FaultSet::new(128, &[99]),
                behavior: TesterBehavior::AllZero,
            },
        ];
        let reports = session.submit_batch(&jobs);
        assert_eq!(reports.len(), 3);
        let expected: [&[usize]; 3] = [&[11, 60], &[3, 64, 90], &[99]];
        for (report, want) in reports.iter().zip(expected) {
            let report = report.as_ref().unwrap();
            assert_eq!(report.diagnosis.faults, want);
            assert!(report.verification.agreed_or_unverified());
            assert!(matches!(
                report.verification,
                VerificationVerdict::Sampled { .. }
            ));
        }
    }
}
