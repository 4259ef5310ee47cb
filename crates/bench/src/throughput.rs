//! The `--throughput` fleet axis: N concurrent [`Diagnoser`] sessions.
//!
//! Every other bench axis measures one session at a time; this one
//! measures a *fleet* — several sessions on separate threads, all
//! attached to the process-wide [`mmdiag_trace::MetricsHub`], whose
//! batched submissions all contend for one shared [`mmdiag_exec`] pool
//! that profiles its own synchronisation ([`Pool::new_profiled`]). The
//! record rolls up:
//!
//! * **throughput** — diagnoses per second across the whole fleet, wall
//!   clock from first spawn to last join;
//! * **latency** — a per-diagnosis wall-time histogram (p50/p90/p99 via
//!   the shared log-bucket [`Histogram`]), every session recording into
//!   one cell;
//! * **contention** — the fleet pool's lock-wait and condvar-park
//!   histograms (fresh cells, so they cover exactly this window) plus the
//!   queue-depth high-water gauges;
//! * **correctness** — every diagnosis (timed runs and batched
//!   submissions alike) is cross-checked against its planted fault set,
//!   and the count of disagreements rides on the record;
//! * **overhead** — the [`overhead_guard`] companion: a fully
//!   instrumented single-session run must stay within
//!   [`REGRESSION_TOLERANCE`] (or [`REGRESSION_NOISE_FLOOR_NANOS`]) of
//!   the bare run on a small instance, so observability never becomes a
//!   tax on every diagnosis.
//!
//! The sessions deliberately mix instance families, sizes and
//! verification policies (none / sampled / full baseline) —
//! fleet contention with homogeneous sessions would under-represent the
//! lock-hold-time variance the profiler exists to expose.

use crate::{scatter_faults, TIMING_REPS};
use mmdiag::syndrome::{OracleSyndrome, TesterBehavior};
use mmdiag::topology::families::{CrossedCube, Hypercube, Pancake, StarGraph};
use mmdiag::topology::NodeId;
use mmdiag::{BatchJob, Diagnoser};
use mmdiag_exec::{Pool, SyncStats};
use mmdiag_trace::clock::{self, Stopwatch};
use mmdiag_trace::{Histogram, HistogramSummary, MetricsHub, MetricsRegistry};
use std::sync::Arc;

/// Noise tolerance of the overhead verdict: the instrumented run counts
/// as "not slower" than the bare one when its floor is within 10% of the
/// bare floor.
pub const REGRESSION_TOLERANCE: f64 = 1.10;

/// Absolute grace on the overhead verdict, alongside the relative
/// [`REGRESSION_TOLERANCE`]: one scheduler preemption costs tens of
/// microseconds regardless of the run, so on a microsecond-scale run a
/// min-over-pairs floor can sit a whole quantum above the other leg's
/// with no code-path difference. 50 µs is far below the 10% band of any
/// run longer than half a millisecond.
pub const REGRESSION_NOISE_FLOOR_NANOS: u128 = 50_000;

/// Most interleaved pairs [`overhead_guard`] times before it settles on a
/// failing verdict.
const MAX_FLOOR_PAIRS: usize = 40;

/// The overhead verdict: within 10% of the bare floor, or within one
/// scheduler quantum of it.
fn within_tolerance(instrumented_nanos: u128, bare_nanos: u128) -> bool {
    (instrumented_nanos as f64) <= (bare_nanos as f64) * REGRESSION_TOLERANCE
        || instrumented_nanos <= bare_nanos + REGRESSION_NOISE_FLOOR_NANOS
}

/// The overhead verdict: a fully observed session (tracing + hub
/// attachment) timed against a bare session on the same small instance.
#[derive(Clone, Debug)]
pub struct OverheadGuard {
    /// Floor (fastest of the interleaved pairs) of the uninstrumented run.
    pub bare_nanos: u128,
    /// Floor of the fully instrumented run.
    pub instrumented_nanos: u128,
    /// `instrumented` within [`REGRESSION_TOLERANCE`] (or
    /// [`REGRESSION_NOISE_FLOOR_NANOS`]) of `bare`.
    pub within_tolerance: bool,
}

/// One `--throughput` axis outcome, rendered additively into the v2
/// trajectory document under the top-level `"throughput"` key.
#[derive(Clone, Debug)]
pub struct ThroughputRecord {
    /// Concurrent sessions in the fleet.
    pub sessions: usize,
    /// Submission rounds each session ran.
    pub rounds: usize,
    /// Diagnoses per round per session (timed runs + batched jobs).
    pub jobs_per_round: usize,
    /// Total diagnoses completed across the fleet.
    pub total_diagnoses: u64,
    /// Wall time of the whole fleet window, first spawn to last join.
    pub wall_nanos: u128,
    /// `total_diagnoses / wall_nanos`, in diagnoses per second.
    pub diagnoses_per_sec: f64,
    /// Per-diagnosis wall time (timed `run` calls only — batch
    /// submissions amortise their timing and would skew the quantiles).
    pub latency_ns: HistogramSummary,
    /// The fleet pool's lock-acquire wait time.
    pub lock_wait_ns: HistogramSummary,
    /// The fleet pool's condvar park time.
    pub park_ns: HistogramSummary,
    /// High-water mark of the pool's queue depth gauge, in batches.
    pub injector_depth_peak: u64,
    /// Diagnoses whose result (or verification verdict) disagreed with
    /// the planted truth. Folded into the binary's exit code.
    pub disagreements: u64,
    /// The single-session instrumentation-overhead verdict.
    pub overhead: OverheadGuard,
}

/// Timed `Diagnoser::run` calls per session per round.
const RUNS_PER_ROUND: usize = 3;
/// Planted jobs in each session's per-round batched submission.
const BATCH_JOBS: usize = 2;

/// Build session `i`'s diagnoser: instance family by `i % 4`, batches
/// pooled on `pool` (the whole fleet's batches contend for it — the
/// point), verification policy by `i % 3`, hub-attached as
/// `"throughput-{i}"`.
fn fleet_session(i: usize, pool: &Pool) -> Diagnoser<'_> {
    let session = match i % 4 {
        0 => Diagnoser::cached(&Hypercube::new(7)),
        1 => Diagnoser::cached(&CrossedCube::new(7)),
        2 => Diagnoser::cached(&StarGraph::new(6)),
        _ => Diagnoser::cached(&Pancake::new(6)),
    };
    let session = match i % 3 {
        0 => session,
        1 => session.verify_sampled(2, 11 + i as u64),
        _ => session.verify_full(),
    };
    session.pooled_on(pool).stats(&format!("throughput-{i}"))
}

/// Run one fleet session to completion: `rounds` rounds of individually
/// timed runs plus one batched submission, every outcome cross-checked
/// against its planted fault set. Returns (diagnoses, disagreements).
fn run_fleet_session(i: usize, rounds: usize, pool: &Pool, latency: Arc<Histogram>) -> (u64, u64) {
    let session = fleet_session(i, pool);
    let n = session.topology().node_count();
    let bound = session.topology().driver_fault_bound();
    let fault_count = bound.clamp(1, 3);
    let mut diagnoses = 0u64;
    let mut disagreements = 0u64;
    for round in 0..rounds {
        for j in 0..RUNS_PER_ROUND {
            let salt = (i * 1009 + round * 97 + j) as u64;
            let faults = scatter_faults(n, fault_count, salt);
            let expected = faults.members().to_vec();
            let s = OracleSyndrome::new(faults, TesterBehavior::AllZero);
            let t0 = clock::now_ns();
            let out = session.run(&s);
            latency.record(clock::now_ns().saturating_sub(t0));
            diagnoses += 1;
            let ok = out
                .map(|r| r.diagnosis.faults == expected && r.verification.agreed_or_unverified())
                .unwrap_or(false);
            if !ok {
                disagreements += 1;
            }
        }
        let planted: Vec<_> = (0..BATCH_JOBS)
            .map(|j| scatter_faults(n, fault_count, (i * 5003 + round * 31 + j) as u64))
            .collect();
        let jobs: Vec<BatchJob> = planted
            .iter()
            .map(|f| BatchJob::Planted {
                faults: f.clone(),
                behavior: TesterBehavior::AllZero,
            })
            .collect();
        for (f, out) in planted.iter().zip(session.submit_batch(&jobs)) {
            diagnoses += 1;
            let ok = out.map(|o| o.faults() == f.members()).unwrap_or(false);
            if !ok {
                disagreements += 1;
            }
        }
    }
    (diagnoses, disagreements)
}

/// Run the `--throughput` fleet axis: 4 (`quick`) or 8 concurrent
/// sessions on separate named threads, all on one profiled pool whose
/// contention cells are fresh for this window and attached to the hub as
/// `"throughput-sync"` while it runs. Includes the [`overhead_guard`]
/// verdict.
pub fn run_throughput(quick: bool) -> ThroughputRecord {
    let overhead = overhead_guard();

    let sessions = if quick { 4 } else { 8 };
    let rounds = if quick { 2 } else { 3 };

    let sync = Arc::new(SyncStats::new());
    let pool = Arc::new(Pool::new_profiled(
        mmdiag_exec::default_threads(),
        Arc::clone(&sync),
    ));
    let registry = Arc::new(MetricsRegistry::new());
    sync.register_into(&registry);
    let hub_attachment = MetricsHub::global().attach("throughput-sync", registry);

    let latency = Arc::new(Histogram::new());
    let t0 = clock::now_ns();
    let handles: Vec<_> = (0..sessions)
        .map(|i| {
            let latency = Arc::clone(&latency);
            let pool = Arc::clone(&pool);
            mmdiag_exec::sync::thread::spawn_named(format!("throughput-{i}"), move || {
                run_fleet_session(i, rounds, &pool, latency)
            })
            .expect("spawn fleet session thread")
        })
        .collect();
    let mut total_diagnoses = 0u64;
    let mut disagreements = 0u64;
    for h in handles {
        let (d, bad) = h.join().expect("fleet session thread panicked");
        total_diagnoses += d;
        disagreements += bad;
    }
    let wall_nanos = u128::from(clock::now_ns().saturating_sub(t0)).max(1);
    drop(hub_attachment);

    ThroughputRecord {
        sessions,
        rounds,
        jobs_per_round: RUNS_PER_ROUND + BATCH_JOBS,
        total_diagnoses,
        wall_nanos,
        diagnoses_per_sec: total_diagnoses as f64 * 1e9 / wall_nanos as f64,
        latency_ns: latency.snapshot(),
        lock_wait_ns: sync.lock_wait_ns.snapshot(),
        park_ns: sync.park_ns.snapshot(),
        injector_depth_peak: sync.injector_depth.max(),
        disagreements,
        overhead,
    }
}

/// Time one small-instance diagnosis bare (no tracing) and fully
/// instrumented (tracing session, hub attachment), and apply the overhead
/// verdict to the two floors.
///
/// The legs run in interleaved pairs (bare, instrumented, bare, …), so
/// drift from a busy sibling (other tests, another fleet) lands on both
/// legs. After [`TIMING_REPS`] pairs the loop stops as soon as the
/// verdict holds; while it fails, further pairs (up to
/// `MAX_FLOOR_PAIRS`) only tighten both floors toward the true ones, so a
/// genuinely slower instrumented path still fails and only a
/// preemption-spiked sample converges back to parity.
pub fn overhead_guard() -> OverheadGuard {
    let g = Hypercube::new(7);
    let faults = scatter_faults(128, 3, 0xBEEF);
    let expected = faults.members().to_vec();
    let s = OracleSyndrome::new(faults, TesterBehavior::AllZero);
    let bare = Diagnoser::new(&g);
    let instrumented = Diagnoser::new(&g).stats("overhead-guard");

    let (mut bare_nanos, mut instrumented_nanos) = (u128::MAX, u128::MAX);
    for pair in 0..MAX_FLOOR_PAIRS {
        if pair >= TIMING_REPS && within_tolerance(instrumented_nanos, bare_nanos) {
            break;
        }
        bare_nanos = bare_nanos.min(timed_run(&bare, &s, &expected));
        instrumented_nanos = instrumented_nanos.min(timed_run(&instrumented, &s, &expected));
    }

    OverheadGuard {
        bare_nanos,
        instrumented_nanos,
        within_tolerance: within_tolerance(instrumented_nanos, bare_nanos),
    }
}

/// Wall time of one `session` run on `s`, asserting it diagnoses
/// `expected`.
fn timed_run(session: &Diagnoser<'_>, s: &OracleSyndrome, expected: &[NodeId]) -> u128 {
    let t0 = Stopwatch::start();
    let report = session.run(s).expect("overhead-guard run diagnoses");
    let nanos = u128::from(t0.elapsed_ns());
    assert_eq!(
        report.diagnosis.faults, expected,
        "overhead-guard run agrees"
    );
    nanos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instrumentation_overhead_stays_within_the_sweep_tolerance() {
        let guard = overhead_guard();
        assert!(guard.bare_nanos > 0 && guard.instrumented_nanos > 0);
        assert!(
            guard.within_tolerance,
            "fully instrumented single-session run regressed beyond tolerance: \
             bare {} ns vs instrumented {} ns",
            guard.bare_nanos, guard.instrumented_nanos
        );
    }

    #[test]
    fn quick_fleet_reports_throughput_and_no_disagreements() {
        let rec = run_throughput(true);
        assert_eq!(rec.sessions, 4);
        assert_eq!(
            rec.total_diagnoses,
            (rec.sessions * rec.rounds * rec.jobs_per_round) as u64
        );
        assert_eq!(rec.disagreements, 0, "fleet diagnoses all agree");
        assert!(rec.diagnoses_per_sec > 0.0);
        assert_eq!(rec.latency_ns.count, (rec.sessions * rec.rounds * 3) as u64);
        // The fleet pool profiles its own queue: every session's batched
        // submission takes the queue lock.
        assert!(rec.lock_wait_ns.count > 0, "lock-wait histogram populated");
    }
}
