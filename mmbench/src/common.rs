//! What the three workloads share: run configuration, seeded inputs, the
//! metric table, the traced decomposition of one diagnosis, pool-stat
//! deltas and the per-layer micro-timings.

use crate::spans::{phase_remainder, Recorder};
use crate::stats::{mean, median, Json, Tally};
use mmdiag::diagnosis::{
    grow_from_certificate, probe_part, BackendPolicy, Diagnosis, DiagnosisError, DiagnosisReport,
    Workspace,
};
use mmdiag::exec::{Pool, WorkerStats};
use mmdiag::syndrome::SyndromeSource;
use mmdiag::topology::{NodeId, Partitionable, Topology};
use mmdiag::trace::clock::{now_ns, Stopwatch};
use mmdiag::{Diagnoser, VerificationVerdict};

/// How many times a run sets up, reporting the median as `setup_s`.
pub const SETUPS: usize = 5;

/// Share of a traced run spent on its untraced reference phase; the rest
/// records spans.
pub const UNTRACED_SHARE: f64 = 1.0 / 3.0;

/// Per-operation samples a series keeps. Series are allocated at this size
/// before timing starts and never grow, so the benchmark's own bookkeeping
/// adds a constant to `peak_heap_mb` however many operations a run does;
/// operations beyond it are still run, checked and counted.
pub const SAMPLE_CAP: usize = 1 << 16;

/// A sample series that never reallocates.
pub fn series<T>() -> Vec<T> {
    Vec::with_capacity(SAMPLE_CAP)
}

pub fn keep<T>(series: &mut Vec<T>, x: T) {
    if series.len() < series.capacity() {
        series.push(x);
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    /// Deadlines, in clock nanoseconds, of the untraced phase and, in a
    /// traced run, the traced one.
    pub fn phases(&self, start: u64) -> (u64, Option<u64>) {
        let total = start + (self.seconds * 1e9) as u64;
        if self.trace {
            let untraced = start + (self.seconds * UNTRACED_SHARE * 1e9) as u64;
            (untraced, Some(total))
        } else {
            (total, None)
        }
    }
}

/// SplitMix64: every input a run generates comes from the `--seed`
/// argument through this stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `count` distinct nodes of `0..n`, ascending.
    pub fn scatter(&mut self, n: usize, count: usize) -> Vec<NodeId> {
        assert!(count <= n, "cannot scatter {count} faults over {n} nodes");
        let mut picked: Vec<NodeId> = Vec::with_capacity(count);
        while picked.len() < count {
            let v = self.below(n);
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        picked.sort_unstable();
        picked
    }
}

/// What one run measured: the correctness tally, every metric it could
/// compute by name, details printed beside the result, and its spans.
#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
    pub detail: Vec<(String, Json)>,
    pub errors: Vec<String>,
    pub spans: Vec<Json>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    /// A check that failed: the run is reported as incorrect.
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }
}

/// Time is read through the workspace's one clock door, as nanoseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Nanoseconds since `start`, a reading of the same clock.
pub fn since(start: u64) -> u64 {
    now_ns().saturating_sub(start)
}

/// Whether the auto policy dispatches an instance of `n` nodes on a pool.
pub fn auto_is_pooled(n: usize) -> bool {
    BackendPolicy::Auto.label_for(n) == "pooled"
}

/// The traced run's stand-in for `auto()`: the same policy decision, but
/// pooled work goes to the benchmark's instrumented pool so its scheduling
/// counters can be read.
pub fn traced_backend<'p>(d: Diagnoser<'p>, pool: &'p Pool) -> Diagnoser<'p> {
    if auto_is_pooled(d.topology().node_count()) {
        d.pooled_on(pool)
    } else {
        d.auto()
    }
}

/// The diagnosis rebuilt from its public steps: `probe_part` in part order
/// until one certifies, then `grow_from_certificate`, each inside a span.
pub struct Decomposed {
    pub diagnosis: Diagnosis,
    pub probes: usize,
    pub probe_lookups: u64,
}

pub fn decompose<S: SyndromeSource + ?Sized>(
    rec: &mut Recorder,
    op: u64,
    parent: usize,
    g: &(dyn Partitionable + Sync),
    s: &S,
    ws: &mut Workspace,
) -> Result<Decomposed, DiagnosisError> {
    let bound = g.driver_fault_bound();
    let start = s.lookups();
    let mut certificate = None;
    let mut probes = 0;
    for part in 0..g.part_count() {
        let (probe, _) = rec.span("probe_part", op, Some(parent), |_, _| {
            probe_part(g, s, part, bound, ws)
        });
        probes += 1;
        if probe.all_healthy {
            certificate = probe.certificate;
            break;
        }
    }
    let probe_lookups = s.lookups() - start;
    let (certificate, _) = rec.span("certify", op, Some(parent), |_, _| {
        certificate.ok_or(DiagnosisError::NoPartCertified)
    });
    let certificate = certificate?;
    let (diagnosis, _) = rec.span("grow_from_certificate", op, Some(parent), |_, _| {
        grow_from_certificate(g, s, &certificate, probes, bound, start, ws)
    });
    Ok(Decomposed {
        diagnosis: diagnosis?,
        probes,
        probe_lookups,
    })
}

/// Where the decomposition must reproduce a run exactly: the sequential
/// run in fault set, certified part and lookup count; the auto run in
/// fault set, certified part and growth lookups (its probe count depends
/// on pool scheduling).
pub fn check_decomposition(
    dec: &Decomposed,
    seq: &Diagnosis,
    auto_faults: &[NodeId],
    auto_part: usize,
    auto_grow_lookups: u64,
) -> Result<(), String> {
    let d = &dec.diagnosis;
    if d.faults != seq.faults || d.certified_part != seq.certified_part {
        return Err(format!(
            "decomposition found {:?} at part {}, the sequential run {:?} at part {}",
            d.faults, d.certified_part, seq.faults, seq.certified_part
        ));
    }
    if d.lookups_used != seq.lookups_used || dec.probes != seq.probes {
        return Err(format!(
            "decomposition read {} entries in {} probes, the sequential run {} in {}",
            d.lookups_used, dec.probes, seq.lookups_used, seq.probes
        ));
    }
    if d.faults != auto_faults || d.certified_part != auto_part {
        return Err(format!(
            "decomposition found {:?} at part {}, the auto run {:?} at part {}",
            d.faults, d.certified_part, auto_faults, auto_part
        ));
    }
    let grow_lookups = d.lookups_used - dec.probe_lookups;
    if grow_lookups != auto_grow_lookups {
        return Err(format!(
            "decomposition grew with {grow_lookups} lookups, the auto run with {auto_grow_lookups}"
        ));
    }
    Ok(())
}

/// One traced operation: the auto run, the optional verifier, the
/// sequential reference and the decomposition, all checked against each
/// other.
pub struct TracedOp {
    pub auto: DiagnosisReport,
    pub verdict: Option<VerificationVerdict>,
    pub auto_ns: u64,
    pub seq_us: f64,
    pub dec: Decomposed,
    /// Probe, certify, grow and the rest of the auto run, in ns.
    pub parts: [(&'static str, u64); 4],
}

/// The sessions one traced operation runs through.
pub struct TracedSessions<'a> {
    pub auto: &'a Diagnoser<'a>,
    pub seq: &'a Diagnoser<'a>,
    pub verify: Option<&'a Diagnoser<'a>>,
}

pub fn traced_op<S: SyndromeSource + Sync + ?Sized>(
    rec: &mut Recorder,
    op: u64,
    sessions: &TracedSessions<'_>,
    s: &S,
    ws: &mut Workspace,
) -> Result<TracedOp, String> {
    let g = sessions.auto.topology();
    let (result, _) = rec.span("operation", op, None, |rec, root| {
        let (a, run_span) = rec.span("Diagnoser::run", op, Some(root), |_, _| {
            sessions.auto.run(s)
        });
        let auto_ns = rec.spans[run_span].dur_ns();
        let a = a.map_err(|e| format!("auto run: {e}"))?;
        let verdict = sessions.verify.map(|v| {
            rec.span("Diagnoser::verify_claim", op, Some(root), |_, _| {
                v.verify_claim(s, &a.diagnosis.faults, a.diagnosis.certified_part)
            })
            .0
        });
        let (sq, seq_span) = rec.span("Diagnoser::run[sequential]", op, Some(root), |_, _| {
            sessions.seq.run(s)
        });
        let seq_us = rec.spans[seq_span].dur_ns() as f64 / 1e3;
        let sq = sq.map_err(|e| format!("sequential run: {e}"))?;
        let (dec, dec_span) = rec.span("decomposition", op, Some(root), |rec, parent| {
            decompose(rec, op, parent, g, s, ws)
        });
        let dec = dec.map_err(|e| format!("decomposition: {e}"))?;
        check_decomposition(
            &dec,
            &sq.diagnosis,
            &a.diagnosis.faults,
            a.diagnosis.certified_part,
            a.telemetry.grow_lookups,
        )?;
        let dec_parts: Vec<(&str, u64)> = rec.spans[dec_span..]
            .iter()
            .filter(|sp| sp.parent == Some(dec_span))
            .map(|sp| (sp.name, sp.dur_ns()))
            .collect();
        phase_remainder(
            rec.spans[dec_span].dur_ns(),
            &dec_parts,
            &["probe_part", "certify", "grow_from_certificate"],
        )
        .map_err(|e| format!("decomposition spans: {e}"))?;
        let t = &a.telemetry;
        let phases = [
            ("probe", t.probe_nanos as u64),
            ("certify", t.certify_nanos as u64),
            ("grow", t.grow_nanos as u64),
        ];
        let other = phase_remainder(auto_ns, &phases, &["probe", "certify", "grow"])
            .map_err(|e| format!("run phases: {e}"))?;
        let parts = [phases[0], phases[1], phases[2], ("other", other)];
        Ok(TracedOp {
            auto: a,
            verdict,
            auto_ns,
            seq_us,
            dec,
            parts,
        })
    });
    result
}

/// Per-operation samples of the `core.*` layer from a traced phase, with
/// run times kept per instance so mixed workloads compare like with like.
#[derive(Default)]
pub struct CoreSamples {
    pub parts: [Vec<f64>; 4],
    pub probes: Vec<f64>,
    pub probe_lookups: Vec<f64>,
    pub grow_lookups: Vec<f64>,
    pub rounds: Vec<f64>,
    pub par_rounds: Vec<f64>,
    pub auto_us: Vec<Vec<f64>>,
    pub seq_us: Vec<Vec<f64>>,
}

impl CoreSamples {
    pub fn new(groups: usize) -> Self {
        CoreSamples {
            auto_us: vec![Vec::new(); groups],
            seq_us: vec![Vec::new(); groups],
            ..CoreSamples::default()
        }
    }

    pub fn push(&mut self, group: usize, t: &TracedOp) {
        for (acc, (_, ns)) in self.parts.iter_mut().zip(t.parts) {
            acc.push(ns as f64 / 1e3);
        }
        self.probes.push(t.dec.probes as f64);
        self.probe_lookups.push(t.dec.probe_lookups as f64);
        self.grow_lookups.push(t.auto.telemetry.grow_lookups as f64);
        let rounds = &t.auto.telemetry.grow_rounds;
        self.rounds.push(rounds.len() as f64);
        self.par_rounds
            .push(rounds.iter().filter(|r| r.parallel).count() as f64);
        self.auto_us[group].push(t.auto_ns as f64 / 1e3);
        self.seq_us[group].push(t.seq_us);
    }

    pub fn merge(&mut self, other: CoreSamples) {
        for (a, b) in self.parts.iter_mut().zip(other.parts) {
            a.extend(b);
        }
        self.probes.extend(other.probes);
        self.probe_lookups.extend(other.probe_lookups);
        self.grow_lookups.extend(other.grow_lookups);
        self.rounds.extend(other.rounds);
        self.par_rounds.extend(other.par_rounds);
        for (a, b) in self.auto_us.iter_mut().zip(other.auto_us) {
            a.extend(b);
        }
        for (a, b) in self.seq_us.iter_mut().zip(other.seq_us) {
            a.extend(b);
        }
    }
}

/// The mean over instances of each instance's median: a mixed workload's
/// typical time, steady where a pooled median would sit between instances.
pub fn mean_of_medians(groups: &[Vec<f64>]) -> f64 {
    mean(
        &groups
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| median(g))
            .collect::<Vec<_>>(),
    )
}

/// Phase parts as means, so they add up to the mean operation time.
pub fn report_core(r: &mut Report, c: &CoreSamples, untraced_us: &[Vec<f64>]) {
    for (name, acc) in [
        "core.probe_us",
        "core.certify_us",
        "core.grow_us",
        "core.other_us",
    ]
    .into_iter()
    .zip(&c.parts)
    {
        r.set(name, mean(acc));
    }
    r.set("core.probes", mean(&c.probes));
    r.set("core.probe_lookups", mean(&c.probe_lookups));
    r.set("core.grow_lookups", mean(&c.grow_lookups));
    r.set("core.grow_rounds", mean(&c.rounds));
    r.set("core.grow_parallel_rounds", mean(&c.par_rounds));
    let (auto, seq) = (mean_of_medians(&c.auto_us), mean_of_medians(&c.seq_us));
    r.set("core.seq_diagnose_us", seq);
    if seq > 0.0 {
        r.set("core.auto_over_seq", auto / seq);
    }
    let untraced = mean_of_medians(untraced_us);
    if untraced > 0.0 {
        r.set("trace.overhead_frac", auto / untraced - 1.0);
    }
}

/// Scheduling counters of the instrumented pool accumulated over a phase.
pub fn pool_delta(before: &WorkerStats, after: &WorkerStats) -> WorkerStats {
    WorkerStats {
        tasks: after.tasks - before.tasks,
        steals: after.steals - before.steals,
        injector_pops: after.injector_pops - before.injector_pops,
        parks: after.parks - before.parks,
        unparks: after.unparks - before.unparks,
        run_ns: after.run_ns.delta_since(&before.run_ns),
    }
}

pub fn pool_totals(pool: &Pool) -> WorkerStats {
    pool.stats()
        .expect("the benchmark pool is instrumented")
        .totals()
}

/// Report the `exec.*` metrics for `pooled_ops` pooled diagnoses whose
/// calls took `pooled_wall_ns` in total.
pub fn report_exec(
    r: &mut Report,
    delta: &WorkerStats,
    threads: usize,
    pooled_ops: usize,
    pooled_wall_ns: u64,
) {
    if pooled_ops == 0 {
        return;
    }
    let per_op = |x: u64| x as f64 / pooled_ops as f64;
    r.set("exec.tasks", per_op(delta.tasks));
    r.set("exec.steals", per_op(delta.steals));
    r.set("exec.parks", per_op(delta.parks));
    r.set("exec.task_p50_ns", delta.run_ns.p50() as f64);
    if pooled_wall_ns > 0 {
        r.set(
            "exec.busy_frac",
            delta.run_ns.sum as f64 / (threads as f64 * pooled_wall_ns as f64),
        );
    }
}

const MICRO_SAMPLE: usize = 4096;
const MICRO_BUDGET_NS: u64 = 40_000_000;

/// Nanoseconds per `neighbors_into` call over a seeded node sample.
pub fn adjacency_ns_per_node(g: &dyn Topology, rng: &mut Rng) -> f64 {
    let n = g.node_count();
    let nodes: Vec<NodeId> = (0..MICRO_SAMPLE).map(|_| rng.below(n)).collect();
    let mut buf = Vec::new();
    let mut calls = 0u64;
    let sw = Stopwatch::start();
    while calls == 0 || sw.elapsed_ns() < MICRO_BUDGET_NS {
        for &u in &nodes {
            g.neighbors_into(std::hint::black_box(u), &mut buf);
            std::hint::black_box(&buf);
        }
        calls += nodes.len() as u64;
    }
    sw.elapsed_ns() as f64 / calls as f64
}

/// Nanoseconds per `SyndromeSource::lookup` over seeded valid triples
/// `(u; v, w)`, `v` and `w` distinct neighbours of `u`.
pub fn lookup_ns<S: SyndromeSource + ?Sized>(g: &dyn Topology, s: &S, rng: &mut Rng) -> f64 {
    let n = g.node_count();
    let mut triples = Vec::with_capacity(MICRO_SAMPLE);
    let mut buf = Vec::new();
    while triples.len() < MICRO_SAMPLE {
        let u = rng.below(n);
        g.neighbors_into(u, &mut buf);
        if buf.len() < 2 {
            continue;
        }
        let i = rng.below(buf.len());
        let j = (i + 1 + rng.below(buf.len() - 1)) % buf.len();
        triples.push((u, buf[i], buf[j]));
    }
    let mut calls = 0u64;
    let sw = Stopwatch::start();
    while calls == 0 || sw.elapsed_ns() < MICRO_BUDGET_NS {
        for &(u, v, w) in &triples {
            std::hint::black_box(s.lookup(u, v, w));
        }
        calls += triples.len() as u64;
    }
    sw.elapsed_ns() as f64 / calls as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_come_from_the_seed_alone() {
        let a = Rng::new(7, 1).scatter(1 << 20, 20);
        assert_eq!(a, Rng::new(7, 1).scatter(1 << 20, 20));
        assert_ne!(a, Rng::new(8, 1).scatter(1 << 20, 20));
        assert_ne!(a, Rng::new(7, 2).scatter(1 << 20, 20));
        assert_eq!(a.len(), 20);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "distinct and ascending");
    }

    use mmdiag::syndrome::{FaultSet, OracleSyndrome, TesterBehavior};
    use mmdiag::topology::families::Hypercube;

    fn oracle(n: usize, faults: &[usize]) -> OracleSyndrome {
        OracleSyndrome::new(FaultSet::new(n, faults), TesterBehavior::Random { seed: 5 })
    }

    #[test]
    fn decomposition_reproduces_the_run_and_a_wrong_set_fails() {
        let g = Hypercube::new(7);
        let s = oracle(128, &[3, 64, 90]);
        let seq = Diagnoser::new(&g).sequential().run(&s).unwrap();
        let mut rec = Recorder::new(now_ns());
        let mut ws = Workspace::new(128);
        let view: &(dyn Partitionable + Sync) = &g;
        let (dec, _) = rec.span("op", 0, None, |rec, root| {
            decompose(rec, 0, root, view, &s, &mut ws)
        });
        let dec = dec.unwrap();
        let d = &seq.diagnosis;
        let grow = seq.telemetry.grow_lookups;
        assert_eq!(
            check_decomposition(&dec, d, &d.faults, d.certified_part, grow),
            Ok(())
        );
        assert!(check_decomposition(&dec, d, &[3, 64], d.certified_part, grow).is_err());
        assert!(check_decomposition(&dec, d, &d.faults, d.certified_part, grow + 1).is_err());
        assert_eq!(
            rec.spans
                .iter()
                .filter(|sp| sp.name == "probe_part")
                .count(),
            dec.probes
        );

        let mut tally = Tally::default();
        assert!(tally.record(&[3, 64, 90], Some(&d.faults), true));
        assert!(
            !tally.record(&[3, 64], Some(&d.faults), true),
            "a wrong planted set"
        );
        assert_eq!(tally.failed_frac(), 0.5);
    }

    #[test]
    fn a_traced_pooled_operation_adds_up() {
        let pool = Pool::new_instrumented(2);
        let cached = Diagnoser::cached(&Hypercube::new_certified(10));
        assert!(auto_is_pooled(1024), "Q_10 sits at the auto cutover");
        let auto = traced_backend(Diagnoser::new(cached.topology()), &pool);
        let seq = Diagnoser::new(cached.topology()).sequential();
        let sessions = TracedSessions {
            auto: &auto,
            seq: &seq,
            verify: None,
        };
        let s = oracle(1024, &[1, 500, 1000]);
        let mut rec = Recorder::new(now_ns());
        let mut ws = Workspace::new(1024);
        let before = pool_totals(&pool);
        let t = traced_op(&mut rec, 0, &sessions, &s, &mut ws).unwrap();
        assert_eq!(t.auto.diagnosis.faults, vec![1, 500, 1000]);
        assert_eq!(t.auto.backend, "pooled");
        assert_eq!(t.parts.iter().map(|p| p.1).sum::<u64>(), t.auto_ns);
        assert!(pool_delta(&before, &pool_totals(&pool)).tasks > 0);
    }
}
