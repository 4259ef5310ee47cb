//! `monitor-epochs`: one `MonitorSession` over the certified Q_20 replays a
//! seeded Poisson onset/recovery timeline, one streaming oracle per epoch.

use crate::common::*;
use crate::spans::{phase_remainder, Recorder};
use crate::stats::{mean, median, percentile, Digest, Json, Tally};
use mmdiag::distsim::EpochTimeline;
use mmdiag::syndrome::{OnDemandOracle, TesterBehavior};
use mmdiag::topology::families::Hypercube;
use mmdiag::topology::{NodeId, Partitionable, Topology};
use mmdiag::trace::clock::now_ns;
use mmdiag::{Diagnoser, MonitorSession};

const DIM: usize = 20;
/// Expected onsets and recoveries per epoch: high enough that few epochs
/// are quiescent, so the epoch median sits on real work.
const ONSET_RATE: f64 = 2.5;
const RECOVERY_RATE: f64 = 2.5;
/// Epochs in the generated timeline. The timeline keeps a bitmap of the
/// whole network per epoch (1 MiB at Q_20), so it is kept short and
/// replayed in a cycle; the epoch that closes a cycle gets the exact delta
/// from the last fault set back to the first.
const TIMELINE_EPOCHS: usize = 96;

/// One epoch of the timeline: the instantaneous fault set and the nodes
/// whose status changed at its start.
struct Epoch {
    faults: Vec<NodeId>,
    delta: Vec<NodeId>,
}

/// The seeded timeline: its initial epoch, the epochs replayed after it,
/// and the delta that takes the last of them back to the first.
struct Timeline {
    initial: Epoch,
    cycle: Vec<Epoch>,
    wrap_delta: Vec<NodeId>,
    behavior: TesterBehavior,
}

impl Timeline {
    /// The `i`-th epoch after the initial one: its faults and delta.
    fn epoch(&self, i: usize) -> (&[NodeId], &[NodeId]) {
        let e = &self.cycle[i % self.cycle.len()];
        let wraps = i >= self.cycle.len() && i.is_multiple_of(self.cycle.len());
        (&e.faults, if wraps { &self.wrap_delta } else { &e.delta })
    }
}

fn inputs(cfg: &Config, n: usize, bound: usize, digest: &mut Digest) -> Timeline {
    let mut rng = Rng::new(cfg.seed, 0xE90C5);
    let behavior = TesterBehavior::Random { seed: rng.next() };
    // Concurrent faults stay under the bound, so every epoch is diagnosable.
    let timeline = EpochTimeline::poisson(
        n,
        TIMELINE_EPOCHS,
        ONSET_RATE,
        RECOVERY_RATE,
        bound - 1,
        rng.next(),
        behavior,
    );
    let mut epochs: Vec<Epoch> = (0..timeline.epoch_count())
        .map(|e| Epoch {
            faults: timeline.faults_at(e).members().to_vec(),
            delta: timeline.delta_at(e),
        })
        .collect();
    for e in &epochs {
        digest.add_all(&e.faults);
        digest.add_all(&e.delta);
    }
    if let TesterBehavior::Random { seed } = behavior {
        digest.add(seed);
    }
    let initial = epochs.remove(0);
    let (first, last) = (&epochs[0].faults, &epochs[epochs.len() - 1].faults);
    let mut wrap_delta: Vec<NodeId> = first
        .iter()
        .filter(|v| !last.contains(v))
        .chain(last.iter().filter(|v| !first.contains(v)))
        .copied()
        .collect();
    wrap_delta.sort_unstable();
    Timeline {
        initial,
        cycle: epochs,
        wrap_delta,
        behavior,
    }
}

pub fn run(cfg: &Config) -> Report {
    let mut r = Report::default();
    let mut digest = Digest::default();
    let probe = Hypercube::new_certified(DIM);
    let (n, bound) = (probe.node_count(), probe.driver_fault_bound());
    let timeline = inputs(cfg, n, bound, &mut digest);
    r.detail("inputs_digest", Json::str(digest.hex()));
    r.detail(
        "instance",
        Json::str(format!("Q_{DIM} implicit, {n} nodes, bound {bound}")),
    );
    crate::heap::reset_peak();

    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut m = Measured::new();
    for rep in 0..SETUPS {
        let t0 = now_ns();
        let session = Diagnoser::implicit(Hypercube::new_certified(DIM));
        build_ms.push(secs(since(t0)) * 1e3);
        let mut monitor = match session.monitor() {
            Ok(m) => m,
            Err(e) => {
                r.tally.record(&timeline.initial.faults, None, true);
                r.error(format!("opening the monitor: {e}"));
                return r;
            }
        };
        // The initial epoch escalates to a full walk: it is set-up.
        let first = &timeline.initial;
        let s = OnDemandOracle::new(n, &first.faults, timeline.behavior);
        let got = monitor.ingest(&s, &first.delta);
        if !r.tally.record(
            &first.faults,
            got.as_ref().ok().map(|e| &e.diagnosis.faults[..]),
            true,
        ) {
            r.error(format!("initial epoch of set-up {rep} was wrong"));
        }
        setup_s.push(secs(since(t0)));
        // The last sessions set up each measure a segment: a session's
        // speed depends on where its workspace landed in memory, and
        // pooling several sessions keeps one placement from deciding a run.
        if let Some(segment) = (rep + SEGMENTS).checked_sub(SETUPS) {
            let g = session.topology();
            measure(cfg, &mut r, &mut m, &mut monitor, g, &timeline, segment);
        }
    }
    r.set("setup_s", median(&setup_s));
    r.set("topology.build_ms", median(&build_ms));
    report_untraced(&mut r, &m);
    r.tally.merge(m.tally);
    r.set("failed_frac", r.tally.failed_frac());
    r
}

/// Sessions whose epochs are measured, each for an equal share of the
/// untraced time; the last also runs the traced phase.
const SEGMENTS: usize = 3;

/// What the measured segments collected.
struct Measured {
    tally: Tally,
    untraced: EpochSamples,
    untraced_s: f64,
    /// Wall times of every epoch of the run, traced ones included.
    all_us: Vec<f64>,
}

impl Measured {
    fn new() -> Self {
        Measured {
            tally: Tally::default(),
            untraced: EpochSamples::new(),
            untraced_s: 0.0,
            all_us: series(),
        }
    }
}

/// What the benchmark keeps of one `EpochReport`: its counts, not its
/// million-node labelling.
struct EpochStat {
    quiescent: bool,
    escalated: bool,
    parts_reprobed: usize,
    parts_reused: usize,
    probe_ns: u64,
    certify_ns: u64,
    grow_ns: u64,
    other_ns: u64,
    probe_lookups: u64,
    grow_lookups: u64,
}

/// Per-epoch samples of one phase.
struct EpochSamples {
    wall_us: Vec<f64>,
    lookups: Vec<f64>,
    delta_nodes: u64,
    busy_lookups: u64,
    reports: Vec<EpochStat>,
}

impl EpochSamples {
    fn new() -> Self {
        EpochSamples {
            wall_us: series(),
            lookups: series(),
            delta_nodes: 0,
            busy_lookups: 0,
            reports: series(),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn ingest_one(
    r: &mut Report,
    tally: &mut Tally,
    monitor: &mut MonitorSession<'_>,
    timeline: &Timeline,
    n: usize,
    index: usize,
    samples: &mut EpochSamples,
    rec: Option<&mut Recorder>,
) {
    let (faults, delta) = timeline.epoch(index);
    let s = OnDemandOracle::new(n, faults, timeline.behavior);
    let t0 = now_ns();
    let got = match rec {
        Some(rec) => {
            let op = index as u64;
            rec.span("MonitorSession::ingest", op, None, |_, _| {
                monitor.ingest(&s, delta)
            })
            .0
        }
        None => monitor.ingest(&s, delta),
    };
    let wall = since(t0);
    if !tally.record(
        faults,
        got.as_ref().ok().map(|e| &e.diagnosis.faults[..]),
        true,
    ) {
        r.error(format!("epoch {index}: wrong fault set or error"));
    }
    keep(&mut samples.wall_us, us(wall));
    if let Ok(report) = got {
        keep(&mut samples.lookups, report.lookups as f64);
        if !report.quiescent {
            samples.delta_nodes += delta.len() as u64;
            samples.busy_lookups += report.lookups;
        }
        let t = &report.telemetry;
        let phases = [
            ("probe", t.probe_nanos as u64),
            ("certify", t.certify_nanos as u64),
            ("grow", t.grow_nanos as u64),
        ];
        // A quiescent epoch runs no phase at all.
        let required: &[&str] = if report.quiescent {
            &[]
        } else {
            &["probe", "certify", "grow"]
        };
        let other_ns = phase_remainder(wall, &phases, required).unwrap_or_else(|e| {
            r.error(format!("epoch {index} phases: {e}"));
            0
        });
        keep(
            &mut samples.reports,
            EpochStat {
                quiescent: report.quiescent,
                escalated: report.escalation.is_some(),
                parts_reprobed: report.parts_reprobed,
                parts_reused: report.parts_reused,
                probe_ns: phases[0].1,
                certify_ns: phases[1].1,
                grow_ns: phases[2].1,
                other_ns,
                probe_lookups: t.probe_lookups,
                grow_lookups: t.grow_lookups,
            },
        );
    }
}

fn measure(
    cfg: &Config,
    r: &mut Report,
    m: &mut Measured,
    monitor: &mut MonitorSession<'_>,
    g: &(dyn Partitionable + Sync),
    timeline: &Timeline,
    segment: usize,
) {
    let n = g.node_count();
    let start = now_ns();
    let (untraced_end, traced_end) = cfg.phases(start);
    let share = (untraced_end - start) / SEGMENTS as u64;
    let mut next = 0usize;
    while next == 0 || since(start) < share {
        let samples = &mut m.untraced;
        ingest_one(r, &mut m.tally, monitor, timeline, n, next, samples, None);
        next += 1;
    }
    m.untraced_s += secs(since(start));
    if segment + 1 < SEGMENTS {
        return;
    }
    m.all_us.extend(&m.untraced.wall_us);
    if let Some(end) = traced_end {
        let traced_end = now_ns() + (end - untraced_end);
        let mut rec = Recorder::new(now_ns());
        let mut traced = EpochSamples::new();
        while traced.wall_us.is_empty() || now_ns() < traced_end {
            let (samples, rec) = (&mut traced, Some(&mut rec));
            ingest_one(r, &mut m.tally, monitor, timeline, n, next, samples, rec);
            next += 1;
        }
        report_traced(r, &traced, median(&m.untraced.wall_us));
        m.all_us.extend(&traced.wall_us);
        r.spans.push(rec.to_json(0));
        let mut rng = Rng::new(0x1A7E2, n as u64);
        r.set(
            "topology.adjacency_ns_per_node",
            adjacency_ns_per_node(g, &mut rng),
        );
        let s = OnDemandOracle::new(n, &timeline.initial.faults, timeline.behavior);
        r.set("syndrome.lookup_ns", lookup_ns(g, &s, &mut rng));
    }
}

fn report_untraced(r: &mut Report, m: &Measured) {
    let u = &m.untraced;
    let epoch_p50 = median(&u.wall_us);
    r.set("diagnose_p50_us", epoch_p50);
    r.set("verified_p50_us", epoch_p50);
    r.set("epoch_p50_us", epoch_p50);
    r.set("diagnoses_per_s", u.wall_us.len() as f64 / m.untraced_s);
    r.set("lookups_per_diagnosis", mean(&u.lookups));
    r.set("lookups_per_epoch", mean(&u.lookups));
    r.detail("epochs", Json::Int(u.wall_us.len() as u64));
    r.detail(
        "quiescent_epochs",
        Json::Int(u.reports.iter().filter(|e| e.quiescent).count() as u64),
    );
    // The tail over every epoch of the run: a span costs nanoseconds
    // against an epoch's tenth of a second.
    let p90 = percentile(&m.all_us, 0.90);
    r.set("epoch_p90_us", p90.map_or(0.0, |p| p.value));
    r.detail(
        "epoch_p90",
        p90.map_or(Json::str("refused: fewer than 10 epochs beyond it"), |p| {
            Json::obj([
                ("samples", Json::Int(p.samples as u64)),
                ("beyond", Json::Int(p.beyond as u64)),
            ])
        }),
    );
}

fn report_traced(r: &mut Report, t: &EpochSamples, untraced_p50: f64) {
    let per_epoch =
        |f: &dyn Fn(&EpochStat) -> f64| mean(&t.reports.iter().map(f).collect::<Vec<_>>());
    r.set("monitor.epochs", t.wall_us.len() as f64);
    r.set(
        "monitor.parts_reprobed",
        per_epoch(&|e| e.parts_reprobed as f64),
    );
    r.set(
        "monitor.parts_reused",
        per_epoch(&|e| e.parts_reused as f64),
    );
    r.set(
        "monitor.escalations",
        t.reports.iter().filter(|e| e.escalated).count() as f64,
    );
    r.set(
        "monitor.quiescent_epochs",
        t.reports.iter().filter(|e| e.quiescent).count() as f64,
    );
    r.set("monitor.probe_us", per_epoch(&|e| e.probe_ns as f64 / 1e3));
    r.set("monitor.grow_us", per_epoch(&|e| e.grow_ns as f64 / 1e3));
    if t.delta_nodes > 0 {
        r.set(
            "monitor.lookups_per_delta_node",
            t.busy_lookups as f64 / t.delta_nodes as f64,
        );
    }
    // The core layer as the monitor drives it: its phases, and the rest of
    // each ingest (cache upkeep, copying the labelling out).
    r.set("core.probe_us", per_epoch(&|e| e.probe_ns as f64 / 1e3));
    r.set("core.certify_us", per_epoch(&|e| e.certify_ns as f64 / 1e3));
    r.set("core.grow_us", per_epoch(&|e| e.grow_ns as f64 / 1e3));
    r.set("core.other_us", per_epoch(&|e| e.other_ns as f64 / 1e3));
    r.set("core.probe_lookups", per_epoch(&|e| e.probe_lookups as f64));
    r.set("core.grow_lookups", per_epoch(&|e| e.grow_lookups as f64));
    r.set("core.probes", per_epoch(&|e| e.parts_reprobed as f64));
    r.set(
        "trace.overhead_frac",
        median(&t.wall_us) / untraced_p50 - 1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replayed_timeline_deltas_are_exact() {
        let cfg = Config {
            seed: 3,
            seconds: 1.0,
            trace: false,
        };
        let timeline = inputs(&cfg, 1 << 12, 12, &mut Digest::default());
        let mut faults = timeline.initial.faults.clone();
        for i in 0..3 * timeline.cycle.len() + 1 {
            let (want, delta) = timeline.epoch(i);
            for v in delta {
                match faults.iter().position(|f| f == v) {
                    Some(at) => {
                        faults.remove(at);
                    }
                    None => faults.push(*v),
                }
            }
            faults.sort_unstable();
            assert_eq!(faults, want, "epoch {i}");
            assert!(faults.len() < 12, "concurrent faults stay under the bound");
        }
    }
}
