//! `fleet-small`: closed-loop clients, each owning its own cached sessions
//! over four small instances on both sides of the auto backend's
//! sequential cutover, diagnosing bitmap-oracle syndromes round-robin.

use crate::common::*;
use crate::spans::Recorder;
use crate::stats::{mean, median, percentile, Digest, Json, Tally};
use mmdiag::diagnosis::Workspace;
use mmdiag::exec::sync::thread::spawn_named;
use mmdiag::exec::Pool;
use mmdiag::syndrome::{FaultSet, OracleSyndrome, TesterBehavior};
use mmdiag::topology::families::{CrossedCube, Hypercube, Pancake, StarGraph};
use mmdiag::topology::{NodeId, Partitionable};
use mmdiag::trace::clock::now_ns;
use mmdiag::Diagnoser;
use std::sync::{Arc, Barrier};

/// At most this many clients, and never more than the machine's cores.
const MAX_CLIENTS: usize = 2;
/// Passes over each instance's fault-count ladder, with fresh positions.
const LADDER_PASSES: usize = 4;

struct Instance {
    name: &'static str,
    family: fn() -> Box<dyn Partitionable + Sync>,
}

const INSTANCES: [Instance; 4] = [
    Instance {
        name: "CQ_9",
        family: || Box::new(CrossedCube::new(9)),
    },
    Instance {
        name: "Q_10",
        family: || Box::new(Hypercube::new_certified(10)),
    },
    Instance {
        name: "S_7",
        family: || Box::new(StarGraph::new(7)),
    },
    Instance {
        name: "P_7",
        family: || Box::new(Pancake::new(7)),
    },
];

struct Input {
    faults: Vec<NodeId>,
    oracle: OracleSyndrome,
}

/// Per client and instance: fault counts cycle through `0..=bound`, the
/// tester behaviour alternates Random/AllZero between ladder passes.
fn inputs(cfg: &Config, clients: usize, digest: &mut Digest) -> Vec<Vec<Vec<Input>>> {
    let shapes: Vec<(usize, usize)> = INSTANCES
        .iter()
        .map(|inst| {
            let g = (inst.family)();
            (g.node_count(), g.driver_fault_bound())
        })
        .collect();
    (0..clients)
        .map(|c| {
            shapes
                .iter()
                .enumerate()
                .map(|(k, &(n, bound))| {
                    let mut rng = Rng::new(cfg.seed, 0xF1EE7 + 16 * c as u64 + k as u64);
                    (0..2 * (bound + 1) * LADDER_PASSES)
                        .map(|j| {
                            let faults = rng.scatter(n, j % (bound + 1));
                            let behavior = if (j / (bound + 1)) % 2 == 0 {
                                TesterBehavior::Random { seed: rng.next() }
                            } else {
                                TesterBehavior::AllZero
                            };
                            digest.add_all(&faults);
                            if let TesterBehavior::Random { seed } = behavior {
                                digest.add(seed);
                            }
                            let oracle = OracleSyndrome::new(FaultSet::new(n, &faults), behavior);
                            Input { faults, oracle }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// What one client measured.
#[derive(Default)]
struct ClientResult {
    tally: Tally,
    errors: Vec<String>,
    build_ms: Vec<f64>,
    run_us: Vec<Vec<f64>>,
    lookups: Vec<f64>,
    ops: u64,
    untraced_s: f64,
    core: Option<CoreSamples>,
    pooled_wall_ns: u64,
    pooled_ops: usize,
    layer_ns: Vec<(f64, f64)>,
    spans: Option<Json>,
}

pub fn run(cfg: &Config) -> Report {
    let mut r = Report::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = MAX_CLIENTS.min(cores);
    let mut digest = Digest::default();
    let inputs = inputs(cfg, clients, &mut digest);
    crate::heap::reset_peak();
    r.detail("inputs_digest", Json::str(digest.hex()));
    r.detail("clients", Json::Int(clients as u64));
    r.detail(
        "instances",
        Json::Arr(INSTANCES.iter().map(|i| Json::str(i.name)).collect()),
    );
    let pool = cfg
        .trace
        .then(|| Arc::new(Pool::new_instrumented(mmdiag::exec::default_threads())));

    // Client threads come from the executor's thread door; each is joined
    // below before its results are read.
    let ready = Arc::new(Barrier::new(clients + 1));
    let go = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = inputs
        .into_iter()
        .enumerate()
        .map(|(id, mine)| {
            let (cfg, ready, go, pool) = (*cfg, ready.clone(), go.clone(), pool.clone());
            let body = move || client(id, &cfg, &mine, &ready, &go, pool.as_deref());
            spawn_named(format!("mmbench-client-{id}"), body).expect("spawning a fleet client")
        })
        .collect();
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let t0 = now_ns();
        ready.wait();
        setup_s.push(secs(since(t0)));
        go.wait();
    }
    let results: Vec<ClientResult> = handles
        .into_iter()
        .map(|h| h.join().expect("a fleet client panicked"))
        .collect();
    r.set("setup_s", median(&setup_s));

    let mut run_us: Vec<Vec<f64>> = vec![Vec::new(); INSTANCES.len()];
    let mut lookups = Vec::new();
    let mut ops = 0;
    let mut untraced_s: f64 = 0.0;
    let mut build_ms = Vec::new();
    let mut core: Option<CoreSamples> = None;
    let (mut pooled_wall_ns, mut pooled_ops) = (0, 0);
    let mut layer_ns = Vec::new();
    for (c, res) in results.into_iter().enumerate() {
        r.tally.merge(res.tally);
        for e in res.errors {
            r.error(format!("client {c}: {e}"));
        }
        for (all, mine) in run_us.iter_mut().zip(res.run_us) {
            all.extend(mine);
        }
        lookups.extend(res.lookups);
        ops += res.ops;
        untraced_s = untraced_s.max(res.untraced_s);
        build_ms.extend(res.build_ms);
        match (&mut core, res.core) {
            (Some(all), Some(mine)) => all.merge(mine),
            (all, mine) => *all = all.take().or(mine),
        }
        pooled_wall_ns += res.pooled_wall_ns;
        pooled_ops += res.pooled_ops;
        layer_ns.extend(res.layer_ns);
        if let Some(spans) = res.spans {
            r.spans.push(spans);
        }
    }
    r.set("topology.build_ms", median(&build_ms));
    // Each instance's median, averaged over the instances: a median over
    // the mix would sit on the boundary between two instances' times.
    r.set("diagnose_p50_us", mean_of_medians(&run_us));
    r.set("verified_p50_us", mean_of_medians(&run_us));
    r.set("diagnoses_per_s", ops as f64 / untraced_s);
    r.set("lookups_per_diagnosis", mean(&lookups));
    let tails: Vec<Json> = INSTANCES
        .iter()
        .zip(&run_us)
        .map(|(inst, us)| {
            let p99 = percentile(us, 0.99);
            Json::obj([
                ("instance", Json::str(inst.name)),
                ("samples", Json::Int(us.len() as u64)),
                ("p50_us", Json::Num(median(us))),
                ("p99_us", p99.map_or(Json::Null, |p| Json::Num(p.value))),
            ])
        })
        .collect();
    r.detail("per_instance", Json::Arr(tails));
    // The tail over instances: each instance's p99 where it has at least
    // ten samples beyond it, averaged like the median.
    let p99s: Vec<f64> = run_us
        .iter()
        .filter_map(|us| percentile(us, 0.99).map(|p| p.value))
        .collect();
    if p99s.len() == INSTANCES.len() {
        r.set("diagnose_p99_us", mean(&p99s));
    }
    r.detail("operations", Json::Int(ops));

    if let (Some(pool), Some(core)) = (pool.as_deref(), core) {
        let totals = pool_totals(pool);
        report_exec(&mut r, &totals, pool.threads(), pooled_ops, pooled_wall_ns);
        report_core(&mut r, &core, &run_us);
        let adjacency: Vec<f64> = layer_ns.iter().map(|l| l.0).collect();
        let lookup: Vec<f64> = layer_ns.iter().map(|l| l.1).collect();
        r.set("topology.adjacency_ns_per_node", mean(&adjacency));
        r.set("syndrome.lookup_ns", mean(&lookup));
    }
    r.set("failed_frac", r.tally.failed_frac());
    r
}

/// One closed-loop client: sets up its own sessions (timed by the main
/// thread between barriers), then diagnoses round-robin until the deadline.
fn client(
    id: usize,
    cfg: &Config,
    inputs: &[Vec<Input>],
    ready: &Barrier,
    go: &Barrier,
    pool: Option<&Pool>,
) -> ClientResult {
    let mut res = ClientResult {
        run_us: INSTANCES.iter().map(|_| series()).collect(),
        lookups: series(),
        ..ClientResult::default()
    };
    for rep in 0..SETUPS {
        let mut sessions = Vec::new();
        let mut build_ns = 0.0;
        for (inst, mine) in INSTANCES.iter().zip(inputs) {
            let family = (inst.family)();
            let t0 = now_ns();
            let session = Diagnoser::cached(family.as_ref()).auto();
            build_ns += secs(since(t0)) * 1e3;
            let warm = &mine[rep % mine.len()];
            let got = session.run(&warm.oracle);
            if !res.tally.record(
                &warm.faults,
                got.as_ref().ok().map(|a| &a.diagnosis.faults[..]),
                true,
            ) {
                res.errors
                    .push(format!("{} warm-up {rep} was wrong", inst.name));
            }
            sessions.push(session);
        }
        res.build_ms.push(build_ns);
        ready.wait();
        go.wait();
        if rep + 1 == SETUPS {
            measure(id, cfg, &mut res, &sessions, inputs, pool);
        }
    }
    res
}

fn measure(
    id: usize,
    cfg: &Config,
    res: &mut ClientResult,
    sessions: &[Diagnoser<'_>],
    inputs: &[Vec<Input>],
    pool: Option<&Pool>,
) {
    let start = now_ns();
    let (untraced_end, traced_end) = cfg.phases(start);
    let k = sessions.len();
    let mut i = 0usize;
    while i == 0 || now_ns() < untraced_end {
        let inst = i % k;
        let input = &inputs[inst][(i / k) % inputs[inst].len()];
        let t0 = now_ns();
        let got = sessions[inst].run(&input.oracle);
        let wall = since(t0);
        let faults = got.as_ref().ok().map(|a| &a.diagnosis.faults[..]);
        if !res.tally.record(&input.faults, faults, true) {
            res.errors
                .push(format!("{} operation {i} was wrong", INSTANCES[inst].name));
        }
        if let Ok(a) = &got {
            keep(&mut res.lookups, a.diagnosis.lookups_used as f64);
        }
        keep(&mut res.run_us[inst], us(wall));
        i += 1;
    }
    res.ops = i as u64;
    res.untraced_s = secs(since(start));

    let (Some(pool), Some(end)) = (pool, traced_end) else {
        return;
    };
    let autos: Vec<Diagnoser<'_>> = sessions
        .iter()
        .map(|s| traced_backend(Diagnoser::new(s.topology()), pool))
        .collect();
    let seqs: Vec<Diagnoser<'_>> = sessions
        .iter()
        .map(|s| Diagnoser::new(s.topology()).sequential())
        .collect();
    let mut wss: Vec<Workspace> = sessions
        .iter()
        .map(|s| Workspace::new(s.topology().node_count()))
        .collect();
    let mut rec = Recorder::new(start);
    let mut core = CoreSamples::new(k);
    let mut op = 0usize;
    while op == 0 || now_ns() < end {
        let inst = op % k;
        let input = &inputs[inst][(op / k) % inputs[inst].len()];
        let traced = TracedSessions {
            auto: &autos[inst],
            seq: &seqs[inst],
            verify: None,
        };
        match traced_op(&mut rec, op as u64, &traced, &input.oracle, &mut wss[inst]) {
            Ok(t) => {
                if !res
                    .tally
                    .record(&input.faults, Some(&t.auto.diagnosis.faults), true)
                {
                    res.errors.push(format!(
                        "{} traced operation {op} was wrong",
                        INSTANCES[inst].name
                    ));
                }
                if auto_is_pooled(sessions[inst].topology().node_count()) {
                    res.pooled_wall_ns += t.auto_ns;
                    res.pooled_ops += 1;
                }
                core.push(inst, &t);
            }
            Err(e) => {
                res.tally.record(&input.faults, None, true);
                res.errors.push(format!(
                    "{} traced operation {op}: {e}",
                    INSTANCES[inst].name
                ));
            }
        }
        op += 1;
    }
    res.core = Some(core);
    let mut rng = Rng::new(0x1A7E2, 0);
    for (s, mine) in sessions.iter().zip(inputs) {
        let g = s.topology();
        res.layer_ns.push((
            adjacency_ns_per_node(g, &mut rng),
            lookup_ns(g, &mine[0].oracle, &mut rng),
        ));
    }
    res.spans = Some(rec.to_json(id));
}
