//! `scale-verified`: one client runs back-to-back verified diagnoses of
//! the certified hypercube Q_20 (1 048 576 nodes), served implicitly, with
//! streaming syndromes and the sampled verifier after every run.

use crate::common::*;
use crate::spans::Recorder;
use crate::stats::{mean, median, Digest, Json, Tally};
use mmdiag::diagnosis::Workspace;
use mmdiag::exec::Pool;
use mmdiag::syndrome::{OnDemandOracle, TesterBehavior};
use mmdiag::topology::families::Hypercube;
use mmdiag::topology::{NodeId, Partitionable, Topology};
use mmdiag::trace::clock::now_ns;
use mmdiag::{Diagnoser, VerificationVerdict};

const DIM: usize = 20;
/// Distinct planted fault sets a run cycles through.
const FAULT_SETS: usize = 8;
/// The harness default of the sampled verifier.
const SAMPLES_PER_PART: usize = 2;

struct Input {
    faults: Vec<NodeId>,
    behavior: TesterBehavior,
}

impl Input {
    fn oracle(&self, n: usize) -> OnDemandOracle {
        OnDemandOracle::new(n, &self.faults, self.behavior)
    }
}

fn inputs(cfg: &Config, n: usize, bound: usize, digest: &mut Digest) -> Vec<Input> {
    let mut rng = Rng::new(cfg.seed, 0x5CA1E);
    (0..FAULT_SETS)
        .map(|_| {
            let faults = rng.scatter(n, bound);
            let seed = rng.next();
            digest.add_all(&faults);
            digest.add(seed);
            Input {
                faults,
                behavior: TesterBehavior::Random { seed },
            }
        })
        .collect()
}

fn agreed(v: &VerificationVerdict) -> bool {
    matches!(v, VerificationVerdict::Sampled { agree: true, .. })
}

pub fn run(cfg: &Config) -> Report {
    let mut r = Report::default();
    let mut digest = Digest::default();
    let family = Hypercube::new_certified(DIM);
    let (n, bound) = (family.node_count(), family.driver_fault_bound());
    let inputs = inputs(cfg, n, bound, &mut digest);
    let verify_seed = Rng::new(cfg.seed, 0x7E21F).next();
    digest.add(verify_seed);
    r.detail("inputs_digest", Json::str(digest.hex()));
    r.detail(
        "instance",
        Json::str(format!("Q_{DIM} implicit, {n} nodes, bound {bound}")),
    );
    crate::heap::reset_peak();
    let pool = cfg
        .trace
        .then(|| Pool::new_instrumented(mmdiag::exec::default_threads()));

    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    for rep in 0..SETUPS {
        let t0 = now_ns();
        let diag = Diagnoser::implicit(Hypercube::new_certified(DIM)).auto();
        build_ms.push(secs(since(t0)) * 1e3);
        let verify = Diagnoser::new(diag.topology()).verify_sampled(SAMPLES_PER_PART, verify_seed);
        let warm = &inputs[rep % inputs.len()];
        let s = warm.oracle(n);
        let ok = match diag.run(&s) {
            Ok(a) => {
                let v = verify.verify_claim(&s, &a.diagnosis.faults, a.diagnosis.certified_part);
                r.tally
                    .record(&warm.faults, Some(&a.diagnosis.faults), agreed(&v))
            }
            Err(_) => r.tally.record(&warm.faults, None, true),
        };
        if !ok {
            r.error(format!("warm-up diagnosis {rep} was wrong"));
        }
        setup_s.push(secs(since(t0)));
        if rep + 1 == SETUPS {
            measure(cfg, &mut r, &diag, &verify, &inputs, pool.as_ref());
        }
    }
    r.set("setup_s", median(&setup_s));
    r.set("topology.build_ms", median(&build_ms));
    r.set("failed_frac", r.tally.failed_frac());
    r
}

fn measure(
    cfg: &Config,
    r: &mut Report,
    diag: &Diagnoser<'_>,
    verify: &Diagnoser<'_>,
    inputs: &[Input],
    pool: Option<&Pool>,
) {
    let n = diag.topology().node_count();
    let start = now_ns();
    let (untraced_end, traced_end) = cfg.phases(start);

    let (mut run_us, mut verify_us, mut total_us, mut lookups) =
        (series(), series(), series(), series());
    let mut i = 0usize;
    while i == 0 || now_ns() < untraced_end {
        let input = &inputs[i % inputs.len()];
        let s = input.oracle(n);
        let t0 = now_ns();
        let report = diag.run(&s);
        let t1 = now_ns();
        let (faults, verdict) = match &report {
            Ok(a) => (
                Some(&a.diagnosis.faults[..]),
                verify.verify_claim(&s, &a.diagnosis.faults, a.diagnosis.certified_part),
            ),
            Err(_) => (None, VerificationVerdict::Unverified),
        };
        let t2 = now_ns();
        if !r.tally.record(&input.faults, faults, agreed(&verdict)) {
            r.error(format!("operation {i}: wrong diagnosis or rejected claim"));
        }
        if let Ok(a) = &report {
            keep(&mut lookups, a.diagnosis.lookups_used as f64);
        }
        keep(&mut run_us, us(t1 - t0));
        keep(&mut verify_us, us(t2 - t1));
        keep(&mut total_us, us(t2 - t0));
        i += 1;
    }
    let wall = secs(since(start));
    r.set("diagnose_p50_us", median(&run_us));
    r.set("verified_p50_us", median(&total_us));
    r.set("verify_p50_us", median(&verify_us));
    r.set("diagnoses_per_s", i as f64 / wall);
    r.set("lookups_per_diagnosis", median(&lookups));
    r.detail("operations", Json::Int(i as u64));

    if let (Some(pool), Some(end)) = (pool, traced_end) {
        traced(r, diag.topology(), verify, inputs, pool, end, &run_us);
    }
}

/// The traced phase: every operation runs the auto diagnosis on the
/// instrumented pool, the verifier, the sequential reference and the
/// step-by-step decomposition, each inside a span of the same operation.
fn traced(
    r: &mut Report,
    g: &(dyn Partitionable + Sync),
    verify: &Diagnoser<'_>,
    inputs: &[Input],
    pool: &Pool,
    end: u64,
    untraced_run_us: &[f64],
) {
    let n = g.node_count();
    let auto = traced_backend(Diagnoser::new(g), pool);
    let seq = Diagnoser::new(g).sequential();
    let sessions = TracedSessions {
        auto: &auto,
        seq: &seq,
        verify: Some(verify),
    };
    let mut ws = Workspace::new(n);
    let mut rec = Recorder::new(now_ns());
    let mut tally = Tally::default();
    let mut core = CoreSamples::new(1);
    let (mut samples, mut checked, mut per_lookup) = (vec![], vec![], vec![]);
    let mut pooled_wall_ns = 0u64;
    let before = pool_totals(pool);
    let mut op = 0u64;
    while op == 0 || now_ns() < end {
        let input = &inputs[op as usize % inputs.len()];
        let s = input.oracle(n);
        match traced_op(&mut rec, op, &sessions, &s, &mut ws) {
            Ok(t) => {
                let verdict = t.verdict.as_ref().expect("the traced phase verifies");
                if !tally.record(
                    &input.faults,
                    Some(&t.auto.diagnosis.faults),
                    agreed(verdict),
                ) {
                    r.error(format!(
                        "traced operation {op}: wrong diagnosis or rejected claim"
                    ));
                }
                if let VerificationVerdict::Sampled {
                    samples: k,
                    checked_tests,
                    ..
                } = *verdict
                {
                    samples.push(k as f64);
                    checked.push(checked_tests as f64);
                    per_lookup.push(checked_tests as f64 / t.auto.diagnosis.lookups_used as f64);
                }
                if auto_is_pooled(n) {
                    pooled_wall_ns += t.auto_ns;
                }
                core.push(0, &t);
            }
            Err(e) => {
                tally.record(&input.faults, None, true);
                r.error(format!("traced operation {op}: {e}"));
            }
        }
        op += 1;
    }
    let delta = pool_delta(&before, &pool_totals(pool));
    r.tally.merge(tally);
    let pooled_ops = if auto_is_pooled(n) {
        core.auto_us[0].len()
    } else {
        0
    };
    report_exec(r, &delta, pool.threads(), pooled_ops, pooled_wall_ns);
    report_core(r, &core, &[untraced_run_us.to_vec()]);
    r.set("verify.samples", mean(&samples));
    r.set("verify.checked_tests", mean(&checked));
    r.set("verify.tests_per_lookup", mean(&per_lookup));

    let mut rng = Rng::new(0x1A7E2, n as u64);
    r.set(
        "topology.adjacency_ns_per_node",
        adjacency_ns_per_node(g, &mut rng),
    );
    let s = inputs[0].oracle(n);
    r.set("syndrome.lookup_ns", lookup_ns(g, &s, &mut rng));
    r.spans.push(rec.to_json(0));
    r.detail("traced_operations", Json::Int(op));
}
