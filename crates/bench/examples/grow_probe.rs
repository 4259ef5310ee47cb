//! Grow-phase wall-clock probe for the frontier-parallel sweep.
//!
//! Runs one implicit hypercube cell — the sequential driver leg, then the
//! auto leg — and prints the phase and per-round split, so engine changes
//! can be timed at Q_23/Q_25 without a full bench sweep.
//!
//! Run: `cargo run --release -p mmdiag-bench --example grow_probe -- 23 random`
//! (dimension defaults to 23; second arg `random`/`allzero`). The usual
//! knobs steer it: `MMDIAG_POOL_THREADS` sizes the auto leg's pool,
//! `MMDIAG_GROW_CUTOVER` forces the growth engine either way.

use mmdiag::Diagnoser;
use mmdiag_bench::scatter_faults;
use mmdiag_implicit::ImplicitTopology;
use mmdiag_syndrome::{OnDemandOracle, SyndromeSource, TesterBehavior};
use mmdiag_topology::families::Hypercube;
use mmdiag_topology::{Partitionable, Topology};
use mmdiag_trace::clock::Stopwatch;

fn main() {
    let mut args = std::env::args().skip(1);
    let dim: usize = args
        .next()
        .map(|a| a.parse().expect("dimension"))
        .unwrap_or(23);
    let behavior = match args.next().as_deref() {
        Some("random") => TesterBehavior::Random { seed: 0xE1A7_5EED },
        _ => TesterBehavior::AllZero,
    };
    let reps: usize = args
        .next()
        .map(|a| a.parse().expect("reps"))
        .unwrap_or(1)
        .max(1);
    let g = ImplicitTopology::new(Hypercube::new_certified(dim));
    let n = g.node_count();
    let bound = g.driver_fault_bound();
    let faults = scatter_faults(n, bound, 0x6E0B ^ dim as u64);
    let s = OnDemandOracle::new(n, faults.members(), behavior);
    eprintln!(
        "Q_{dim}: {n} nodes, {bound} faults, {behavior:?}, {} pool threads, grow cutover {}",
        mmdiag_exec::global().threads(),
        mmdiag_core::Cutovers::default().grow,
    );

    let mut seq = None;
    for rep in 0..reps {
        s.reset_lookups();
        let t = Stopwatch::start();
        let r = Diagnoser::new(&g).run(&s).expect("sequential leg");
        let seq_wall = u128::from(t.elapsed_ns());
        eprintln!(
            "seq#{rep} [{}]: wall {:>7.3}s  probe {:>7.3}s  grow {:>7.3}s  grow_lookups {}",
            r.backend,
            seq_wall as f64 / 1e9,
            r.telemetry.probe_nanos as f64 / 1e9,
            r.telemetry.grow_nanos as f64 / 1e9,
            r.telemetry.grow_lookups,
        );
        seq = Some(r);
    }
    let seq = seq.expect("at least one rep");

    let mut auto = None;
    for rep in 0..reps {
        s.reset_lookups();
        let t = Stopwatch::start();
        let r = Diagnoser::new(&g).auto().run(&s).expect("auto leg");
        let auto_wall = u128::from(t.elapsed_ns());
        eprintln!(
            "auto#{rep} [{}]: wall {:>7.3}s  probe {:>7.3}s  grow {:>7.3}s  grow_lookups {}",
            r.backend,
            auto_wall as f64 / 1e9,
            r.telemetry.probe_nanos as f64 / 1e9,
            r.telemetry.grow_nanos as f64 / 1e9,
            r.telemetry.grow_lookups,
        );
        auto = Some(r);
    }
    let auto = auto.expect("at least one rep");
    let rounds = &auto.telemetry.grow_rounds;
    let par_ns: u128 = rounds.iter().filter(|r| r.parallel).map(|r| r.nanos).sum();
    let pre_ns: u128 = rounds.iter().filter(|r| !r.parallel).map(|r| r.nanos).sum();
    eprintln!(
        "auto rounds: {} ({} parallel, {:.3}s; prefix {:.3}s)",
        rounds.len(),
        rounds.iter().filter(|r| r.parallel).count(),
        par_ns as f64 / 1e9,
        pre_ns as f64 / 1e9,
    );
    for r in rounds.iter() {
        eprintln!(
            "  frontier {:>9}  accepted {:>9}  lookups {:>9}  {:>9.1}ms  {}",
            r.frontier,
            r.accepted,
            r.lookups,
            r.nanos as f64 / 1e6,
            if r.parallel { "par" } else { "seq" },
        );
    }
    assert_eq!(seq.diagnosis.faults, auto.diagnosis.faults, "legs disagree");
    assert_eq!(
        seq.telemetry.grow_lookups, auto.telemetry.grow_lookups,
        "lookup counts drifted"
    );
}
