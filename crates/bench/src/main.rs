//! The `mmdiag-bench` harness binary.
//!
//! Sweeps the family catalog, times one driver leg per cell and
//! cross-checks it against the baseline and the event-level simulator,
//! re-submits each instance's syndromes as one batched submission per
//! policy, runs the simulator-only scenario sweep (latency skew,
//! mid-protocol injection) on the shared pool, and writes the
//! machine-readable trajectory file.
//!
//! ```text
//! mmdiag-bench [--quick] [--large] [--xlarge] [--xxlarge] [--profile] [--throughput] [--online] [--out PATH]
//!   --quick   one (smallest) instance per family instead of the full
//!             sweep; also skips the baseline on the largest instance per
//!             family so the smoke run stays well under ~10 s. With
//!             --large/--xlarge/--xxlarge, caps each scale axis at its
//!             single smallest instance. MMDIAG_QUICK=1 in the environment means
//!             the same thing (the one quick knob shared with the distsim
//!             property suite).
//!   --large   extend the catalog with the 10⁵⁺-node scale axis (Q_17,
//!             S_8, large k-ary tori) — driver-only cells; the sampled
//!             spot-checker replaces the baseline/simulator legs (JSON
//!             null)
//!   --xlarge  extend the catalog with the 10⁶–10⁷-node implicit axis
//!             (Q_20…Q_23, Q^3_13, Q^4_11, S_10) — CSR-free adjacency,
//!             streaming syndromes, sampled cross-check
//!   --xxlarge extend the catalog with the 10⁷–10⁸-node axis (Q_25,
//!             Q^3_17, Q_27 — 134 217 728 nodes); same slimmed protocol
//!             and sampled verification as --xlarge
//!   --profile run one extra fully observed rep per cell — a tracing
//!             session — writing one Chrome trace-event file per cell
//!             (Perfetto-loadable) into a directory derived from --out
//!             (BENCH_9.json → BENCH_9-traces/). Every trace is validated
//!             as JSON before it is written and its rollups are embedded
//!             in the records under "profile"
//!   --throughput run the fleet axis after the sweep: 8 (4 with --quick)
//!             concurrent Diagnoser sessions on separate threads — mixed
//!             families and verification policies — all attached to the
//!             process-wide MetricsHub, with sync-layer contention
//!             profiling on. Reports diagnoses/sec, per-diagnosis
//!             latency quantiles, the lock-wait/park/queue-depth
//!             contention rollups and the instrumentation-overhead
//!             verdict under the additive top-level "throughput" key,
//!             and streams periodic MetricsHub deltas to
//!             <out-stem>-stats.jsonl (interval MMDIAG_STATS ms,
//!             default 200)
//!   --online  run the epoch-loop monitor axis after the sweep: one
//!             long-lived MonitorSession per small-catalog family
//!             replaying a seeded Poisson fault timeline (MMDIAG_EPOCHS
//!             epochs, default 24 or 8 with --quick). Every epoch's
//!             incremental labelling is checked bit-for-bit against a
//!             from-scratch diagnose; reports detection latency and
//!             amortised lookups/epoch vs from-scratch under the
//!             additive top-level "online" key. One more cell runs an
//!             implicit Q_20 over streaming syndromes and records both
//!             wall times of every epoch (monitor and from-scratch)
//!             under "online"."scale". Any disagreement or a family
//!             whose sparse epochs fail to beat from-scratch fails the
//!             binary
//!   --out     output path (default BENCH_9.json in the working directory)
//! ```
//!
//! The batched submissions resolve against the default session cutover
//! (`mmdiag_core::Cutovers::default()`: the compiled-in value unless
//! `MMDIAG_CUTOVER` pins it); no file in the working directory changes
//! what a run measures.
#![forbid(unsafe_code)]

use mmdiag_bench::{
    distsim_scenarios, full_catalog, large_catalog, run_online, run_online_scale, run_throughput,
    small_catalog, sweep_profiled, to_json, xlarge_catalog, xxlarge_catalog, ProfileConfig,
};
use mmdiag_core::VerificationVerdict;

/// The trajectory id this binary emits (`BENCH_<pr>`).
const BENCH_ID: &str = "BENCH_9";

fn main() {
    // `--quick` and MMDIAG_QUICK=1 are the same knob (parsed once for the
    // whole workspace by `mmdiag_exec::knobs`): the env var is what the
    // distsim `sim_vs_model` property suite honours, so one setting
    // shrinks every harness in the workspace.
    let mut quick = mmdiag_exec::knobs().quick;
    let mut large = false;
    let mut xlarge = false;
    let mut xxlarge = false;
    let mut profile = false;
    let mut throughput_axis = false;
    let mut online_axis = false;
    let mut out_path = format!("{BENCH_ID}.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--large" => large = true,
            "--xlarge" => xlarge = true,
            "--xxlarge" => xxlarge = true,
            "--profile" => profile = true,
            "--throughput" => throughput_axis = true,
            "--online" => online_axis = true,
            "--out" => {
                out_path = args
                    .next()
                    .unwrap_or_else(|| die("--out needs a path argument"));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: mmdiag-bench [--quick] [--large] [--xlarge] [--xxlarge] \
                     [--profile] [--throughput] [--online] [--out PATH]"
                );
                return;
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    // --profile writes one Chrome trace per cell next to the trajectory
    // file: BENCH_9.json → BENCH_9-traces/.
    let profile_cfg = if profile {
        let stem = out_path.strip_suffix(".json").unwrap_or(&out_path);
        let dir = std::path::PathBuf::from(format!("{stem}-traces"));
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
        Some(ProfileConfig { trace_dir: dir })
    } else {
        None
    };

    let mut catalog = if quick {
        small_catalog()
    } else {
        full_catalog()
    };
    if large {
        let mut axis = large_catalog();
        if quick {
            axis.truncate(1); // the CI smoke leg: one capped large instance
        }
        catalog.extend(axis);
    }
    if xlarge {
        let mut axis = xlarge_catalog();
        if quick {
            axis.truncate(1); // CI smoke: the smallest 10⁶-node cell (Q_20)
        }
        catalog.extend(axis);
    }
    if xxlarge {
        let mut axis = xxlarge_catalog();
        if quick {
            axis.truncate(1); // CI smoke: the smallest 10⁷-node cell (Q_25)
        }
        catalog.extend(axis);
    }
    eprintln!("sweeping {} instances across 14 families…", catalog.len());
    eprintln!(
        "{:<22} {:>7} {:>7} {:>12} {:>12} {:>9} {:>9} {:>6}",
        "instance", "nodes", "faults", "driver µs", "baseline µs", "speedup", "lookup×", "sim"
    );
    let (records, batches) = sweep_profiled(&catalog, quick, profile_cfg.as_ref(), &mut |rec| {
        eprintln!(
            "{:<22} {:>7} {:>7} {:>12.1} {:>12} {:>9} {:>9} {:>6}",
            rec.instance,
            rec.nodes,
            rec.num_faults,
            rec.driver_nanos as f64 / 1e3,
            match &rec.baseline {
                Some(b) => format!("{:.1}", b.nanos as f64 / 1e3),
                None => "-".to_string(),
            },
            match &rec.baseline {
                Some(b) => format!("{:.1}x", b.nanos as f64 / rec.driver_nanos.max(1) as f64),
                None => "-".to_string(),
            },
            match &rec.baseline {
                Some(b) => format!(
                    "{:.1}x",
                    b.lookups as f64 / rec.driver_lookups.max(1) as f64
                ),
                None => "-".to_string(),
            },
            match (&rec.distsim, &rec.verification) {
                (Some(d), _) if d.matches_model && d.agree => "ok",
                (Some(_), _) => "FAIL",
                (None, VerificationVerdict::Sampled { agree: true, .. }) => "spot",
                (None, VerificationVerdict::Sampled { .. }) => "FAIL",
                (None, _) => "-",
            },
        );
    });

    eprintln!(
        "batched submissions (submit_batch, sequential vs pooled on a {}-worker pool, per instance)…",
        mmdiag_exec::global().threads()
    );
    for b in &batches {
        eprintln!(
            "{:<22} {:>2} cells  seq {:>10.1} µs  pooled {:>10.1} µs  {}",
            b.instance,
            b.cells,
            b.seq_nanos as f64 / 1e3,
            b.pooled_nanos as f64 / 1e3,
            if b.agree { "ok" } else { "FAIL" }
        );
    }

    eprintln!(
        "running distsim scenario sweep on the pool (latency skew + mid-protocol injection)…"
    );
    let scenarios = distsim_scenarios(&catalog);
    for s in &scenarios {
        eprintln!(
            "{:<22} {:<13} vtime {:>5} (unit {:>4})  depth {:>2} (model {:>2})  {}",
            s.instance,
            s.kind,
            s.virtual_time,
            s.unit_virtual_time,
            s.max_wave_depth,
            s.model_wave_depth,
            if s.ok { "ok" } else { "FAIL" }
        );
    }

    // The --throughput fleet axis runs after the sweep so its contention
    // window reflects only its own fleet, and streams live MetricsHub
    // deltas to <stem>-stats.jsonl while it runs.
    let throughput = if throughput_axis {
        let stem = out_path.strip_suffix(".json").unwrap_or(&out_path);
        let stats_path = format!("{stem}-stats.jsonl");
        let interval_ms = mmdiag_exec::knobs().stats.unwrap_or(200);
        let file = std::fs::File::create(&stats_path)
            .unwrap_or_else(|e| die(&format!("cannot create {stats_path}: {e}")));
        let reporter = mmdiag_exec::start_stats_reporter(
            mmdiag_trace::MetricsHub::global(),
            std::time::Duration::from_millis(interval_ms),
            file,
        )
        .unwrap_or_else(|e| die(&format!("cannot start stats reporter: {e}")));
        eprintln!(
            "running --throughput fleet axis ({} concurrent sessions, stats every {interval_ms} ms -> {stats_path})…",
            if quick { 4 } else { 8 },
        );
        let rec = run_throughput(quick);
        reporter.stop();
        // Every streamed line must be valid JSON — same bar as the
        // Chrome traces the --profile axis writes.
        let stream = std::fs::read_to_string(&stats_path)
            .unwrap_or_else(|e| die(&format!("cannot read back {stats_path}: {e}")));
        let samples = stream.lines().count();
        for line in stream.lines() {
            mmdiag_trace::export::validate_json(line)
                .unwrap_or_else(|e| die(&format!("invalid stats line in {stats_path}: {e}")));
        }
        eprintln!(
            "throughput: {:.1} diagnoses/s over {} sessions ({} diagnoses, p50 {} µs, p99 {} µs); \
             lock-wait p99 {} ns over {} acquires; overhead {}; {} validated stats samples",
            rec.diagnoses_per_sec,
            rec.sessions,
            rec.total_diagnoses,
            rec.latency_ns.p50() / 1_000,
            rec.latency_ns.p99() / 1_000,
            rec.lock_wait_ns.p99(),
            rec.lock_wait_ns.count,
            if rec.overhead.within_tolerance {
                "ok"
            } else {
                "REGRESSED"
            },
            samples,
        );
        Some(rec)
    } else {
        None
    };

    // The --online axis replays a Poisson fault timeline through a
    // long-lived MonitorSession per family, checking every epoch
    // bit-for-bit against a from-scratch diagnosis.
    let online = if online_axis {
        let epochs = mmdiag_exec::config::knobs()
            .epochs
            .unwrap_or(if quick { 8 } else { 24 });
        eprintln!(
            "running --online monitor axis ({epochs} epochs per family, incremental vs from-scratch)…"
        );
        let rec = run_online(quick);
        for f in &rec.families {
            eprintln!(
                "{:<22} {:>3} epochs  {:>2} escalated  {:>2} quiescent  \
                 sparse {:>8.1} vs {:>8.1} lookups/epoch  {}",
                f.instance,
                f.epochs,
                f.escalated,
                f.quiescent,
                f.amortized_incremental,
                f.amortized_scratch,
                if f.disagreements == 0 && f.sparse_cheaper {
                    "ok"
                } else {
                    "FAIL"
                },
            );
        }
        let scale = run_online_scale(quick);
        let median_ms = |ns: &[u64]| {
            let mut v = ns.to_vec();
            v.sort_unstable();
            v.get(v.len() / 2).map_or(0.0, |&x| x as f64 / 1e6)
        };
        eprintln!(
            "{:<22} {:>3} epochs  {:>2} escalated  {:>2} quiescent  \
             median epoch {:>8.1} ms vs {:>8.1} ms from scratch  {}",
            scale.instance,
            scale.epochs,
            scale.escalated,
            scale.quiescent,
            median_ms(&scale.monitor_ns),
            median_ms(&scale.scratch_ns),
            if scale.disagreements == 0 {
                "ok"
            } else {
                "FAIL"
            },
        );
        Some(rec.with_scale(scale))
    } else {
        None
    };

    let disagreements = records.iter().filter(|r| !r.agree).count()
        + records
            .iter()
            .filter(|r| {
                r.distsim
                    .as_ref()
                    .is_some_and(|d| !d.matches_model || !d.agree)
            })
            .count()
        + records
            .iter()
            .filter(|r| {
                matches!(
                    r.verification,
                    VerificationVerdict::Sampled { agree: false, .. }
                )
            })
            .count()
        + batches.iter().filter(|b| !b.agree).count()
        + scenarios.iter().filter(|s| !s.ok).count()
        + throughput.as_ref().map_or(0, |t| {
            t.disagreements as usize + usize::from(!t.overhead.within_tolerance)
        })
        + online
            .as_ref()
            .map_or(0, |o| o.disagreements as usize + o.families_without_savings);
    let json = to_json(
        BENCH_ID,
        &records,
        &batches,
        &scenarios,
        throughput.as_ref(),
        online.as_ref(),
    );
    std::fs::write(&out_path, &json)
        .unwrap_or_else(|e| die(&format!("cannot write {out_path}: {e}")));
    eprintln!(
        "\n{} records + {} batches + {} scenarios ({} families) -> {out_path}; \
         disagreements: {disagreements}",
        records.len(),
        batches.len(),
        scenarios.len(),
        mmdiag_bench::families_covered(&records),
    );
    if let Some(cfg) = &profile_cfg {
        eprintln!(
            "{} validated Chrome traces -> {}/",
            records.iter().filter(|r| r.profile.is_some()).count(),
            cfg.trace_dir.display()
        );
    }
    if disagreements > 0 {
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("mmdiag-bench: {msg}");
    std::process::exit(2);
}
