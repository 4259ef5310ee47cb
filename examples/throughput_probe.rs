//! Fleet observability in ~60 lines: several [`mmdiag::Diagnoser`]
//! sessions on separate threads, each attached to the process-wide
//! [`MetricsHub`] via [`Diagnoser::stats`], submitting their runs as
//! batches to one shared pool that profiles its own contention, with the
//! `mmdiag-stats` sampler streaming merged hub deltas to stderr while the
//! fleet runs.
//!
//! ```text
//! cargo run --example throughput_probe
//! ```
//!
//! The same machinery at bench scale: `mmdiag-bench --throughput`, which
//! samples the hub every 200 ms.

use mmdiag::syndrome::{OracleSyndrome, SyndromeSource, TesterBehavior};
use mmdiag::topology::families::Hypercube;
use mmdiag::trace::{MetricValue, MetricsHub, MetricsRegistry};
use mmdiag::{exec, BatchJob, Diagnoser};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // One pool for the whole fleet, recording the lock waits, parks and
    // queue depths of its own synchronisation into cells the hub shows
    // as the "fleet-sync" session.
    let contention = Arc::new(exec::SyncStats::new());
    let registry = Arc::new(MetricsRegistry::new());
    contention.register_into(&registry);
    let _sync = MetricsHub::global().attach("fleet-sync", registry);
    let pool = Arc::new(exec::Pool::new_profiled(
        exec::default_threads(),
        contention,
    ));

    // Periodic JSON-lines deltas of everything attached to the hub, every
    // 100 ms.
    let reporter = exec::start_stats_reporter(
        MetricsHub::global(),
        Duration::from_millis(100),
        std::io::stderr(),
    )
    .expect("spawn stats sampler");

    let fleet: Vec<_> = (0..3u64)
        .map(|i| {
            let pool = Arc::clone(&pool);
            exec::sync::thread::spawn_named(format!("probe-{i}"), move || {
                let g = Hypercube::new(7);
                // `.stats()` implies tracing and registers this session's
                // metrics (oracle lookups included) on the hub until drop.
                let session = Diagnoser::cached(&g)
                    .pooled_on(&pool)
                    .stats(&format!("probe-{i}"));
                let s = OracleSyndrome::new(
                    mmdiag::syndrome::FaultSet::new(128, &[3, 64, 90 + i as usize]),
                    TesterBehavior::Random { seed: 9 + i },
                );
                // Four runs as one batch: the shared pool schedules them
                // (a single `run` stays on the calling thread).
                let jobs: Vec<BatchJob> = (0..4).map(|_| BatchJob::Source(&s)).collect();
                for outcome in session.submit_batch(&jobs) {
                    outcome.expect("diagnosis succeeds");
                }
                // The fleet view below reads the registries while the
                // sessions are still attached.
                std::thread::sleep(Duration::from_millis(250));
                s.lookups()
            })
            .expect("spawn fleet thread")
        })
        .collect();

    // A cross-session snapshot while the fleet is live: per-session
    // registries, then the merged fleet view (counters summed,
    // histograms bucket-merged).
    std::thread::sleep(Duration::from_millis(150));
    let sessions = MetricsHub::global().snapshot_sessions();
    println!("{} sessions attached to the hub:", sessions.len());
    for (name, metrics) in &sessions {
        println!("  {name}: {} metrics", metrics.len());
    }
    for m in MetricsHub::global().merged_snapshot() {
        match m.value {
            MetricValue::Counter(v) => println!("  fleet {} = {v}", m.name),
            MetricValue::Gauge(v, peak) => {
                println!("  fleet {} = {v} (gauge, peak {peak})", m.name)
            }
            MetricValue::Histogram(h) => {
                println!(
                    "  fleet {}: count {} p50 {} p99 {}",
                    m.name,
                    h.count,
                    h.p50(),
                    h.p99()
                )
            }
        }
    }

    let total: u64 = fleet.into_iter().map(|h| h.join().unwrap()).sum();
    println!("fleet total oracle lookups: {total}");
    reporter.stop(); // joins the sampler; it writes one final delta line
}
