//! A single run has no backend: an `.auto()` session's run executes on
//! the calling thread, reads `"sequential"` and leaves no pool worker
//! behind, even on an instance at the auto cutover. Only a batch that fans
//! out spawns the global pool, and each of its jobs then reads
//! `"pooled"`.
//!
//! Worker threads are found by name (`mmdiag-exec-<pool>-<worker>`) in
//! `/proc/self/task/*/comm`, so the suite is Linux-only. It holds one
//! test: the process is its own, and nothing else in it touches the
//! global pool.
#![cfg(target_os = "linux")]

use mmdiag::diagnosis::Cutovers;
use mmdiag::syndrome::{FaultSet, OracleSyndrome, SyndromeSource, TesterBehavior};
use mmdiag::topology::families::Hypercube;
use mmdiag::{BatchJob, Diagnoser};
use std::time::{Duration, Instant};

/// Names of this process's executor worker threads.
fn pool_workers() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("mmdiag-exec-"))
        .collect()
}

/// [`pool_workers`], once at least `want` of them carry their names or
/// five seconds have passed. A worker names itself from inside its own
/// thread, so one the scheduler has not yet run still carries its
/// parent's name.
fn pool_workers_awaiting(want: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let workers = pool_workers();
        if workers.len() >= want || Instant::now() >= deadline {
            return workers;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_single_auto_run_spawns_no_pool_and_a_fanned_out_batch_does() {
    let session = Diagnoser::cached(&Hypercube::new_certified(10)).auto();
    let n = session.topology().node_count();
    let planted = |members: &[usize]| {
        OracleSyndrome::new(
            FaultSet::new(n, members),
            TesterBehavior::Random { seed: 5 },
        )
    };
    let s = planted(&[1, 500, 1000]);
    let report = session.run(&s).unwrap();
    assert_eq!(report.diagnosis.faults, vec![1, 500, 1000]);
    assert_eq!(report.backend, "sequential");
    assert_eq!(
        pool_workers(),
        Vec::<String>::new(),
        "a single run spawned a pool"
    );

    // Q_10 sits at the default cutover, so a batch fans out over the
    // global pool (unless MMDIAG_CUTOVER pins the cutover above it).
    let fans_out = n >= Cutovers::default().sequential;
    let t = planted(&[7, 300]);
    let jobs = [
        BatchJob::Source(&s as &(dyn SyndromeSource + Sync)),
        BatchJob::Source(&t),
    ];
    let outcomes = session.submit_batch(&jobs);
    let want: [&[usize]; 2] = [&[1, 500, 1000], &[7, 300]];
    for (outcome, want) in outcomes.iter().zip(want) {
        let report = outcome.as_ref().unwrap();
        assert_eq!(report.diagnosis.faults, want);
        assert_eq!(
            report.backend,
            if fans_out { "pooled" } else { "sequential" }
        );
    }
    let want = if fans_out {
        mmdiag::exec::default_threads()
    } else {
        0
    };
    assert_eq!(
        pool_workers_awaiting(want).len(),
        want,
        "only a fanned-out batch spawns the global pool"
    );
}
