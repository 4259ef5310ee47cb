//! # mmdiag-exec
//!
//! The workspace's shared execution layer: a hand-rolled, offline (no
//! rayon, no crossbeam) **pool of persistent workers** that fans the jobs
//! of a batch out and hands their results back in input order.
//!
//! `BENCH_1.json`/`BENCH_2.json` showed the scoped-thread parallel driver
//! losing to the sequential one below ~1k nodes: `std::thread::scope`
//! spawns fresh OS threads on every call, and that spawn cost dominates
//! short parallel sections. A [`Pool`] spawns its workers once and keeps
//! them for its lifetime:
//!
//! * [`Pool::map`] — the one fan-out operation: one job per item, results
//!   in input order, jobs may borrow from the caller's stack, and the
//!   first job panic is re-raised once every job has finished. Batch
//!   fan-out (`run_batch` and `submit_batch`) runs on it;
//! * [`Pool::worker_index`] — stable per-worker identity, used by
//!   `mmdiag_core` to pool `Workspace`s per worker;
//! * [`global`] — the lazily-created process-wide pool every crate shares.
//!
//! Scheduling: one shared FIFO of submitted batches under one lock. Each
//! worker claims the next job index of the oldest batch, runs that job,
//! and parks on the queue's condvar when no job is left. A `map` of fewer
//! than two items, or one called from the pool's own worker, runs its
//! items in order on the calling thread, so nesting cannot deadlock even
//! a 1-worker pool.
//!
//! ## Observability
//!
//! An *instrumented* pool ([`Pool::new_instrumented`]) counts per-worker
//! jobs and park/unpark cycles and keeps a log-bucketed job-run-time
//! histogram ([`Pool::stats`]); a [`Pool::new`] pool is bare and carries
//! no counters at all.
//!
//! A *profiled* pool ([`Pool::new_profiled`]) also records the
//! **contention** of its own synchronisation through the [`mod@sync`]
//! facade: lock-acquire waits, condvar park durations and the queue depth
//! in batches land in the [`SyncStats`] cells its caller passes, which any
//! `mmdiag-trace` registry can adopt and the [`stats`] sampler thread can
//! stream as JSON lines. No process-wide switch exists, in the
//! environment or elsewhere: other pools and primitives are unaffected.
//!
//! ## Correctness tooling
//!
//! All synchronization goes through the [`mod@sync`] facade: a normal
//! build re-exports `std::sync` unchanged, while the `model` feature
//! swaps in the deterministic bounded-interleaving scheduler of
//! `model`, so the claim, park/unpark, completion and panic protocols can
//! be explored offline (`cargo test -p mmdiag-exec --features model`).
//! See `crates/exec/tests/model.rs` for the protocol suites.
//!
//! ## Unsafe audit inventory
//!
//! This is the **only** crate in the workspace allowed to contain
//! `unsafe` (every other crate root carries `#![forbid(unsafe_code)]`,
//! enforced by `cargo run -p xtask -- lint`). The crate compiles under
//! `#![deny(unsafe_op_in_unsafe_fn)]`, every block carries a
//! `// SAFETY:` comment (also lint-enforced), and the full inventory is:
//!
//! | Location | Operation | Invariant making it sound |
//! |---|---|---|
//! | `pool.rs`, [`Pool::map`] | `transmute` of the batch's `&(dyn Fn(usize) + Sync)` job to `'static` (lifetime erasure only; layout/vtable unchanged) | batch-outlives-job: `map` returns or unwinds only after its latch has seen every job finish, and by then nothing refers to the job — the batch left the queue at its last claim, and each worker drops its copy before counting the latch down |
//!
//! Any addition to this table needs a `// SAFETY:` comment at the site, a
//! row here, and model-test coverage of the protocol that justifies it.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
#[cfg(feature = "model")]
pub mod model;
mod pool;
#[cfg(not(feature = "model"))]
pub mod stats;
pub mod sync;

pub use config::{knobs, Knobs};
pub use pool::{Pool, PoolStats, WorkerStats};
#[cfg(not(feature = "model"))]
pub use stats::{start_stats_reporter, ReporterHandle};
pub use sync::SyncStats;

use std::sync::OnceLock;

/// Worker count for the process-wide pool: `MMDIAG_POOL_THREADS` when set
/// (clamped to 1..=64, read once through [`config::knobs`]), else the
/// machine's available parallelism capped at 8 — every worker that runs a
/// batch job keeps its own `O(N)` workspace, so the cap bounds a batch's
/// scratch memory along with its threads.
pub fn default_threads() -> usize {
    if let Some(n) = knobs().pool_threads {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The process-wide shared pool, created on first use with
/// [`default_threads`] workers. Every crate in the workspace dispatches on
/// this pool unless handed an explicit one, so the whole process pays the
/// thread-spawn cost exactly once.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

// The std-mode unit suite: under the model feature these pools would run
// on shim primitives with no scheduler driving them — the protocol tests
// in `tests/model.rs` cover that configuration instead.
#[cfg(all(test, not(feature = "model")))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn map_preserves_input_order() {
        let pool = Pool::new(3);
        let items: Vec<usize> = (0..1000).collect();
        let out = pool.map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        assert!(pool.map(&[] as &[usize], |_, &x| x).is_empty());
    }

    #[test]
    fn a_one_item_map_runs_on_the_caller() {
        let pool = Pool::new_instrumented(2);
        let out = pool.map(&[7usize], |i, &x| {
            assert_eq!(pool.worker_index(), None, "the caller runs the job");
            i + x
        });
        assert_eq!(out, vec![7]);
        let totals = pool.stats().expect("instrumented").totals();
        assert_eq!(totals.tasks, 0, "no pool task for a one-item map");
    }

    #[test]
    fn each_job_is_claimed_on_its_own() {
        // Job 0 holds its worker until job 1 has started, which only a
        // pool that hands out one job per claim can do: a worker holding
        // jobs 0 and 1 as one unit of work would wait for itself.
        let pool = Pool::new(2);
        let started = AtomicBool::new(false);
        let items: Vec<usize> = (0..16).collect();
        let out = pool.map(&items, |i, &x| {
            if i == 1 {
                started.store(true, Ordering::SeqCst);
            }
            if i == 0 {
                let t0 = mmdiag_trace::clock::now_ns();
                while !started.load(Ordering::SeqCst) {
                    let waited = mmdiag_trace::clock::now_ns().saturating_sub(t0);
                    assert!(
                        waited < 5_000_000_000,
                        "job 1 never started while job 0 ran"
                    );
                    std::thread::yield_now();
                }
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn job_panic_propagates_to_the_map_caller() {
        let pool = Pool::new(2);
        let survivors = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(&[0, 1, 2], |i, _| {
                if i == 1 {
                    panic!("boom in job");
                }
                survivors.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = result.expect_err("map must re-raise the job panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_else(|| payload.downcast_ref::<String>().unwrap().as_str());
        assert!(msg.contains("boom in job"), "{msg}");
        assert_eq!(survivors.load(Ordering::Relaxed), 2, "the others finished");
        // The pool survives a panicked map and keeps executing.
        let v = pool.map(&[1, 2, 3], |_, &x| x + 1);
        assert_eq!(v, vec![2, 3, 4]);
    }

    #[test]
    fn nested_map_runs_inline_on_a_single_worker() {
        let pool = Pool::new(1);
        let total = AtomicUsize::new(0);
        pool.map(&[(); 4], |_, _| {
            // The inner map runs on the (only) worker, in order.
            let inner = pool.map(&[(); 8], |j, _| {
                assert_eq!(pool.worker_index(), Some(0));
                total.fetch_add(1, Ordering::Relaxed);
                j
            });
            assert_eq!(inner, (0..8).collect::<Vec<_>>());
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn worker_index_is_stable_and_in_range() {
        let pool = Pool::new(3);
        assert_eq!(pool.worker_index(), None, "caller is not a worker");
        let seen = Mutex::new(Vec::new());
        pool.map(&[(); 64], |_, _| {
            let idx = pool.worker_index().expect("jobs run on workers");
            assert!(idx < 3);
            seen.lock().unwrap().push(idx);
        });
        assert_eq!(seen.lock().unwrap().len(), 64);
        // Another pool's workers are not this pool's workers.
        let other = Pool::new(2);
        other.map(&[(); 4], |_, _| {
            assert_eq!(pool.worker_index(), None);
            assert!(other.worker_index().is_some());
        });
    }

    #[test]
    fn instrumented_pool_accounts_every_task() {
        let pool = Pool::new_instrumented(3);
        assert!(pool.stats_enabled());
        let hits = AtomicUsize::new(0);
        pool.map(&[(); 200], |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 200);
        let stats = pool.stats().expect("instrumented");
        assert_eq!(stats.workers.len(), 3);
        let t = stats.totals();
        assert_eq!(t.tasks, 200, "one task per job");
        assert_eq!(
            t.run_ns.count, t.tasks,
            "every counted task must also be timed"
        );
        assert_eq!(
            t.run_ns.buckets.iter().sum::<u64>(),
            t.tasks,
            "histogram buckets account for every task"
        );
        // A second snapshot only grows.
        pool.map(&[(); 50], |_, _| {});
        let t2 = pool.stats().expect("instrumented").totals();
        assert_eq!(t2.tasks, 250);
    }

    #[test]
    fn default_pool_is_bare_unless_trace_knob_set() {
        // No knob instruments a pool: a new pool has no stats and no
        // contention cells, whatever the environment holds.
        let pool = Pool::new(2);
        assert!(!pool.stats_enabled());
        assert!(pool.stats().is_none());
        assert!(pool.contention().is_none());
        // The pool still works without stats, obviously.
        assert_eq!(pool.map(&[1, 2], |_, &x| x), vec![1, 2]);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = global() as *const Pool;
        let b = global() as *const Pool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
        let out = global().map(&[10usize, 20], |_, &x| x / 10);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn many_small_maps_reuse_workers() {
        // The regression the pool exists to fix: thousands of tiny
        // parallel sections must not spawn threads (smoke: just complete
        // quickly and correctly).
        let pool = Pool::new(4);
        let mut acc = 0usize;
        for round in 0..2000 {
            acc += pool.map(&[round, 0], |_, &x| x).iter().sum::<usize>();
        }
        assert_eq!(acc, 2000 * 1999 / 2);
    }
}
