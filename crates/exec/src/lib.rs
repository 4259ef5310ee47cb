//! # mmdiag-exec
//!
//! The workspace's shared execution layer: a hand-rolled, offline (no
//! rayon, no crossbeam) **pooled work-stealing executor** with scoped
//! parallel APIs.
//!
//! `BENCH_1.json`/`BENCH_2.json` showed the scoped-thread parallel driver
//! losing to the sequential one below ~1k nodes: `std::thread::scope`
//! spawns fresh OS threads on every call, and that spawn cost dominates
//! sub-millisecond probe phases. This crate replaces per-call spawning
//! with one process-wide (or caller-owned) [`Pool`] whose workers live for
//! the lifetime of the pool:
//!
//! * [`Pool::scope`] — `std::thread::scope`-style scoped spawning with
//!   panic propagation; tasks may borrow from the caller's stack;
//! * [`Pool::map`] / [`Pool::for_each_index`] — order-preserving parallel
//!   map and indexed parallel-for (batch fan-out, in-process and
//!   simulated, runs on `map`);
//! * [`Pool::worker_index`] — stable per-worker identity, used by
//!   `mmdiag_core` to pool `Workspace`s per worker;
//! * [`global`] — the lazily-created process-wide pool every crate shares.
//!
//! Scheduling: per-worker deques (own work LIFO, steals FIFO from the
//! front), a shared injector for external submissions, condvar parking.
//! Nested scopes are supported — a worker blocked on an inner scope runs
//! queued tasks while it waits, so even a 1-thread pool cannot deadlock.
//!
//! ## Observability
//!
//! An *instrumented* pool ([`Pool::new_instrumented`], or any pool when
//! the `MMDIAG_TRACE` knob is set) counts per-worker steals, injector
//! pops, park/unpark cycles and a log-bucketed task-run-time histogram
//! ([`Pool::stats`]). The counters live behind the [`mod@sync`] facade
//! like every other primitive here, so an instrumented pool still
//! builds — and stays explorable — under the `model` feature; an
//! uninstrumented pool carries no counters at all and its hot path is
//! unchanged.
//!
//! A *profiled* pool ([`Pool::new_profiled`], or any pool when the
//! `MMDIAG_TRACE` knob is set) additionally records the **contention** of
//! its own synchronisation through the [`mod@sync`] facade: lock-acquire
//! waits, condvar park durations and injector/deque queue depths land in
//! the [`SyncStats`] cells it was built with (the process-level
//! [`sync_stats`] under the knob), which any `mmdiag-trace` registry can
//! adopt and the [`stats`] sampler thread (driven by the `MMDIAG_STATS`
//! knob) can stream as JSON lines. No process-wide switch exists: other
//! pools and primitives are unaffected.
//!
//! ## Correctness tooling
//!
//! All synchronization goes through the [`mod@sync`] facade: a normal
//! build re-exports `std::sync` unchanged, while the `model` feature
//! swaps in the deterministic bounded-interleaving scheduler of
//! `model` so the park/steal/scope protocols can be explored offline
//! (`cargo test -p mmdiag-exec --features model`). See
//! `crates/exec/tests/model.rs` for the protocol suites.
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
//! | `scope.rs`, [`Scope::spawn`] | `transmute` of `Box<dyn FnOnce + Send + 'env>` to `'static` (lifetime erasure only; layout/vtable unchanged) | scope-outlives-task: [`Pool::scope`] blocks until `pending == 0` before returning — even on panic — so every erased task finishes and is dropped before its `'env` borrows can dangle |
//!
//! Any addition to this table needs a `// SAFETY:` comment at the site, a
//! row here, and model-test coverage of the protocol that justifies it.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
#[cfg(feature = "model")]
pub mod model;
mod ops;
mod pool;
mod scope;
#[cfg(not(feature = "model"))]
pub mod stats;
pub mod sync;

pub use config::{knobs, Knobs};
pub use pool::{Pool, PoolStats, WorkerStats};
pub use scope::Scope;
#[cfg(not(feature = "model"))]
pub use stats::{start_stats_reporter, ReporterHandle};
pub use sync::{sync_stats, SyncStats};

use std::sync::OnceLock;

/// Worker count for the process-wide pool: `MMDIAG_POOL_THREADS` when set
/// (clamped to 1..=64, read once through [`config::knobs`]), else the
/// machine's available parallelism capped at 8 — a batch fans out one
/// whole diagnosis per task, and past a handful of workers the deques
/// mostly add steal traffic.
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn scope_runs_borrowing_tasks() {
        let pool = Pool::new(4);
        let counter = AtomicUsize::new(0);
        let mut tail = 0usize; // mutably borrowed after the scope: proves the barrier
        pool.scope(|s| {
            for _ in 0..64 {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        tail += counter.load(Ordering::Relaxed);
        assert_eq!(tail, 64);
    }

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
    fn for_each_index_covers_range_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each_index(0..500, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn task_panic_propagates_to_scope_caller() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| {});
                s.spawn(|| panic!("boom in task"));
                s.spawn(|| {});
            });
        }));
        let payload = result.expect_err("scope must re-raise the task panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_else(|| payload.downcast_ref::<String>().unwrap().as_str());
        assert!(msg.contains("boom in task"), "{msg}");
        // The pool survives a panicked scope and keeps executing.
        let v = pool.map(&[1, 2, 3], |_, &x| x + 1);
        assert_eq!(v, vec![2, 3, 4]);
    }

    #[test]
    fn nested_scopes_do_not_deadlock_single_worker() {
        let pool = Pool::new(1);
        let total = AtomicUsize::new(0);
        let pool_ref = &pool;
        pool.scope(|s| {
            for _ in 0..4 {
                let total = &total;
                let pool = pool_ref;
                s.spawn(move || {
                    // Inner scope runs on the (only) worker: it must help.
                    pool.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn worker_index_is_stable_and_in_range() {
        let pool = Pool::new(3);
        assert_eq!(pool.worker_index(), None, "caller is not a worker");
        let seen = Mutex::new(Vec::new());
        pool.for_each_index(0..64, |_| {
            let idx = pool.worker_index().expect("tasks run on workers");
            assert!(idx < 3);
            seen.lock().unwrap().push(idx);
        });
        assert_eq!(seen.lock().unwrap().len(), 64);
        // Another pool's workers are not this pool's workers.
        let other = Pool::new(2);
        other.for_each_index(0..4, |_| {
            assert_eq!(pool.worker_index(), None);
            assert!(other.worker_index().is_some());
        });
    }

    #[test]
    fn instrumented_pool_accounts_every_task() {
        let pool = Pool::new_instrumented(3);
        assert!(pool.stats_enabled());
        let hits = AtomicUsize::new(0);
        pool.for_each_index(0..200, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 200);
        let stats = pool.stats().expect("instrumented");
        assert_eq!(stats.workers.len(), 3);
        let t = stats.totals();
        assert!(t.tasks >= 1, "chunk tasks must be counted");
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
        pool.for_each_index(0..50, |_| {});
        let t2 = pool.stats().expect("instrumented").totals();
        assert!(t2.tasks >= t.tasks);
    }

    #[test]
    fn default_pool_is_bare_unless_trace_knob_set() {
        let pool = Pool::new(2);
        assert_eq!(pool.stats_enabled(), knobs().trace);
        if !knobs().trace {
            assert!(pool.stats().is_none());
            // The pool still works without stats, obviously.
            assert_eq!(pool.map(&[1, 2], |_, &x| x), vec![1, 2]);
        }
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
    fn many_small_scopes_reuse_workers() {
        // The regression the pool exists to fix: thousands of tiny scopes
        // must not spawn threads (smoke: just complete quickly and
        // correctly).
        let pool = Pool::new(4);
        let mut acc = 0usize;
        for round in 0..2000 {
            let hit = AtomicUsize::new(0);
            pool.scope(|s| {
                let hit = &hit;
                s.spawn(move || {
                    hit.fetch_add(round, Ordering::Relaxed);
                });
            });
            acc += hit.load(Ordering::Relaxed);
        }
        assert_eq!(acc, 2000 * 1999 / 2);
    }
}
