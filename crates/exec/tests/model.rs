//! Model-checked protocol tests for the executor (`--features model`).
//!
//! Each test drives the *real* pool/scope/steal code — compiled onto the
//! shim primitives of `mmdiag_exec::model` via the `sync` facade — under
//! the deterministic bounded-interleaving scheduler, or a small hand-built
//! replica of one protocol where exhaustive enumeration is feasible.
//!
//! The known-risky protocols from three PRs of executor growth each get a
//! suite: condvar park/unpark (lost wakeups), FIFO steal vs injector
//! submission races, nested-scope help-running on a 1-worker pool
//! (deadlock regression), and panic propagation mid-steal.
#![cfg(feature = "model")]

use mmdiag_exec::model::{check_exhaustive, check_random, replay, Config};
use mmdiag_exec::sync::atomic::{AtomicUsize, Ordering};
use mmdiag_exec::sync::{thread, Arc, Condvar, Mutex};
use mmdiag_exec::{ClaimBits, Pool};
use mmdiag_trace::{TraceConfig, Tracer};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deep seeded exploration must be reproducible: same root seed, same
/// number of distinct interleavings (and the same verdict), twice over.
#[test]
fn seeded_exploration_is_deterministic() {
    let run = || {
        check_random(0x5EED_CAFE, 300, Config::deep(), || {
            let pool = Pool::new(1);
            let hits = AtomicUsize::new(0);
            pool.scope(|s| {
                let hits = &hits;
                s.spawn(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            });
            assert_eq!(hits.load(Ordering::SeqCst), 1);
        })
    };
    let a = run();
    let b = run();
    a.assert_ok();
    b.assert_ok();
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.distinct_interleavings, b.distinct_interleavings);
    assert!(
        a.distinct_interleavings > 100,
        "{}",
        a.distinct_interleavings
    );
}

/// A faithful replica of `Shared::notify` / the worker park loop:
/// register as a sleeper under the sleep lock, re-check the queue, then
/// wait; the producer publishes before loading `sleepers`. Exhaustively
/// enumerated — no schedule may deadlock.
#[test]
fn condvar_park_protocol_exhaustive_no_lost_wakeup() {
    struct Park {
        queue: Mutex<VecDeque<u32>>,
        sleep: Mutex<()>,
        wake: Condvar,
        sleepers: AtomicUsize,
    }
    let report = check_exhaustive(
        Config {
            max_preemptions: None,
            ..Config::default()
        },
        || {
            let p = Arc::new(Park {
                queue: Mutex::new(VecDeque::new()),
                sleep: Mutex::new(()),
                wake: Condvar::new(),
                sleepers: AtomicUsize::new(0),
            });
            let producer = {
                let p = Arc::clone(&p);
                thread::spawn_named("producer".into(), move || {
                    p.queue.lock().unwrap().push_back(7);
                    // Fast path: only take the sleep lock when a consumer
                    // is parked (or committing to park).
                    if p.sleepers.load(Ordering::SeqCst) > 0 {
                        let _g = p.sleep.lock().unwrap();
                        p.wake.notify_all();
                    }
                })
                .unwrap()
            };
            // Consumer: pop, else park — registering as a sleeper *before*
            // the re-check, exactly like `worker_loop`.
            let got = loop {
                if let Some(v) = p.queue.lock().unwrap().pop_front() {
                    break v;
                }
                let guard = p.sleep.lock().unwrap();
                p.sleepers.fetch_add(1, Ordering::SeqCst);
                if !p.queue.lock().unwrap().is_empty() {
                    p.sleepers.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                let _guard = p.wake.wait(guard).unwrap();
                p.sleepers.fetch_sub(1, Ordering::SeqCst);
            };
            assert_eq!(got, 7);
            producer.join().unwrap();
        },
    );
    report.assert_ok();
    assert!(!report.truncated, "protocol space must be fully enumerable");
    assert!(report.executions > 50, "{}", report.executions);
}

/// The classic broken variant — the consumer decides to sleep from a
/// *stale* emptiness check, so the producer's notify can fire before the
/// wait starts. The explorer must find the lost-wakeup deadlock, and the
/// reported schedule must reproduce it on demand.
#[test]
fn lost_wakeup_is_found_and_schedule_replays() {
    fn buggy() {
        let queue: Arc<Mutex<VecDeque<u32>>> = Arc::new(Mutex::new(VecDeque::new()));
        let sleep: Arc<Mutex<()>> = Arc::new(Mutex::new(()));
        let wake: Arc<Condvar> = Arc::new(Condvar::new());
        let producer = {
            let (queue, sleep, wake) = (Arc::clone(&queue), Arc::clone(&sleep), Arc::clone(&wake));
            thread::spawn_named("producer".into(), move || {
                queue.lock().unwrap().push_back(7);
                let _g = sleep.lock().unwrap();
                wake.notify_all();
            })
            .unwrap()
        };
        // BUG (deliberate): the emptiness check happens before taking the
        // sleep lock, and is not repeated under it — the notify can land
        // in that window and the wait below never returns.
        if queue.lock().unwrap().is_empty() {
            let g = sleep.lock().unwrap();
            let _g = wake.wait(g).unwrap();
        }
        assert_eq!(queue.lock().unwrap().pop_front(), Some(7));
        producer.join().unwrap();
    }
    let report = check_exhaustive(Config::default(), buggy);
    let failure = report
        .failure
        .expect("the exhaustive explorer must find the lost wakeup");
    assert!(
        failure.message.contains("deadlock"),
        "lost wakeup surfaces as a deadlock: {}",
        failure.message
    );
    // Shrink-to-seed: the recorded schedule alone reproduces the hang.
    let replayed = replay(&failure.schedule, buggy);
    let again = replayed
        .failure
        .expect("replaying the failing schedule must fail again");
    assert!(again.message.contains("deadlock"), "{}", again.message);
    assert_eq!(again.schedule, failure.schedule);
}

/// The real pool's park/unpark protocol: a worker races to park while the
/// scope submits through the injector and `Shared::notify` takes the
/// sleeper fast path. Any lost wakeup deadlocks the scope barrier, which
/// the engine reports. Deep seeded run, ≥ 1000 distinct interleavings.
#[test]
fn pool_park_unpark_no_lost_wakeup() {
    let report = check_random(0xB0A7_1D1E, 1400, Config::deep(), || {
        let pool = Pool::new(1);
        let hits = AtomicUsize::new(0);
        // Two scopes back to back: the second submission is the one that
        // typically races a worker already heading to park.
        for _ in 0..2 {
            pool.scope(|s| {
                let hits = &hits;
                s.spawn(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            });
        }
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    });
    report.assert_ok();
    assert!(
        report.distinct_interleavings >= 1000,
        "explored only {} distinct interleavings",
        report.distinct_interleavings
    );
}

/// FIFO steal vs injector submission: external tasks land in the shared
/// injector while worker-spawned subtasks go to per-worker deques and get
/// stolen front-first. Every task must run exactly once under every
/// schedule. Deep seeded run, ≥ 1000 distinct interleavings.
#[test]
fn pool_fifo_steal_vs_injector_tasks_run_exactly_once() {
    let report = check_random(0x57EA_1F1F, 1400, Config::deep(), || {
        let pool = Pool::new(2);
        let hits: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        pool.scope(|s| {
            let hits = &hits;
            let pool = &pool;
            for outer in 0..2 {
                // Injector path: submitted from the (non-worker) test thread.
                s.spawn(move || {
                    hits[outer].fetch_add(1, Ordering::SeqCst);
                    // Deque path: spawned from inside a worker, stealable
                    // FIFO by the other worker.
                    pool.scope(|inner| {
                        for sub in 0..2 {
                            inner.spawn(move || {
                                hits[2 + 2 * outer + sub].fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::SeqCst),
                1,
                "task {i} ran a wrong number of times"
            );
        }
    });
    report.assert_ok();
    assert!(
        report.distinct_interleavings >= 1000,
        "explored only {} distinct interleavings",
        report.distinct_interleavings
    );
}

/// Deadlock regression: nested scopes on a 1-worker pool force the worker
/// to help-run inner tasks while blocked on the inner barrier. A schedule
/// that parks instead of helping would deadlock; none may exist.
#[test]
fn pool_nested_scope_help_running_one_worker_no_deadlock() {
    let report = check_random(0xDEAD_70C5, 1400, Config::deep(), || {
        let pool = Pool::new(1);
        let total = AtomicUsize::new(0);
        let pool_ref = &pool;
        let total_ref = &total;
        pool.scope(|s| {
            s.spawn(move || {
                pool_ref.scope(|inner| {
                    for _ in 0..2 {
                        inner.spawn(|| {
                            total_ref.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
                total_ref.fetch_add(10, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 12);
    });
    report.assert_ok();
    assert!(
        report.distinct_interleavings >= 1000,
        "explored only {} distinct interleavings",
        report.distinct_interleavings
    );
}

/// Panic propagation mid-steal: one stolen task panics while others are
/// in flight on a second worker. Under every schedule the scope barrier
/// must still complete all tasks, re-raise the panic at the caller, and
/// leave the pool usable. Deep seeded run, ≥ 1000 distinct interleavings.
#[test]
fn pool_panic_propagation_mid_steal() {
    let report = check_random(0x9A71_C0DE, 1400, Config::deep(), || {
        let pool = Pool::new(2);
        let survivors = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                let survivors = &survivors;
                s.spawn(move || {
                    survivors.fetch_add(1, Ordering::SeqCst);
                });
                s.spawn(|| panic!("boom mid-steal"));
                s.spawn(move || {
                    survivors.fetch_add(1, Ordering::SeqCst);
                });
            });
        }));
        let payload = result.expect_err("scope must re-raise the task panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_else(|| payload.downcast_ref::<String>().unwrap().as_str());
        assert!(msg.contains("boom mid-steal"), "{msg}");
        // The barrier completed: the non-panicking tasks all ran, and the
        // pool survives for the next parallel section.
        assert_eq!(survivors.load(Ordering::SeqCst), 2);
        let doubled = pool.map(&[1usize, 2, 3], |_, &x| x * 2);
        assert_eq!(doubled, vec![2, 4, 6]);
    });
    report.assert_ok();
    assert!(
        report.distinct_interleavings >= 1000,
        "explored only {} distinct interleavings",
        report.distinct_interleavings
    );
}

/// The trace sink shared across pool workers: shard pushes (plain std
/// mutexes, each held entirely within one scheduling quantum) never
/// interact with the pool's park/steal protocol, and the wraparound
/// accounting stays exact under every explored schedule — retained plus
/// dropped equals recorded, and a drain leaves the sink empty.
#[test]
fn tracer_sink_accounting_is_exact_under_the_pool() {
    let report = check_random(0x7ACE_51C4, 600, Config::deep(), || {
        let pool = Pool::new(2);
        // Two shards of three slots: eight events guarantee wraparound
        // somewhere, whatever shard the workers' tids map to.
        let tracer = Tracer::new(TraceConfig {
            shards: 2,
            shard_capacity: 3,
        });
        pool.scope(|s| {
            let tracer = &tracer;
            for i in 0..2u64 {
                s.spawn(move || {
                    for j in 0..4 {
                        tracer.event("task", "tick", i * 10 + j);
                    }
                });
            }
        });
        let events = tracer.drain();
        let dropped = tracer.dropped();
        assert_eq!(
            events.len() as u64 + dropped,
            8,
            "retained + dropped must equal recorded"
        );
        assert!(dropped >= 2, "6 slots cannot hold 8 events");
        assert!(tracer.drain().is_empty(), "drain empties the sink");
    });
    report.assert_ok();
    assert!(
        report.distinct_interleavings >= 500,
        "explored only {} distinct interleavings",
        report.distinct_interleavings
    );
}

/// Instrumented-pool counters under exploration: with stats on, every
/// task is counted and timed exactly once whatever the schedule, every
/// non-local acquisition (injector pop or steal) is attributed to some
/// worker, and a bare pool keeps `stats()` off — its model state space
/// unchanged.
#[test]
fn pool_instrumented_counters_are_schedule_independent() {
    let report = check_random(0x57A7_C0DE, 600, Config::deep(), || {
        let pool = Pool::new_instrumented(2);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            let hits = &hits;
            for _ in 0..3 {
                s.spawn(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        let stats = pool.stats().expect("instrumented pool");
        assert_eq!(stats.workers.len(), 2);
        let totals = stats.totals();
        assert_eq!(totals.tasks, 3, "every task counted exactly once");
        assert_eq!(totals.run_ns.count, 3, "every task timed exactly once");
        assert!(
            totals.steals + totals.injector_pops <= totals.tasks,
            "a task is acquired at most one non-local way \
             (steals {} + pops {} vs tasks {})",
            totals.steals,
            totals.injector_pops,
            totals.tasks
        );
        assert!(Pool::new(1).stats().is_none(), "bare pools stay bare");
    });
    report.assert_ok();
    assert!(
        report.distinct_interleavings >= 500,
        "explored only {} distinct interleavings",
        report.distinct_interleavings
    );
}

/// Contention-profiled primitives under exploration: the facade's
/// `Mutex::profiled` / `Condvar::profiled` record into an isolated
/// `SyncStats` block (plain std atomics — no new scheduling points), so
/// with two threads taking a profiled lock three times each, **every**
/// explored interleaving must record exactly six lock-wait samples, the
/// histogram must stay internally consistent, and the protected data
/// must come out right. Park counts are inherently schedule-*dependent*
/// (a waiter that loses the race to the notify never parks), so for the
/// profiled condvar the invariant is a tight range plus histogram
/// consistency, not an exact count. ≥ 500 distinct interleavings.
#[test]
fn profiled_sync_counters_are_schedule_independent() {
    use mmdiag_exec::SyncStats;
    let report = check_random(0xC0A7_E57A, 600, Config::deep(), || {
        // Two threads, three profiled acquisitions each.
        let stats = Arc::new(SyncStats::new());
        let m = Arc::new(Mutex::profiled(0usize, Arc::clone(&stats)));
        let lockers: Vec<_> = (0..2)
            .map(|t| {
                let m = Arc::clone(&m);
                thread::spawn_named(format!("locker-{t}"), move || {
                    for _ in 0..3 {
                        *m.lock().unwrap() += 1;
                    }
                })
                .unwrap()
            })
            .collect();
        for h in lockers {
            h.join().unwrap();
        }
        let waits = stats.lock_wait_ns.snapshot();
        assert_eq!(waits.count, 6, "2 threads x 3 locks, whatever the schedule");
        assert_eq!(waits.buckets.iter().sum::<u64>(), 6);
        let m = Arc::try_unwrap(m).ok().expect("all lockers joined");
        assert_eq!(m.into_inner().unwrap(), 6);

        // A profiled condvar on the sanctioned park protocol (sleeper
        // registered under the sleep lock before the re-check).
        struct Gate {
            ready: Mutex<bool>,
            wake: Condvar,
        }
        let park_stats = Arc::new(SyncStats::new());
        let gate = Arc::new(Gate {
            ready: Mutex::new(false),
            wake: Condvar::profiled(Arc::clone(&park_stats)),
        });
        let setter = {
            let gate = Arc::clone(&gate);
            thread::spawn_named("setter".into(), move || {
                *gate.ready.lock().unwrap() = true;
                gate.wake.notify_all();
            })
            .unwrap()
        };
        let mut guard = gate.ready.lock().unwrap();
        while !*guard {
            guard = gate.wake.wait(guard).unwrap();
        }
        drop(guard);
        setter.join().unwrap();
        let parks = park_stats.park_ns.snapshot();
        assert!(
            parks.count <= 1,
            "one notify releases the loop after at most one park, got {}",
            parks.count
        );
        assert_eq!(parks.buckets.iter().sum::<u64>(), parks.count);
    });
    report.assert_ok();
    assert!(
        report.distinct_interleavings >= 500,
        "explored only {} distinct interleavings",
        report.distinct_interleavings
    );
}

/// A faithful replica of the frontier growth claim/resolve/merge protocol
/// from `mmdiag-core`'s parallel `Set_Builder` sweep: two frontier shards
/// race to claim candidate nodes through [`ClaimBits::try_claim`], the
/// claim winner resolves by scanning the candidate's frontier witnesses in
/// ascending order, and a single-threaded merge re-sorts accepted pairs by
/// `(parent, candidate)`. Candidate 3 sits in both shards — the exact race
/// the claim bits exist for. Whatever the schedule: every candidate is
/// resolved exactly once, the merged layer equals the sequential answer,
/// rejected candidates hand their claim back while accepted ones keep it.
/// Deep seeded run, ≥ 1000 distinct interleavings.
#[test]
fn frontier_claim_resolve_merge_is_schedule_independent() {
    let report = check_random(0xF807_11E4, 1400, Config::deep(), || {
        // Frontier {0, 1}; per-shard candidate lists, overlapping on 3.
        let shards: [&[usize]; 2] = [&[2, 3], &[3, 4]];
        // Frontier witnesses of each candidate, ascending — the resolver
        // scans them in order and the FIRST agreeing witness becomes the
        // parent, whichever shard won the claim.
        fn witnesses(v: usize) -> &'static [usize] {
            match v {
                2 => &[0],
                3 => &[0, 1],
                4 => &[1],
                _ => &[],
            }
        }
        // Candidate 3's lowest witness disagrees (the scan must walk past
        // it); candidate 4's only witness disagrees (the reject path).
        fn agrees(w: usize, v: usize) -> bool {
            matches!((w, v), (0, 2) | (1, 3))
        }
        let pool = Pool::new(2);
        let claims = ClaimBits::new(5);
        let claims = &claims;
        let resolved: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        let resolved = &resolved;
        let outcomes = pool.map(&shards, |_, chunk| {
            let mut accepted = Vec::new();
            let mut rejected = Vec::new();
            for &v in *chunk {
                if !claims.try_claim(v) {
                    continue; // a racing shard owns v; losers consult nothing
                }
                resolved[v].fetch_add(1, Ordering::SeqCst);
                match witnesses(v).iter().copied().find(|&w| agrees(w, v)) {
                    Some(w) => accepted.push((w, v)),
                    None => rejected.push(v),
                }
            }
            (accepted, rejected)
        });
        // The engine's single-threaded layer tail: concatenate shard
        // outcomes, then canonicalise by (parent, candidate).
        let mut accepted: Vec<(usize, usize)> =
            outcomes.iter().flat_map(|o| o.0.iter().copied()).collect();
        let mut rejected: Vec<usize> = outcomes.iter().flat_map(|o| o.1.iter().copied()).collect();
        accepted.sort_unstable();
        rejected.sort_unstable();
        assert_eq!(accepted, vec![(0, 2), (1, 3)], "merged layer is canonical");
        assert_eq!(rejected, vec![4]);
        for v in 2..5 {
            assert_eq!(
                resolved[v].load(Ordering::SeqCst),
                1,
                "candidate {v} must be resolved exactly once"
            );
        }
        // Rejected candidates give their claim back for the next round;
        // accepted ones keep it (their visited bit shadows it).
        for &v in &rejected {
            claims.clear(v);
            assert!(claims.try_claim(v), "cleared claim must be reclaimable");
        }
        assert!(!claims.try_claim(3), "accepted candidates keep their claim");
    });
    report.assert_ok();
    assert!(
        report.distinct_interleavings >= 1000,
        "explored only {} distinct interleavings",
        report.distinct_interleavings
    );
}

/// The same shape with the claim's atomicity deliberately broken — a
/// load/store pair instead of `ClaimBits::try_claim`'s single `fetch_or`.
/// Some schedule lets both shards pass the load before either store and
/// double-resolve the shared candidate; the explorer must find that
/// schedule and replaying it must reproduce the failure.
#[test]
fn frontier_nonatomic_claim_double_resolve_is_found_and_replays() {
    fn buggy() {
        let shards: [&[usize]; 2] = [&[3], &[3]];
        let pool = Pool::new(2);
        let flags: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let resolved: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let (flags, resolved) = (&flags, &resolved);
        pool.map(&shards, |_, chunk| {
            for &v in *chunk {
                // BUG (deliberate): test-then-set with a window between
                // the load and the store.
                if flags[v].load(Ordering::SeqCst) == 0 {
                    flags[v].store(1, Ordering::SeqCst);
                    resolved[v].fetch_add(1, Ordering::SeqCst);
                }
            }
        });
        assert_eq!(
            resolved[3].load(Ordering::SeqCst),
            1,
            "candidate 3 resolved exactly once"
        );
    }
    let report = check_random(0x0BAD_C1A1, 1400, Config::deep(), buggy);
    let failure = report
        .failure
        .expect("the explorer must find the double resolve");
    // Shrink-to-seed: the recorded schedule alone reproduces the race.
    let replayed = replay(&failure.schedule, buggy);
    let again = replayed
        .failure
        .expect("replaying the failing schedule must fail again");
    assert_eq!(again.schedule, failure.schedule);
}
