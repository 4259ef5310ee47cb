//! Model-checked protocol tests for the executor (`--features model`).
//!
//! Each test drives the *real* pool code — compiled onto the shim
//! primitives of `mmdiag_exec::model` via the `sync` facade — under the
//! deterministic bounded-interleaving scheduler, or a small hand-built
//! replica of one protocol where exhaustive enumeration is feasible.
//!
//! The pool's protocols each get a suite: claims from the shared queue by
//! several workers for several submitters (every job runs exactly once),
//! condvar park/unpark between back-to-back batches (lost wakeups), a
//! nested map on a 1-worker pool (runs inline, no deadlock), panic
//! propagation through the completion latch, and the instrumented
//! counters. A `map` of one item runs on its caller, so every pool test
//! submits at least two.
#![cfg(feature = "model")]

use mmdiag_exec::model::{check_exhaustive, check_random, replay, Config};
use mmdiag_exec::sync::atomic::{AtomicUsize, Ordering};
use mmdiag_exec::sync::{thread, Arc, Condvar, Mutex};
use mmdiag_exec::Pool;
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
            pool.map(&[(); 2], |_, _| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 2);
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

/// A faithful replica of the pool's two monitors: the caller pushes a
/// job under the queue lock and notifies the queue condvar, then waits on
/// the completion latch; the worker claims under the queue lock (waiting
/// on the condvar while the queue is empty), counts the latch down, and
/// exits once the caller sets the shutdown flag. Exhaustively enumerated —
/// no schedule may deadlock.
#[test]
fn condvar_park_protocol_exhaustive_no_lost_wakeup() {
    struct Monitors {
        queue: Mutex<(VecDeque<u32>, bool)>,
        wake: Condvar,
        latch: Mutex<usize>,
        done: Condvar,
    }
    let report = check_exhaustive(
        Config {
            max_preemptions: None,
            ..Config::default()
        },
        || {
            let m = Arc::new(Monitors {
                queue: Mutex::new((VecDeque::new(), false)),
                wake: Condvar::new(),
                latch: Mutex::new(1),
                done: Condvar::new(),
            });
            let worker = {
                let m = Arc::clone(&m);
                thread::spawn_named("worker".into(), move || {
                    let mut ran = Vec::new();
                    loop {
                        let mut queue = m.queue.lock().unwrap();
                        let job = loop {
                            if let Some(job) = queue.0.pop_front() {
                                break job;
                            }
                            if queue.1 {
                                return ran;
                            }
                            queue = m.wake.wait(queue).unwrap();
                        };
                        drop(queue);
                        ran.push(job);
                        let mut pending = m.latch.lock().unwrap();
                        *pending -= 1;
                        if *pending == 0 {
                            m.done.notify_one();
                        }
                    }
                })
                .unwrap()
            };
            m.queue.lock().unwrap().0.push_back(7);
            m.wake.notify_all();
            let mut pending = m.latch.lock().unwrap();
            while *pending > 0 {
                pending = m.done.wait(pending).unwrap();
            }
            drop(pending);
            m.queue.lock().unwrap().1 = true;
            m.wake.notify_all();
            assert_eq!(worker.join().unwrap(), vec![7]);
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

/// The real pool's park/unpark protocol: back-to-back maps on one worker,
/// the second submission typically racing the worker on its way back to
/// park. Any lost wakeup deadlocks the completion latch, which the engine
/// reports. Deep seeded run, ≥ 1000 distinct interleavings.
#[test]
fn pool_park_unpark_no_lost_wakeup() {
    let report = check_random(0xB0A7_1D1E, 1400, Config::deep(), || {
        let pool = Pool::new(1);
        let hits = AtomicUsize::new(0);
        for _ in 0..2 {
            pool.map(&[(); 2], |_, _| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    });
    report.assert_ok();
    assert!(
        report.distinct_interleavings >= 1000,
        "explored only {} distinct interleavings",
        report.distinct_interleavings
    );
}

/// Two foreign submitters share a 2-worker pool: both batches sit in the
/// queue at once, and the workers' claims span them. Every job must run
/// exactly once, and each submitter must get its own results back in
/// order, under every schedule. Deep seeded run, ≥ 1000 distinct
/// interleavings.
#[test]
fn pool_two_submitters_run_every_job_exactly_once() {
    let report = check_random(0x57EA_1F1F, 1400, Config::deep(), || {
        let pool = Arc::new(Pool::new(2));
        let hits: Arc<Vec<AtomicUsize>> = Arc::new((0..4).map(|_| AtomicUsize::new(0)).collect());
        let submitters: Vec<_> = (0..2)
            .map(|s| {
                let (pool, hits) = (Arc::clone(&pool), Arc::clone(&hits));
                thread::spawn_named(format!("submitter-{s}"), move || {
                    pool.map(&[0, 1], |i, &x| {
                        hits[2 * s + i].fetch_add(1, Ordering::SeqCst);
                        10 * s + x
                    })
                })
                .unwrap()
            })
            .collect();
        for (s, h) in submitters.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), vec![10 * s, 10 * s + 1]);
        }
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::SeqCst),
                1,
                "job {i} ran a wrong number of times"
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

/// Deadlock regression: on a 1-worker pool, a job that maps on its own
/// pool must run the inner items inline — waiting for a worker would wait
/// for itself. Two submitters keep the queue busy meanwhile. Deep seeded
/// run, ≥ 1000 distinct interleavings.
#[test]
fn pool_nested_map_on_one_worker_runs_inline() {
    let report = check_random(0xDEAD_70C5, 1400, Config::deep(), || {
        let pool = Arc::new(Pool::new(1));
        let total = Arc::new(AtomicUsize::new(0));
        let submit = {
            let (pool, total) = (Arc::clone(&pool), Arc::clone(&total));
            move || {
                pool.map(&[(); 2], |_, _| {
                    pool.map(&[(); 2], |_, _| {
                        assert_eq!(pool.worker_index(), Some(0), "inner items run inline");
                        total.fetch_add(1, Ordering::SeqCst);
                    });
                    total.fetch_add(10, Ordering::SeqCst);
                });
            }
        };
        let other = thread::spawn_named("submitter".into(), submit.clone()).unwrap();
        submit();
        other.join().unwrap();
        // Two submitters, two outer jobs each, two inner items per job.
        assert_eq!(total.load(Ordering::SeqCst), 2 * 2 * (2 + 10));
    });
    report.assert_ok();
    assert!(
        report.distinct_interleavings >= 1000,
        "explored only {} distinct interleavings",
        report.distinct_interleavings
    );
}

/// Panic propagation: one job panics while the others run on a second
/// worker. Under every schedule the latch must still wait for every job,
/// re-raise the panic at the caller, and leave the pool usable. Deep
/// seeded run, ≥ 1000 distinct interleavings.
#[test]
fn pool_panic_lets_the_other_jobs_finish() {
    let report = check_random(0x9A71_C0DE, 1400, Config::deep(), || {
        let pool = Pool::new(2);
        let survivors = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&[0, 1, 2], |i, _| {
                if i == 1 {
                    panic!("boom in a job");
                }
                survivors.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = result.expect_err("map must re-raise the job panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_else(|| payload.downcast_ref::<String>().unwrap().as_str());
        assert!(msg.contains("boom in a job"), "{msg}");
        // The latch waited: the non-panicking jobs all ran, and the pool
        // survives for the next batch.
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
/// interact with the pool's claim/park protocol, and the wraparound
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
        pool.map(&[0u64, 1], |_, &i| {
            for j in 0..4 {
                tracer.event("task", "tick", i * 10 + j);
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
/// job is counted and timed exactly once whatever the schedule
/// (`tasks == run_ns.count ==` jobs), the retired steal counters stay at
/// zero, and a bare pool keeps `stats()` off.
#[test]
fn pool_instrumented_counters_are_schedule_independent() {
    let report = check_random(0x57A7_C0DE, 600, Config::deep(), || {
        let pool = Pool::new_instrumented(2);
        let hits = AtomicUsize::new(0);
        pool.map(&[(); 3], |_, _| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        let stats = pool.stats().expect("instrumented pool");
        assert_eq!(stats.workers.len(), 2);
        let totals = stats.totals();
        assert_eq!(totals.tasks, 3, "every job counted exactly once");
        assert_eq!(totals.run_ns.count, 3, "every job timed exactly once");
        assert_eq!((totals.steals, totals.injector_pops), (0, 0));
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

        // A profiled condvar on the sanctioned park protocol (predicate
        // re-checked under the lock before every wait).
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
