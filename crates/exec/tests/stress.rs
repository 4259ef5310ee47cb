//! Plain-`std` stress test for the executor: the model suite explores
//! interleavings exhaustively at small bounds; this leg hammers the real
//! primitives under genuine OS-thread contention in normal CI.
#![cfg(not(feature = "model"))]

use mmdiag_exec::Pool;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Repeated maps — one returning values, one used as a for-each over an
/// index range — with several foreign threads submitting into one shared
/// pool: exercises the shared queue under contention, claims spanning
/// several batches, parking and the completion latch thousands of times.
#[test]
fn scoped_map_for_each_under_contention() {
    let pool = Pool::new(4);
    let rounds = 60;
    // Foreign submitters run on their own OS threads (this crate is the
    // one place in the workspace allowed to spawn threads directly).
    std::thread::scope(|s| {
        for submitter in 0..4usize {
            let pool = &pool;
            s.spawn(move || {
                for round in 0..rounds {
                    let n = 64 + 7 * submitter + round % 5;
                    let items: Vec<usize> = (0..n).collect();
                    let doubled = pool.map(&items, |i, &x| {
                        assert_eq!(i, x);
                        x * 2
                    });
                    assert_eq!(doubled.len(), n);
                    assert!(doubled.iter().enumerate().all(|(i, &v)| v == 2 * i));

                    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                    pool.map(&hits, |_, hit| {
                        hit.fetch_add(1, Ordering::Relaxed);
                    });
                    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                }
            });
        }
    });
}

/// Nested maps from every worker simultaneously: each inner map runs
/// inline on the worker that called it, under real contention rather
/// than modelled schedules.
#[test]
fn nested_scopes_under_contention() {
    let pool = Pool::new(2);
    let total = AtomicUsize::new(0);
    for _ in 0..200 {
        pool.map(&[(); 4], |_, _| {
            let worker = pool.worker_index();
            assert!(worker.is_some(), "outer jobs run on workers");
            pool.map(&[(); 4], |_, _| {
                assert_eq!(pool.worker_index(), worker, "inner jobs run inline");
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
    }
    assert_eq!(total.load(Ordering::Relaxed), 200 * 16);
}
