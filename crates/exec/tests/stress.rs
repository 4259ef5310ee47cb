//! Plain-`std` stress test for the executor: the model suite explores
//! interleavings exhaustively at small bounds; this leg hammers the real
//! primitives under genuine OS-thread contention in normal CI.
#![cfg(not(feature = "model"))]

use mmdiag_exec::Pool;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Repeated scoped map/for_each with several foreign threads submitting
/// into one shared pool: exercises injector contention, steals, parking
/// and the scope barrier thousands of times.
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
                    pool.for_each_index(0..n, |i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    });
                    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                }
            });
        }
    });
}

/// Nested scopes from every worker simultaneously — the help-running path
/// under real contention rather than modelled schedules.
#[test]
fn nested_scopes_under_contention() {
    let pool = Pool::new(2);
    let total = AtomicUsize::new(0);
    let pool_ref = &pool;
    let total_ref = &total;
    for _ in 0..200 {
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    pool_ref.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total_ref.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
    }
    assert_eq!(total.load(Ordering::Relaxed), 200 * 16);
}
