//! Deterministic data-parallel combinators built on [`Pool::scope`]:
//! parallel-for, parallel-map and the lowest-index-wins search reduction
//! the diagnosis driver needs.

use crate::pool::Pool;
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::Mutex;
use std::ops::Range;

impl Pool {
    /// Chunk size that gives every worker a few chunks to steal without
    /// drowning the queues in tiny tasks.
    fn chunk_for(&self, n: usize) -> usize {
        n.div_ceil(self.threads() * 4).max(1)
    }

    /// Run `f` over every index of `range`, in parallel chunks. Order of
    /// execution is unspecified; completion of the call is a barrier.
    pub fn for_each_index<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let n = range.end.saturating_sub(range.start);
        if n == 0 {
            return;
        }
        let chunk = self.chunk_for(n);
        let f = &f;
        self.scope(|s| {
            let mut lo = range.start;
            while lo < range.end {
                let hi = (lo + chunk).min(range.end);
                s.spawn(move || {
                    for i in lo..hi {
                        f(i);
                    }
                });
                lo = hi;
            }
        });
    }

    /// Parallel map over a slice, returning results **in input order** —
    /// chunks are computed concurrently, then stitched back by their start
    /// offset, so the output is bit-identical to the sequential map.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let chunk = self.chunk_for(n);
        let pieces: Mutex<Vec<(usize, Vec<U>)>> = Mutex::with_stats(
            Vec::with_capacity(n.div_ceil(chunk)),
            self.contention().cloned(),
        );
        {
            let f = &f;
            let pieces = &pieces;
            self.scope(|s| {
                let mut lo = 0usize;
                while lo < n {
                    let hi = (lo + chunk).min(n);
                    let slice = &items[lo..hi];
                    s.spawn(move || {
                        let out: Vec<U> = slice
                            .iter()
                            .enumerate()
                            .map(|(off, item)| f(lo + off, item))
                            .collect();
                        pieces.lock().unwrap().push((lo, out));
                    });
                    lo = hi;
                }
            });
        }
        let mut pieces = pieces.into_inner().unwrap();
        pieces.sort_unstable_by_key(|(lo, _)| *lo);
        let mut out = Vec::with_capacity(n);
        for (_, mut piece) in pieces {
            out.append(&mut piece);
        }
        out
    }

    /// Find the **smallest** index in `0..n` satisfying `pred`, probing on
    /// up to `width` strided lanes with a shared fetch-min (CAS loop) for
    /// early cut-off — the pooled generalisation of the parallel driver's
    /// certified-part search.
    ///
    /// Deterministic: lane `t` scans `t, t + width, …` in ascending order
    /// and a lane only skips an index when a *smaller* satisfied index is
    /// already published, so no index below the final answer goes
    /// unevaluated and the answer equals the sequential scan's. (Which
    /// indices *above* the answer get probed — and therefore any
    /// side-effect counts inside `pred` — does depend on scheduling.)
    pub fn min_index_where<F>(&self, n: usize, width: usize, pred: F) -> Option<usize>
    where
        F: Fn(usize) -> bool + Sync,
    {
        if n == 0 {
            return None;
        }
        let width = width.clamp(1, n);
        let best = AtomicUsize::new(usize::MAX);
        {
            let best = &best;
            let pred = &pred;
            self.scope(|s| {
                for lane in 0..width {
                    s.spawn(move || {
                        let mut i = lane;
                        while i < n {
                            if best.load(Ordering::Acquire) < i {
                                // A smaller satisfied index exists; nothing
                                // this lane can still find would win.
                                break;
                            }
                            if pred(i) {
                                let mut cur = best.load(Ordering::Acquire);
                                while i < cur {
                                    match best.compare_exchange_weak(
                                        cur,
                                        i,
                                        Ordering::AcqRel,
                                        Ordering::Acquire,
                                    ) {
                                        Ok(_) => break,
                                        Err(actual) => cur = actual,
                                    }
                                }
                                break;
                            }
                            i += width;
                        }
                    });
                }
            });
        }
        match best.load(Ordering::Acquire) {
            usize::MAX => None,
            i => Some(i),
        }
    }
}
