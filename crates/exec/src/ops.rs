//! Deterministic data-parallel combinators built on [`Pool::scope`]:
//! parallel-for and order-preserving parallel-map.

use crate::pool::Pool;
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
}
