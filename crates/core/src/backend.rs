//! Execution policy: a batch setting.
//!
//! Every run is the same in-order probe scan on the calling thread
//! followed by one growth loop on the same thread (`crate::session`), and
//! no single run takes a policy. A pool has one job, and this module
//! decides when it gets it: a pooled `run_batch` spreads whole runs over
//! the pool's workers.
//!
//! The pieces:
//!
//! * [`BackendPolicy`] — sequential, a given [`mmdiag_exec::Pool`], or
//!   size-directed auto, deciding whether a batch fans out. The auto rule
//!   compares the instance's node count with the constant
//!   [`SEQUENTIAL_CUTOVER_NODES`]: nothing at run time, in the process or
//!   its environment, moves it;
//! * [`WorkspacePool`] — `O(N)` scratch pooled **per worker**, so batched
//!   submissions reuse one allocation per worker instead of one per call,
//!   plus one caller slot that single runs reuse.
//!
//! Determinism: a batch job probes the same parts in the same order and
//! grows the same layers as a single run, so the
//! [`Diagnosis`](crate::Diagnosis) is bit-identical across policies, the
//! accounting fields ([`Diagnosis::probes`](crate::Diagnosis::probes),
//! [`Diagnosis::lookups_used`](crate::Diagnosis::lookups_used)) included.
//! The one exception is lookup accounting in a pooled batch whose jobs
//! share a source (see [`run_batch`](crate::session::run_batch)).

use crate::set_builder::Workspace;
use mmdiag_exec::sync::{Arc, Mutex};
use mmdiag_exec::{Pool, SyncStats};

/// Node count below which a [`BackendPolicy::Auto`] batch runs in order
/// on the calling thread; at or above it, it fans out over the
/// process-wide pool.
///
/// It gates only the fan-out of batched submissions; a single run never
/// touches a pool. Below ~1k nodes a whole diagnosis is tens of
/// microseconds — under the pool's dispatch overhead
/// (`BENCH_1.json`/`BENCH_2.json`).
pub const SEQUENTIAL_CUTOVER_NODES: usize = 1024;

/// How a batch executes. Single runs take no policy: each one runs on
/// the calling thread.
#[derive(Clone, Copy)]
pub enum BackendPolicy<'p> {
    /// Batch jobs run in order on the calling thread; no pool at all.
    Sequential,
    /// Batch jobs fan out over the given pool, one whole run per job.
    Pooled(&'p Pool),
    /// Sequential below [`SEQUENTIAL_CUTOVER_NODES`], else pooled on the
    /// process-wide [`mmdiag_exec::global`] pool.
    Auto,
}

impl<'p> BackendPolicy<'p> {
    /// Whether a batch on an instance of `nodes` nodes fans out: the one
    /// statement of the auto rule. Never spawns a pool.
    fn fans_out(&self, nodes: usize) -> bool {
        match *self {
            BackendPolicy::Sequential => false,
            BackendPolicy::Pooled(_) => true,
            BackendPolicy::Auto => nodes >= SEQUENTIAL_CUTOVER_NODES,
        }
    }

    /// The pool a batch on an instance of `nodes` nodes fans out over, or
    /// `None` for jobs in order on the calling thread. Only a pooled
    /// resolution touches (and so spawns) the global pool.
    pub fn resolve(&self, nodes: usize) -> Option<&'p Pool> {
        match *self {
            BackendPolicy::Pooled(pool) => Some(pool),
            _ if self.fans_out(nodes) => Some(mmdiag_exec::global()),
            _ => None,
        }
    }

    /// The batch fan-out decision for an instance of `nodes` nodes:
    /// `"pooled"` when a batch fans out, else `"sequential"`. Never spawns
    /// a pool.
    pub fn label_for(&self, nodes: usize) -> &'static str {
        if self.fans_out(nodes) {
            "pooled"
        } else {
            "sequential"
        }
    }
}

/// A small pool of [`Workspace`]s keyed by pool worker index, plus one
/// caller slot for non-worker threads (the one every single run reuses).
/// Each slot is created lazily on first checkout, so a batch of `k`
/// submissions on a `w`-worker pool allocates at most `min(k, w + 1)`
/// workspaces no matter how large `k` gets — the amortisation that makes
/// batched syndrome evaluation cheap.
pub struct WorkspacePool {
    nodes: usize,
    slots: Vec<Mutex<Option<Workspace>>>,
}

impl WorkspacePool {
    /// Workspace pool for a graph with `nodes` nodes, serving a pool of
    /// `workers` workers (plus any non-worker caller).
    pub fn new(nodes: usize, workers: usize) -> Self {
        WorkspacePool::with_stats(nodes, workers, None)
    }

    /// Workspace pool for a graph with `nodes` nodes, serving `pool`: one
    /// slot per worker, and slot locks that record their acquire waits
    /// into the pool's contention cells ([`Pool::contention`]). A profiled
    /// pool's lock-wait histogram then covers the workspace checkouts of
    /// every run on it.
    pub fn for_pool(nodes: usize, pool: &Pool) -> Self {
        WorkspacePool::with_stats(nodes, pool.threads(), pool.contention().cloned())
    }

    /// Workspace pool for a session under `policy`, shaped for the pool
    /// its batches would fan out on without spawning that pool: a given
    /// pool's [`WorkspacePool::for_pool`], [`mmdiag_exec::default_threads`]
    /// slots (the global pool's width) where `Auto` would fan out, else
    /// the caller slot alone.
    pub fn for_policy(nodes: usize, policy: &BackendPolicy<'_>) -> Self {
        match *policy {
            BackendPolicy::Pooled(pool) => WorkspacePool::for_pool(nodes, pool),
            _ if policy.fans_out(nodes) => {
                WorkspacePool::new(nodes, mmdiag_exec::default_threads())
            }
            _ => WorkspacePool::new(nodes, 0),
        }
    }

    fn with_stats(nodes: usize, workers: usize, stats: Option<Arc<SyncStats>>) -> Self {
        WorkspacePool {
            nodes,
            slots: (0..workers + 1)
                .map(|_| Mutex::with_stats(None, stats.clone()))
                .collect(),
        }
    }

    fn slot_index(&self, worker: Option<usize>) -> usize {
        match worker {
            Some(i) if i < self.slots.len() - 1 => i,
            _ => self.slots.len() - 1,
        }
    }

    /// Run `f` with the workspace slot of `worker` (or the caller slot
    /// for `None`), creating the workspace on first use.
    pub fn with<R>(&self, worker: Option<usize>, f: impl FnOnce(&mut Workspace) -> R) -> R {
        // A run that unwinds inside `f` (a panicking syndrome source)
        // poisons the slot's lock. The workspace it leaves is still sound,
        // since every run starts by clearing what a stopped run left
        // behind, so the next run takes the guard out of the poisoned lock
        // instead of failing on this slot for the life of the session.
        let mut guard = self.slots[self.slot_index(worker)].lock_unpoisoned();
        let ws = guard.get_or_insert_with(|| Workspace::new(self.nodes));
        f(ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_by_the_cutover_it_is_given() {
        let cut = SEQUENTIAL_CUTOVER_NODES;
        assert!(BackendPolicy::Auto.resolve(cut - 1).is_none());
        assert!(BackendPolicy::Auto.resolve(cut).is_some());
        let pool = Pool::new(1);
        assert!(BackendPolicy::Sequential.resolve(1 << 20).is_none());
        assert!(BackendPolicy::Pooled(&pool).resolve(8).is_some());
    }

    #[test]
    fn labels_follow_the_default_cutover() {
        let cut = SEQUENTIAL_CUTOVER_NODES;
        let pool = Pool::new(1);
        assert_eq!(BackendPolicy::Sequential.label_for(1 << 20), "sequential");
        assert_eq!(BackendPolicy::Pooled(&pool).label_for(8), "pooled");
        assert_eq!(BackendPolicy::Auto.label_for(cut - 1), "sequential");
        assert_eq!(BackendPolicy::Auto.label_for(cut), "pooled");
    }

    #[test]
    fn workspace_pools_take_the_shape_of_the_batch_fan_out() {
        let cut = SEQUENTIAL_CUTOVER_NODES;
        let slots = |policy: BackendPolicy<'_>, nodes: usize| {
            WorkspacePool::for_policy(nodes, &policy).slots.len()
        };
        let pool = Pool::new(3);
        assert_eq!(slots(BackendPolicy::Sequential, 1 << 20), 1);
        assert_eq!(slots(BackendPolicy::Pooled(&pool), 8), 4);
        assert_eq!(slots(BackendPolicy::Auto, cut - 1), 1);
        assert_eq!(
            slots(BackendPolicy::Auto, cut),
            mmdiag_exec::default_threads() + 1
        );
    }

    #[test]
    fn workspace_pool_reuses_slots() {
        let wsp = WorkspacePool::new(64, 2);
        // Same slot twice: the workspace persists (clearing it between
        // runs is Workspace's own concern; here we only check slot identity
        // works).
        wsp.with(Some(0), |ws| {
            let _ = ws;
        });
        wsp.with(Some(0), |ws| {
            let _ = ws;
        });
        wsp.with(None, |ws| {
            let _ = ws;
        });
        // Out-of-range worker index falls back to the caller slot rather
        // than panicking.
        wsp.with(Some(99), |ws| {
            let _ = ws;
        });
    }

    #[test]
    fn profiled_workspace_slots_record_every_checkout() {
        let stats = Arc::new(SyncStats::new());
        let wsp = WorkspacePool::with_stats(64, 2, Some(Arc::clone(&stats)));
        for worker in [Some(0), Some(1), None] {
            wsp.with(worker, |_| {});
        }
        assert_eq!(stats.lock_wait_ns.snapshot().count, 3);
        // A plain pool's slots record nothing.
        let plain = WorkspacePool::new(64, 2);
        plain.with(Some(0), |_| {});
        assert_eq!(stats.lock_wait_ns.snapshot().count, 3);
    }

    #[test]
    fn workspace_pool_for_a_profiled_pool_records_into_its_cells() {
        let stats = Arc::new(SyncStats::new());
        let pool = Pool::new_profiled(1, Arc::clone(&stats));
        let wsp = WorkspacePool::for_pool(64, &pool);
        // The idle worker's own queue and parking locks record into the
        // same cells; a round trip through the pool leaves it parked.
        pool.map(&[(); 2], |_, _| {});
        let before = stats.lock_wait_ns.snapshot().count;
        for _ in 0..8 {
            wsp.with(None, |_| {});
        }
        let timed = stats.lock_wait_ns.snapshot().count - before;
        assert!(timed >= 8, "every checkout is timed, got {timed}");
    }
}
