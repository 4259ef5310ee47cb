//! The worker pool: threads spawned once, one shared FIFO of batches.
//!
//! [`Pool::map`] submits its jobs as one *batch* on the back of a shared
//! queue. Under the queue lock a worker claims the next job index of the
//! oldest batch (the batch leaves the queue at its last claim), then runs
//! that one job and writes its result into the job's own slot — results
//! come back in input order, and jobs of unequal cost balance themselves
//! across the workers. Idle workers park on the queue's condvar, which
//! every submission notifies. The caller parks on the batch's completion
//! latch, kept apart from the jobs so that a worker has let go of its job
//! before it counts down.

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::thread::JoinHandle;
use crate::sync::{Arc, Condvar, Mutex, SyncStats};
use mmdiag_trace::{clock, Counter, Histogram, HistogramSummary};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Runs job `i` of a batch and stores its result; lifetime-erased by
/// [`Pool::map`].
type Job = &'static (dyn Fn(usize) + Sync);

/// A job's panic payload, re-raised on the caller of [`Pool::map`].
type Panic = Box<dyn Any + Send>;

/// Why the pool's own locks are never poisoned.
const UNPOISONED: &str = "no job runs, and nothing panics, while a pool lock is held";

/// Monotonic pool ids so a worker thread can tell *which* pool it belongs
/// to (several pools coexist in the test-suite).
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// `(pool id, worker index)` of the current thread, if it is a worker.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

struct Shared {
    queue: Mutex<Queue>,
    /// Idle workers park here; every submission and the shutdown notify.
    wake: Condvar,
    /// Per-worker counters, present only on instrumented pools.
    stats: Option<Vec<WorkerCounters>>,
    /// Where this pool's queue, parking and latches record contention;
    /// `None` on an unprofiled pool.
    contention: Option<Arc<SyncStats>>,
}

/// The batches that still have unclaimed jobs, oldest first.
#[derive(Default)]
struct Queue {
    batches: VecDeque<Batch>,
    shutdown: bool,
}

/// One [`Pool::map`] call as the queue holds it.
struct Batch {
    job: Job,
    len: usize,
    /// The next unclaimed job index.
    next: usize,
    latch: Arc<Latch>,
}

/// Completion of one batch: the jobs not yet finished, and the first
/// panic among them (later ones are dropped, as `std::thread::scope`
/// does when several joined threads panicked).
struct Latch {
    /// `(jobs not yet finished, first panic)`.
    state: Mutex<(usize, Option<Panic>)>,
    done: Condvar,
}

impl Latch {
    fn count_down(&self, panic: Option<Panic>) {
        let mut state = self.state.lock().expect(UNPOISONED);
        let (pending, first) = &mut *state;
        let later = match first {
            None => std::mem::replace(first, panic),
            Some(_) => panic,
        };
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_one();
        }
        drop(state);
        // Outside the lock: a payload's own drop may panic, and must not
        // poison the latch the caller waits on.
        drop(later);
    }

    /// Park until every job has finished; the first panic, if any.
    fn wait(&self) -> Option<Panic> {
        let mut state = self.state.lock().expect(UNPOISONED);
        while state.0 > 0 {
            state = self.done.wait(state).expect(UNPOISONED);
        }
        state.1.take()
    }
}

/// The counter block of one worker of an instrumented pool. Plain
/// `mmdiag-trace` cells, like [`SyncStats`]: observability, not protocol
/// state, so they add no scheduling points under the `model` feature.
#[derive(Default)]
struct WorkerCounters {
    tasks: Counter,
    parks: Counter,
    unparks: Counter,
    run_ns: Histogram,
}

/// One worker's scheduling counters, snapshot by [`Pool::stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker ran.
    pub tasks: u64,
    /// Always 0: the pool has no per-worker queues to steal from. Kept
    /// for callers that build this struct field by field until ROADMAP
    /// item 7 retires it.
    pub steals: u64,
    /// Always 0, like [`WorkerStats::steals`], which it retires with.
    pub injector_pops: u64,
    /// Times it parked on the queue's condvar.
    pub parks: u64,
    /// Times it returned from a park.
    pub unparks: u64,
    /// Distribution of job run times in nanoseconds.
    pub run_ns: HistogramSummary,
}

/// Per-worker stats of an instrumented pool ([`Pool::stats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// One entry per worker, indexed like [`Pool::worker_index`].
    pub workers: Vec<WorkerStats>,
}

impl PoolStats {
    /// Sum every worker's counters (histograms merged).
    pub fn totals(&self) -> WorkerStats {
        let mut total = WorkerStats::default();
        for w in &self.workers {
            total.tasks += w.tasks;
            total.parks += w.parks;
            total.unparks += w.unparks;
            total.run_ns = total.run_ns.merge(&w.run_ns);
        }
        total
    }
}

impl Shared {
    /// Claim the next job of the oldest batch for worker `idx`, parking
    /// while the queue is empty; `None` once the pool shuts down.
    fn claim(&self, idx: usize) -> Option<(Job, usize, Arc<Latch>)> {
        let mut queue = self.queue.lock().expect(UNPOISONED);
        loop {
            if let Some(batch) = queue.batches.front_mut() {
                let claim = (batch.job, batch.next, Arc::clone(&batch.latch));
                batch.next += 1;
                if batch.next == batch.len {
                    queue.batches.pop_front();
                    self.record_depth(&queue);
                }
                return Some(claim);
            }
            if queue.shutdown {
                return None;
            }
            let counters = self.stats.as_ref().map(|st| &st[idx]);
            if let Some(w) = counters {
                w.parks.inc();
            }
            queue = self.wake.wait(queue).expect(UNPOISONED);
            if let Some(w) = counters {
                w.unparks.inc();
            }
        }
    }

    /// Run one claimed job on worker `idx`, catching its panic. On an
    /// instrumented pool a job that returns is timed and counted here,
    /// before its latch counts down, so once [`Pool::map`] returns
    /// `tasks == run_ns.count` holds exactly; a panicking job is counted
    /// in neither.
    fn run(&self, idx: usize, job: impl FnOnce()) -> Option<Panic> {
        let Some(stats) = &self.stats else {
            return catch_unwind(AssertUnwindSafe(job)).err();
        };
        let start = clock::now_ns();
        let result = catch_unwind(AssertUnwindSafe(job));
        if result.is_ok() {
            stats[idx]
                .run_ns
                .record(clock::now_ns().saturating_sub(start));
            stats[idx].tasks.inc();
        }
        result.err()
    }

    /// The queue-depth gauge, read under the queue guard already held.
    fn record_depth(&self, queue: &Queue) {
        if let Some(c) = &self.contention {
            c.injector_depth.set(queue.batches.len() as u64);
        }
    }
}

/// A reusable pool of worker threads fanning batches of jobs out.
///
/// Workers are spawned once at construction and live until the pool is
/// dropped — the whole point versus `std::thread::scope` at every call
/// site, whose per-call spawn cost dominates short parallel sections
/// (`BENCH_1`/`BENCH_2`: the scoped parallel driver loses to the
/// sequential one below ~1k nodes).
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    id: usize,
}

impl Pool {
    /// Spawn a bare pool with `threads` workers (clamped to at least 1):
    /// no counters and no contention cells.
    pub fn new(threads: usize) -> Self {
        Pool::with_stats(threads, false, None)
    }

    /// Spawn an instrumented pool: per-worker job, park and run-time
    /// counters ([`Pool::stats`]) — what the bench `--profile` leg and the
    /// profiling example use.
    pub fn new_instrumented(threads: usize) -> Self {
        Pool::with_stats(threads, true, None)
    }

    /// Spawn an instrumented pool that also records the lock waits, park
    /// durations and queue depth of its own synchronisation (queue,
    /// parking, completion latches) into `contention`. Other pools and
    /// primitives in the process are unaffected.
    pub fn new_profiled(threads: usize, contention: Arc<SyncStats>) -> Self {
        Pool::with_stats(threads, true, Some(contention))
    }

    fn with_stats(threads: usize, instrument: bool, contention: Option<Arc<SyncStats>>) -> Self {
        let threads = threads.max(1);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(Shared {
            queue: Mutex::with_stats(Queue::default(), contention.clone()),
            wake: Condvar::with_stats(contention.clone()),
            stats: instrument.then(|| (0..threads).map(|_| WorkerCounters::default()).collect()),
            contention,
        });
        let handles = (0..threads)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                crate::sync::thread::spawn_named(format!("mmdiag-exec-{id}-{idx}"), move || {
                    worker_loop(&shared, id, idx)
                })
                .expect("spawning pool worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            threads,
            id,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Where this pool records contention; `None` on an unprofiled pool.
    /// Its queue and latches build their primitives from these cells, and
    /// so should callers for locks that belong to work running on the
    /// pool (`Mutex::with_stats(t, pool.contention().cloned())`), so the
    /// pool's contention report covers them too.
    pub fn contention(&self) -> Option<&Arc<SyncStats>> {
        self.shared.contention.as_ref()
    }

    /// Worker index of the *current* thread within this pool, if it is one
    /// of this pool's workers. Lets callers key per-worker state (e.g.
    /// `mmdiag_core`'s workspace pool) without locks on the hot path.
    pub fn worker_index(&self) -> Option<usize> {
        WORKER.with(|w| match w.get() {
            Some((pool, idx)) if pool == self.id => Some(idx),
            _ => None,
        })
    }

    /// Map `f` over `items` on the pool's workers, one job per item, and
    /// return the results **in input order** — bit-identical to the
    /// sequential map. Each job may borrow from the caller's stack.
    ///
    /// Fewer than two items, or a call from one of this pool's own
    /// workers, run in order on the calling thread: there is nothing to
    /// fan out, and a worker waiting on its own pool could deadlock it.
    /// Otherwise the caller parks until every job has finished; the first
    /// job panic is then re-raised here, and the pool stays usable.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        if items.len() < 2 || self.worker_index().is_some() {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let job = |i: usize| {
            let out = f(i, &items[i]);
            *slots[i].lock().expect(UNPOISONED) = Some(out);
        };
        let job: &(dyn Fn(usize) + Sync) = &job;
        // SAFETY: lifetime erasure only — the fat pointer's layout and
        // vtable are unchanged. Sound because this call neither returns
        // nor unwinds before `latch.wait()` has seen every job finish
        // (nothing between the submission and the wait can panic), and by
        // then nothing refers to `job` any more: the batch left the queue
        // at its last claim, and each worker drops its copy of the
        // reference before counting the latch down (`worker_loop`).
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(job) };
        let latch = Arc::new(Latch {
            state: Mutex::with_stats((items.len(), None), self.contention().cloned()),
            done: Condvar::with_stats(self.contention().cloned()),
        });
        let mut queue = self.shared.queue.lock().expect(UNPOISONED);
        queue.batches.push_back(Batch {
            job,
            len: items.len(),
            next: 0,
            latch: Arc::clone(&latch),
        });
        self.shared.record_depth(&queue);
        drop(queue);
        self.shared.wake.notify_all();
        if let Some(payload) = latch.wait() {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect(UNPOISONED)
                    .expect("every job stored its result")
            })
            .collect()
    }

    /// Whether this pool records per-worker stats.
    pub fn stats_enabled(&self) -> bool {
        self.shared.stats.is_some()
    }

    /// Snapshot the per-worker scheduling counters; `None` on an
    /// uninstrumented pool. Counters accumulate over the pool's
    /// lifetime — diff two snapshots to attribute work to one section.
    pub fn stats(&self) -> Option<PoolStats> {
        self.shared.stats.as_ref().map(|st| PoolStats {
            workers: st
                .iter()
                .map(|w| WorkerStats {
                    tasks: w.tasks.get(),
                    parks: w.parks.get(),
                    unparks: w.unparks.get(),
                    run_ns: w.run_ns.snapshot(),
                    ..WorkerStats::default()
                })
                .collect(),
        })
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Drop must not panic; a poisoned queue (impossible) would stop
        // the workers on its own.
        let _ = self
            .shared
            .queue
            .lock()
            .map(|mut queue| queue.shutdown = true);
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, pool_id: usize, idx: usize) {
    WORKER.with(|w| w.set(Some((pool_id, idx))));
    while let Some((job, i, latch)) = shared.claim(idx) {
        let panic = shared.run(idx, move || job(i));
        // `job` is not used past this point: once the latch reaches zero
        // the caller's frame it points into may be gone.
        latch.count_down(panic);
    }
}
