//! The worker pool: threads spawned once, per-worker deques, stealing.
//!
//! Scheduling layout (the offline stand-in for rayon's core loop):
//!
//! * every worker owns a deque; tasks it spawns go to the *back* of its own
//!   deque and are popped LIFO (cache-friendly for recursive fan-out);
//! * tasks submitted from outside the pool land in a shared injector queue;
//! * an idle worker first drains its own deque, then the injector, then
//!   *steals* from the front (FIFO — the oldest, largest units of work) of
//!   the other workers' deques, scanning round-robin from its own index;
//! * with nothing to do anywhere it parks on a condvar; every push notifies.
//!
//! The deques are mutex-protected `VecDeque`s rather than lock-free
//! Chase-Lev buffers: the workspace targets correctness and reuse (no
//! per-call thread spawning) over peak steal throughput, and a mutex held
//! for a push/pop is uncontended in the common path.

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::thread::JoinHandle;
use crate::sync::{Arc, Condvar, Mutex, SyncStats};
use mmdiag_trace::{bucket_index, clock, HistogramSummary, BUCKETS};
use std::cell::Cell;
use std::collections::VecDeque;

/// A unit of work, lifetime-erased by [`crate::scope::Scope::spawn`].
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// Monotonic pool ids so a worker thread can tell *which* pool it belongs
/// to (nested/multiple pools coexist in the test-suite).
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// `(pool id, worker index)` of the current thread, if it is a worker.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

pub(crate) struct Shared {
    /// Tasks submitted from non-worker threads.
    injector: Mutex<VecDeque<Task>>,
    /// One deque per worker; workers push/pop their own back, thieves pop
    /// the front.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Parking lot: workers wait here when every queue is empty.
    sleep: Mutex<()>,
    wake: Condvar,
    /// Number of workers currently parked (or committing to park) on
    /// `wake` — lets [`Shared::notify`] skip the lock when nobody sleeps.
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    /// Per-worker scheduling counters, present only on instrumented
    /// pools. `None` keeps the uninstrumented hot path free of the
    /// counter atomics — under the `model` feature every `crate::sync`
    /// atomic op is a scheduling point, so the protocol model tests
    /// (which never enable stats) explore exactly the same state space
    /// as before this field existed.
    stats: Option<Stats>,
    /// Where this pool's queues, parking and scopes record contention;
    /// `None` on an unprofiled pool.
    contention: Option<Arc<SyncStats>>,
}

/// The counter block of an instrumented pool. All cells go through the
/// `crate::sync` facade — the `model` build runs them on the shim
/// atomics, so an instrumented pool stays explorable by the model tests.
struct Stats {
    workers: Vec<WorkerCounters>,
}

struct WorkerCounters {
    tasks: AtomicUsize,
    steals: AtomicUsize,
    injector_pops: AtomicUsize,
    parks: AtomicUsize,
    unparks: AtomicUsize,
    /// Log-bucketed task-run-nanoseconds histogram (layout of
    /// [`mmdiag_trace::bucket_index`]), plus its moments — mirrored into
    /// a [`HistogramSummary`] by [`Pool::stats`].
    run_ns_buckets: Vec<AtomicUsize>,
    run_ns_count: AtomicUsize,
    run_ns_sum: AtomicUsize,
    run_ns_min: AtomicUsize,
    run_ns_max: AtomicUsize,
}

impl WorkerCounters {
    fn new() -> Self {
        WorkerCounters {
            tasks: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            injector_pops: AtomicUsize::new(0),
            parks: AtomicUsize::new(0),
            unparks: AtomicUsize::new(0),
            run_ns_buckets: (0..BUCKETS).map(|_| AtomicUsize::new(0)).collect(),
            run_ns_count: AtomicUsize::new(0),
            run_ns_sum: AtomicUsize::new(0),
            run_ns_min: AtomicUsize::new(usize::MAX),
            run_ns_max: AtomicUsize::new(0),
        }
    }

    fn record_run(&self, ns: u64) {
        let ns_usize = ns as usize;
        self.run_ns_count.fetch_add(1, Ordering::Relaxed);
        self.run_ns_sum.fetch_add(ns_usize, Ordering::Relaxed);
        self.run_ns_buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        // fetch_min/max are not in the sync facade's atomic surface;
        // CAS loops keep the facade small (these run once per task, not
        // per steal attempt).
        let mut cur = self.run_ns_min.load(Ordering::Relaxed);
        while ns_usize < cur {
            match self.run_ns_min.compare_exchange_weak(
                cur,
                ns_usize,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let mut cur = self.run_ns_max.load(Ordering::Relaxed);
        while ns_usize > cur {
            match self.run_ns_max.compare_exchange_weak(
                cur,
                ns_usize,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    fn snapshot(&self) -> WorkerStats {
        let mut buckets = [0u64; BUCKETS];
        for (b, a) in buckets.iter_mut().zip(&self.run_ns_buckets) {
            *b = a.load(Ordering::Relaxed) as u64;
        }
        let count = self.run_ns_count.load(Ordering::Relaxed) as u64;
        WorkerStats {
            tasks: self.tasks.load(Ordering::Relaxed) as u64,
            steals: self.steals.load(Ordering::Relaxed) as u64,
            injector_pops: self.injector_pops.load(Ordering::Relaxed) as u64,
            parks: self.parks.load(Ordering::Relaxed) as u64,
            unparks: self.unparks.load(Ordering::Relaxed) as u64,
            run_ns: HistogramSummary {
                count,
                sum: self.run_ns_sum.load(Ordering::Relaxed) as u64,
                min: if count == 0 {
                    0
                } else {
                    self.run_ns_min.load(Ordering::Relaxed) as u64
                },
                max: self.run_ns_max.load(Ordering::Relaxed) as u64,
                buckets,
            },
        }
    }
}

/// One worker's scheduling counters, snapshot by [`Pool::stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker executed (own deque, injector and stolen).
    pub tasks: u64,
    /// Tasks it stole from another worker's deque.
    pub steals: u64,
    /// Tasks it popped from the shared injector.
    pub injector_pops: u64,
    /// Times it parked on the wake condvar.
    pub parks: u64,
    /// Times it returned from a park.
    pub unparks: u64,
    /// Distribution of task run times in nanoseconds.
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
            total.steals += w.steals;
            total.injector_pops += w.injector_pops;
            total.parks += w.parks;
            total.unparks += w.unparks;
            total.run_ns = total.run_ns.merge(&w.run_ns);
        }
        total
    }
}

impl Shared {
    /// Pop for worker `idx`: own deque (LIFO), injector, then steal (FIFO)
    /// from the other deques starting after `idx`.
    pub(crate) fn find_task(&self, idx: usize) -> Option<Task> {
        if let Some(t) = self.deques[idx].lock().unwrap().pop_back() {
            return Some(t);
        }
        let mut injector = self.injector.lock().unwrap();
        if let Some(t) = injector.pop_front() {
            if let Some(c) = &self.contention {
                c.injector_depth.set(injector.len() as u64);
            }
            drop(injector);
            if let Some(st) = &self.stats {
                st.workers[idx]
                    .injector_pops
                    .fetch_add(1, Ordering::Relaxed);
            }
            return Some(t);
        }
        drop(injector);
        let n = self.deques.len();
        for off in 1..n {
            let victim = (idx + off) % n;
            if let Some(t) = self.deques[victim].lock().unwrap().pop_front() {
                if let Some(st) = &self.stats {
                    st.workers[idx].steals.fetch_add(1, Ordering::Relaxed);
                }
                return Some(t);
            }
        }
        None
    }

    /// Run one task body `f` on behalf of the worker currently executing
    /// it, timed and counted. Called from *inside* the spawned closure
    /// (see [`crate::scope::Scope::spawn`]), **before** the task signals
    /// scope completion — so by the time a `Pool::scope` join returns,
    /// every finished task's counter and histogram write is visible:
    /// `tasks == run_ns.count` holds exactly on a quiescent pool, with no
    /// window where a joiner reads a task that ran but was not yet
    /// recorded. A panicking task is counted in neither (the unwind skips
    /// both writes together). The clock is only read on instrumented
    /// pools, so an uninstrumented pool's task dispatch is exactly what
    /// it was before the stats layer existed.
    pub(crate) fn run_instrumented(&self, pool_id: usize, f: impl FnOnce()) {
        let idx = WORKER.with(|w| match w.get() {
            Some((pool, idx)) if pool == pool_id => Some(idx),
            _ => None,
        });
        match (idx, &self.stats) {
            (Some(idx), Some(st)) => {
                let start = clock::now_ns();
                f();
                let w = &st.workers[idx];
                w.record_run(clock::now_ns().saturating_sub(start));
                w.tasks.fetch_add(1, Ordering::Relaxed);
            }
            // Not a worker of this pool (cannot happen today: tasks only
            // run on pool workers) or a bare pool: just run it.
            _ => f(),
        }
    }

    fn has_work(&self) -> bool {
        if !self.injector.lock().unwrap().is_empty() {
            return true;
        }
        self.deques.iter().any(|d| !d.lock().unwrap().is_empty())
    }

    /// Wake parked workers after a push. The fast path is a single atomic
    /// load: with no worker parked there is nothing to notify and the
    /// sleep lock is never touched — task submission stays lock-free past
    /// the queue push itself.
    ///
    /// No lost wakeup: a parking worker increments `sleepers` (SeqCst,
    /// under the sleep lock) *before* re-checking the queues, and a pusher
    /// publishes its task *before* this SeqCst load. Whichever side comes
    /// later in the SeqCst order therefore sees the other — the worker
    /// sees the task and skips parking, or the pusher sees the sleeper
    /// and takes the lock to notify (the lock serialises the notify after
    /// the worker's wait).
    fn notify(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.sleep.lock().unwrap();
            self.wake.notify_all();
        }
    }

    /// Wake everything unconditionally — shutdown path.
    fn notify_all_for_shutdown(&self) {
        let _guard = self.sleep.lock().unwrap();
        self.wake.notify_all();
    }
}

/// A reusable pool of worker threads with work-stealing deques.
///
/// Workers are spawned once at construction and live until the pool is
/// dropped — the whole point versus `std::thread::scope` at every call
/// site, whose per-call spawn cost dominates sub-millisecond parallel
/// sections (`BENCH_1`/`BENCH_2`: the scoped parallel driver loses to the
/// sequential one below ~1k nodes).
pub struct Pool {
    pub(crate) shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    id: usize,
}

impl Pool {
    /// Spawn a pool with `threads` workers (clamped to at least 1).
    /// Bare unless the `MMDIAG_TRACE` knob is set; then it is instrumented
    /// and profiles its contention into the process-level
    /// [`crate::sync_stats`] cells — one `export` lights up worker stats
    /// *and* the sync-layer histograms together.
    pub fn new(threads: usize) -> Self {
        let trace = crate::config::knobs().trace;
        Pool::with_stats(
            threads,
            trace,
            trace.then(|| Arc::clone(crate::sync::sync_stats())),
        )
    }

    /// Spawn an instrumented pool regardless of the `MMDIAG_TRACE` knob
    /// — what the bench `--profile` leg and the profiling example use.
    pub fn new_instrumented(threads: usize) -> Self {
        Pool::with_stats(threads, true, None)
    }

    /// Spawn an instrumented pool that also records the lock waits, park
    /// durations and queue depths of its own synchronisation (queues,
    /// parking, scopes) into `contention`. Other pools and primitives in
    /// the process are unaffected.
    pub fn new_profiled(threads: usize, contention: Arc<SyncStats>) -> Self {
        Pool::with_stats(threads, true, Some(contention))
    }

    fn with_stats(threads: usize, instrument: bool, contention: Option<Arc<SyncStats>>) -> Self {
        let threads = threads.max(1);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let queue = || Mutex::with_stats(VecDeque::new(), contention.clone());
        let shared = Arc::new(Shared {
            injector: queue(),
            deques: (0..threads).map(|_| queue()).collect(),
            sleep: Mutex::with_stats((), contention.clone()),
            wake: Condvar::with_stats(contention.clone()),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            stats: instrument.then(|| Stats {
                workers: (0..threads).map(|_| WorkerCounters::new()).collect(),
            }),
            contention,
        });
        let handles = (0..threads)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                crate::sync::thread::spawn_named(format!("mmdiag-exec-{id}-{idx}"), move || {
                    worker_loop(shared, id, idx)
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

    /// This pool's process-unique id (the key worker threads carry in
    /// their thread-local identity).
    pub(crate) fn pool_id(&self) -> usize {
        self.id
    }

    /// Where this pool records contention; `None` on an unprofiled pool.
    /// Its scopes and parallel operations build their primitives from
    /// these cells, and so should callers for locks that belong to work
    /// running on the pool (`Mutex::with_stats(t, pool.contention().cloned())`),
    /// so the pool's contention report covers them too.
    pub fn contention(&self) -> Option<&Arc<SyncStats>> {
        self.shared.contention.as_ref()
    }

    /// The shared state, for spawned closures to instrument themselves
    /// against — `None` on a bare pool, so uninstrumented spawns don't
    /// pay the `Arc` clone.
    pub(crate) fn instrumentation(&self) -> Option<Arc<Shared>> {
        self.shared
            .stats
            .is_some()
            .then(|| Arc::clone(&self.shared))
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

    /// Enqueue a lifetime-erased task: onto the current worker's own deque
    /// when called from inside the pool, else onto the injector.
    pub(crate) fn push_task(&self, task: Task) {
        // Queue-depth gauges are read under the guard already held for
        // the push itself — contention profiling adds no extra locking.
        match self.worker_index() {
            Some(idx) => {
                let mut deque = self.shared.deques[idx].lock().unwrap();
                deque.push_back(task);
                if let Some(c) = &self.shared.contention {
                    c.deque_depth.set(deque.len() as u64);
                }
            }
            None => {
                let mut injector = self.shared.injector.lock().unwrap();
                injector.push_back(task);
                if let Some(c) = &self.shared.contention {
                    c.injector_depth.set(injector.len() as u64);
                }
            }
        }
        self.shared.notify();
    }

    /// Run queued tasks until `done` returns true — the help-first wait a
    /// scope uses when it blocks on one of this pool's own workers
    /// (nested scopes; foreign callers park on the scope condvar instead).
    pub(crate) fn help_until(&self, worker: usize, done: &dyn Fn() -> bool) {
        while !done() {
            match self.shared.find_task(worker) {
                // The task body carries its own instrumentation (see
                // `Shared::run_instrumented`), attributed to this helping
                // worker via the thread-local worker id.
                Some(t) => t(),
                None => crate::sync::thread::yield_now(),
            }
        }
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
            workers: st.workers.iter().map(WorkerCounters::snapshot).collect(),
        })
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify_all_for_shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, pool_id: usize, idx: usize) {
    WORKER.with(|w| w.set(Some((pool_id, idx))));
    loop {
        if let Some(task) = shared.find_task(idx) {
            task();
            continue;
        }
        // Park: register as a sleeper *first*, then re-check the queues
        // under the sleep lock — a push between our miss above and the
        // wait below either lands in that re-check or sees our sleeper
        // registration and notifies (see `Shared::notify`).
        let guard = shared.sleep.lock().unwrap();
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        if shared.shutdown.load(Ordering::Acquire) {
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            break;
        }
        if shared.has_work() {
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        if let Some(st) = &shared.stats {
            st.workers[idx].parks.fetch_add(1, Ordering::Relaxed);
        }
        let _guard = shared.wake.wait(guard).unwrap();
        if let Some(st) = &shared.stats {
            st.workers[idx].unparks.fetch_add(1, Ordering::Relaxed);
        }
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
    }
}
