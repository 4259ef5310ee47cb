//! The synchronization facade every module in this crate goes through,
//! and the workspace's **contention profiling** layer.
//!
//! In a normal build (`cfg(not(feature = "model"))`) the primitives
//! underneath are `std::sync` / `std::thread`; with the `model` feature
//! the same names resolve to the instrumented shim primitives in
//! `crate::model`, so mutexes, condvars, atomics and thread spawning all
//! become *scheduling points* of a deterministic bounded-interleaving
//! scheduler (in the spirit of `loom`, hand-rolled because the build is
//! offline).
//!
//! On top of whichever implementation is active, [`Mutex`] and
//! [`Condvar`] are thin wrappers that can profile contention: a
//! [`Mutex::profiled`] mutex records each acquire wait into
//! [`SyncStats::lock_wait_ns`], a [`Condvar::profiled`] condvar each park
//! duration into [`SyncStats::park_ns`], and a profiled pool sets
//! [`SyncStats::injector_depth`] to its queue's depth in batches whenever
//! a batch joins or leaves it.
//!
//! Profiling is a property of the primitive, fixed at construction: a
//! pool built with [`crate::Pool::new_profiled`] (or any pool while the
//! `MMDIAG_TRACE` knob is set) profiles its own queue, parking and
//! completion latches, and nothing else in the process changes. Locks
//! that belong to work on a pool — `mmdiag_core`'s workspace slots — are
//! built from that pool's cells ([`crate::Pool::contention`]), so its
//! report covers them as well. A plain primitive pays one `Option` check
//! per operation — no clock read, no histogram touch. The stats cells are
//! plain `std` atomics even under the `model` feature (they are
//! observability, not protocol state), so profiling adds **no scheduling
//! points**: the interleaving explorer drives exactly the same state
//! space either way (asserted across ≥500 interleavings in
//! `tests/model.rs`).
//!
//! Rules of the facade:
//!
//! * the crate's own modules import **only** from here — never
//!   `std::sync::{Mutex, Condvar}`, `std::sync::atomic`, or
//!   `std::thread::{spawn, yield_now}` directly. The whole *workspace* is
//!   held to the construction half of this rule by the `sync-single-door`
//!   xtask lint pass: `std::sync::{Mutex, Condvar, RwLock}` may only be
//!   constructed here, in the model shims, in test code, and in
//!   `crates/trace` (which sits *below* this crate in the dependency
//!   graph and cannot route through it without a cycle);
//! * [`Arc`] is re-exported from `std` in both modes: reference counting
//!   carries no scheduling decision the model needs to interleave;
//! * `std::sync::OnceLock` (the `global()` pool, parsed knobs) stays on
//!   `std` too — one-time initialisation is not part of the explored
//!   protocols, and the global pool is never constructed under the model.

pub use std::sync::Arc;

use mmdiag_trace::clock;
use mmdiag_trace::{Gauge, Histogram};
use std::sync::OnceLock;

#[cfg(not(feature = "model"))]
mod imp {
    pub use std::sync::{Condvar, Mutex, MutexGuard};

    /// Atomics, as `std::sync::atomic`.
    pub mod atomic {
        pub use std::sync::atomic::{AtomicUsize, Ordering};
    }

    /// Thread spawning and yielding, as `std::thread`.
    pub mod thread {
        pub use std::thread::{yield_now, JoinHandle};

        /// Spawn a named OS thread ([`std::thread::Builder`] with `name`).
        pub fn spawn_named<F, T>(name: String, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            std::thread::Builder::new().name(name).spawn(f)
        }
    }
}

#[cfg(feature = "model")]
mod imp {
    pub use crate::model::shim::atomic;
    pub use crate::model::shim::thread;
    pub use crate::model::shim::{Condvar, Mutex, MutexGuard};
}

pub use imp::{atomic, thread, MutexGuard};

/// `Result` of a lock-ish acquisition, matching the active
/// implementation: `std`'s poisoning `LockResult` in normal builds, the
/// shim's infallible `Result<_, Infallible>` under the model. Both
/// support the workspace's `.lock().unwrap()` /
/// `.unwrap_or_else(|e| e.into_inner())` call-site idioms.
#[cfg(not(feature = "model"))]
pub type LockResult<G> = std::sync::LockResult<G>;
/// See the `not(feature = "model")` definition.
#[cfg(feature = "model")]
pub type LockResult<G> = Result<G, std::convert::Infallible>;

/// A block of contention stats profiled primitives record into. All
/// cells are `mmdiag-trace` metrics, `Arc`-held so the bench, the
/// umbrella session and the [`mmdiag_trace::MetricsHub`] can adopt the
/// *same* cells into registries (one tally, many readers).
pub struct SyncStats {
    /// Time from requesting a [`Mutex`] lock to holding it, nanoseconds.
    pub lock_wait_ns: Arc<Histogram>,
    /// Time spent parked in a [`Condvar::wait`], nanoseconds.
    pub park_ns: Arc<Histogram>,
    /// Depth of the pool's shared queue in batches, set whenever a batch
    /// joins or leaves it.
    pub injector_depth: Arc<Gauge>,
}

impl SyncStats {
    /// A fresh, empty stats block.
    pub fn new() -> Self {
        SyncStats {
            lock_wait_ns: Arc::new(Histogram::new()),
            park_ns: Arc::new(Histogram::new()),
            injector_depth: Arc::new(Gauge::new()),
        }
    }

    /// Register all three cells into `registry` under their canonical
    /// `sync.*` names (adopting the shared cells, not copying).
    pub fn register_into(&self, registry: &mmdiag_trace::MetricsRegistry) {
        registry.register_histogram("sync.lock_wait_ns", Arc::clone(&self.lock_wait_ns));
        registry.register_histogram("sync.park_ns", Arc::clone(&self.park_ns));
        registry.register_gauge("sync.injector_depth", Arc::clone(&self.injector_depth));
    }
}

impl Default for SyncStats {
    fn default() -> Self {
        SyncStats::new()
    }
}

/// The process-level [`SyncStats`] that pools built while the
/// `MMDIAG_TRACE` knob is set record into, created on first use.
pub fn sync_stats() -> &'static Arc<SyncStats> {
    static STATS: OnceLock<Arc<SyncStats>> = OnceLock::new();
    STATS.get_or_init(|| Arc::new(SyncStats::new()))
}

/// A mutex behind the facade: the active implementation's mutex plus
/// optional lock-wait profiling (see the module docs).
pub struct Mutex<T> {
    inner: imp::Mutex<T>,
    /// Where lock waits are recorded; `None` for a plain mutex.
    stats: Option<Arc<SyncStats>>,
}

impl<T> Mutex<T> {
    /// Create a plain facade mutex holding `t`.
    pub fn new(t: T) -> Self {
        Mutex::with_stats(t, None)
    }

    /// A mutex that records every lock acquire's wait into `stats`.
    pub fn profiled(t: T, stats: Arc<SyncStats>) -> Self {
        Mutex::with_stats(t, Some(stats))
    }

    /// A profiled mutex when `stats` is given, else a plain one — pass
    /// [`crate::Pool::contention`] for a lock used by work on that pool.
    pub fn with_stats(t: T, stats: Option<Arc<SyncStats>>) -> Self {
        Mutex {
            inner: imp::Mutex::new(t),
            stats,
        }
    }

    /// Lock, recording the acquire wait on a profiled mutex.
    pub fn lock(&self) -> LockResult<imp::MutexGuard<'_, T>> {
        let Some(stats) = self.stats.as_deref() else {
            return self.inner.lock();
        };
        let start = clock::now_ns();
        let r = self.inner.lock();
        stats
            .lock_wait_ns
            .record(clock::now_ns().saturating_sub(start));
        r
    }

    /// Consume the mutex, returning its data.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// A condvar behind the facade: the active implementation's condvar plus
/// optional park-duration profiling.
pub struct Condvar {
    inner: imp::Condvar,
    /// Where park durations are recorded; `None` for a plain condvar.
    stats: Option<Arc<SyncStats>>,
}

impl Condvar {
    /// Create a plain facade condvar.
    pub fn new() -> Self {
        Condvar::with_stats(None)
    }

    /// A condvar that records every park's duration into `stats`.
    pub fn profiled(stats: Arc<SyncStats>) -> Self {
        Condvar::with_stats(Some(stats))
    }

    /// A profiled condvar when `stats` is given, else a plain one.
    pub(crate) fn with_stats(stats: Option<Arc<SyncStats>>) -> Self {
        Condvar {
            inner: imp::Condvar::new(),
            stats,
        }
    }

    /// Park until notified, releasing `guard` while parked; records the
    /// park duration on a profiled condvar.
    pub fn wait<'a, T>(&self, guard: imp::MutexGuard<'a, T>) -> LockResult<imp::MutexGuard<'a, T>> {
        let Some(stats) = self.stats.as_deref() else {
            return self.inner.wait(guard);
        };
        let start = clock::now_ns();
        let r = self.inner.wait(guard);
        stats.park_ns.record(clock::now_ns().saturating_sub(start));
        r
    }

    /// Wake one parked waiter, if any.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every parked waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

#[cfg(all(test, not(feature = "model")))]
mod tests {
    use super::*;

    #[test]
    fn plain_primitives_record_nothing_and_profiled_ones_count_every_acquire() {
        let stats = Arc::new(SyncStats::new());
        let plain = Mutex::new(0u32);
        let profiled = Mutex::profiled(0u32, Arc::clone(&stats));
        for _ in 0..10 {
            *plain.lock().unwrap() += 1;
        }
        assert_eq!(stats.lock_wait_ns.snapshot().count, 0);
        for _ in 0..10 {
            *profiled.lock().unwrap() += 1;
        }
        let waits = stats.lock_wait_ns.snapshot();
        assert_eq!(waits.count, 10, "every acquire on the profiled mutex");
        assert_eq!(waits.buckets.iter().sum::<u64>(), waits.count);
        assert_eq!(profiled.into_inner().unwrap(), plain.into_inner().unwrap());
    }

    #[test]
    fn profiled_condvar_records_parks() {
        let stats = Arc::new(SyncStats::new());
        let m = Arc::new(Mutex::profiled(false, Arc::clone(&stats)));
        let cv = Arc::new(Condvar::profiled(Arc::clone(&stats)));
        // One waiter parks until the flag flips.
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let h = thread::spawn_named("sync-test-waiter".into(), move || {
            let mut g = m2.lock().unwrap();
            while !*g {
                g = cv2.wait(g).unwrap();
            }
        })
        .unwrap();
        // Give the waiter a chance to park, then release it.
        for _ in 0..100 {
            thread::yield_now();
        }
        *m.lock().unwrap() = true;
        cv.notify_all();
        h.join().unwrap();
        // Exactly the waiter's lock and the setter's lock go through the
        // facade (a wakeup re-acquires inside the condvar). Park counts
        // depend on the schedule; the histogram must stay consistent.
        assert_eq!(stats.lock_wait_ns.snapshot().count, 2);
        let parks = stats.park_ns.snapshot();
        assert_eq!(parks.buckets.iter().sum::<u64>(), parks.count);
    }

    #[test]
    fn sync_stats_register_under_canonical_names() {
        let reg = mmdiag_trace::MetricsRegistry::new();
        sync_stats().register_into(&reg);
        let names: Vec<String> = reg.snapshot().into_iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            vec!["sync.lock_wait_ns", "sync.park_ns", "sync.injector_depth"]
        );
    }
}
