//! Instrumented stand-ins for the `std::sync` / `std::thread` surface the
//! executor uses, wired into the model scheduler.
//!
//! Design: every shim keeps its *data* in a real `std` primitive (so the
//! teardown of a failed execution stays memory-safe even when several
//! unwinding threads touch it) and layers model *bookkeeping* — owner,
//! waiter queues, scheduling points — on top. Under a healthy execution
//! exactly one virtual thread runs at a time, so the real primitives are
//! never contended; they exist for storage and for safety margins, not
//! for synchronization.
//!
//! No shim models weak memory orderings: every atomic runs `SeqCst` and
//! the `Ordering` arguments are accepted for signature compatibility only
//! (see the fidelity notes on [`crate::model`]).

use super::{ctx, sched_point};
use std::convert::Infallible;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard};

fn current_id() -> usize {
    ctx().id
}

/// A model mutex: blocking acquisition is a scheduling point, contention
/// parks the virtual thread on the engine.
pub struct Mutex<T> {
    data: StdMutex<T>,
    book: StdMutex<MutexBook>,
}

#[derive(Default)]
struct MutexBook {
    owner: Option<usize>,
    waiters: Vec<usize>,
}

impl<T> Mutex<T> {
    /// Create a model mutex holding `t`.
    pub fn new(t: T) -> Self {
        Mutex {
            data: StdMutex::new(t),
            book: StdMutex::new(MutexBook::default()),
        }
    }

    /// Lock, parking the virtual thread while another one owns the mutex.
    /// Never poisons (matching `.lock().unwrap()` call sites).
    pub fn lock(&self) -> Result<MutexGuard<'_, T>, Infallible> {
        let me = current_id();
        sched_point(false);
        loop {
            {
                let mut book = self.book.lock().unwrap_or_else(|p| p.into_inner());
                if book.owner.is_none() {
                    book.owner = Some(me);
                    break;
                }
                book.waiters.push(me);
            }
            ctx().engine.block(me, "mutex");
        }
        Ok(MutexGuard {
            mx: self,
            inner: Some(self.data.lock().unwrap_or_else(|p| p.into_inner())),
        })
    }

    /// Consume the mutex, returning its data.
    pub fn into_inner(self) -> Result<T, Infallible> {
        Ok(self.data.into_inner().unwrap_or_else(|p| p.into_inner()))
    }

    /// Release bookkeeping: clear the owner and make every parked waiter
    /// runnable (they race to re-acquire when scheduled). Shared by guard
    /// drop and [`Condvar::wait`]; not itself a scheduling point.
    fn raw_unlock(&self) {
        let wake = {
            let mut book = self.book.lock().unwrap_or_else(|p| p.into_inner());
            book.owner = None;
            std::mem::take(&mut book.waiters)
        };
        if let Some(c) = super::CTX.with(|c| c.borrow().clone()) {
            c.engine.make_runnable(&wake);
        }
    }
}

/// Guard for [`Mutex`]; dropping it releases the lock and yields a
/// scheduling point (except while unwinding, where scheduling again could
/// double-panic).
pub struct MutexGuard<'a, T> {
    mx: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard not released")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard not released")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            self.mx.raw_unlock();
            if !std::thread::panicking() {
                sched_point(false);
            }
        }
    }
}

/// A model condvar. `wait` atomically registers the waiter, releases the
/// mutex and parks; a `wait` that nothing ever notifies is a deadlock the
/// engine reports — which is exactly how a lost wakeup surfaces.
pub struct Condvar {
    waiters: StdMutex<Vec<usize>>,
}

impl Condvar {
    /// Create a model condvar.
    pub fn new() -> Self {
        Condvar {
            waiters: StdMutex::new(Vec::new()),
        }
    }

    /// Park until notified, releasing `guard` while parked and
    /// re-acquiring before returning. No spurious wakeups under the model.
    pub fn wait<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
    ) -> Result<MutexGuard<'a, T>, Infallible> {
        let me = current_id();
        let mx = guard.mx;
        // Register *before* releasing the mutex: a notifier that runs
        // between our release and our park must still see us.
        self.waiters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(me);
        drop(guard.inner.take());
        mx.raw_unlock();
        ctx().engine.block(me, "condvar");
        mx.lock()
    }

    /// Wake one parked waiter (FIFO), if any.
    pub fn notify_one(&self) {
        let woken = {
            let mut w = self.waiters.lock().unwrap_or_else(|p| p.into_inner());
            if w.is_empty() {
                None
            } else {
                Some(w.remove(0))
            }
        };
        if let Some(t) = woken {
            ctx().engine.make_runnable(&[t]);
        }
        sched_point(false);
    }

    /// Wake every parked waiter.
    pub fn notify_all(&self) {
        let woken = std::mem::take(&mut *self.waiters.lock().unwrap_or_else(|p| p.into_inner()));
        ctx().engine.make_runnable(&woken);
        sched_point(false);
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// Model atomics: real `SeqCst` atomics for storage, with a scheduling
/// point after every operation so the explorer can interleave between any
/// two shared-memory accesses. Only the operations the crate and its model
/// tests use are modelled.
pub mod atomic {
    use super::sched_point;
    use std::sync::atomic as real;

    pub use std::sync::atomic::Ordering;

    /// Model stand-in for [`std::sync::atomic::AtomicUsize`].
    pub struct AtomicUsize {
        v: real::AtomicUsize,
    }

    impl AtomicUsize {
        /// Create with an initial value.
        pub const fn new(v: usize) -> Self {
            AtomicUsize {
                v: real::AtomicUsize::new(v),
            }
        }

        /// Load (modelled `SeqCst`).
        pub fn load(&self, _order: Ordering) -> usize {
            let r = self.v.load(real::Ordering::SeqCst);
            sched_point(false);
            r
        }

        /// Add, returning the previous value.
        pub fn fetch_add(&self, val: usize, _order: Ordering) -> usize {
            let r = self.v.fetch_add(val, real::Ordering::SeqCst);
            sched_point(false);
            r
        }
    }
}

/// Model thread spawning: each spawn registers a new virtual thread with
/// the engine of the *current* execution.
pub mod thread {
    use super::super::{ctx, sched_point};
    use super::current_id;
    use std::sync::{Arc, Mutex as StdMutex};

    /// Handle to a spawned virtual thread.
    pub struct JoinHandle<T> {
        id: usize,
        slot: Arc<StdMutex<Option<T>>>,
    }

    impl<T> JoinHandle<T> {
        /// Park until the virtual thread finishes; `Err` only when it
        /// died without producing a value (its panic is separately
        /// reported as the execution's failure).
        pub fn join(self) -> std::thread::Result<T> {
            let me = current_id();
            ctx().engine.join_vthread(me, self.id);
            match self.slot.lock().unwrap_or_else(|p| p.into_inner()).take() {
                Some(t) => Ok(t),
                None => Err(Box::new("model virtual thread panicked".to_string())),
            }
        }
    }

    /// Spawn a named virtual thread (the name is kept out of scheduling —
    /// it only ever mattered for debugger output).
    pub fn spawn_named<F, T>(name: String, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let _ = name;
        let slot = Arc::new(StdMutex::new(None));
        let out = Arc::clone(&slot);
        let id = ctx().engine.spawn_vthread(Box::new(move || {
            let v = f();
            *out.lock().unwrap_or_else(|p| p.into_inner()) = Some(v);
        }));
        sched_point(false);
        Ok(JoinHandle { id, slot })
    }

    /// Yield: a scheduling point that additionally deprioritises the
    /// yielding thread (see the fidelity notes on [`crate::model`]).
    pub fn yield_now() {
        sched_point(true);
    }
}
