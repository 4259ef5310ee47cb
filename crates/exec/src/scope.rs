//! Scoped task spawning on a [`Pool`], in the mould of
//! `std::thread::scope`: tasks may borrow from the caller's stack, the
//! scope blocks until every spawned task finished, and the first task
//! panic is re-raised on the caller.

use crate::pool::{Pool, Task};
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{Arc, Condvar, Mutex};
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Shared completion state of one scope.
struct ScopeState {
    /// Tasks spawned and not yet finished.
    pending: AtomicUsize,
    /// First panic payload raised by a task (later ones are dropped, like
    /// `std::thread::scope` joining multiple panicked threads).
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Parking for a non-worker caller waiting on completion.
    lock: Mutex<()>,
    done: Condvar,
}

impl ScopeState {
    fn task_finished(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.lock.lock().unwrap();
            self.done.notify_all();
        }
    }
}

/// Handle passed to the closure of [`Pool::scope`]; spawns tasks that may
/// borrow from the enclosing environment (`'env`).
pub struct Scope<'pool, 'env> {
    pool: &'pool Pool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, as in `std::thread::scope`.
    env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Spawn a task on the pool. The closure may borrow anything that
    /// outlives the scope; the scope's exit waits for it to finish.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        // Instrumentation lives *inside* the task closure, before
        // `task_finished`: when `Pool::scope` unblocks, every completed
        // task's stats write is already published (a joiner reading
        // `Pool::stats` sees `tasks == run_ns.count` exactly, never a
        // task that ran but was not yet recorded).
        let instr = self.pool.instrumentation();
        let pool_id = self.pool.pool_id();
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let body = AssertUnwindSafe(|| match instr {
                Some(shared) => shared.run_instrumented(pool_id, f),
                None => f(),
            });
            if let Err(payload) = catch_unwind(body) {
                state.panic.lock().unwrap().get_or_insert(payload);
            }
            state.task_finished();
        });
        // SAFETY: lifetime erasure only — the vtable and layout of the
        // boxed closure are unchanged. Soundness rests on the
        // scope-outlives-task invariant: `Pool::scope` *always* blocks
        // until `pending == 0` before returning (even when the scope body
        // panics), so every erased task has finished — and been dropped —
        // before the `'env` borrows it captures can go out of scope. This
        // is the same argument `std::thread::scope` makes.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(task)
        };
        self.pool.push_task(task);
    }

    /// The pool this scope runs on.
    pub fn pool(&self) -> &'pool Pool {
        self.pool
    }
}

impl Pool {
    /// Run `f` with a [`Scope`] on this pool and wait for every task it
    /// spawned. Panics from tasks (or from `f` itself) are re-raised here
    /// after all tasks have completed, so borrows stay sound either way.
    ///
    /// Blocking strategy: a caller that is itself a pool worker (nested
    /// scopes) *helps* — it runs queued tasks while waiting, so nesting
    /// cannot deadlock a single-threaded pool; a foreign caller parks on a
    /// condvar.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let contention = self.contention();
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: AtomicUsize::new(0),
                panic: Mutex::with_stats(None, contention.cloned()),
                lock: Mutex::with_stats((), contention.cloned()),
                done: Condvar::with_stats(contention.cloned()),
            }),
            env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.wait_scope(&scope.state);
        let task_panic = scope.state.panic.lock().unwrap().take();
        match (result, task_panic) {
            (Ok(r), None) => r,
            // A task panic wins (it is the root cause; the body's panic, if
            // any, is typically a propagation artifact).
            (_, Some(payload)) => resume_unwind(payload),
            (Err(payload), None) => resume_unwind(payload),
        }
    }

    fn wait_scope(&self, state: &Arc<ScopeState>) {
        if let Some(worker) = self.worker_index() {
            // Nested scope on a worker: run tasks while waiting.
            self.help_until(worker, &|| state.pending.load(Ordering::Acquire) == 0);
            return;
        }
        let mut guard = state.lock.lock().unwrap();
        while state.pending.load(Ordering::Acquire) > 0 {
            guard = state.done.wait(guard).unwrap();
        }
    }
}
