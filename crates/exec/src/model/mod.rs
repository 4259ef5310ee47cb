//! A hand-rolled, offline, loom-style **bounded-interleaving model
//! checker** for the executor's synchronization protocols.
//!
//! Compiled only with the `model` feature. In that configuration the
//! [`crate::sync`] facade resolves to the shim primitives in [`shim`], and
//! every mutex acquisition, condvar wait/notify, atomic operation, spawn,
//! join and yield becomes a **scheduling point**: the code under test runs
//! on *virtual threads* (real OS threads of which exactly one is runnable
//! at a time, coordinated by a token-passing handshake), and at each
//! scheduling point a central [`Engine`] decides which virtual thread runs
//! next.
//!
//! Two exploration modes drive that decision:
//!
//! * [`check_exhaustive`] — depth-first enumeration of **every** schedule
//!   within the configured bounds (preemption budget, step budget,
//!   schedule cap). Right for small hand-built protocol models, where the
//!   full space is thousands of schedules.
//! * [`check_random`] — deep seeded-random exploration: each iteration
//!   derives a per-run seed from the root seed (SplitMix64, vendored-shim
//!   spirit), so a run of N iterations is **deterministic** given the root
//!   seed and reports how many *distinct* interleavings it visited. Right
//!   for the real [`crate::Pool`], whose claim/park loops are too long for
//!   exhaustive enumeration.
//!
//! Failures — a panic escaping a virtual thread, a deadlock (every
//! non-finished thread blocked), or a blown step budget (livelock) — stop
//! exploration and are reported as a [`Failure`] carrying the exact
//! schedule (the chosen virtual-thread id at every scheduling point) plus,
//! in random mode, the root seed and iteration. [`replay`] re-executes a
//! recorded schedule on demand, so a seeded failure shrinks to a single
//! deterministic reproduction — shrink-to-seed reporting.
//!
//! Model fidelity notes:
//!
//! * the interleaving semantics are **sequentially consistent** — the
//!   shims do not model weak memory orderings (every atomic runs as
//!   `SeqCst`); what is explored is the space of schedules, which is where
//!   lost wakeups, claim races and self-waiting deadlocks live;
//! * condvars do not wake spuriously under the model — a `wait` returns
//!   only after a notify (the protocols under test loop on predicates
//!   anyway, and a lost wakeup still manifests as a deadlock);
//! * `yield_now` deprioritises the yielding thread (it is only re-chosen
//!   when nothing else is runnable), mirroring loom's treatment, so
//!   spin-then-yield loops make progress instead of spinning the step
//!   budget away.

pub mod shim;

use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Panic payload used to unwind parked virtual threads during the
/// teardown of a failed (or deadlocked) execution. Never reported as a
/// failure itself.
struct AbortSignal;

thread_local! {
    /// The engine + virtual-thread id of the current OS thread, when it is
    /// a virtual thread of an active model execution.
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    /// True while this OS thread runs model-execution code — used by the
    /// quiet panic hook to suppress the (expected, frequent) teardown and
    /// probe panics inside explorations.
    static IN_MODEL: Cell<bool> = const { Cell::new(false) };
}

#[derive(Clone)]
struct Ctx {
    engine: Arc<Engine>,
    id: usize,
}

/// The current virtual-thread context; panics with a diagnostic when a
/// shim primitive that *requires* scheduling (blocking, spawning) is used
/// outside a model execution.
fn ctx() -> Ctx {
    CTX.with(|c| c.borrow().clone()).expect(
        "model sync primitive used outside a model execution (wrap the test in model::check_*)",
    )
}

/// A scheduling point: hand the token to whichever virtual thread the
/// engine chooses next. No-op outside an execution (atomics in statics may
/// tick during process setup; only blocking primitives demand a context).
pub(crate) fn sched_point(yielded: bool) {
    if let Some(c) = CTX.with(|c| c.borrow().clone()) {
        c.engine.switch(c.id, yielded);
    }
}

/// SplitMix64 — the same tiny deterministic generator the vendored
/// `rand_chacha` shim uses for seed expansion.
#[derive(Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Exploration bounds.
#[derive(Clone, Debug)]
pub struct Config {
    /// Scheduling points allowed per execution before it is reported as a
    /// livelock failure.
    pub max_steps: usize,
    /// Preemption budget per execution (exhaustive mode): once spent, a
    /// runnable current thread keeps running at free decision points.
    /// `None` = unbounded (the default for random mode).
    pub max_preemptions: Option<usize>,
    /// Cap on schedules an exhaustive exploration may enumerate; hitting
    /// it sets [`Report::truncated`] instead of failing.
    pub max_schedules: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_steps: 50_000,
            max_preemptions: Some(3),
            max_schedules: 200_000,
        }
    }
}

impl Config {
    /// Bounds for deep seeded-random runs: no preemption budget (random
    /// exploration relies on schedule diversity, which a preemption cap
    /// collapses), default step and schedule limits.
    pub fn deep() -> Self {
        Config {
            max_preemptions: None,
            ..Config::default()
        }
    }
}

/// A failing schedule, reproducible on demand via [`replay`].
#[derive(Clone, Debug)]
pub struct Failure {
    /// What went wrong: the escaped panic message, or a deadlock / step
    /// budget report with per-thread blocking reasons.
    pub message: String,
    /// The chosen virtual-thread id at every scheduling point — feed to
    /// [`replay`] to reproduce this exact execution.
    pub schedule: Vec<usize>,
    /// Root seed of the random exploration that found it, if any.
    pub seed: Option<u64>,
    /// Iteration (within the seeded run) that found it, if any.
    pub iteration: Option<usize>,
}

/// Outcome of an exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Executions actually run.
    pub executions: usize,
    /// Number of *distinct* schedules among them (trace-hash cardinality).
    pub distinct_interleavings: usize,
    /// True when an exhaustive enumeration stopped at `max_schedules`
    /// without exhausting the space.
    pub truncated: bool,
    /// The first failure found, if any; exploration stops on it.
    pub failure: Option<Failure>,
}

impl Report {
    /// Panic (in the controller — a plain test failure) when the
    /// exploration found a failing schedule, printing the reproduction
    /// recipe.
    pub fn assert_ok(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "model exploration failed after {} execution(s): {}\n  \
                 reproduce with model::replay(&{:?}, ..){}",
                self.executions,
                f.message,
                f.schedule,
                match (f.seed, f.iteration) {
                    (Some(s), Some(i)) => format!("\n  found by seed {s:#x} at iteration {i}"),
                    _ => String::new(),
                },
            );
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    Blocked(&'static str),
    Finished,
}

struct ThreadRec {
    status: Status,
    /// Threads blocked in `join` on this one.
    joiners: Vec<usize>,
}

/// Where free scheduling choices come from.
enum ChoiceSource {
    /// Replay `prefix` (DFS bookkeeping: (chosen index, option count)),
    /// then take option 0 and extend the record.
    Dfs {
        prefix: Vec<(usize, usize)>,
        pos: usize,
    },
    /// Uniform choice from a per-run deterministic generator.
    Random(SplitMix64),
    /// Force the recorded thread ids of a previous run.
    Trace { tids: Vec<usize>, pos: usize },
}

struct EngineState {
    threads: Vec<ThreadRec>,
    current: usize,
    live: usize,
    steps: usize,
    preemptions: usize,
    /// Chosen virtual-thread id at every scheduling point.
    trace: Vec<usize>,
    /// (chosen index, option count) at every *free* (branching) decision —
    /// the DFS frontier bookkeeping.
    decisions: Vec<(usize, usize)>,
    source: ChoiceSource,
    failure: Option<String>,
    /// Set on failure: parked threads unwind via [`AbortSignal`] instead
    /// of waiting for turns that will never come.
    aborting: bool,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

struct Engine {
    st: StdMutex<EngineState>,
    cv: StdCondvar,
    cfg: Config,
}

impl Engine {
    fn new(cfg: Config, source: ChoiceSource) -> Arc<Self> {
        Arc::new(Engine {
            st: StdMutex::new(EngineState {
                threads: Vec::new(),
                current: 0,
                live: 0,
                steps: 0,
                preemptions: 0,
                trace: Vec::new(),
                decisions: Vec::new(),
                source,
                failure: None,
                aborting: false,
                os_handles: Vec::new(),
            }),
            cv: StdCondvar::new(),
            cfg,
        })
    }

    fn lock(&self) -> StdMutexGuard<'_, EngineState> {
        self.st.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record a failure (first one wins), flip to teardown mode, wake
    /// every parked thread so it can unwind.
    fn fail_locked(&self, st: &mut EngineState, message: String) {
        if st.failure.is_none() {
            st.failure = Some(message);
        }
        st.aborting = true;
        self.cv.notify_all();
    }

    /// Pick the next thread to run. `from` is the deciding thread;
    /// `from_runnable` tells whether it is itself still a candidate.
    /// Returns `None` when nothing is runnable (deadlock — unless all
    /// finished, which callers handle via `live`).
    fn pick_locked(&self, st: &mut EngineState, from: usize, yielded: bool) -> Option<usize> {
        let mut options: Vec<usize> = (0..st.threads.len())
            .filter(|&t| st.threads[t].status == Status::Runnable)
            .collect();
        if options.is_empty() {
            return None;
        }
        // A yielding thread asks *not* to be rescheduled while anything
        // else can run (loom-style deprioritisation; kills spin cycles).
        if yielded && options.len() > 1 {
            options.retain(|&t| t != from);
        }
        // Current-first ordering: option 0 = "keep running `from`" when it
        // is runnable, so a preemption is exactly "index != 0 while
        // options[0] == from".
        if let Some(p) = options.iter().position(|&t| t == from) {
            options.rotate_left(p);
        }
        let from_first = options[0] == from;
        let idx = match &mut st.source {
            ChoiceSource::Trace { tids, pos } => {
                let want = tids.get(*pos).copied();
                *pos += 1;
                want.and_then(|w| options.iter().position(|&t| t == w))
                    .unwrap_or(0)
            }
            _ if options.len() == 1 => 0,
            _ if from_first
                && self
                    .cfg
                    .max_preemptions
                    .is_some_and(|b| st.preemptions >= b) =>
            {
                0
            }
            ChoiceSource::Dfs { prefix, pos } => {
                let i = if *pos < prefix.len() {
                    let (i, n) = prefix[*pos];
                    debug_assert_eq!(
                        n,
                        options.len(),
                        "DFS replay diverged: the execution is not deterministic"
                    );
                    i.min(options.len() - 1)
                } else {
                    0
                };
                *pos += 1;
                st.decisions.push((i, options.len()));
                i
            }
            ChoiceSource::Random(rng) => {
                let i = (rng.next() % options.len() as u64) as usize;
                st.decisions.push((i, options.len()));
                i
            }
        };
        if from_first && idx != 0 {
            st.preemptions += 1;
        }
        let chosen = options[idx];
        st.trace.push(chosen);
        st.steps += 1;
        Some(chosen)
    }

    /// Scheduling point for a thread that stays runnable.
    fn switch(&self, me: usize, yielded: bool) {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            std::panic::panic_any(AbortSignal);
        }
        if st.steps >= self.cfg.max_steps {
            let msg = format!(
                "step budget ({}) exhausted — livelock or an unbounded schedule",
                self.cfg.max_steps
            );
            self.fail_locked(&mut st, msg);
            drop(st);
            std::panic::panic_any(AbortSignal);
        }
        // `me` is runnable, so pick cannot come back empty.
        let next = self
            .pick_locked(&mut st, me, yielded)
            .expect("a runnable thread is deciding");
        st.current = next;
        if next != me {
            self.cv.notify_all();
            self.wait_for_turn_locked(st, me);
        }
    }

    /// Block the current thread (`why` = mutex/condvar/join) and hand the
    /// token over; returns once the thread is runnable *and* scheduled.
    fn block(&self, me: usize, why: &'static str) {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            std::panic::panic_any(AbortSignal);
        }
        st.threads[me].status = Status::Blocked(why);
        match self.pick_locked(&mut st, me, false) {
            Some(next) => {
                st.current = next;
                self.cv.notify_all();
            }
            None => {
                let msg = if st.live == 0 {
                    unreachable!("blocking thread is live")
                } else {
                    format!("deadlock: {}", Self::describe_blocked(&st))
                };
                self.fail_locked(&mut st, msg);
                drop(st);
                std::panic::panic_any(AbortSignal);
            }
        }
        self.wait_for_turn_locked(st, me);
    }

    fn describe_blocked(st: &EngineState) -> String {
        let parts: Vec<String> = st
            .threads
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t.status {
                Status::Blocked(w) => Some(format!("thread {i} blocked on {w}")),
                _ => None,
            })
            .collect();
        format!(
            "every live virtual thread is parked ({}) after schedule {:?}",
            parts.join(", "),
            st.trace
        )
    }

    /// Wait (on the real condvar) until this thread holds the token.
    /// Unwinds with [`AbortSignal`] when the execution is being torn down.
    fn wait_for_turn_locked(&self, mut st: StdMutexGuard<'_, EngineState>, me: usize) {
        loop {
            if st.aborting {
                drop(st);
                std::panic::panic_any(AbortSignal);
            }
            if st.current == me && st.threads[me].status == Status::Runnable {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn wait_for_turn(&self, me: usize) {
        let st = self.lock();
        self.wait_for_turn_locked(st, me);
    }

    /// Mark blocked threads runnable again (mutex release, notify, thread
    /// exit waking joiners). Not a scheduling point by itself.
    fn make_runnable(&self, tids: &[usize]) {
        if tids.is_empty() {
            return;
        }
        let mut st = self.lock();
        for &t in tids {
            if matches!(st.threads[t].status, Status::Blocked(_)) {
                st.threads[t].status = Status::Runnable;
            }
        }
    }

    /// Register + start a new virtual thread running `f`.
    fn spawn_vthread(self: &Arc<Self>, f: Box<dyn FnOnce() + Send>) -> usize {
        let mut st = self.lock();
        let id = st.threads.len();
        st.threads.push(ThreadRec {
            status: Status::Runnable,
            joiners: Vec::new(),
        });
        st.live += 1;
        let eng = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("mmdiag-model-{id}"))
            .spawn(move || {
                CTX.with(|c| {
                    *c.borrow_mut() = Some(Ctx {
                        engine: Arc::clone(&eng),
                        id,
                    })
                });
                IN_MODEL.with(|m| m.set(true));
                let result = catch_unwind(AssertUnwindSafe(|| {
                    eng.wait_for_turn(id);
                    f();
                }));
                if let Err(payload) = result {
                    if !payload.is::<AbortSignal>() {
                        let msg = panic_message(payload.as_ref());
                        let mut st = eng.lock();
                        let trace = st.trace.clone();
                        eng.fail_locked(
                            &mut st,
                            format!("virtual thread {id} panicked: {msg} (schedule {trace:?})"),
                        );
                    }
                }
                eng.thread_exit(id);
            })
            .expect("spawning a model virtual thread");
        st.os_handles.push(handle);
        id
    }

    fn thread_exit(&self, me: usize) {
        let mut st = self.lock();
        st.threads[me].status = Status::Finished;
        st.live -= 1;
        let joiners = std::mem::take(&mut st.threads[me].joiners);
        for t in joiners {
            if matches!(st.threads[t].status, Status::Blocked(_)) {
                st.threads[t].status = Status::Runnable;
            }
        }
        if st.aborting || st.live == 0 {
            self.cv.notify_all();
            return;
        }
        match self.pick_locked(&mut st, me, false) {
            Some(next) => {
                st.current = next;
                self.cv.notify_all();
            }
            None => {
                let msg = format!("deadlock: {}", Self::describe_blocked(&st));
                self.fail_locked(&mut st, msg);
            }
        }
    }

    /// Block `me` until virtual thread `target` has finished.
    fn join_vthread(&self, me: usize, target: usize) {
        loop {
            {
                let mut st = self.lock();
                if st.aborting {
                    drop(st);
                    std::panic::panic_any(AbortSignal);
                }
                if st.threads[target].status == Status::Finished {
                    break;
                }
                st.threads[target].joiners.push(me);
            }
            self.block(me, "join");
        }
        sched_point(false);
    }

    /// Controller side: wait until every virtual thread has finished.
    fn wait_all_finished(&self) {
        let mut st = self.lock();
        while st.live > 0 {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Install (once per process) a panic hook that stays quiet for panics
/// raised inside model executions — teardown [`AbortSignal`]s and probed
/// failures would otherwise flood the test output — and defers to the
/// previous hook for everything else.
fn install_quiet_hook() {
    use std::sync::OnceLock;
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_MODEL.with(|m| m.get()) {
                return;
            }
            prev(info);
        }));
    });
}

struct RunOutcome {
    trace: Vec<usize>,
    decisions: Vec<(usize, usize)>,
    failure: Option<String>,
}

/// Run one complete execution of `f` under the given choice source.
fn run_once(cfg: &Config, source: ChoiceSource, f: &Arc<dyn Fn() + Send + Sync>) -> RunOutcome {
    install_quiet_hook();
    let engine = Engine::new(cfg.clone(), source);
    let body = Arc::clone(f);
    engine.spawn_vthread(Box::new(move || body()));
    engine.wait_all_finished();
    let (trace, decisions, failure, handles) = {
        let mut st = engine.lock();
        (
            std::mem::take(&mut st.trace),
            std::mem::take(&mut st.decisions),
            st.failure.clone(),
            std::mem::take(&mut st.os_handles),
        )
    };
    for h in handles {
        let _ = h.join();
    }
    RunOutcome {
        trace,
        decisions,
        failure,
    }
}

fn trace_hash(trace: &[usize]) -> u64 {
    let mut h = DefaultHasher::new();
    trace.hash(&mut h);
    h.finish()
}

/// Depth-first enumeration of every schedule within `cfg`'s bounds.
///
/// Stops at the first failing schedule; otherwise runs until the decision
/// tree is exhausted or `cfg.max_schedules` executions have run (reported
/// via [`Report::truncated`]).
pub fn check_exhaustive<F>(cfg: Config, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let mut executions = 0usize;
    let mut distinct = HashSet::new();
    let mut truncated = false;
    loop {
        let out = run_once(
            &cfg,
            ChoiceSource::Dfs {
                prefix: stack.clone(),
                pos: 0,
            },
            &f,
        );
        executions += 1;
        distinct.insert(trace_hash(&out.trace));
        if let Some(message) = out.failure {
            return Report {
                executions,
                distinct_interleavings: distinct.len(),
                truncated,
                failure: Some(Failure {
                    message,
                    schedule: out.trace,
                    seed: None,
                    iteration: None,
                }),
            };
        }
        if executions >= cfg.max_schedules {
            truncated = true;
            break;
        }
        // Backtrack: advance the deepest decision that still has an
        // untried option; drop fully-explored tails.
        stack = out.decisions;
        loop {
            match stack.last_mut() {
                None => break,
                Some((i, n)) if *i + 1 < *n => {
                    *i += 1;
                    break;
                }
                Some(_) => {
                    stack.pop();
                }
            }
        }
        if stack.is_empty() {
            break;
        }
    }
    Report {
        executions,
        distinct_interleavings: distinct.len(),
        truncated,
        failure: None,
    }
}

/// Seeded-random deep exploration: `iterations` executions whose schedules
/// are fully determined by `seed`. The report's distinct-interleaving
/// count is therefore reproducible, and any failure carries the seed and
/// iteration that found it in addition to the replayable schedule.
pub fn check_random<F>(seed: u64, iterations: usize, cfg: Config, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut root = SplitMix64::new(seed);
    let mut executions = 0usize;
    let mut distinct = HashSet::new();
    for iteration in 0..iterations {
        let run_seed = root.next();
        let out = run_once(&cfg, ChoiceSource::Random(SplitMix64::new(run_seed)), &f);
        executions += 1;
        distinct.insert(trace_hash(&out.trace));
        if let Some(message) = out.failure {
            return Report {
                executions,
                distinct_interleavings: distinct.len(),
                truncated: false,
                failure: Some(Failure {
                    message,
                    schedule: out.trace,
                    seed: Some(seed),
                    iteration: Some(iteration),
                }),
            };
        }
    }
    Report {
        executions,
        distinct_interleavings: distinct.len(),
        truncated: false,
        failure: None,
    }
}

/// Re-execute one recorded schedule (from [`Failure::schedule`]) — the
/// deterministic reproduction step of shrink-to-seed reporting.
pub fn replay<F>(schedule: &[usize], f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let out = run_once(
        &Config {
            max_preemptions: None,
            ..Config::default()
        },
        ChoiceSource::Trace {
            tids: schedule.to_vec(),
            pos: 0,
        },
        &f,
    );
    Report {
        executions: 1,
        distinct_interleavings: 1,
        truncated: false,
        failure: out.failure.map(|message| Failure {
            message,
            schedule: out.trace,
            seed: None,
            iteration: None,
        }),
    }
}
