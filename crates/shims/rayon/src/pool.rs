//! The persistent work-stealing executor behind the parallel iterators.
//!
//! ## Why a pool (and not scoped threads)
//!
//! The previous shim spawned fresh scoped OS threads on **every**
//! `par_iter().collect()` call — once per merge phase, once per Hybrid
//! chunk, many times per sweep — so the hot phases paid a thread-spawn
//! tax proportional to how often they parallelized, and each worker's
//! thread-local state (notably `sbp_core`'s `DeltaScratch`) was created
//! and dropped per call. This module replaces that with one global pool:
//!
//! * **Lazy, grow-only workers.** No thread is spawned until a caller
//!   actually requests parallelism above 1. The worker target comes from
//!   the `SBP_THREADS` environment variable (read once per process),
//!   falling back to [`std::thread::available_parallelism`]; a scoped
//!   per-thread override ([`with_threads`]) can raise it, growing the
//!   pool on demand. Workers are detached and live for the process.
//! * **Per-worker chunk deques with stealing.** Submitted tasks are
//!   dealt round-robin onto per-worker deques; a worker pops its own
//!   deque from the front and steals from the back of a peer's when
//!   empty, so non-uniform chunk costs (hub-heavy merge proposals,
//!   skewed sweep chunks) rebalance instead of serializing on the
//!   slowest chunk. The deques share one mutex — task granularity is
//!   one *chunk* (hundreds of proposals), so the lock is uncontended in
//!   practice and the implementation stays `std`-only.
//! * **Pool-pinned thread-local storage.** Because workers persist,
//!   every `thread_local!` a kernel uses (the ΔS `DeltaScratch`, the
//!   naive engine's line buffers) is allocated once per worker and
//!   reused across *all* subsequent parallel regions, instead of being
//!   re-created by every scoped spawn.
//! * **Cooperative waiting.** A thread waiting on its batch (or on
//!   [`join`]) executes pending tasks from the pool instead of blocking,
//!   so nested parallelism (a pool worker calling `join` or `par_iter`
//!   inside a task) cannot deadlock and idle submitters contribute work.
//! * **Panic propagation.** A panicking task is caught on the worker,
//!   the batch still runs to completion (the completion barrier is what
//!   makes borrowed captures sound), and the first panic payload is
//!   rethrown on the submitting thread.
//!
//! ## Determinism contract
//!
//! The pool schedules *execution*, never *results*: batch outputs are
//! written into per-task slots and read back in submission order, so a
//! `collect` is a pure function of its input regardless of worker count,
//! stealing order, or timing. Combined with the fixed-shape reductions
//! in `sbp-core`, every result in this workspace is bit-identical under
//! `SBP_THREADS=1` and `SBP_THREADS=N` — enforced by the root
//! `tests/threads.rs` suite.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Cached handles for a worker's `sbp_pool_*{worker="id"}` counters,
/// resolved once per worker thread (registry lookups never sit on the
/// task hot path). Observe-only: the pool never reads these back, so
/// scheduling — and therefore results — is identical with metrics on
/// or off.
struct WorkerMetrics {
    tasks: Arc<sbp_metrics::Counter>,
    steals: Arc<sbp_metrics::Counter>,
}

impl WorkerMetrics {
    fn new(id: usize) -> Self {
        WorkerMetrics {
            tasks: sbp_metrics::counter(&sbp_metrics::labeled(
                "sbp_pool_tasks_total",
                "worker",
                id,
            )),
            steals: sbp_metrics::counter(&sbp_metrics::labeled(
                "sbp_pool_steals_total",
                "worker",
                id,
            )),
        }
    }
}

/// Tasks executed by threads *waiting* on a batch (cooperative helping)
/// rather than by pool workers.
fn helper_tasks() -> &'static Arc<sbp_metrics::Counter> {
    static C: OnceLock<Arc<sbp_metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| sbp_metrics::counter("sbp_pool_helper_tasks_total"))
}

/// Batches dispatched to the pool (inline/serial runs are not counted).
fn pool_batches() -> &'static Arc<sbp_metrics::Counter> {
    static C: OnceLock<Arc<sbp_metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| sbp_metrics::counter("sbp_pool_batches_total"))
}

/// Submit-to-first-execution latency of pooled batches.
fn dispatch_hist() -> &'static Arc<sbp_metrics::Histogram> {
    static H: OnceLock<Arc<sbp_metrics::Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        sbp_metrics::histogram("sbp_pool_dispatch_seconds", &sbp_metrics::TIME_BUCKETS)
    })
}

/// Per-batch dispatch-latency probe: stamps submission time and records
/// the delta when the batch's *first* task starts executing.
struct DispatchClock {
    submitted: Instant,
    fired: AtomicBool,
}

impl DispatchClock {
    /// `None` while recording is disabled, keeping the disabled path
    /// free of clock reads.
    fn start() -> Option<Self> {
        sbp_metrics::enabled().then(|| DispatchClock {
            submitted: Instant::now(),
            fired: AtomicBool::new(false),
        })
    }

    fn task_started(&self) {
        if !self.fired.swap(true, Ordering::Relaxed) {
            dispatch_hist().observe(self.submitted.elapsed().as_secs_f64());
        }
    }
}

/// Hard cap on pool workers, guarding against absurd `SBP_THREADS`
/// values (each worker costs a stack).
const MAX_WORKERS: usize = 512;

/// An erased, heap-allocated unit of work. Tasks are created with
/// borrowed captures and transmuted to `'static`; soundness comes from
/// the completion barrier — the submitting call never returns (or
/// unwinds) before every task of its batch has finished.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Transmutes a borrowing task to the `'static` the deques require.
///
/// # Safety
/// The caller must not let any borrow captured by `task` end before the
/// task has finished running (see [`Task`]).
unsafe fn erase<'a>(task: Box<dyn FnOnce() + Send + 'a>) -> Task {
    // SAFETY: source and target differ only in the trait object's
    // lifetime bound, which has no runtime representation — same layout,
    // same vtable. That no captured borrow ends before the task has run
    // is the caller's obligation (this function's contract).
    unsafe { std::mem::transmute(task) }
}

/// Poison-tolerant lock: a panic inside a task never poisons pool state
/// (panics are caught before any pool lock is taken, but tolerate it
/// anyway).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The process-wide worker target from `SBP_THREADS` (read once),
/// falling back to the machine's available parallelism.
fn default_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("SBP_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .min(MAX_WORKERS)
    })
}

thread_local! {
    /// Scoped parallelism override for this thread (see [`with_threads`]).
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of threads parallel regions started by *this* thread will use:
/// the innermost [`with_threads`] override, else `SBP_THREADS`, else
/// [`std::thread::available_parallelism`]. `1` means parallel calls run
/// inline on the caller with no pool interaction at all.
pub fn current_num_threads() -> usize {
    THREAD_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(default_threads)
}

/// Runs `f` with this thread's parallelism target overridden to
/// `threads`. `1` means truly inline serial execution (no pool
/// interaction at all); above 1 the value controls chunk decomposition
/// and how far the shared pool may *grow* — it is **not** a CPU
/// throttle: tasks land on the shared deques, where any already-spawned
/// worker may steal them. Scoped and re-entrant; used by the
/// thread-count-invariance suites to compare serial and pooled runs
/// inside one process (results are identical either way by the
/// determinism contract). Does not propagate to threads `f` spawns.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(threads.clamp(1, MAX_WORKERS))));
    let _restore = Restore(prev);
    f()
}

struct State {
    /// One deque per (potential) worker; owner pops the front, thieves
    /// pop the back.
    deques: Vec<VecDeque<Task>>,
    /// Workers actually spawned so far (grow-only, ≤ `deques.len()`).
    spawned: usize,
    /// Round-robin cursor for dealing new tasks.
    next: usize,
}

struct Pool {
    state: Mutex<State>,
    /// Signalled when new tasks arrive; workers park here when every
    /// deque is empty.
    work_cv: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            deques: Vec::new(),
            spawned: 0,
            next: 0,
        }),
        work_cv: Condvar::new(),
    })
}

impl Pool {
    /// Grows the pool to at least `want` workers (capped).
    fn ensure_workers(&self, st: &mut State, want: usize) {
        let want = want.min(MAX_WORKERS);
        while st.spawned < want {
            let id = st.spawned;
            st.deques.push(VecDeque::new());
            st.spawned += 1;
            std::thread::Builder::new()
                .name(format!("sbp-pool-{id}"))
                .spawn(move || pool().worker_loop(id))
                .expect("failed to spawn pool worker");
        }
    }

    /// Deals `tasks` round-robin across worker deques and wakes workers.
    fn submit(&self, tasks: Vec<Task>, want_workers: usize) {
        let mut st = lock(&self.state);
        self.ensure_workers(&mut st, want_workers);
        let width = st.spawned.max(1);
        for task in tasks {
            let i = st.next % width;
            st.next = st.next.wrapping_add(1);
            st.deques[i].push_back(task);
        }
        drop(st);
        self.work_cv.notify_all();
    }

    /// Worker `id`'s take policy: own deque front first (cache-warm
    /// chunks in submission order), then steal from the back of a peer.
    /// The flag reports whether the task came from a peer's deque.
    fn take(st: &mut State, id: usize) -> Option<(Task, bool)> {
        if let Some(t) = st.deques[id].pop_front() {
            return Some((t, false));
        }
        let n = st.deques.len();
        for off in 1..n {
            let j = (id + off) % n;
            if let Some(t) = st.deques[j].pop_back() {
                return Some((t, true));
            }
        }
        None
    }

    fn worker_loop(&self, id: usize) {
        let metrics = WorkerMetrics::new(id);
        loop {
            let (task, stolen) = {
                let mut st = lock(&self.state);
                loop {
                    if let Some(t) = Self::take(&mut st, id) {
                        break t;
                    }
                    st = self.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            task();
            metrics.tasks.inc();
            if stolen {
                metrics.steals.inc();
            }
        }
    }

    /// Pops any pending task (helper threads waiting on a batch).
    fn try_pop_any(&self) -> Option<Task> {
        let mut st = lock(&self.state);
        let n = st.deques.len();
        for i in 0..n {
            if let Some(t) = st.deques[i].pop_front() {
                return Some(t);
            }
        }
        None
    }
}

/// Per-batch completion state: one result slot per task, a remaining
/// count doubling as the completion barrier, and the first panic.
struct Batch<U> {
    slots: Vec<Mutex<Option<U>>>,
    remaining: Mutex<usize>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Dispatch-latency probe; `None` while metrics are disabled.
    dispatch: Option<DispatchClock>,
}

impl<U> Batch<U> {
    fn new(n: usize) -> Self {
        Batch {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            remaining: Mutex::new(n),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
            dispatch: DispatchClock::start(),
        }
    }

    /// Runs one task body, stores its result or panic, and signals the
    /// barrier. Never unwinds.
    fn run_slot(&self, i: usize, f: impl FnOnce() -> U) {
        if let Some(clock) = &self.dispatch {
            clock.task_started();
        }
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(u) => *lock(&self.slots[i]) = Some(u),
            Err(p) => {
                let mut g = lock(&self.panic);
                if g.is_none() {
                    *g = Some(p);
                }
            }
        }
        let mut rem = lock(&self.remaining);
        *rem -= 1;
        if *rem == 0 {
            self.done_cv.notify_all();
        }
    }

    /// Blocks until every task of this batch has finished, executing
    /// other pending pool tasks while waiting (cooperative helping — the
    /// waiter may run its own batch's tasks, a nested batch's, or an
    /// unrelated rank's).
    fn wait(&self) {
        loop {
            if *lock(&self.remaining) == 0 {
                return;
            }
            if let Some(task) = pool().try_pop_any() {
                task();
                helper_tasks().inc();
                continue;
            }
            let rem = lock(&self.remaining);
            if *rem == 0 {
                return;
            }
            // In-flight tasks are running on workers; park briefly on
            // the batch condvar (timeout guards the race where the last
            // task completes between the check and the wait of a helper
            // that consumed a foreign wake-up).
            let _ = self
                .done_cv
                .wait_timeout(rem, Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Propagates the first recorded panic, if any.
    fn rethrow(&self) {
        if let Some(p) = lock(&self.panic).take() {
            resume_unwind(p);
        }
    }
}

/// Executes every closure of `fns` (on the pool when this thread's
/// parallelism is above 1, inline otherwise) and returns their results
/// **in submission order**. Panics rethrow the first panic after the
/// whole batch has completed.
pub(crate) fn run_batch<U, F>(fns: Vec<F>) -> Vec<U>
where
    U: Send,
    F: FnOnce() -> U + Send,
{
    let threads = current_num_threads();
    if threads <= 1 || fns.len() <= 1 {
        return fns.into_iter().map(|f| f()).collect();
    }
    let n = fns.len();
    let batch: Batch<U> = Batch::new(n);
    let batch_ref = &batch;
    let tasks: Vec<Task> = fns
        .into_iter()
        .enumerate()
        .map(|(i, f)| {
            let t: Box<dyn FnOnce() + Send + '_> = Box::new(move || batch_ref.run_slot(i, f));
            // SAFETY: `wait()` below does not return until every task has
            // run, so the borrows of `batch` and the captures of `f`
            // outlive the tasks.
            unsafe { erase(t) }
        })
        .collect();
    pool_batches().inc();
    pool().submit(tasks, threads);
    batch.wait();
    batch.rethrow();
    batch
        .slots
        .iter()
        .map(|s| lock(s).take().expect("batch slot left unfilled"))
        .collect()
}

/// Runs `a` and `b`, potentially in parallel, returning both results —
/// rayon's `join`. `b` is offered to the pool while `a` runs on the
/// calling thread; with parallelism 1 both run inline. If either side
/// panics, the panic is rethrown here after **both** sides have finished
/// (`a`'s panic wins when both do).
///
/// Unlike upstream rayon, `a` need not be `Send`: this pool never moves
/// it off the calling thread (upstream guarantees that only for calls
/// made from inside its pool; its `in_place_scope` + `spawn` is the
/// equivalent there). The golden search's overlapped probe relies on it:
/// its live progress sink and plane stay with the caller.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    let batch: Batch<RB> = Batch::new(1);
    let batch_ref = &batch;
    let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || batch_ref.run_slot(0, b));
    // SAFETY: `batch.wait()` below runs on every path out of this frame —
    // `a`'s panic is caught first — and does not return until the task
    // has run, so the borrows of `batch` and the captures of `b` outlive
    // the task.
    pool().submit(vec![unsafe { erase(task) }], current_num_threads());
    let ra = catch_unwind(AssertUnwindSafe(a));
    batch.wait();
    match ra {
        Err(p) => resume_unwind(p),
        Ok(ra) => {
            batch.rethrow();
            let rb = lock(&batch.slots[0]).take().expect("join slot unfilled");
            (ra, rb)
        }
    }
}
