//! A scoped work-stealing thread pool.
//!
//! The optimize phase is parallel at *function* granularity, and builds are
//! parallel at *module* granularity. Running both on their own threads
//! multiplies worker counts (`jobs × functions` oversubscription); running
//! only one wastes the other's parallelism (a project with one large module
//! got no speedup from `--jobs`). This crate provides the single pool both
//! levels share: module tasks and the function tasks they fan out into are
//! scheduled on the *same* `jobs`-sized worker set.
//!
//! # Model
//!
//! [`scope`] spawns `jobs − 1` workers inside a [`std::thread::scope`] and
//! runs the caller's closure on the calling thread, which participates in
//! task execution ("helping") whenever it waits. Tasks are closures over the
//! enclosing environment (`'env`), so borrowed data — a compiler session, a
//! module snapshot — flows into tasks without `'static` gymnastics.
//!
//! Scheduling is work-stealing: each worker owns a deque (its own spawns go
//! there; it pops from the front, so locally spawned work runs in priority
//! order), non-worker spawns go to a shared FIFO injector, and an idle
//! worker steals from the back of a victim's deque. A task that must wait
//! for other tasks calls [`PoolScope::help_until`], which executes queued
//! tasks instead of blocking — nested fan-out (a module task waiting on its
//! function tasks) therefore cannot deadlock: the waiting thread works.
//!
//! # Determinism
//!
//! The pool makes no ordering promises; callers get determinism by making
//! tasks independent (each task writes only its own slot) and merging
//! results in a fixed order. See `sfcc-passes`' parallel pipeline runner.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

type Task<'env> = Box<dyn FnOnce(&PoolScope<'env>) + Send + 'env>;

thread_local! {
    /// `(scope identity, worker index)` of the pool worker running on this
    /// thread, if any. The identity guards against a worker of one scope
    /// spawning into an unrelated scope's local deque.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Cumulative counters of one pool scope (observability; see
/// [`PoolScope::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks spawned into the scope.
    pub spawned: u64,
    /// Tasks an idle worker stole from another worker's deque.
    pub stolen: u64,
}

/// A live pool, valid for the duration of one [`scope`] call.
///
/// Shared by reference with every task; tasks use it to spawn subtasks into
/// the same worker set and to [`help_until`](PoolScope::help_until) their
/// subtasks complete.
pub struct PoolScope<'env> {
    injector: Mutex<VecDeque<Task<'env>>>,
    locals: Vec<Mutex<VecDeque<Task<'env>>>>,
    /// Tasks spawned but not yet finished (queued or running).
    pending: AtomicUsize,
    /// Set when the scope is draining; workers exit once idle.
    shutdown: AtomicBool,
    /// Set when any task panicked; waiters re-raise promptly.
    panicked: AtomicBool,
    idle: Mutex<()>,
    wakeup: Condvar,
    jobs: usize,
    spawned: AtomicU64,
    stolen: AtomicU64,
}

impl<'env> PoolScope<'env> {
    fn new(jobs: usize) -> Self {
        let workers = jobs.saturating_sub(1);
        PoolScope {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            idle: Mutex::new(()),
            wakeup: Condvar::new(),
            jobs: jobs.max(1),
            spawned: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
        }
    }

    /// The scope identity used to validate the thread-local worker index.
    fn identity(&self) -> usize {
        self as *const PoolScope<'env> as usize
    }

    /// The worker count this scope was sized for (`--jobs`).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Whether tasks can actually run concurrently (more than one worker).
    pub fn is_parallel(&self) -> bool {
        !self.locals.is_empty()
    }

    /// Scheduling counters accumulated so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            spawned: self.spawned.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
        }
    }

    /// Submits a task. From a worker thread the task goes to that worker's
    /// own deque (depth-first, cache-warm); from any other thread it goes to
    /// the shared FIFO injector, so spawn order is service order there —
    /// submit the largest task first to minimize makespan.
    ///
    /// The task runs exactly as given: no thread-local context of the
    /// spawner (trace parent, task attribution) follows it to the worker.
    /// A build's observers are values on the thread that drives it, and
    /// what a task measures travels back in its result.
    pub fn spawn(&self, task: impl FnOnce(&PoolScope<'env>) + Send + 'env) {
        self.spawned.fetch_add(1, Ordering::Relaxed);
        self.pending.fetch_add(1, Ordering::SeqCst);
        let task: Task<'env> = Box::new(task);
        match WORKER.get() {
            Some((id, idx)) if id == self.identity() => {
                self.locals[idx].lock().unwrap().push_back(task);
            }
            _ => self.injector.lock().unwrap().push_back(task),
        }
        let _guard = self.idle.lock().unwrap();
        self.wakeup.notify_one();
    }

    /// Runs queued tasks on the calling thread until `done()` holds. The
    /// cooperative join of this pool: a thread that needs results of tasks
    /// it spawned makes progress on *some* queued task instead of blocking,
    /// so nested fan-out cannot deadlock.
    ///
    /// # Panics
    ///
    /// Re-raises (as a fresh panic) when any pool task panicked.
    pub fn help_until(&self, mut done: impl FnMut() -> bool) {
        let me = match WORKER.get() {
            Some((id, idx)) if id == self.identity() => Some(idx),
            _ => None,
        };
        loop {
            if done() {
                return;
            }
            assert!(
                !self.panicked.load(Ordering::SeqCst),
                "sfcc-pool: a pool task panicked"
            );
            if let Some(task) = self.find_task(me) {
                self.run_task(task);
                continue;
            }
            // Nothing runnable right now: park until a spawn or completion,
            // with a timeout as a lost-wakeup safety net.
            let guard = self.idle.lock().unwrap();
            if done() || self.has_queued() || self.panicked.load(Ordering::SeqCst) {
                continue;
            }
            let _ = self
                .wakeup
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap();
        }
    }

    /// Pops the next task: own deque front, then injector front, then steal
    /// from the back of another worker's deque.
    fn find_task(&self, me: Option<usize>) -> Option<Task<'env>> {
        if let Some(idx) = me {
            if let Some(task) = self.locals[idx].lock().unwrap().pop_front() {
                return Some(task);
            }
        }
        if let Some(task) = self.injector.lock().unwrap().pop_front() {
            return Some(task);
        }
        let n = self.locals.len();
        let start = me.map_or(0, |i| i + 1);
        for off in 0..n {
            let victim = (start + off) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(task) = self.locals[victim].lock().unwrap().pop_back() {
                self.stolen.fetch_add(1, Ordering::Relaxed);
                return Some(task);
            }
        }
        None
    }

    fn has_queued(&self) -> bool {
        if !self.injector.lock().unwrap().is_empty() {
            return true;
        }
        self.locals.iter().any(|q| !q.lock().unwrap().is_empty())
    }

    /// Executes one task, decrementing `pending` and waking waiters even if
    /// the task panics (so joins observe the failure instead of hanging).
    fn run_task(&self, task: Task<'env>) {
        struct Done<'a, 'env>(&'a PoolScope<'env>);
        impl Drop for Done<'_, '_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.panicked.store(true, Ordering::SeqCst);
                }
                self.0.pending.fetch_sub(1, Ordering::SeqCst);
                let _guard = self.0.idle.lock().unwrap();
                self.0.wakeup.notify_all();
            }
        }
        let _done = Done(self);
        task(self);
    }

    fn worker_loop(&self, idx: usize) {
        WORKER.set(Some((self.identity(), idx)));
        loop {
            if self.panicked.load(Ordering::SeqCst) {
                break;
            }
            if let Some(task) = self.find_task(Some(idx)) {
                self.run_task(task);
                continue;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let guard = self.idle.lock().unwrap();
            if self.has_queued()
                || self.shutdown.load(Ordering::SeqCst)
                || self.panicked.load(Ordering::SeqCst)
            {
                continue;
            }
            let _ = self
                .wakeup
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap();
        }
    }
}

/// The worker width a `jobs` request actually gets: `jobs` capped at the
/// host's available parallelism, floored at 1. Worker threads beyond the
/// physical core count cannot run concurrently — on an oversubscribed host
/// every task handoff is a context switch and every parked worker's poll
/// steals time from the one doing work — so callers size their pools with
/// this before [`scope`]. Build outputs are byte-identical for every worker
/// width, so the cap only ever changes wall time, never results. Tests that
/// need a specific width (e.g. to force interleavings) call [`scope`] with
/// an exact count instead.
pub fn effective_jobs(jobs: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    jobs.min(cores).max(1)
}

/// Runs `f` against a pool of `jobs` workers (the calling thread counts as
/// one of them). Tasks spawned inside the scope are guaranteed to finish
/// before `scope` returns; with `jobs <= 1` no threads are spawned and every
/// task runs on the calling thread during joins and teardown. The width is
/// used exactly as given — user-facing callers should pass it through
/// [`effective_jobs`] first so an oversized `--jobs` does not oversubscribe
/// the host.
///
/// # Panics
///
/// Propagates panics from pool tasks.
pub fn scope<'env, R>(jobs: usize, f: impl FnOnce(&PoolScope<'env>) -> R) -> R {
    let pool = PoolScope::new(jobs);
    if !pool.is_parallel() {
        let result = f(&pool);
        pool.help_until(|| pool.pending.load(Ordering::SeqCst) == 0);
        return result;
    }

    /// Flags shutdown on drop so workers exit even when `f` or a helped
    /// task unwinds — otherwise `std::thread::scope`'s implicit join would
    /// wait forever on parked workers.
    struct Shutdown<'a, 'env>(&'a PoolScope<'env>);
    impl Drop for Shutdown<'_, '_> {
        fn drop(&mut self) {
            self.0.shutdown.store(true, Ordering::SeqCst);
            let _guard = self.0.idle.lock().unwrap();
            self.0.wakeup.notify_all();
        }
    }

    std::thread::scope(|s| {
        let pool = &pool;
        let _shutdown = Shutdown(pool);
        for idx in 0..pool.locals.len() {
            s.spawn(move || pool.worker_loop(idx));
        }
        let result = f(pool);
        // Drain every outstanding task before releasing the workers.
        pool.help_until(|| pool.pending.load(Ordering::SeqCst) == 0);
        result
    })
}

/// Applies `f` to each item, fanning out one pool task per *batch* (a group
/// of item indices) instead of one per item — the fixed per-task cost
/// (allocation, queue traffic, steal attempts) is paid per batch, which is
/// what makes wide fan-outs of tiny items profitable. `batches` must be
/// disjoint and cover every index exactly once; schedule the costliest
/// batch first (the injector is FIFO). `f` receives each item's original
/// index and must touch only its own item; items come back in their original
/// positions, so results are independent of execution order.
pub fn run_batched<'env, T, F>(
    pool: Option<&PoolScope<'env>>,
    mut items: Vec<T>,
    batches: &[Vec<usize>],
    f: F,
) -> Vec<T>
where
    T: Send + 'env,
    F: Fn(usize, &mut T) + Send + Sync + 'env,
{
    #[cfg(debug_assertions)]
    {
        let mut seen = vec![false; items.len()];
        for &i in batches.iter().flatten() {
            assert!(!seen[i], "index {i} appears in two batches");
            seen[i] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "batches must cover every item index"
        );
    }
    let parallel = pool.is_some_and(|p| p.is_parallel()) && batches.len() > 1;
    if !parallel {
        for batch in batches {
            for &i in batch {
                f(i, &mut items[i]);
            }
        }
        return items;
    }
    let pool = pool.unwrap();
    let total = items.len();
    let slots: std::sync::Arc<Vec<Mutex<Option<T>>>> = std::sync::Arc::new(
        items
            .into_iter()
            .map(|item| Mutex::new(Some(item)))
            .collect(),
    );
    let remaining = std::sync::Arc::new(AtomicUsize::new(total));
    let f = std::sync::Arc::new(f);
    for batch in batches {
        let batch = batch.clone();
        let slots = std::sync::Arc::clone(&slots);
        let remaining = std::sync::Arc::clone(&remaining);
        let f = std::sync::Arc::clone(&f);
        pool.spawn(move |_| {
            for i in batch {
                let mut slot = slots[i].lock().unwrap();
                f(i, slot.as_mut().expect("slot is filled until taken below"));
                drop(slot);
                // Release the slot before announcing completion, so the
                // take() below cannot observe an unfinished item.
                remaining.fetch_sub(1, Ordering::SeqCst);
            }
        });
    }
    pool.help_until(|| remaining.load(Ordering::SeqCst) == 0);
    (0..slots.len())
        .map(|i| {
            slots[i]
                .lock()
                .unwrap()
                .take()
                .expect("every task ran exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    #[test]
    fn sequential_scope_runs_everything_on_caller() {
        let count = AtomicU32::new(0);
        scope(1, |pool| {
            for _ in 0..10 {
                pool.spawn(|_| {
                    count.fetch_add(1, Ordering::SeqCst);
                });
            }
            assert!(!pool.is_parallel());
            pool.help_until(|| count.load(Ordering::SeqCst) == 10);
        });
        assert_eq!(count.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn scope_drains_pending_tasks_before_returning() {
        let count = Arc::new(AtomicU32::new(0));
        let inner = Arc::clone(&count);
        scope(4, move |pool| {
            for _ in 0..100 {
                let inner = Arc::clone(&inner);
                pool.spawn(move |_| {
                    inner.fetch_add(1, Ordering::SeqCst);
                });
            }
            // No explicit join: teardown must finish them all.
        });
        assert_eq!(count.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn tasks_borrow_the_environment() {
        let data = [1u64, 2, 3, 4, 5];
        let total = AtomicU64::new(0);
        scope(3, |pool| {
            for chunk in data.chunks(2) {
                let total = &total;
                pool.spawn(move |_| {
                    total.fetch_add(chunk.iter().sum::<u64>(), Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn nested_spawns_share_the_same_workers() {
        // Module-level tasks each fan out function-level subtasks and join
        // them with help_until — the layout the build driver uses.
        let done = Arc::new(AtomicU32::new(0));
        scope(4, |pool| {
            for _ in 0..6 {
                let done = Arc::clone(&done);
                pool.spawn(move |pool| {
                    let sub = Arc::new(AtomicU32::new(0));
                    for _ in 0..8 {
                        let sub = Arc::clone(&sub);
                        pool.spawn(move |_| {
                            sub.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    pool.help_until(|| sub.load(Ordering::SeqCst) == 8);
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            pool.help_until(|| done.load(Ordering::SeqCst) == 6);
        });
        assert_eq!(done.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn run_batched_preserves_positions_and_runs_each_once() {
        for jobs in [1, 4] {
            let items: Vec<u64> = (0..41).collect();
            // Uneven batches in arbitrary order, covering every index once.
            let batches: Vec<Vec<usize>> = vec![
                (30..41).collect(),
                (0..7).rev().collect(),
                (7..30).step_by(2).collect(),
                (8..30).step_by(2).collect(),
            ];
            let out = scope(jobs, |pool| {
                run_batched(Some(pool), items, &batches, |i, item| {
                    *item = *item * 10 + i as u64 % 10;
                })
            });
            let expect: Vec<u64> = (0..41).map(|i| i * 10 + i % 10).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn run_batched_spawns_one_task_per_batch() {
        let items: Vec<u32> = (0..12).collect();
        let batches: Vec<Vec<usize>> = vec![(0..6).collect(), (6..12).collect()];
        let (out, stats) = scope(4, |pool| {
            let out = run_batched(Some(pool), items, &batches, |_, x| *x += 1);
            (out, pool.stats())
        });
        assert_eq!(out, (1..13).collect::<Vec<u32>>());
        assert_eq!(stats.spawned, 2, "one pool task per batch, not per item");
    }

    #[test]
    fn run_batched_without_pool_is_sequential() {
        let batches = vec![vec![2, 0], vec![1]];
        let out = run_batched::<u32, _>(None, vec![1, 2, 3], &batches, |_, x| *x += 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn stats_count_spawns() {
        let stats = scope(2, |pool| {
            for _ in 0..5 {
                pool.spawn(|_| {});
            }
            pool.help_until(|| pool.pending.load(Ordering::SeqCst) == 0);
            pool.stats()
        });
        assert_eq!(stats.spawned, 5);
    }

    #[test]
    fn task_panic_propagates_not_hangs() {
        let result = std::panic::catch_unwind(|| {
            scope(3, |pool| {
                pool.spawn(|_| panic!("task failed"));
                pool.help_until(|| false); // must re-raise, not spin forever
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn effective_jobs_caps_at_host_parallelism() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(effective_jobs(0), 1);
        assert_eq!(effective_jobs(1), 1);
        assert_eq!(effective_jobs(usize::MAX), cores);
        assert!(effective_jobs(8) <= cores.max(8));
    }

    #[test]
    fn jobs_reports_requested_width() {
        scope(5, |pool| {
            assert_eq!(pool.jobs(), 5);
            assert!(pool.is_parallel());
        });
    }
}
