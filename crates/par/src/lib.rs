//! # rhsd-par
//!
//! Zero-dependency scoped thread pool — the single home of all RHSD
//! parallelism (the workspace's clippy config disallows raw
//! `std::thread::spawn` and `thread::Builder` everywhere else except
//! `rhsd-serve`'s connection threads).
//!
//! Design goals, in priority order:
//!
//! 1. **Bit-identical results at any thread count.** Work is split with
//!    a *fixed chunk schedule*: chunk sizes depend only on the problem
//!    shape ([`chunk_units`]), never on the thread count, and every
//!    chunk writes a disjoint output slice using exactly the arithmetic
//!    the serial code used. Results are committed in index order, so
//!    `--threads 1` and `--threads 64` produce the same bytes.
//! 2. **Zero dependencies.** Plain `std::thread` workers, a
//!    `Mutex<VecDeque>` + `Condvar` job queue, and an `mpsc` completion
//!    channel per parallel section.
//! 3. **No nested deadlocks.** Workers mark themselves with a
//!    thread-local flag; a parallel section entered *from a worker*
//!    (e.g. a conv inside a parallel region scan), or inside [`inline`],
//!    runs inline serially.
//!
//! A chunk runs on whichever worker is free, except inside [`pinned`],
//! where chunk `ci` runs on worker `ci mod workers`. That placement
//! decides only which thread's heap a chunk's allocations come from,
//! never what the chunk computes.
//!
//! The pool size comes from, in order: an explicit [`set_threads`] call
//! (the `--threads` CLI flag), the `RHSD_THREADS` environment variable,
//! and finally [`std::thread::available_parallelism`].
//!
//! Observability: parallel sections bump the `par.sections`,
//! `par.inline_sections` and `par.tasks` counters, queue waits land in
//! the `par.queue_wait` histogram and idle workers in
//! `par.worker_parks` (all through `rhsd-obs`, so they cost one atomic
//! load when observability is off). Per-stage speedup is derived by
//! comparing the span trees of two ledgers (their `run_end` lines) whose
//! manifests record different `threads` values.
//!
//! # Safety argument (scoped jobs on `'static` workers)
//!
//! Jobs borrow caller state (`&mut` output chunks, `&` closures), but
//! the worker queue requires `'static` payloads, so [`Pool::run_scoped`]
//! erases the lifetime with a `transmute`. This is sound because the
//! submitting call **blocks until every job has reported completion**
//! over the channel (even when a job panics — panics are caught,
//! shipped back and re-raised after the barrier), so no job — and
//! therefore no borrow — can outlive the stack frame that owns the
//! borrowed data. This is the classic `scoped_threadpool` construction.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

/// Minimum number of scalar operations a single task should carry;
/// [`chunk_units`] sizes chunks so queue overhead stays negligible.
pub const MIN_TASK_WORK: usize = 16_384;

/// A type-erased unit of work on the queue.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued job and the worker it is pinned to, if any.
type Queued = (Option<usize>, Job);

/// State shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<VecDeque<Queued>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    static PINNED: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is an `rhsd-par` worker. Parallel
/// sections entered from a worker run inline to avoid self-deadlock.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Runs `f` on the calling thread with every parallel section it enters
/// run inline, as if the thread were a pool worker. A serial phase
/// between two parallel ones (training's per-region heads) then pays no
/// fork-join for sections too small to win from one.
pub fn inline<R>(f: impl FnOnce() -> R) -> R {
    /// Restores the thread's worker flag, also when `f` panics.
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            IN_WORKER.with(|w| w.set(self.0));
        }
    }
    let _reset = Reset(IN_WORKER.with(|w| w.replace(true)));
    f()
}

/// Runs `f` with every parallel section the calling thread enters in
/// it placing chunk `ci` on worker `ci mod workers`, not on whichever
/// worker is free first.
///
/// This is for phases whose chunks leave memory behind for a later
/// section: training's per-region forward passes, whose tapes the
/// per-region backward passes free. glibc gives each worker its own
/// heap and keeps the pages it frees, so under free placement
/// a batch whose regions all went to one worker (because the other
/// woke late) left that worker's heap holding every tape of the batch
/// for the rest of the process, and the peak resident memory of a run
/// depended on how often that had happened. Pinned, a region's forward
/// and backward run on the same worker in every run. The cost is that
/// a worker idles while its peer still has pinned chunks, so chunks
/// should be of like size.
pub fn pinned<R>(f: impl FnOnce() -> R) -> R {
    /// Restores the thread's placement flag, also when `f` panics.
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            PINNED.with(|p| p.set(self.0));
        }
    }
    let _reset = Reset(PINNED.with(|p| p.replace(true)));
    f()
}

/// Locks a mutex, recovering the guard if a previous holder panicked
/// (pool state stays consistent across job panics by construction).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poison) => poison.into_inner(),
    }
}

/// The loop of worker `me`: runs the oldest queued job that is pinned
/// to it or to no worker.
fn worker_loop(shared: &Shared, me: usize) {
    IN_WORKER.with(|f| f.set(true));
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                let mine = q.iter().position(|(to, _)| to.is_none_or(|w| w == me));
                if let Some((_, job)) = mine.and_then(|i| q.remove(i)) {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // The condvar wait needs the queue guard, so this count
                // is unavoidably nested. It is safe: the registry lock
                // never acquires the pool lock (rhsd-obs has no rhsd-par
                // dependency), so the pool→registry order is acyclic.
                rhsd_obs::counter("par.worker_parks", 1); // lint:allow(L9)
                q = match shared.work_ready.wait(q) {
                    Ok(g) => g,
                    Err(poison) => poison.into_inner(),
                };
            }
        };
        job();
    }
}

/// A fixed-size scoped thread pool.
///
/// `Pool::new(1)` spawns no workers and runs everything inline, so the
/// serial path has zero queue overhead. The global instance behind
/// [`map`]/[`for_each_mut`] is managed by [`set_threads`]; local pools
/// are mainly for tests.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// Creates a pool with `threads` worker threads (clamped to ≥ 1;
    /// a size of 1 means "serial inline", no workers are spawned).
    /// If the OS refuses some spawns the pool degrades to fewer
    /// workers rather than failing.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let n_workers = if threads > 1 { threads } else { 0 };
        // Workers are numbered by the spawns that succeeded, so a pinned
        // job's worker `ci mod workers.len()` always exists.
        let mut workers = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            let shared = Arc::clone(&shared);
            let me = workers.len();
            #[expect(
                clippy::disallowed_methods,
                reason = "the pool's own workers: the one home of pipeline threads"
            )]
            let spawned = thread::Builder::new()
                .name(format!("rhsd-par-{me}"))
                .spawn(move || worker_loop(&shared, me));
            if let Ok(handle) = spawned {
                workers.push(handle);
            }
        }
        Pool {
            shared,
            workers,
            threads,
        }
    }

    /// The configured thread count (what the run manifest records).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job to completion, blocking until all have finished.
    /// Inside [`pinned`], job `i` runs on worker `i mod workers`. The
    /// first job panic (in submission order of observation) is
    /// re-raised on the caller *after* the barrier, so borrows stay
    /// sound even on the unwind path.
    fn run_scoped<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        let n = jobs.len();
        if n == 0 {
            return;
        }
        let pin = PINNED.with(Cell::get);
        let (tx, rx) = channel::<thread::Result<()>>();
        // Build (and lifetime-erase) every wrapper *before* taking the
        // queue lock: construction touches rhsd-obs (the queue-wait
        // stopwatch), and the pool-lock critical section must stay free
        // of registry calls (lint L9's never-nest discipline).
        let mut wrappers: Vec<Queued> = Vec::with_capacity(n);
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            let queued = rhsd_obs::Stopwatch::start();
            let wrapper: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                rhsd_obs::record("par.queue_wait", queued.secs());
                let result = catch_unwind(AssertUnwindSafe(job));
                // The receiver outlives the barrier below; a send
                // failure would mean the caller vanished, which the
                // barrier makes impossible.
                let _ = tx.send(result);
            });
            let to = pin.then_some(i % self.workers.len());
            // SAFETY: `wrapper` borrows data that lives for
            // `'scope`. We block on `rx` below until all `n`
            // wrappers have sent their completion result, and each
            // wrapper sends only after the borrowed job has fully
            // run (panics included, via catch_unwind). Hence every
            // erased borrow ends before this frame returns.
            wrappers.push((to, unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(wrapper)
            }));
        }
        {
            let mut q = lock(&self.shared.queue);
            q.extend(wrappers);
            // Notify while holding the lock so a worker between its
            // empty-queue check and `wait` cannot miss the wakeup.
            self.shared.work_ready.notify_all();
        }
        drop(tx);
        let mut first_panic = None;
        for _ in 0..n {
            match rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(payload)) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
                // All senders live inside queued wrappers and every
                // wrapper runs exactly once before the pool can shut
                // down, so the channel cannot close early.
                Err(_) => unreachable!("rhsd-par: completion channel closed early"),
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    }

    /// Applies `f` to disjoint chunks of `data` (`chunk` elements per
    /// task, last one ragged), in parallel when profitable.
    ///
    /// `f(ci, piece)` receives the chunk index and the mutable slice
    /// `data[ci*chunk ..]`. Chunks are disjoint, so any execution order
    /// yields identical memory contents — determinism needs only that
    /// `f` itself is deterministic per chunk.
    ///
    /// Runs inline (serially, same iteration order) when the pool has
    /// no workers, there is a single chunk, or the caller is already a
    /// pool worker.
    pub fn for_each_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk > 0, "rhsd-par: chunk size must be >= 1");
        if data.is_empty() {
            return;
        }
        let n_chunks = data.len().div_ceil(chunk);
        if self.workers.is_empty() || n_chunks <= 1 || in_worker() {
            rhsd_obs::counter("par.inline_sections", 1);
            for (ci, piece) in data.chunks_mut(chunk).enumerate() {
                f(ci, piece);
            }
            return;
        }
        rhsd_obs::counter("par.sections", 1);
        rhsd_obs::counter("par.tasks", n_chunks as u64);
        // Capture the submitting thread's live span stack once so spans
        // opened inside worker jobs attribute under the same tree path
        // at any thread count (the inline path above inherits it for
        // free by running on the submitting thread).
        let base = rhsd_obs::current_stack();
        let baseref = &base;
        let fref = &f;
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, piece)| {
                Box::new(move || {
                    let _stack = rhsd_obs::base_stack(baseref);
                    fref(ci, piece)
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.run_scoped(jobs);
    }

    /// Deterministic parallel map: computes `f(0..n)` and returns the
    /// results **in index order** regardless of execution order. Each
    /// task evaluates `chunk` consecutive indices.
    pub fn map<T, F>(&self, n: usize, chunk: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        self.for_each_mut(&mut slots, chunk, |ci, piece| {
            for (j, slot) in piece.iter_mut().enumerate() {
                *slot = Some(f(ci * chunk + j));
            }
        });
        slots
            .into_iter()
            .map(|slot| match slot {
                Some(v) => v,
                None => unreachable!("rhsd-par: map slot left unfilled"),
            })
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            // Store under the queue lock so no worker can check the
            // flag and then sleep through the notification.
            let _q = lock(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Parses an `RHSD_THREADS`-style / `--threads`-style value; `None` for
/// absent, empty, non-numeric or non-positive input.
pub fn parse_threads(value: Option<&str>) -> Option<usize> {
    match value?.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

fn hardware_threads() -> usize {
    thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The thread count the global pool starts with: `RHSD_THREADS` when
/// set to a positive integer, else the machine's available parallelism.
pub fn default_threads() -> usize {
    parse_threads(std::env::var("RHSD_THREADS").ok().as_deref()).unwrap_or_else(hardware_threads)
}

fn global() -> &'static Mutex<Arc<Pool>> {
    static GLOBAL: OnceLock<Mutex<Arc<Pool>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Arc::new(Pool::new(default_threads()))))
}

fn global_pool() -> Arc<Pool> {
    Arc::clone(&lock(global()))
}

/// Resizes the global pool (the `--threads` flag lands here). In-flight
/// parallel sections keep the old pool alive until they finish; its
/// workers are joined when the last reference drops.
pub fn set_threads(threads: usize) {
    let threads = threads.max(1);
    let mut g = lock(global());
    if g.threads() != threads {
        *g = Arc::new(Pool::new(threads));
    }
}

/// The global pool's configured thread count (recorded in the run
/// manifest and the bench record so `bench-diff` compares like-for-like).
pub fn threads() -> usize {
    global_pool().threads()
}

/// [`Pool::for_each_mut`] on the global pool.
pub fn for_each_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    global_pool().for_each_mut(data, chunk, f);
}

/// [`Pool::map`] on the global pool.
pub fn map<T, F>(n: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    global_pool().map(n, chunk, f)
}

/// Chunk size (in units) such that one task carries at least
/// [`MIN_TASK_WORK`] scalar operations, given `work_per_unit` ops per
/// unit. Depends only on the problem shape — never on the thread
/// count — so the task split (and thus the floating-point reduction
/// order within each task) is identical for every pool size.
pub fn chunk_units(units: usize, work_per_unit: usize) -> usize {
    MIN_TASK_WORK
        .div_ceil(work_per_unit.max(1))
        .clamp(1, units.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_results_in_index_order() {
        let pool = Pool::new(4);
        let out = pool.map(100, 3, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_mut_covers_every_element_once() {
        let pool = Pool::new(4);
        let mut data = vec![0usize; 1000];
        pool.for_each_mut(&mut data, 7, |ci, piece| {
            for (j, v) in piece.iter_mut().enumerate() {
                *v += ci * 7 + j + 1;
            }
        });
        assert_eq!(data, (1..=1000).collect::<Vec<_>>());
    }

    #[test]
    fn results_are_bit_identical_across_pool_sizes() {
        let run = |threads: usize| -> Vec<f32> {
            let pool = Pool::new(threads);
            // Non-associative float accumulation per slot; slots are
            // disjoint so the per-slot order is what matters.
            pool.map(64, 5, |i| {
                let mut acc = 0.0f32;
                for k in 0..2000 {
                    acc += ((i * 31 + k) as f32 * 0.001).sin();
                }
                acc
            })
        };
        let serial = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(serial, run(threads), "threads={threads}");
        }
    }

    #[test]
    fn job_panic_propagates_and_pool_survives() {
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(16, 1, |i| {
                if i == 7 {
                    panic!("job 7 exploded");
                }
                i
            })
        }));
        let payload = result.expect_err("panic should propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("exploded"), "unexpected payload: {msg}");
        // The pool must stay usable after a job panic.
        assert_eq!(pool.map(8, 2, |i| i + 1), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn nested_sections_run_inline_without_deadlock() {
        let pool = Pool::new(4);
        let out = pool.map(8, 1, |i| {
            assert!(in_worker());
            // Re-entering the same pool from a worker must not deadlock.
            let inner = pool.map(4, 1, |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| 4 * i * 10 + 6).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn inline_runs_sections_on_the_caller_and_restores_the_flag() {
        let pool = Pool::new(4);
        let caller = thread::current().id();
        let out = inline(|| {
            assert!(in_worker());
            pool.map(8, 1, |i| {
                assert_eq!(thread::current().id(), caller);
                i * 2
            })
        });
        assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>());
        assert!(!in_worker(), "the caller's flag is restored");
    }

    #[test]
    fn pinned_sections_run_chunk_ci_on_worker_ci_mod_workers() {
        let pool = Pool::new(3);
        let worker = |_: usize| thread::current().name().map(str::to_owned);
        for _ in 0..20 {
            let names = pinned(|| pool.map(7, 1, worker));
            let expect: Vec<_> = (0..7)
                .map(|i| Some(format!("rhsd-par-{}", i % 3)))
                .collect();
            assert_eq!(names, expect);
        }
        assert!(!PINNED.with(Cell::get), "the caller's flag is restored");
        // Outside `pinned`, any worker may take any chunk.
        let free = pool.map(7, 1, worker);
        assert!(free
            .iter()
            .all(|n| n.as_deref().is_some_and(|n| n.starts_with("rhsd-par-"))));
    }

    #[test]
    fn serial_pool_spawns_no_workers_and_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.workers.len(), 0);
        assert_eq!(pool.map(10, 2, |i| i), (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "chunk size must be >= 1")]
    fn zero_chunk_is_rejected() {
        Pool::new(2).for_each_mut(&mut [1, 2, 3], 0, |_, _| {});
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let pool = Pool::new(4);
        let mut empty: [u8; 0] = [];
        pool.for_each_mut(&mut empty, 4, |_, _| panic!("must not run"));
        assert!(pool.map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn chunk_units_respects_min_work_and_bounds() {
        // Heavy units: one unit per task.
        assert_eq!(chunk_units(100, MIN_TASK_WORK * 2), 1);
        // Light units: batched up to the unit count.
        assert_eq!(chunk_units(4, 1), 4);
        assert_eq!(chunk_units(1_000_000, 1), MIN_TASK_WORK);
        // Degenerate shapes stay well-formed.
        assert_eq!(chunk_units(0, 0), 1);
        assert_eq!(chunk_units(10, MIN_TASK_WORK / 10), 10);
    }

    #[test]
    fn chunk_units_edge_cases_stay_in_bounds() {
        // Zero work per unit is treated as one op, not a division by zero.
        assert_eq!(chunk_units(100, 0), chunk_units(100, 1));
        // Zero units with zero work still yields a legal chunk length.
        assert_eq!(chunk_units(0, usize::MAX), 1);
        // A single unit is never split or batched further.
        assert_eq!(chunk_units(1, 1), 1);
        assert_eq!(chunk_units(1, usize::MAX), 1);
        // Exact threshold: MIN_TASK_WORK-weight units go one per task;
        // one op lighter and div_ceil still rounds the batch up to 2.
        assert_eq!(chunk_units(100, MIN_TASK_WORK), 1);
        assert_eq!(chunk_units(100, MIN_TASK_WORK - 1), 2);
        assert_eq!(chunk_units(100, MIN_TASK_WORK + 1), 1);
        // Astronomical per-unit work must not overflow.
        assert_eq!(chunk_units(usize::MAX, usize::MAX), 1);
        // The result is always a valid chunk length, and heavier units
        // never produce larger batches.
        let weights = [0, 1, 7, 1000, MIN_TASK_WORK, MIN_TASK_WORK * 3];
        for units in [0usize, 1, 2, 17, 100_000] {
            let mut prev = usize::MAX;
            for w in weights {
                let c = chunk_units(units, w);
                assert!((1..=units.max(1)).contains(&c), "units={units} w={w}");
                assert!(c <= prev, "batching must shrink as work grows");
                prev = c;
            }
        }
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-3")), None);
        assert_eq!(parse_threads(Some("abc")), None);
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 16 ")), Some(16));
    }

    #[test]
    fn set_threads_resizes_the_global_pool() {
        set_threads(3);
        assert_eq!(threads(), 3);
        assert_eq!(
            map(9, 2, |i| i * 2),
            (0..9).map(|i| i * 2).collect::<Vec<_>>()
        );
        set_threads(1);
        assert_eq!(threads(), 1);
        // Global results are thread-count invariant, so concurrent
        // tests using the global pool stay correct during the swap.
        assert_eq!(
            map(9, 2, |i| i * 2),
            (0..9).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test needs callers outside the pool"
    )]
    fn many_concurrent_callers_share_one_pool() {
        let pool = Arc::new(Pool::new(4));
        let mut handles = Vec::new();
        for t in 0..8 {
            let pool = Arc::clone(&pool);
            handles.push(thread::spawn(move || {
                let out = pool.map(50, 4, |i| i + t);
                assert_eq!(out, (0..50).map(|i| i + t).collect::<Vec<_>>());
            }));
        }
        for h in handles {
            h.join().expect("caller thread panicked");
        }
    }
}
