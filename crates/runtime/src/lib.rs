//! A persistent, deterministic worker pool for the suite's hot paths.
//!
//! PrivTree workloads are build-once/read-many: a release is constructed
//! level by level (disjoint segment splits, noise-free scoring) and then
//! serves millions of range-count queries. Both sides decompose into
//! *pure, independent* tasks whose results only need to come back in
//! input order — so parallelism must never change a single bit of output.
//! [`WorkerPool`] provides exactly that contract as a fork-join:
//!
//! * **chunked tasks**: a dispatch cuts its items into contiguous chunks
//!   (optionally balanced by a caller-supplied weight, e.g. points per
//!   segment or queries per slice);
//! * **the dispatching thread computes**: it posts the chunk set, then
//!   claims and runs chunks itself next to the pool's helper threads,
//!   which are spawned once per pool (no per-level `std::thread::scope`
//!   spawning). Every thread claims its next chunk through one atomic
//!   index, so whatever no helper has claimed the caller runs: a dispatch
//!   only ever waits for chunks another thread is already running. That
//!   keeps concurrent callers of the shared pool (the serving reactor and
//!   an in-process publisher's PrivTree builds) moving even while every
//!   helper is busy with someone else's chunks;
//! * **ordered collection**: chunk `i`'s output lands in slot `i`,
//!   whichever thread ran it, and the caller concatenates the slots, so
//!   the returned `Vec` is identical — bitwise — to what a sequential loop
//!   produces, regardless of worker count or scheduling. Randomness never
//!   enters a pooled task: Laplace draws stay sequential arena-order
//!   passes in the builders;
//! * **spin, then park**: a helper that runs out of chunks, and a caller
//!   waiting for the last chunk a helper is still running, keep yielding
//!   the core for a fixed 100 µs before they park. Dispatches that follow
//!   each other within that window (a busy server's request gap) find the
//!   helpers awake instead of paying a futex wake-up each. The price is
//!   CPU: after every dispatch each helper stays runnable for up to
//!   100 µs, and on a loaded machine that time is taken from other
//!   threads only when they have nothing better to run, since every spin
//!   iteration yields.
//!
//! The pool is shared process-wide through [`global`], sized from
//! `PRIVTREE_POOL_WORKERS` or the machine's parallelism. Either way the
//! number counts the threads that compute a dispatch, the caller
//! included: `PRIVTREE_POOL_WORKERS=N` spawns `N − 1` helpers, so a
//! 2-core machine runs one. Benches and tests construct private pools
//! with [`WorkerPool::new`] to compare worker counts explicitly.
//!
//! Scoped borrows: tasks may capture non-`'static` references (the point
//! permutation's sub-slices, a borrowed synopsis). [`WorkerPool`] makes
//! this sound the same way scoped thread pools do — a dispatch returns or
//! unwinds only after every one of its chunks has finished (a panic in
//! any chunk, on any thread, is re-raised in the caller then), so no
//! borrow outlives the call.

pub mod failpoints;
pub mod readiness;
pub mod shutdown;
pub mod telemetry;

pub use shutdown::{install_termination_handler, ShutdownSignal};

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// A shared slot holding an `Arc<T>` that readers load cheaply and
/// writers replace atomically — the publication primitive for
/// build-once/read-many state (the epoch engine's current snapshot).
///
/// Readers never observe a torn or intermediate value: [`ArcCell::load`]
/// clones the `Arc` under a read lock (two atomic ops, no allocation, no
/// contention between readers), and a loaded snapshot stays valid for as
/// long as the caller holds it, no matter how many stores happen
/// afterwards. Writers swap the pointer under the write lock; the old
/// value is dropped when its last reader lets go. Lock poisoning is
/// ignored (an `Arc` swap cannot leave the slot in a half-written state),
/// so a panicked writer never wedges the readers.
pub struct ArcCell<T> {
    slot: RwLock<Arc<T>>,
}

impl<T> ArcCell<T> {
    /// A cell holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        Self {
            slot: RwLock::new(value),
        }
    }

    /// The current value (an `Arc` clone; never blocks on other readers).
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Publish `value`, returning the previous one.
    pub fn swap(&self, value: Arc<T>) -> Arc<T> {
        std::mem::replace(
            &mut self.slot.write().unwrap_or_else(|e| e.into_inner()),
            value,
        )
    }

    /// Publish `value`, dropping the previous one (unless still loaded).
    pub fn store(&self, value: Arc<T>) {
        drop(self.swap(value));
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ArcCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ArcCell").field(&self.load()).finish()
    }
}

thread_local! {
    /// True on pool helper threads. A dispatch made from a chunk a helper
    /// runs goes inline: the pool's other threads are busy with the outer
    /// dispatch, so posting would add the hand-off and no parallelism.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// How long an idle helper, or a caller waiting for a helper's chunk,
/// keeps yielding the core before it parks: about one request gap of a
/// busy server, so back-to-back dispatches find the helpers awake.
const SPIN: Duration = Duration::from_micros(100);

/// A fork-join pool: each dispatch runs on its caller plus
/// `workers - 1` helper threads spawned once.
///
/// See the crate docs for the determinism contract. Dropping the pool
/// stops and joins every helper.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

/// What callers and helpers share: the posted tasks, oldest first.
struct Shared {
    state: Mutex<State>,
    /// Signalled when a task is posted or the pool shuts down.
    wake: Condvar,
    /// `state.tasks.len()`, readable without the lock so spinning helpers
    /// notice a post. It publishes nothing (the task itself is taken
    /// under the lock), so `Relaxed` suffices.
    queued: AtomicUsize,
}

struct State {
    /// Posted tasks that may still have unclaimed chunks.
    tasks: VecDeque<Arc<Task>>,
    /// Helpers waiting on `Shared::wake`.
    parked: usize,
    shutdown: bool,
}

/// One dispatch: `job(i)` for every chunk `i` in `0..chunks`.
struct Task {
    /// The caller's per-chunk closure, its lifetime erased (see
    /// [`WorkerPool::fork_join`]).
    job: &'static (dyn Fn(usize) + Sync),
    chunks: usize,
    /// The next unclaimed chunk. A claim publishes nothing (the task
    /// reached every thread through the `Shared` lock), so `Relaxed`.
    next: AtomicUsize,
    /// Chunks finished. Each finisher's `Release` increment pairs with
    /// the caller's `Acquire` load in [`Task::wait`], so the caller sees
    /// every chunk's writes.
    done: AtomicUsize,
    /// The first panic a chunk raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The dispatching thread, unparked by whoever finishes the last chunk.
    caller: Thread,
}

/// Lock `mutex`, ignoring poison: no pool lock is held across a chunk or
/// any other code that can panic, so every update is whole.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Task {
    /// Claim and run chunks until every chunk is claimed. A panicking
    /// chunk is recorded and still counts as finished.
    fn run_chunks(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.job)(i))) {
                lock(&self.panic).get_or_insert(payload);
            }
            // `job` is not touched past this point: once the count is
            // complete the caller may return and end its borrows
            if self.done.fetch_add(1, Ordering::Release) + 1 == self.chunks {
                self.caller.unpark();
            }
        }
    }

    /// On the caller: return once every chunk has finished, yielding the
    /// core for [`SPIN`] and then parking.
    fn wait(&self) {
        let start = Instant::now();
        while self.done.load(Ordering::Acquire) < self.chunks {
            if start.elapsed() < SPIN {
                thread::yield_now();
            } else {
                thread::park();
            }
        }
    }
}

impl Shared {
    /// Queue `task` and wake parked helpers, at most one per chunk the
    /// caller leaves to them.
    fn post(&self, task: &Arc<Task>) {
        let mut state = lock(&self.state);
        state.tasks.push_back(Arc::clone(task));
        self.queued.store(state.tasks.len(), Ordering::Relaxed);
        for _ in 0..state.parked.min(task.chunks - 1) {
            self.wake.notify_one();
        }
    }

    /// Unqueue `task`, whose chunks are all claimed.
    fn retire(&self, task: &Arc<Task>) {
        let mut state = lock(&self.state);
        state.tasks.retain(|queued| !Arc::ptr_eq(queued, task));
        self.queued.store(state.tasks.len(), Ordering::Relaxed);
    }

    /// The oldest queued task, or `None` once the pool shuts down. While
    /// nothing is queued, yield the core for [`SPIN`], then park.
    fn next_task(&self) -> Option<Arc<Task>> {
        let start = Instant::now();
        while self.queued.load(Ordering::Relaxed) == 0 && start.elapsed() < SPIN {
            thread::yield_now();
        }
        let mut state = lock(&self.state);
        loop {
            if state.shutdown {
                return None;
            }
            if let Some(task) = state.tasks.front() {
                return Some(Arc::clone(task));
            }
            state.parked += 1;
            state = self
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.parked -= 1;
        }
    }
}

/// A helper thread's life: join whichever dispatch is oldest.
fn helper(shared: &Shared) {
    IN_POOL_WORKER.set(true);
    while let Some(task) = shared.next_task() {
        task.run_chunks();
        shared.retire(&task);
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl WorkerPool {
    /// A pool in which `workers` threads (clamped to at least 1) compute
    /// each dispatch: the dispatching thread plus `workers - 1` helpers,
    /// spawned now.
    ///
    /// A 1-worker pool never spawns: dispatches run inline on the caller,
    /// which keeps single-core machines and sequential-baseline
    /// comparisons free of thread overhead.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                tasks: VecDeque::new(),
                parked: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            queued: AtomicUsize::new(0),
        });
        let handles = (1..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("privtree-worker-{i}"))
                    .spawn(move || helper(&shared))
                    .expect("failed to spawn pool helper")
            })
            .collect();
        Self {
            shared,
            handles,
            workers,
        }
    }

    /// Pool sized for this machine: `PRIVTREE_POOL_WORKERS` if set,
    /// otherwise `std::thread::available_parallelism()`. The number
    /// counts the dispatching thread, so `N` spawns `N - 1` helpers.
    pub fn for_machine() -> Self {
        let workers = std::env::var("PRIVTREE_POOL_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Self::new(workers)
    }

    /// Number of threads that compute a dispatch, the caller included.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Map `f` over `items` (chunks balanced by item count), returning
    /// results in input order. Bit-identical to
    /// `items.into_iter().map(f).collect()` for pure `f`.
    pub fn map_vec<T, R>(&self, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        self.map_vec_weighted(items, |_| 1, f)
    }

    /// Map `f` over `items` with contiguous chunks balanced by `weight`
    /// (e.g. points per segment — PrivTree levels are heavily skewed, so
    /// equal-item chunks would serialize one dense chunk on one worker).
    /// Results come back in input order; for pure `f` the output is
    /// bit-identical to a sequential loop for every worker count.
    pub fn map_vec_weighted<T, R>(
        &self,
        items: Vec<T>,
        weight: impl Fn(&T) -> usize,
        f: impl Fn(T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        if self.workers <= 1 || items.len() <= 1 || IN_POOL_WORKER.get() {
            return items.into_iter().map(f).collect();
        }

        // cut [0, n) into contiguous weight-balanced chunks; mild
        // oversubscription lets fast threads take a second helping
        let weights: Vec<usize> = items.iter().map(&weight).collect();
        let ranges = weighted_ranges(&weights, self.workers * 2);

        // carve the items into owned chunks, preserving order; the one
        // thread that claims chunk `i` takes its items
        let mut items = items.into_iter();
        let chunks: Vec<Mutex<Option<Vec<T>>>> = ranges
            .iter()
            .map(|r| Mutex::new(Some(items.by_ref().take(r.len()).collect())))
            .collect();
        concat(self.collect(chunks.len(), |i| {
            let chunk = lock(&chunks[i]).take().expect("each chunk runs once");
            chunk.into_iter().map(&f).collect()
        }))
    }

    /// Map `f` over shared references, in input order. Convenience for
    /// read-only fan-outs (per-level noise-free scoring).
    pub fn map_ref<T, R>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        self.map_vec(items.iter().collect(), |t: &T| f(t))
    }

    /// Cut `[0, len)` into at most `max_chunks` contiguous ranges, run `f`
    /// on each range (one pool chunk per range), and concatenate the
    /// per-range outputs in range order. The one copy of the
    /// "chunk an index space, fan out, flatten ordered" pattern used by
    /// batch answering, grid-cell precomputation and the baselines'
    /// histogram pass; for pure `f` the result is bit-identical to
    /// `f(0..len)` for every worker count. Runs `f(0..len)` inline when
    /// chunking cannot help.
    pub fn map_chunks<R: Send>(
        &self,
        len: usize,
        max_chunks: usize,
        f: impl Fn(Range<usize>) -> Vec<R> + Sync,
    ) -> Vec<R> {
        let ranges = chunk_ranges(len, max_chunks);
        if self.workers <= 1 || ranges.len() <= 1 {
            return f(0..len);
        }
        concat(self.collect(ranges.len(), |i| f(ranges[i].clone())))
    }

    /// `f(i)` for every chunk `i` in `0..chunks`, in chunk order.
    fn collect<R: Send>(&self, chunks: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let slots: Vec<Mutex<Option<R>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
        self.fork_join(chunks, &|i| {
            let out = f(i);
            *lock(&slots[i]) = Some(out);
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("fork_join runs every chunk")
            })
            .collect()
    }

    /// Run `job(i)` for every chunk `i` in `0..chunks` on this thread and
    /// whichever helpers join, returning once every call has finished and
    /// re-raising the first panic then. Runs inline when no helper can
    /// join.
    fn fork_join(&self, chunks: usize, job: &(dyn Fn(usize) + Sync)) {
        if self.workers <= 1 || chunks <= 1 || IN_POOL_WORKER.get() {
            (0..chunks).for_each(job);
            return;
        }
        // SAFETY: only the lifetime is erased. `job` is called only by a
        // thread that claimed an index below `chunks` from `next`, and
        // only before that thread counts the chunk in `done`
        // (`Task::run_chunks`). This function returns or unwinds only
        // after `wait` has seen `done == chunks`, and nothing between
        // `post` and the end of `wait` can unwind: chunk panics are
        // caught in `run_chunks` and the locks ignore poison. A helper
        // that reaches the task later finds every index claimed and
        // touches only the counters of its own `Arc<Task>`, never `job`.
        let job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        let task = Arc::new(Task {
            job,
            chunks,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
            caller: thread::current(),
        });
        self.shared.post(&task);
        task.run_chunks();
        self.shared.retire(&task);
        task.wait();
        let panic = lock(&task.panic).take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // `&mut self`: no dispatch is in flight, so the queue is empty
        lock(&self.shared.state).shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Concatenate per-chunk outputs in chunk order.
fn concat<R>(parts: Vec<Vec<R>>) -> Vec<R> {
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
}

/// The process-wide pool, created on first use via
/// [`WorkerPool::for_machine`]. Builders and batch query paths reach for
/// this when no explicit pool is supplied.
pub fn global() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(WorkerPool::for_machine)
}

/// Cut `[0, len)` into at most `chunks` contiguous equal-count ranges
/// (every range non-empty). Deterministic in its inputs.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Cut `[0, weights.len())` into at most `max_chunks` contiguous ranges of
/// roughly equal total weight. Deterministic in its inputs.
pub fn weighted_ranges(weights: &[usize], max_chunks: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let max_chunks = max_chunks.clamp(1, n);
    let total: usize = weights.iter().sum();
    let target = total.div_ceil(max_chunks).max(1);
    let mut out = Vec::with_capacity(max_chunks);
    let mut start = 0;
    let mut acc = 0usize;
    for (i, w) in weights.iter().enumerate() {
        acc += w;
        if acc >= target && out.len() + 1 < max_chunks {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        out.push(start..n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_vec_matches_sequential_for_every_worker_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [1usize, 2, 3, 4, 8] {
            let pool = WorkerPool::new(workers);
            let got = pool.map_vec(items.clone(), |x| x * x + 1);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn map_ref_preserves_order() {
        let items: Vec<String> = (0..257).map(|i| format!("item-{i}")).collect();
        let pool = WorkerPool::new(4);
        let got = pool.map_ref(&items, |s| s.len());
        let expected: Vec<usize> = items.iter().map(|s| s.len()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn weighted_map_handles_heavy_skew() {
        // one huge item plus a sea of small ones: the pool must still
        // return everything in order
        let mut items: Vec<usize> = vec![1_000_000];
        items.extend(1..500);
        let pool = WorkerPool::new(4);
        let got = pool.map_vec_weighted(items.clone(), |w| *w, |w| w + 1);
        let expected: Vec<usize> = items.iter().map(|w| w + 1).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn borrows_stay_valid_across_dispatch() {
        let data: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let pool = WorkerPool::new(3);
        let ranges = chunk_ranges(data.len(), 16);
        let sums = pool.map_vec(ranges, |r| data[r].iter().sum::<f64>());
        assert_eq!(sums.iter().sum::<f64>(), data.iter().sum::<f64>());
    }

    #[test]
    fn map_chunks_flattens_in_order() {
        let expected: Vec<usize> = (0..1000).map(|i| i * 3).collect();
        for workers in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let got = pool.map_chunks(1000, workers * 4, |r| r.map(|i| i * 3).collect());
            assert_eq!(got, expected, "workers = {workers}");
        }
        let pool = WorkerPool::new(4);
        assert_eq!(
            pool.map_chunks(0, 8, |r| r.map(|i| i * 3).collect::<Vec<_>>()),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.map_vec(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(pool.map_vec(vec![7u32], |x| x * 2), vec![14]);
    }

    #[test]
    fn nested_dispatch_runs_inline_instead_of_deadlocking() {
        // a pooled task dispatching again (same pool or another) must
        // complete: nested dispatches detect the worker context and run
        // inline rather than re-entering a pool
        let outer = WorkerPool::new(2);
        let inner = WorkerPool::new(2);
        let got = outer.map_vec(vec![10usize, 20, 30], |x| {
            let same: usize = outer.map_vec((0..x).collect(), |y| y + 1).iter().sum();
            let other: usize = inner.map_vec((0..x).collect(), |y| y + 1).iter().sum();
            assert_eq!(same, other);
            same
        });
        assert_eq!(got, vec![55, 210, 465]);
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_vec((0..64).collect::<Vec<i32>>(), |x| {
                assert!(x != 33, "boom");
                x
            })
        }));
        assert!(result.is_err(), "panic must surface to the caller");
        // the pool remains usable after a propagated panic
        let ok = pool.map_vec(vec![1, 2, 3], |x| x + 1);
        assert_eq!(ok, vec![2, 3, 4]);
    }

    /// Generous bound on any wait in the tests below that only a bug
    /// could exhaust; it turns a deadlock into a failure.
    const STUCK: Duration = Duration::from_secs(20);

    #[test]
    fn concurrent_dispatches_make_progress() {
        use std::sync::mpsc::channel;
        let pool = WorkerPool::new(2);
        let (started_tx, started_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let (b_tx, b_rx) = channel();
        thread::scope(|s| {
            // A: two chunks, so both of the pool's threads (A itself and
            // the helper) run one, each blocking until B has returned
            let a = s.spawn(|| {
                pool.map_vec(vec![1u32, 2], |x| {
                    started_tx.send(()).expect("test alive");
                    // a chunk ends on the release (or its sender being
                    // dropped), or after STUCK if B never returns
                    let _ = lock(&release_rx).recv_timeout(STUCK);
                    x * 10
                })
            });
            for _ in 0..2 {
                started_rx.recv_timeout(STUCK).expect("A's chunks start");
            }
            // B dispatches on the same pool while every pool thread is
            // busy with A: its caller must run its chunks itself
            s.spawn(|| {
                let got = pool.map_vec((0..64u32).collect(), |x| x + 1);
                b_tx.send(got).expect("test alive");
            });
            let b = b_rx.recv_timeout(Duration::from_secs(5));
            drop(release_tx);
            assert_eq!(
                b.expect("B waited on chunks no thread had claimed"),
                (1..65).collect::<Vec<u32>>()
            );
            assert_eq!(a.join().expect("A returns"), vec![10, 20]);
        });

        // four callers at once, each getting exactly the sequential loop
        let go = std::sync::Barrier::new(4);
        thread::scope(|s| {
            let callers: Vec<_> = (0..4u64)
                .map(|c| {
                    let (pool, go) = (&pool, &go);
                    s.spawn(move || {
                        let items: Vec<u64> = (0..1000).map(|x| x * 7 + c).collect();
                        go.wait();
                        let got = pool.map_vec(items.clone(), |x| x * x + c);
                        let expected: Vec<u64> = items.into_iter().map(|x| x * x + c).collect();
                        assert_eq!(got, expected, "caller {c}");
                    })
                })
                .collect();
            for caller in callers {
                caller.join().expect("caller succeeds");
            }
        });
    }

    #[test]
    fn caller_panic_surfaces_after_the_helpers_chunk_finishes() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc::channel;
        let pool = WorkerPool::new(2);
        let data: Vec<u64> = (0..100_000).collect();
        let helper_finished = AtomicBool::new(false);
        let (caller_tx, caller_rx) = channel();
        let (helper_tx, helper_rx) = channel();
        let (caller_rx, helper_rx) = (Mutex::new(caller_rx), Mutex::new(helper_rx));
        let caller = thread::current().id();
        let result = catch_unwind(AssertUnwindSafe(|| {
            // two chunks that each wait for the other to start, so the
            // caller and the helper run one each
            pool.map_vec(vec![0usize, 1], |_| {
                if thread::current().id() == caller {
                    caller_tx.send(()).expect("test alive");
                    lock(&helper_rx)
                        .recv_timeout(STUCK)
                        .expect("the helper's chunk starts");
                    panic!("caller chunk fails");
                }
                helper_tx.send(()).expect("test alive");
                lock(&caller_rx)
                    .recv_timeout(STUCK)
                    .expect("the caller's chunk starts");
                // keep reading the caller's borrowed data well past the
                // caller's panic
                thread::sleep(Duration::from_millis(50));
                let sum: u64 = data.iter().sum();
                helper_finished.store(sum == 4_999_950_000, Ordering::SeqCst);
                0
            })
        }));
        assert!(result.is_err(), "the caller's panic surfaces");
        assert!(
            helper_finished.load(Ordering::SeqCst),
            "the panic surfaced before the helper's chunk finished"
        );
        assert_eq!(pool.map_vec(vec![1, 2, 3], |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (len, chunks) in [(10usize, 3usize), (1, 8), (0, 4), (16, 16), (100, 7)] {
            let ranges = chunk_ranges(len, chunks);
            let covered: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(covered, len);
            assert!(ranges.iter().all(|r| !r.is_empty()));
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn weighted_ranges_cover_exactly() {
        let weights = [100usize, 1, 1, 1, 50, 2, 2, 90, 1];
        let ranges = weighted_ranges(&weights, 4);
        assert!(ranges.len() <= 4);
        let covered: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, weights.len());
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn arc_cell_readers_keep_their_snapshot_across_stores() {
        let cell = ArcCell::new(Arc::new(vec![1, 2, 3]));
        let before = cell.load();
        let old = cell.swap(Arc::new(vec![9]));
        assert_eq!(*old, vec![1, 2, 3]);
        assert!(Arc::ptr_eq(&before, &old));
        assert_eq!(*cell.load(), vec![9]);
        // the reader's snapshot is untouched by the store
        assert_eq!(*before, vec![1, 2, 3]);
    }

    #[test]
    fn arc_cell_is_consistent_under_concurrent_load_and_store() {
        let cell = Arc::new(ArcCell::new(Arc::new(0usize)));
        std::thread::scope(|s| {
            let writer_cell = Arc::clone(&cell);
            s.spawn(move || {
                for i in 1..=1000 {
                    writer_cell.store(Arc::new(i));
                }
            });
            for _ in 0..4 {
                let reader_cell = Arc::clone(&cell);
                s.spawn(move || {
                    let mut last = 0usize;
                    for _ in 0..1000 {
                        let v = *reader_cell.load();
                        // values only move forward; no torn/stale regressions
                        assert!(v >= last, "snapshot went backwards: {v} < {last}");
                        last = v;
                    }
                });
            }
        });
        assert_eq!(*cell.load(), 1000);
    }

    #[test]
    fn global_pool_is_shared_and_works() {
        let pool = global();
        assert!(pool.workers() >= 1);
        let got = pool.map_vec((0..100).collect::<Vec<u32>>(), |x| x + 1);
        assert_eq!(got.len(), 100);
        assert_eq!(got[99], 100);
    }
}
