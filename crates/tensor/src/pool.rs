//! A persistent worker pool for data-parallel tensor kernels.
//!
//! Design goal: **bit-identical results at any thread count.** Work is cut
//! into chunks whose boundaries depend only on the problem size and the
//! requested granularity — never on how many threads happen to execute
//! them. Each chunk touches a disjoint slice of the output, floating-point
//! accumulation order inside a chunk is serial, and reductions over chunk
//! partials combine them in fixed chunk order. Threads only decide *who*
//! runs a chunk, never *what* a chunk computes.
//!
//! The pool is created lazily on first use. Thread count comes from
//! [`set_threads`] when called before first use, else the `LM4DB_THREADS`
//! environment variable, else `std::thread::available_parallelism()`.
//! `parallel_for` calls from inside a chunk run inline — on a worker and
//! on the dispatching thread alike — so nested parallelism cannot deadlock
//! and costs no second dispatch.
//!
//! **Fault isolation.** Every chunk body runs under `catch_unwind`, so a
//! panicking kernel can never kill a worker thread or leave a dispatcher
//! waiting forever: the job drains cleanly, the pool stays usable, and the
//! panic is *reported* — [`parallel_for`] re-raises it on the dispatching
//! thread with the original message, while [`try_parallel_tasks_mut`]
//! confines each panic to its own task and returns the failures, which is
//! what the serving engine uses to retire a poisoned request without
//! taking down its batch (DESIGN.md §5f).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Upper bound on chunks per `parallel_for`. A constant (never the thread
/// count!) so chunk boundaries — and therefore float accumulation groups —
/// are identical no matter how many threads execute them.
const MAX_CHUNKS: usize = 64;

/// Desired thread count; 0 means "not yet resolved".
static DESIRED_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True inside a pool worker, and on a dispatching thread while it runs
    /// its own job's chunks; nested parallel_for then runs inline.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("LM4DB_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Sets the worker thread count. Takes full effect when called before the
/// pool's first use; afterwards it can lower (but not raise) parallelism.
pub fn set_threads(n: usize) {
    DESIRED_THREADS.store(n.max(1), Ordering::SeqCst);
}

/// The thread count `parallel_for` will use.
pub fn threads() -> usize {
    let n = DESIRED_THREADS.load(Ordering::SeqCst);
    if n != 0 {
        return n;
    }
    let resolved = default_threads();
    // Racing initializers resolve to the same value; keep whichever landed.
    let _ = DESIRED_THREADS.compare_exchange(0, resolved, Ordering::SeqCst, Ordering::SeqCst);
    DESIRED_THREADS.load(Ordering::SeqCst)
}

/// One dispatched `parallel_for`: a type-erased chunk function plus the
/// fixed chunk layout and completion tracking.
struct Job {
    /// The chunk body. Lifetime is erased; the dispatching caller blocks
    /// until `done == chunks`, so the borrow outlives every worker access.
    func: *const (dyn Fn(Range<usize>) + Sync),
    n: usize,
    chunk_size: usize,
    chunks: usize,
    next: AtomicUsize,
    done: Mutex<usize>,
    finished: Condvar,
    panicked: AtomicBool,
    /// Message of the first chunk panic, for the dispatcher's re-raise.
    panic_message: Mutex<Option<String>>,
}

/// Renders a caught panic payload for reporting. Panics raised with
/// `panic!("...")` carry `String` or `&str` payloads; anything else is
/// summarized.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// SAFETY: `func` points at a `Sync` closure that the dispatching thread
// keeps alive until the job completes.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Runs chunks until none remain. Called by workers and the dispatcher.
    fn run(&self) {
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.chunks {
                return;
            }
            let start = c * self.chunk_size;
            let end = (start + self.chunk_size).min(self.n);
            // A panic in one chunk must still report completion, or the
            // dispatcher would wait forever.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: see `Job::func`.
                (unsafe { &*self.func })(start..end);
            }));
            if let Err(payload) = result {
                let mut msg = self.panic_message.lock().unwrap();
                if msg.is_none() {
                    *msg = Some(panic_message(payload.as_ref()));
                }
                drop(msg);
                self.panicked.store(true, Ordering::SeqCst);
            }
            let mut done = self.done.lock().unwrap();
            *done += 1;
            if *done == self.chunks {
                self.finished.notify_all();
            }
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while *done < self.chunks {
            done = self.finished.wait(done).unwrap();
        }
    }
}

struct PoolState {
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
    workers: usize,
}

static POOL: OnceLock<PoolState> = OnceLock::new();

fn pool() -> &'static PoolState {
    POOL.get_or_init(|| {
        let workers = threads().saturating_sub(1); // dispatcher participates
        for w in 0..workers {
            std::thread::Builder::new()
                .name(format!("lm4db-pool-{w}"))
                .spawn(worker_loop)
                .expect("failed to spawn pool worker");
        }
        PoolState {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            workers,
        }
    })
}

fn worker_loop() {
    IN_WORKER.with(|w| w.set(true));
    let state = pool();
    loop {
        let job = {
            let mut queue = state.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = state.available.wait(queue).unwrap();
            }
        };
        job.run();
    }
}

/// Runs `f` over `0..n`, split into chunks of at least `min_chunk` items.
///
/// Chunk boundaries depend only on `n` and `min_chunk`, so any output
/// computed per-chunk is bit-identical regardless of thread count. `f` must
/// be safe to call concurrently on disjoint ranges.
pub fn parallel_for<F: Fn(Range<usize>) + Sync>(n: usize, min_chunk: usize, f: F) {
    if n == 0 {
        return;
    }
    let min_chunk = min_chunk.max(1);
    let chunk_size = min_chunk.max(n.div_ceil(MAX_CHUNKS));
    let chunks = n.div_ceil(chunk_size);
    let inline = chunks <= 1 || threads() <= 1 || IN_WORKER.with(|w| w.get());
    if inline {
        lm4db_obs::counter_add("pool/inline_runs", 1);
        f(0..n);
        return;
    }
    let state = pool();
    if state.workers == 0 {
        lm4db_obs::counter_add("pool/inline_runs", 1);
        f(0..n);
        return;
    }
    lm4db_obs::counter_add("pool/dispatched_jobs", 1);
    lm4db_obs::counter_add("pool/dispatched_chunks", chunks as u64);
    lm4db_obs::instant_arg("pool/dispatch", chunks as u64);
    // Dispatch-to-completion latency of pooled jobs (flat: dispatch happens
    // under arbitrary callers).
    let _timer = lm4db_obs::leaf("pool/parallel_for");
    // Erase the closure's lifetime: the dispatcher blocks in `job.wait()`
    // below, so `f` outlives every worker access through this pointer.
    let func: *const (dyn Fn(Range<usize>) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(Range<usize>) + Sync), &'static (dyn Fn(Range<usize>) + Sync)>(
            &f,
        )
    };
    let job = Arc::new(Job {
        func,
        n,
        chunk_size,
        chunks,
        next: AtomicUsize::new(0),
        done: Mutex::new(0),
        finished: Condvar::new(),
        panicked: AtomicBool::new(false),
        panic_message: Mutex::new(None),
    });
    // Enqueue one handle per helper we want active (capped by chunk count);
    // surplus copies drain as no-ops once the chunk counter is exhausted.
    let helpers = state
        .workers
        .min(threads().saturating_sub(1))
        .min(chunks - 1);
    {
        let mut queue = state.queue.lock().unwrap();
        for _ in 0..helpers {
            queue.push_back(Arc::clone(&job));
        }
    }
    state.available.notify_all();
    // The dispatcher participates, and while it runs chunks it is a worker
    // like any other: a `parallel_for` issued from inside one of its chunks
    // runs inline instead of enqueueing a nested job. Chunk bodies never
    // unwind out of `run` (each is caught), so the flag always resets.
    IN_WORKER.with(|w| w.set(true));
    job.run();
    IN_WORKER.with(|w| w.set(false));
    job.wait();
    if job.panicked.load(Ordering::SeqCst) {
        // Every chunk completed (panicked ones via catch_unwind), so the
        // pool has drained cleanly and stays usable; re-raise on the
        // dispatching thread with the original message so the failure is
        // attributable. Callers that must survive a poisoned task use
        // `try_parallel_tasks_mut` instead.
        let msg = job
            .panic_message
            .lock()
            .unwrap()
            .take()
            .unwrap_or_else(|| "unknown panic".to_string());
        panic!("parallel_for: worker chunk panicked: {msg}");
    }
}

/// One failed task from [`try_parallel_tasks_mut`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Index of the task that panicked.
    pub index: usize,
    /// The panic message (poisoned tasks keep their diagnosis).
    pub message: String,
}

/// Runs `f(i, &mut tasks[i])` for every task across the pool, confining
/// each panic to its own task: a panicking task never unwinds into the
/// caller, never skips a sibling task, and never kills a worker. Returns
/// the failures sorted by task index (empty when everything succeeded).
///
/// This is the fault-isolated fan-out the serving engine feeds sequences
/// through: the task that panicked is *poisoned* — its `&mut` state must
/// be assumed half-written and discarded — but every other task completed
/// normally and the pool is untouched.
///
/// Each call is also a seeded chaos point (`pool/task`, salted by a
/// per-dispatch ticket and the task index): under `LM4DB_FAULTS`, tasks
/// deterministically panic or stall here so the recovery paths above it
/// are exercised end to end.
pub fn try_parallel_tasks_mut<T: Send, F: Fn(usize, &mut T) + Sync>(
    tasks: &mut [T],
    f: F,
) -> Vec<TaskFailure> {
    if tasks.is_empty() {
        return Vec::new();
    }
    let ticket = lm4db_fault::ticket();
    let failures: Mutex<Vec<TaskFailure>> = Mutex::new(Vec::new());
    let n = tasks.len();
    parallel_rows_mut(tasks, n, 1, |first, block| {
        for (off, task) in block.iter_mut().enumerate() {
            let index = first + off;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                lm4db_fault::point("pool/task", ticket.wrapping_mul(4096) + index as u64);
                f(index, task);
            }));
            if let Err(payload) = result {
                lm4db_obs::counter_add("pool/task_panics", 1);
                failures.lock().unwrap().push(TaskFailure {
                    index,
                    message: panic_message(payload.as_ref()),
                });
            }
        }
    });
    let mut failed = failures.into_inner().unwrap();
    failed.sort_by_key(|t| t.index);
    failed
}

/// Splits `data` into consecutive row-blocks of `rows * width` elements and
/// runs `f(first_row, block)` for each, in parallel. `data.len()` must be
/// `rows * width`. Blocks are at least `min_rows` rows.
///
/// This is the safe mutable fan-out used by the tensor kernels: each block
/// is a disjoint `&mut` slice of the output.
pub fn parallel_rows_mut<T: Send, F: Fn(usize, &mut [T]) + Sync>(
    data: &mut [T],
    rows: usize,
    min_rows: usize,
    f: F,
) {
    if rows == 0 {
        return;
    }
    assert_eq!(data.len() % rows, 0, "data length not divisible by rows");
    let width = data.len() / rows;
    let base = SendPtr(data.as_mut_ptr());
    parallel_for(rows, min_rows, |range| {
        let start = range.start;
        let len = (range.end - range.start) * width;
        // SAFETY: ranges from parallel_for are disjoint, so each block is
        // an exclusive sub-slice of `data`, alive for the whole call.
        let block = unsafe { std::slice::from_raw_parts_mut(base.get().add(start * width), len) };
        f(start, block);
    });
}

/// Like [`parallel_rows_mut`], but fans out two output buffers sharing the
/// same row count (each with its own width). `f` receives the first row
/// index and the matching blocks of both buffers.
pub fn parallel_rows_mut2<T: Send, U: Send, F: Fn(usize, &mut [T], &mut [U]) + Sync>(
    a: &mut [T],
    b: &mut [U],
    rows: usize,
    min_rows: usize,
    f: F,
) {
    if rows == 0 {
        return;
    }
    assert_eq!(a.len() % rows, 0, "first buffer not divisible by rows");
    assert_eq!(b.len() % rows, 0, "second buffer not divisible by rows");
    let wa = a.len() / rows;
    let wb = b.len() / rows;
    let pa = SendPtr(a.as_mut_ptr());
    let pb = SendPtr(b.as_mut_ptr());
    parallel_for(rows, min_rows, |range| {
        let start = range.start;
        let count = range.end - range.start;
        // SAFETY: ranges are disjoint; each block is an exclusive sub-slice.
        let block_a =
            unsafe { std::slice::from_raw_parts_mut(pa.get().add(start * wa), count * wa) };
        let block_b =
            unsafe { std::slice::from_raw_parts_mut(pb.get().add(start * wb), count * wb) };
        f(start, block_a, block_b);
    });
}

/// A raw pointer that may cross threads. Used to hand each chunk its
/// disjoint output slice.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    /// Accessed via a method so closures capture the whole (Sync) wrapper,
    /// not the raw pointer field.
    fn get(self) -> *mut T {
        self.0
    }
}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_covers_every_index_once() {
        let n = 10_007;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, 16, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_rows_mut_writes_disjoint_blocks() {
        let rows = 257;
        let width = 31;
        let mut data = vec![0.0f32; rows * width];
        parallel_rows_mut(&mut data, rows, 4, |first_row, block| {
            for (r, row) in block.chunks_mut(width).enumerate() {
                for (c, x) in row.iter_mut().enumerate() {
                    *x = (first_row + r) as f32 * 1000.0 + c as f32;
                }
            }
        });
        for r in 0..rows {
            for c in 0..width {
                assert_eq!(data[r * width + c], r as f32 * 1000.0 + c as f32);
            }
        }
    }

    #[test]
    fn nested_parallel_for_runs_inline() {
        let outer = 64;
        let total = AtomicUsize::new(0);
        parallel_for(outer, 1, |range| {
            for _ in range {
                parallel_for(100, 1, |inner| {
                    total.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), outer * 100);
    }

    #[test]
    fn zero_and_tiny_sizes_are_fine() {
        parallel_for(0, 8, |_| panic!("must not run"));
        let count = AtomicUsize::new(0);
        parallel_for(3, 8, |range| {
            count.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn panicking_chunk_reports_and_pool_survives() {
        // A panic inside one chunk must surface on the dispatching thread
        // with the original message...
        let err = std::panic::catch_unwind(|| {
            parallel_for(1000, 1, |range| {
                if range.contains(&617) {
                    panic!("injected fault at test/kernel (salt 0)");
                }
            });
        })
        .expect_err("panic must propagate to the dispatcher");
        let msg = panic_message(err.as_ref());
        assert!(
            msg.contains("injected fault at test/kernel"),
            "dispatcher panic lost the original message: {msg}"
        );
        // ...and the pool must stay fully usable afterwards.
        let count = AtomicUsize::new(0);
        parallel_for(10_000, 16, |range| {
            count.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn try_parallel_tasks_confines_panics_to_their_task() {
        let mut tasks: Vec<usize> = vec![0; 257];
        let failures = try_parallel_tasks_mut(&mut tasks, |i, t| {
            if i == 3 || i == 200 {
                panic!("injected fault at test/task (salt {i})");
            }
            *t = i + 1;
        });
        assert_eq!(
            failures.iter().map(|f| f.index).collect::<Vec<_>>(),
            vec![3, 200]
        );
        for f in &failures {
            assert!(f.message.contains("injected fault at test/task"));
        }
        for (i, t) in tasks.iter().enumerate() {
            if i == 3 || i == 200 {
                assert_eq!(*t, 0, "poisoned task {i} must be untouched");
            } else {
                assert_eq!(*t, i + 1, "sibling task {i} must have completed");
            }
        }
        // No failures: the empty vec, and every task ran.
        let failures = try_parallel_tasks_mut(&mut tasks, |i, t| *t = i);
        assert!(failures.is_empty());
    }

    #[test]
    fn chunk_layout_is_thread_count_independent() {
        // The chunk boundaries are a pure function of (n, min_chunk); record
        // them via the ranges each call observes.
        let collect = |n: usize, min_chunk: usize| {
            let ranges = Mutex::new(Vec::new());
            parallel_for(n, min_chunk, |r| {
                ranges.lock().unwrap().push((r.start, r.end))
            });
            let mut v = ranges.into_inner().unwrap();
            v.sort_unstable();
            v
        };
        let a = collect(1000, 10);
        let b = collect(1000, 10);
        assert_eq!(a, b);
        assert_eq!(a.first().map(|r| r.0), Some(0));
        assert_eq!(a.last().map(|r| r.1), Some(1000));
    }
}
