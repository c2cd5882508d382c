//! Regression test: a `parallel_for` issued from inside a chunk runs
//! inline on every thread that runs chunks — the dispatching thread
//! included — so one outer call books exactly one pool dispatch.
//!
//! Before the fix the dispatcher was not marked as inside the pool while
//! it ran its own job's chunks, so each nested call from those chunks
//! enqueued a job of its own (two mutexes and a `notify_all` apiece).
//!
//! A single test in its own binary: the thread count, the pool and the
//! `pool/*` counters are process-global.

use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn nested_parallel_for_books_one_dispatch() {
    lm4db_tensor::set_threads(2);
    lm4db_obs::set_enabled(true);
    lm4db_obs::reset();

    let total = AtomicUsize::new(0);
    lm4db_tensor::parallel_for(64, 1, |outer| {
        for _ in outer {
            lm4db_tensor::parallel_for(100, 1, |inner| {
                total.fetch_add(inner.len(), Ordering::Relaxed);
            });
        }
    });

    let snap = lm4db_obs::snapshot();
    lm4db_obs::set_enabled(false);
    assert_eq!(total.load(Ordering::Relaxed), 64 * 100);
    assert_eq!(
        snap.counters.get("pool/dispatched_jobs").copied(),
        Some(1),
        "only the outer call may dispatch"
    );
    assert_eq!(snap.counters.get("pool/inline_runs").copied(), Some(64));
}
