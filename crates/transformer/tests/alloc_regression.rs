//! Regression test: KV-cached decoding does O(1) allocations per step, and
//! few of them.
//!
//! [`KvCache::new`] pre-reserves every buffer that grows with sequence
//! length (per-layer K/V rows, the token list, the logits scratch), so a
//! decode step's allocation count must not depend on how far into the
//! sequence it happens. Before the preallocation fix, `Vec` doubling made
//! early steps reallocate the cache repeatedly; this test pins the fixed
//! behavior with a counting global allocator — for a fresh cache, for a
//! cache reserved to a request's own horizon, and for a fork, which must
//! inherit its parent's reservation rather than start at `capacity == len`.
//!
//! This file intentionally holds a single test: the allocator counter is
//! process-global, and a lone test in its own integration binary is the
//! only way to keep the measurement clean.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lm4db_transformer::{GptModel, KvCache, ModelConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn decode_step_allocations_do_not_grow_with_position() {
    let model = GptModel::new(ModelConfig::test(), 7);
    let mut cache = KvCache::new(&model);

    // Warm up: the first steps pay one-time costs (worker-pool spawn,
    // lazily sized scratch buffers).
    for t in 0..3 {
        cache.feed(&model, 8 + t);
    }

    // Per-step allocation counts for the rest of the context window.
    let mut per_step = Vec::new();
    for t in 3..14 {
        let before = ALLOCS.load(Ordering::Relaxed);
        cache.feed(&model, 8 + t);
        per_step.push(ALLOCS.load(Ordering::Relaxed) - before);
    }

    // O(1): every post-warmup step allocates exactly as much as the first.
    // A growing cache would show reallocation spikes at Vec-doubling
    // boundaries and a count that trends upward with position.
    let first = per_step[0];
    assert!(first > 0, "expected the forward pass to allocate scratch");
    // And O(1) is a small one: one set of activation buffers per forward
    // (seven, shared by every layer — the attention score row borrows one
    // of them), the embedded rows, the rows read out, their logits and the
    // per-entry result list. A buffer allocated inside the layer loop again
    // shows up as `n_layers` (two here) more.
    assert!(
        first <= 11,
        "a one-token feed did {first} allocations, expected at most 11"
    );
    let assert_flat = |what: &str, per_step: &[u64]| {
        for (i, &n) in per_step.iter().enumerate() {
            assert_eq!(
                n, first,
                "{what}: step {i} did {n} allocs, a fresh cache's steps do {first} \
                 (full trace: {per_step:?})"
            );
        }
    };
    assert_flat("fresh cache", &per_step);

    // The same holds for a fork — taken early, so all but three positions
    // are fed into the clone's own buffers — and for a cache reserved to
    // exactly the positions it will be fed.
    let steps_of = |mut cache: KvCache| -> Vec<u64> {
        (cache.len()..14)
            .map(|t| {
                let before = ALLOCS.load(Ordering::Relaxed);
                cache.feed(&model, 8 + t);
                ALLOCS.load(Ordering::Relaxed) - before
            })
            .collect()
    };
    let mut parent = KvCache::new(&model);
    for t in 0..3 {
        parent.feed(&model, 8 + t);
    }
    assert_flat("forked cache", &steps_of(parent.clone()));
    assert_flat(
        "horizon-sized cache",
        &steps_of(KvCache::with_capacity(&model, 14)),
    );
}
