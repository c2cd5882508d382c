//! Regression test: a model holds one copy of its projection weights,
//! whether it is only decoded or also evaluated and trained.
//!
//! Every [`GptModel`] keeps its projections in decode panel order for its
//! whole life, and decode, the tape and the optimizer all read them there:
//! neither construction, nor the first feed of a fresh model, nor a feed
//! after `eval_loss` or after a `train_step` may leave a second copy alive.
//! A global allocator counts live heap bytes; a serving-size model (3.4 MB
//! of projections, more than one core's L2) must grow the live heap by
//! less than half its projection bytes beyond its parameters and its
//! cache's own reservation. The last step is the control that shows the
//! counter sees such a copy: holding the row-major `params()` copy grows
//! the live heap by at least the projection bytes.
//!
//! This file intentionally holds a single test: the counter is
//! process-global, and a lone test in its own integration binary is the
//! only way to keep the measurement clean.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use lm4db_transformer::{GptModel, KvCache, ModelConfig};

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn a_decoded_model_holds_one_copy_of_its_projections() {
    let cfg = ModelConfig {
        vocab_size: 512,
        max_seq_len: 96,
        d_model: 128,
        n_heads: 4,
        n_layers: 4,
        d_ff: 512,
        dropout: 0.0,
    };
    let (d, ff) = (cfg.d_model, cfg.d_ff);
    let proj_bytes = 4 * (cfg.n_layers * (4 * d * d + 2 * d * ff) + d * cfg.vocab_size) as isize;
    let half = proj_bytes / 2;

    let before = live();
    let mut model = GptModel::new(cfg, 11);
    let param_bytes = 4 * model.num_params() as isize;
    let built = live() - before;
    assert!(
        built < param_bytes + half,
        "new left {built} bytes live for {param_bytes} bytes of parameters"
    );

    let fed = |model: &GptModel| {
        let mut cache = KvCache::new(model);
        let reserved = live();
        cache.feed(model, 7);
        live() - reserved
    };
    let grown = fed(&model);
    assert!(
        grown < half,
        "the first feed left {grown} more bytes live ({proj_bytes} bytes of projections)"
    );

    let batch = [vec![1, 2, 3]];
    model.eval_loss(&batch);
    let grown = fed(&model);
    assert!(
        grown < half,
        "a feed after eval_loss left {grown} more bytes live ({proj_bytes} bytes of projections)"
    );

    let mut opt = model.optimizer(1e-3);
    model.train_step(&batch, &mut opt);
    let grown = fed(&model);
    assert!(
        grown < half,
        "a feed after train_step left {grown} more bytes live ({proj_bytes} bytes of projections)"
    );

    let before = live();
    let copy = model.params();
    let held = live() - before;
    assert!(
        held >= proj_bytes,
        "a row-major params() copy held only {held} bytes ({proj_bytes} bytes of projections)"
    );
    drop(copy);
}
