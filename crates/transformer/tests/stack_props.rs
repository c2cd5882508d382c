//! Property test: a stacked forward over rows of *different* caches leaves
//! every cache exactly where feeding it alone, one token at a time, would.
//!
//! The stack shares each weight sweep between sequences; this pins that it
//! shares nothing else. Entries differ in history length, chunk size and
//! whether every position's logits are kept, in both weight formats, on a
//! model whose widths straddle the kernels' 16-column tile (full tiles take
//! the AVX path, the ragged tail the scalar one) and whose stacks straddle
//! the 4-row tile.
//!
//! A stack with one bad entry must fail as a whole before any cache moves,
//! so its group-mates can be stacked again as if nothing had happened.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use lm4db_transformer::{feed_stack, GptModel, KvCache, ModelConfig, QuantizedGpt, StackEntry};
use proptest::prelude::*;

const VOCAB: usize = 64;

fn model() -> &'static (GptModel, QuantizedGpt) {
    static MODEL: OnceLock<(GptModel, QuantizedGpt)> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = ModelConfig {
            vocab_size: VOCAB,
            max_seq_len: 48,
            d_model: 24,
            n_heads: 2,
            n_layers: 2,
            d_ff: 40,
            dropout: 0.0,
        };
        let mut m = GptModel::new(cfg, 13);
        // A few optimizer steps: biases and norms leave their symmetric
        // initial values, so bitwise comparisons mean something.
        let mut opt = m.optimizer(3e-3);
        let batch: Vec<Vec<usize>> = (0..4)
            .map(|r| (0..12).map(|t| 4 + (r * 7 + t * 5) % 50).collect())
            .collect();
        for _ in 0..8 {
            m.train_step(&batch, &mut opt);
        }
        let q = QuantizedGpt::from_model(&m);
        (m, q)
    })
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Everything a cache holds — length, tokens, last logits and every
/// position's key/value rows — with floats as bits.
type Snapshot = (usize, Vec<usize>, Vec<u32>, Vec<Vec<u32>>);

fn snapshot(m: &GptModel, c: &KvCache) -> Snapshot {
    let kv = (0..c.len()).map(|t| bits(&c.position_kv(m, t))).collect();
    (c.len(), c.tokens().to_vec(), bits(c.last_logits()), kv)
}

/// One f32 stack of `caches[i]` fed `chunks[i]`.
fn stack(m: &GptModel, caches: &mut [KvCache], chunks: &[&[usize]]) {
    let mut entries: Vec<StackEntry<'_>> = caches
        .iter_mut()
        .zip(chunks)
        .map(|(cache, &tokens)| StackEntry {
            cache,
            tokens,
            keep_all: false,
        })
        .collect();
    feed_stack(m, None, &mut entries);
}

#[test]
fn a_bad_entry_fails_the_stack_before_any_cache_moves() {
    let (m, _) = model();
    let max = m.config().max_seq_len;
    // The good group-mates: a prefill chunk into an empty cache and one
    // decode row onto a cache with history.
    let prefill: Vec<usize> = (0..6).map(|t| 4 + t * 3).collect();
    let decode_row = [23];
    let mut decoding = KvCache::new(m);
    decoding.feed_all(m, &[4, 9, 14, 19]);
    let good: [&[usize]; 2] = [&prefill, &decode_row];
    let mut undisturbed = [KvCache::new(m), decoding.clone()];
    stack(m, &mut undisturbed, &good);

    for (cause, history, bad_tokens) in [
        ("max_seq_len", max - 1, vec![5, 6]),
        ("out of vocabulary", 3, vec![5, VOCAB]),
    ] {
        let mut bad = KvCache::new(m);
        let seen: Vec<usize> = (0..history).map(|t| 4 + t % 50).collect();
        bad.feed_all(m, &seen);
        let mut caches = [KvCache::new(m), decoding.clone(), bad];
        let before: Vec<Snapshot> = caches.iter().map(|c| snapshot(m, c)).collect();

        let failed = catch_unwind(AssertUnwindSafe(|| {
            stack(m, &mut caches, &[&prefill, &decode_row, &bad_tokens]);
        }))
        .expect_err("a bad entry must fail the stack");
        let message = lm4db_tensor::panic_message(failed.as_ref());
        assert!(
            message.contains(cause),
            "{cause}: panicked with {message:?}"
        );
        for (i, (c, want)) in caches.iter().zip(&before).enumerate() {
            assert!(snapshot(m, c) == *want, "{cause}: entry {i} moved");
        }

        // The good entries stack again exactly as if the bad one had never
        // been there.
        stack(m, &mut caches[..2], &good);
        for (i, (c, want)) in caches.iter().zip(&undisturbed).enumerate() {
            assert!(
                snapshot(m, c) == snapshot(m, want),
                "{cause}: entry {i} differs from an undisturbed run"
            );
        }
    }
}

proptest! {
    #[test]
    fn stack_equals_each_sequence_fed_alone(
        shapes in prop::collection::vec((0usize..41, 1usize..9, any::<bool>()), 1..10),
        int8 in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let (m, q) = model();
        let quant = int8.then_some(q);
        let mut state = seed;
        let mut token = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            4 + (state >> 33) as usize % (VOCAB - 4)
        };
        let feed_one = |cache: &mut KvCache, t: usize| match quant {
            Some(q) => cache.feed_quant(m, q, t).to_vec(),
            None => cache.feed(m, t).to_vec(),
        };

        // Each sequence alone, one token at a time; the stack starts from a
        // fork taken just before the chunk.
        let mut alone = Vec::new();
        let mut forks = Vec::new();
        let mut chunks = Vec::new();
        let mut want_logits = Vec::new();
        for &(history, chunk, _) in &shapes {
            let mut cache = KvCache::new(m);
            for _ in 0..history {
                feed_one(&mut cache, token());
            }
            forks.push(cache.clone());
            let toks: Vec<usize> = (0..chunk).map(|_| token()).collect();
            want_logits.push(toks.iter().map(|&t| feed_one(&mut cache, t)).collect::<Vec<_>>());
            chunks.push(toks);
            alone.push(cache);
        }

        let mut entries: Vec<StackEntry<'_>> = forks
            .iter_mut()
            .zip(&chunks)
            .zip(&shapes)
            .map(|((cache, tokens), &(_, _, keep_all))| StackEntry { cache, tokens, keep_all })
            .collect();
        let got_logits = feed_stack(m, quant, &mut entries);

        prop_assert_eq!(got_logits.len(), shapes.len());
        for (i, &(_, _, keep_all)) in shapes.iter().enumerate() {
            let (got, want) = (&forks[i], &alone[i]);
            if keep_all {
                prop_assert_eq!(got_logits[i].len(), want_logits[i].len());
                for (g, w) in got_logits[i].iter().zip(&want_logits[i]) {
                    prop_assert!(bits(g) == bits(w), "entry {} per-position logits", i);
                }
            } else {
                prop_assert!(got_logits[i].is_empty());
            }
            prop_assert!(
                bits(got.last_logits()) == bits(want.last_logits()),
                "entry {} last logits", i
            );
            prop_assert_eq!(got.tokens(), want.tokens());
            for t in 0..want.len() {
                prop_assert!(
                    bits(&got.position_kv(m, t)) == bits(&want.position_kv(m, t)),
                    "entry {} kv rows at position {}", i, t
                );
            }
        }
    }
}
