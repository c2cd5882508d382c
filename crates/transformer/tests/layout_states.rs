//! A model's projection weights are held in decode panel order for its
//! whole life, and running the tape over them leaves nothing a caller can
//! observe changed.
//!
//! Twin A decodes straight from a fresh model. Twin B, built from the same
//! seed, first runs `eval_loss` — a graph over the same panel-order store —
//! and then decodes. Logits, key/value rows, the row-major parameter copy,
//! the checkpoint and the int8 snapshot must agree bit for bit, before and
//! after one identical optimizer step. Every width of the model leaves a
//! tail past the last 8-column block, so both halves of the panel order
//! are read.

use lm4db_transformer::{GptModel, KvCache, ModelConfig, QuantizedGpt};

fn config() -> ModelConfig {
    ModelConfig {
        vocab_size: 61,
        max_seq_len: 24,
        d_model: 20,
        n_heads: 2,
        n_layers: 2,
        d_ff: 44,
        dropout: 0.0,
    }
}

const PROMPT: [usize; 6] = [1, 17, 33, 9, 52, 4];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every logit row of a six-token chunk, then of one more token, and every
/// cached key/value row — in f32 and through `quant` — as bits.
fn decode(m: &GptModel, quant: &QuantizedGpt) -> Vec<Vec<u32>> {
    let mut cache = KvCache::new(m);
    let mut out: Vec<Vec<u32>> = cache
        .feed_many(m, &PROMPT)
        .iter()
        .map(|r| bits(r))
        .collect();
    out.push(bits(cache.feed(m, 40)));
    out.extend((0..cache.len()).map(|t| bits(&cache.position_kv(m, t))));
    let mut q_cache = KvCache::new(m);
    out.push(bits(q_cache.feed_all_with(m, Some(quant), &PROMPT)));
    out
}

/// Every parameter, row-major, as bits.
fn params(m: &GptModel) -> Vec<(String, Vec<u32>)> {
    let store = m.params();
    store
        .iter()
        .map(|(n, t)| (n.to_string(), bits(t.data())))
        .collect()
}

#[test]
fn decode_reads_the_same_weights_in_either_store_order() {
    let batch: Vec<Vec<usize>> = vec![PROMPT.to_vec(), vec![1, 5, 8, 13, 21]];
    let mut a = GptModel::new(config(), 29);
    let mut b = GptModel::new(config(), 29);
    let (qa, qb) = (QuantizedGpt::from_model(&a), QuantizedGpt::from_model(&b));
    assert_eq!(params(&a), params(&b));
    b.eval_loss(&batch);

    assert_eq!(params(&a), params(&b), "fresh: row-major copies");
    assert_eq!(a.to_json(), b.to_json(), "fresh: checkpoints");
    let qb_after = QuantizedGpt::from_model(&b);
    let fresh = decode(&a, &qa);
    assert_eq!(
        fresh,
        decode(&b, &qb_after),
        "fresh: A from panels, B after eval_loss"
    );
    assert_eq!(
        fresh,
        decode(&b, &qb),
        "fresh: B with the snapshot taken before eval_loss"
    );

    let (mut opt_a, mut opt_b) = (a.optimizer(3e-3), b.optimizer(3e-3));
    let loss_a = a.train_step(&batch, &mut opt_a);
    let loss_b = b.train_step(&batch, &mut opt_b);
    assert_eq!(loss_a.to_bits(), loss_b.to_bits(), "one step: losses");
    assert_eq!(params(&a), params(&b), "one step: row-major copies");
    assert_eq!(a.to_json(), b.to_json(), "one step: checkpoints");
    let (qa, qb) = (QuantizedGpt::from_model(&a), QuantizedGpt::from_model(&b));
    let stepped = decode(&a, &qa);
    assert_ne!(stepped, fresh, "the step moved no weight");
    assert_eq!(stepped, decode(&b, &qb), "one step: decode");
    assert_eq!(
        a.eval_loss(&batch).to_bits(),
        b.eval_loss(&batch).to_bits(),
        "one step: eval losses"
    );
}
