//! The GPT tape's forward, pinned: every `sequence_logits` bit of a
//! trained model over prompts of several lengths (one token up to the full
//! window), and the bits of `eval_loss` on each prompt alone, hashed to a
//! constant. The tape is what training differentiates and the oracle the
//! KV cache is tested against, so a change to its graph that moves a bit
//! has to show here.

use lm4db_transformer::{GptModel, ModelConfig};

fn fnv1a(h: u64, bits: u32) -> u64 {
    bits.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
}

#[test]
fn trained_sequence_logits_are_pinned() {
    let cfg = ModelConfig {
        dropout: 0.1,
        ..ModelConfig::test()
    };
    let mut m = GptModel::new(cfg, 23);
    let mut opt = m.optimizer(3e-3);
    let batch: Vec<Vec<usize>> = vec![
        vec![1, 10, 11, 12, 13, 10, 11, 12, 13, 2],
        vec![1, 20, 21, 22, 2],
        vec![1, 30, 31, 32, 33, 34, 35, 30, 31, 32, 33, 34, 2],
    ];
    for _ in 0..12 {
        m.train_step(&batch, &mut opt);
    }
    let prompts: Vec<Vec<usize>> = vec![
        vec![1],
        vec![1, 10, 11],
        vec![1, 20, 21, 22, 2, 40],
        vec![1, 30, 31, 32, 33, 34, 35, 30, 31],
        (0..m.config().max_seq_len)
            .map(|i| 3 + (i * 7) % 60)
            .collect(),
    ];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut losses = Vec::new();
    for p in &prompts {
        let logits = m.sequence_logits(p);
        assert_eq!(logits.shape(), &[p.len(), m.config().vocab_size]);
        h = logits.data().iter().fold(h, |h, v| fnv1a(h, v.to_bits()));
        if p.len() > 1 {
            losses.push(m.eval_loss(std::slice::from_ref(p)).to_bits());
        }
    }
    assert_eq!(
        (h, losses),
        (
            0x9ce6_7c8e_e72a_c730,
            vec![0x4048_a7d6, 0x404c_1f52, 0x4026_76c3, 0x4087_5235]
        )
    );
}
