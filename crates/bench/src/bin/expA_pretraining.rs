//! **Exp A** (§2.2, pre-trained language models): pre-training works and
//! scale helps — masked-LM and causal-LM perplexity vs. training steps and
//! model size on the synthetic corpus.
//!
//! Expected shape: loss falls with steps for both objectives; larger
//! models reach lower perplexity on the same budget; the n-gram baseline
//! is strong in-distribution but has no few-shot abilities (Exp B).

use lm4db::corpus;
use lm4db::lm::NGramLm;
use lm4db::tokenize::{Bpe, Tokenizer};
use lm4db::transformer::{
    evaluate_perplexity, pack_corpus, pretrain_gpt, BertModel, GptModel, ModelConfig, TrainOptions,
};
use lm4db_bench::{f, print_table};

fn main() {
    let lines = corpus::corpus(1500, 7);
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let bpe = Bpe::train(refs.iter().copied(), 400);
    let stream = pack_corpus(refs.iter().copied(), &bpe);
    let held_out = pack_corpus(corpus::corpus(200, 99).iter().map(String::as_str), &bpe);
    let v = bpe.vocab().len();
    println!("corpus: {} tokens, vocab {}", stream.len(), v);

    // --- causal LM: size sweep ---
    let sizes: Vec<(&str, ModelConfig)> = vec![
        (
            "gpt-micro (d=16,L=2)",
            ModelConfig {
                vocab_size: v,
                max_seq_len: 32,
                d_model: 16,
                n_heads: 2,
                n_layers: 2,
                d_ff: 64,
                dropout: 0.0,
            },
        ),
        (
            "gpt-tiny (d=32,L=2)",
            ModelConfig {
                vocab_size: v,
                max_seq_len: 32,
                d_model: 32,
                n_heads: 4,
                n_layers: 2,
                d_ff: 128,
                dropout: 0.0,
            },
        ),
        (
            "gpt-small (d=64,L=4)",
            ModelConfig {
                vocab_size: v,
                max_seq_len: 32,
                d_model: 64,
                n_heads: 4,
                n_layers: 4,
                d_ff: 256,
                dropout: 0.0,
            },
        ),
    ];

    let mut rows = Vec::new();
    for (name, cfg) in sizes {
        let mut model = GptModel::new(cfg, 5);
        let params = model.num_params();
        let ppl0 = evaluate_perplexity(&model, &held_out, 24, 20, 3);
        let mut checkpoints = Vec::new();
        for chunk in 0..4 {
            pretrain_gpt(
                &mut model,
                &stream,
                &TrainOptions {
                    steps: 100,
                    batch_size: 8,
                    seq_len: 24,
                    seed: chunk,
                    ..Default::default()
                },
            );
            checkpoints.push(evaluate_perplexity(&model, &held_out, 24, 20, 3));
        }
        rows.push(vec![
            name.to_string(),
            params.to_string(),
            f(ppl0 as f64),
            f(checkpoints[0] as f64),
            f(checkpoints[1] as f64),
            f(checkpoints[3] as f64),
        ]);
    }
    // n-gram baseline row.
    let mut ngram = NGramLm::new(3, v);
    ngram.train(&stream);
    let ng_ppl = ngram.perplexity(&held_out[..600.min(held_out.len())]);
    rows.push(vec![
        "3-gram baseline".into(),
        ngram.context_count().to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        f(ng_ppl as f64),
    ]);
    print_table(
        "Exp A — held-out perplexity vs. training steps and model size (causal LM)",
        &[
            "model", "params", "step 0", "step 100", "step 200", "step 400",
        ],
        &rows,
    );

    // --- masked LM ---
    let mut bert = BertModel::new(
        ModelConfig {
            vocab_size: v,
            max_seq_len: 32,
            d_model: 32,
            n_heads: 4,
            n_layers: 2,
            d_ff: 128,
            dropout: 0.0,
        },
        6,
    );
    let mut opt = bert.optimizer(2e-3);
    let batch: Vec<Vec<usize>> = lines
        .iter()
        .take(16)
        .map(|l| {
            let mut ids = bpe.encode_pair(l, None);
            ids.truncate(32);
            ids
        })
        .collect();
    let mut mlm_rows = Vec::new();
    let mut step = 0;
    for chunk in [25usize, 25, 50, 100] {
        let mut last = 0.0;
        for _ in 0..chunk {
            last = bert.mlm_train_step(&batch, &mut opt);
        }
        step += chunk;
        mlm_rows.push(vec![step.to_string(), f(last as f64)]);
    }
    print_table(
        "Exp A — masked-LM (BERT-style) training loss vs. steps",
        &["step", "loss"],
        &mlm_rows,
    );
}
