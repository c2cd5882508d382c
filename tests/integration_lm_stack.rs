//! Cross-crate integration: tokenizer -> transformer -> decoding, and the
//! n-gram/transformer interchangeability through the `NextToken` trait
//! (a GPT takes part through its KV-cached session).

use lm4db::lm::NGramLm;
use lm4db::tokenize::{Bpe, Tokenizer, WordPiece, BOS, EOS};
use lm4db::transformer::{
    beam, evaluate_perplexity, greedy, pack_corpus, pretrain_gpt, BertModel, GptModel,
    IncrementalSession, ModelConfig, NextToken, TrainOptions,
};

fn corpus() -> Vec<String> {
    lm4db::corpus::corpus(200, 42)
}

#[test]
fn pretraining_on_generated_corpus_improves_perplexity() {
    let lines = corpus();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let bpe = Bpe::train(refs.iter().copied(), 300);
    let stream = pack_corpus(refs.iter().copied(), &bpe);
    let mut model = GptModel::new(
        ModelConfig {
            vocab_size: bpe.vocab().len(),
            ..ModelConfig::test()
        },
        1,
    );
    let before = evaluate_perplexity(&model, &stream, 12, 6, 9);
    pretrain_gpt(
        &mut model,
        &stream,
        &TrainOptions {
            steps: 120,
            batch_size: 6,
            seq_len: 12,
            ..Default::default()
        },
    );
    let after = evaluate_perplexity(&model, &stream, 12, 6, 9);
    assert!(
        after < before * 0.7,
        "perplexity did not improve: {before} -> {after}"
    );
}

#[test]
fn gpt_and_ngram_share_decoding_infrastructure() {
    let lines = corpus();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let bpe = Bpe::train(refs.iter().copied(), 300);
    let stream = pack_corpus(refs.iter().copied(), &bpe);

    let mut ngram = NGramLm::new(3, bpe.vocab().len());
    ngram.train(&stream);
    let gpt = GptModel::new(
        ModelConfig {
            vocab_size: bpe.vocab().len(),
            ..ModelConfig::test()
        },
        2,
    );
    let mut session = IncrementalSession::new(&gpt);

    let prefix = {
        let mut p = vec![BOS];
        p.extend(bpe.encode("the optimizer"));
        p
    };
    // Both models work through the same generation entry points.
    let models: Vec<&mut dyn NextToken> = vec![&mut ngram, &mut session];
    for m in models {
        let g = greedy(m, &prefix, 5, EOS, None);
        assert!(g.len() <= 5);
        let hyps = beam(m, &prefix, 2, 4, EOS, None);
        assert!(!hyps.is_empty());
    }
}

#[test]
fn ngram_perplexity_beats_untrained_transformer_cheaply() {
    // The "small model" can be strong on its training distribution — the
    // scale story is about *generalization and prompting*, not memorizing.
    let lines = corpus();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let bpe = Bpe::train(refs.iter().copied(), 300);
    let stream = pack_corpus(refs.iter().copied(), &bpe);
    let mut ngram = NGramLm::new(3, bpe.vocab().len());
    ngram.train(&stream);
    let ngram_ppl = ngram.perplexity(&stream[..200.min(stream.len())]);
    let untrained = GptModel::new(
        ModelConfig {
            vocab_size: bpe.vocab().len(),
            ..ModelConfig::test()
        },
        3,
    );
    let gpt_ppl = evaluate_perplexity(&untrained, &stream, 12, 4, 5);
    assert!(
        ngram_ppl < gpt_ppl,
        "trained n-gram ({ngram_ppl}) should beat untrained transformer ({gpt_ppl})"
    );
}

#[test]
fn bert_mlm_pretraining_runs_on_wordpiece_corpus() {
    let lines = corpus();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let wp = WordPiece::train(refs.iter().copied(), 300);
    let mut model = BertModel::new(
        ModelConfig {
            vocab_size: wp.vocab().len(),
            max_seq_len: 24,
            ..ModelConfig::test()
        },
        4,
    );
    let mut opt = model.optimizer(2e-3);
    let batch: Vec<Vec<usize>> = lines
        .iter()
        .take(8)
        .map(|l| {
            let mut ids = wp.encode_pair(l, None);
            ids.truncate(24);
            ids
        })
        .collect();
    let losses: Vec<f32> = (0..25)
        .map(|_| model.mlm_train_step(&batch, &mut opt))
        .collect();
    let early: f32 = losses[..5].iter().sum::<f32>() / 5.0;
    let late: f32 = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
    assert!(late < early, "MLM loss did not drop on real corpus");
}
