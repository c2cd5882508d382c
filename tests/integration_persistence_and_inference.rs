//! Integration of the production-path features: model checkpointing across
//! the training/inference boundary, KV-cache decoding inside applications,
//! and whole-summary fact checking.

use lm4db::corpus::{make_domain, DomainKind};
use lm4db::factcheck::{synthetic_summary, verify_summary, KeywordMapper, Verdict};
use lm4db::tokenize::{Bpe, Tokenizer, BOS, EOS};
use lm4db::transformer::{
    argmax, greedy_cached, pack_corpus, pretrain_gpt, GptModel, IncrementalSession, ModelConfig,
    NextToken, TrainOptions,
};

#[test]
fn checkpoint_survives_pretraining_and_matches_generation() {
    let lines = lm4db::corpus::corpus(120, 5);
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let bpe = Bpe::train(refs.iter().copied(), 250);
    let stream = pack_corpus(refs.iter().copied(), &bpe);
    let mut model = GptModel::new(
        ModelConfig {
            vocab_size: bpe.vocab().len(),
            ..ModelConfig::test()
        },
        3,
    );
    pretrain_gpt(
        &mut model,
        &stream,
        &TrainOptions {
            steps: 40,
            batch_size: 4,
            seq_len: 12,
            ..Default::default()
        },
    );
    let json = model.to_json();
    let restored = GptModel::from_json(&json).expect("restore");

    let mut prefix = vec![BOS];
    prefix.extend(bpe.encode("the optimizer"));
    let original = greedy_cached(&model, &prefix, 6, EOS);
    let after = greedy_cached(&restored, &prefix, 6, EOS);
    assert_eq!(original, after, "restored model generates differently");
}

#[test]
fn kv_cache_session_agrees_with_model_after_training() {
    let lines = lm4db::corpus::corpus(80, 9);
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let bpe = Bpe::train(refs.iter().copied(), 250);
    let stream = pack_corpus(refs.iter().copied(), &bpe);
    let mut model = GptModel::new(
        ModelConfig {
            vocab_size: bpe.vocab().len(),
            ..ModelConfig::test()
        },
        4,
    );
    pretrain_gpt(
        &mut model,
        &stream,
        &TrainOptions {
            steps: 30,
            batch_size: 4,
            seq_len: 12,
            ..Default::default()
        },
    );
    let mut prefix = vec![BOS];
    prefix.extend(bpe.encode("the database"));
    // Cached greedy agrees with the tape on a trained model: one tape
    // forward over prompt + output, whose argmax at every generated
    // position is the token the cached decoder chose next.
    let cached = greedy_cached(&model, &prefix, 8, EOS);
    let v = model.config().vocab_size;
    let seq = [prefix.clone(), cached.clone()].concat();
    let tape = model.sequence_logits(&seq);
    // The chosen tokens, then the EOS that ended the output, if one did.
    let want: Vec<usize> = cached.iter().copied().chain([EOS]).take(8).collect();
    let rows = tape.data().chunks(v).skip(prefix.len() - 1);
    let got: Vec<usize> = rows.take(want.len()).map(argmax).collect();
    assert_eq!(got, want);
    // And the session's NextToken impl matches the tape's last row.
    let full = &tape.data()[(prefix.len() - 1) * v..prefix.len() * v];
    let mut session = IncrementalSession::new(&model);
    let inc = session.next_logits(&prefix);
    let max_diff = full
        .iter()
        .zip(inc.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(max_diff < 1e-5, "session/tape divergence {max_diff}");
}

#[test]
fn summary_verification_catches_planted_errors() {
    let domain = make_domain(DomainKind::Products, 30, 13);
    let (summary, claims) = synthetic_summary(&domain, 12, 7);
    let report = verify_summary(&domain, &summary, &mut KeywordMapper);
    assert_eq!(report.sentences.len(), 12);
    // Every refuted sentence is genuinely false, and at least a few of the
    // planted falsehoods are caught.
    let mut caught = 0;
    for (sv, claim) in report.sentences.iter().zip(claims.iter()) {
        if sv.verdict == Verdict::Refuted {
            assert!(!claim.is_true, "refuted a true claim: {}", sv.sentence);
            caught += 1;
        }
    }
    assert!(caught >= 3, "only {caught} planted errors caught");
}
