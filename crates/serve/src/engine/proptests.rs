//! Property tests: batch-size independence and mask safety, for arbitrary
//! prompt mixes.

use super::tests::MultiplesOrEos;
use super::*;
use lm4db_tokenize::{BOS, EOS};
use lm4db_transformer::{greedy as greedy_single, greedy_cached, IncrementalSession, ModelConfig};
use proptest::prelude::*;

proptest! {
    /// Batch-size independence as a property: any mix of prompts, any
    /// max_batch, with or without the prefix cache — the engine always
    /// reproduces the single-request KV-cached greedy output.
    #[test]
    fn engine_always_matches_single_request_greedy(
        prompts in prop::collection::vec(
            prop::collection::vec(8usize..60, 1..6), 1..6),
        max_batch in 1usize..5,
        cache in any::<bool>(),
    ) {
        let m = GptModel::new(ModelConfig::test(), 13);
        let mut engine = Engine::with_options(&m, EngineOptions {
            max_batch,
            prefix_cache_tokens: if cache { 512 } else { 0 },
            ..EngineOptions::default()
        });
        let mut reqs = Vec::new();
        for p in &prompts {
            let mut prompt = vec![BOS];
            prompt.extend_from_slice(p);
            reqs.push(Request::greedy(prompt, 6, EOS));
        }
        let responses = engine.generate_batch(reqs);
        for (p, r) in prompts.iter().zip(responses.iter()) {
            let mut prompt = vec![BOS];
            prompt.extend_from_slice(p);
            let want = greedy_cached(&m, &prompt, 6, EOS);
            prop_assert_eq!(&r.tokens, &want);
        }
    }

    /// Grammar-constrained greedy decoding as a property: for any prompts,
    /// batch size, and divisibility grammar, the engine never emits a
    /// mask-vetoed token and reproduces the single-request constrained
    /// greedy output byte for byte.
    #[test]
    fn constrained_greedy_never_violates_mask(
        prompts in prop::collection::vec(
            prop::collection::vec(8usize..60, 1..6), 1..5),
        modulus in 1usize..4,
        max_batch in 1usize..4,
    ) {
        let m = GptModel::new(ModelConfig::test(), 13);
        let step = modulus + 1;
        let mask = MultiplesOrEos(step);
        let mut engine = Engine::with_options(&m, EngineOptions {
            max_batch,
            ..EngineOptions::default()
        });
        let mut reqs = Vec::new();
        for p in &prompts {
            let mut prompt = vec![BOS];
            prompt.extend_from_slice(p);
            reqs.push(Request::greedy(prompt, 6, EOS).with_mask(&mask));
        }
        let responses = engine.generate_batch(reqs);
        for (p, r) in prompts.iter().zip(responses.iter()) {
            let mut prompt = vec![BOS];
            prompt.extend_from_slice(p);
            let mut session = IncrementalSession::new(&m);
            let want = greedy_single(&mut session, &prompt, 6, EOS, Some(&mask));
            prop_assert_eq!(&r.tokens, &want);
            prop_assert!(
                r.tokens.iter().all(|&t| t.is_multiple_of(step)),
                "mask violated: {:?}", r.tokens
            );
        }
    }
}
