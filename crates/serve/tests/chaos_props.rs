//! Property: request-id conservation under chaos. Whatever mix of
//! submissions, cancellations, deadlines, and injected faults an engine
//! sees, every submitted request retires with exactly one terminal
//! outcome — none lost, none double-retired — and the `Stats` ledger
//! balances (`completed + cancelled + expired + failed + rejected ==
//! submitted`).
//!
//! This lives in its own test binary on purpose: the fault injector is
//! process-global, and arming it here must not bleed panics into the
//! deterministic unit tests.

use std::collections::HashSet;

use lm4db_serve::{Deadline, Engine, EngineOptions, Request};
use lm4db_tokenize::{BOS, EOS};
use lm4db_transformer::{GptModel, ModelConfig};
use proptest::prelude::*;

proptest! {
    #[test]
    fn no_request_is_lost_or_double_retired(
        prompts in prop::collection::vec(
            prop::collection::vec(8usize..60, 1..5), 1..8),
        seed in 0u64..1_000,
        rate in prop::sample::select(vec![0.0, 0.1, 0.3, 0.6]),
        max_batch in 1usize..4,
        max_queue in 0usize..4,
        max_retries in 0u32..3,
        deadline_mask in any::<u8>(),
        cancel_early_mask in any::<u8>(),
        cancel_late_mask in any::<u8>(),
        presteps in 0usize..3,
    ) {
        lm4db_fault::configure(seed, rate);
        let m = GptModel::new(ModelConfig::test(), 13);
        let mut engine = Engine::with_options(&m, EngineOptions {
            max_batch,
            max_queue,
            max_retries,
            retry_backoff_steps: 1,
            ..EngineOptions::default()
        });
        let mut ids = Vec::new();
        for (i, p) in prompts.iter().enumerate() {
            let mut prompt = vec![BOS];
            prompt.extend_from_slice(p);
            let mut req = Request::greedy(prompt, 4, EOS);
            if deadline_mask & (1 << (i % 8)) != 0 {
                req = req.with_deadline(Deadline::Steps((i % 3) as u64));
            }
            let id = engine.submit(req);
            if cancel_early_mask & (1 << (i % 8)) != 0 {
                engine.cancel(id);
            }
            ids.push(id);
        }
        for _ in 0..presteps {
            engine.step();
        }
        for (i, &id) in ids.iter().enumerate() {
            if cancel_late_mask & (1 << (i % 8)) != 0 {
                engine.cancel(id);
            }
        }
        let responses = engine.run();
        lm4db_fault::disarm();

        // Exactly one terminal response per submission: same multiset of
        // ids, no duplicates (run() returns them sorted by id).
        let got: Vec<u64> = responses.iter().map(|r| r.id).collect();
        let unique: HashSet<u64> = got.iter().copied().collect();
        // A duplicate means a request retired twice; a mismatch with the
        // submitted set means one was lost or invented.
        prop_assert_eq!(unique.len(), got.len());
        let mut want = ids.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);

        let stats = engine.stats();
        prop_assert_eq!(stats.submitted, ids.len() as u64);
        prop_assert!(
            stats.terminal_total() == stats.submitted,
            "ledger must balance: {:?}", stats
        );
        // The engine is drained: nothing queued, active, or quarantined.
        prop_assert_eq!(stats.queued, 0);
        prop_assert_eq!(stats.active, 0);
        prop_assert_eq!(stats.retrying, 0);
    }
}
