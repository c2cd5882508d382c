//! The per-sequence `serve/feed` chaos point fires in a gate ahead of the
//! step's stacked forward: an injected fault poisons the one sequence it
//! hit, which is left out of the stack, while the sequences it would have
//! shared a row group with advance in that very step.
//!
//! A single test in its own binary: the fault injector and its dispatch
//! tickets are process-global, and the test picks its seed by evaluating
//! the injector's pure decision function over exactly the points this run
//! will pass.

use lm4db_fault::{roll, Fault};
use lm4db_serve::{Engine, EngineOptions, Request, Response};
use lm4db_tokenize::BOS;
use lm4db_transformer::{GptModel, ModelConfig};

const REQUESTS: u64 = 6;
const PROMPT: usize = 3;
const MAX_NEW: usize = 6;
/// The victim: the second request, at its second decode feed — a step in
/// which it would share the first row group with requests 0, 2 and 3.
const VICTIM: u64 = 1;
const VICTIM_FED: u64 = PROMPT as u64 + 1;

/// The engine's salt for one sequence's feed point (`Job::serial`,
/// `Job::attempt`, tokens already fed).
fn feed_salt(serial: u64, attempt: u64, fed: u64) -> u64 {
    serial ^ (attempt << 40) ^ (fed << 20)
}

fn submit_all(engine: &mut Engine<'_>) {
    for i in 0..REQUESTS as usize {
        let prompt = vec![BOS, 10 + i, 20 + i];
        // One tenant label per request, so the ledger shows whose retry
        // it was; no stop token, so every request lives all `MAX_NEW` steps.
        let req = Request::greedy(prompt, MAX_NEW, usize::MAX);
        engine.submit(req.with_tenant(i as u32));
    }
}

fn tokens(responses: &[Response]) -> Vec<Vec<usize>> {
    responses.iter().map(|r| r.tokens.clone()).collect()
}

#[test]
fn injected_feed_fault_poisons_one_sequence_and_its_group_advances() {
    lm4db_fault::disarm();
    let m = GptModel::new(ModelConfig::test(), 13);
    let options = EngineOptions {
        max_batch: 8,
        retry_backoff_steps: 1,
        ..EngineOptions::default()
    };

    let mut calm = Engine::with_options(&m, options.clone());
    submit_all(&mut calm);
    let undisturbed = tokens(&calm.run());
    assert!(undisturbed.iter().all(|t| t.len() == MAX_NEW));

    // A seed under which the victim's point panics and nothing else this
    // run can reach does: no other sequence's feed point on either
    // attempt, and no `pool/task` point of the dispatches to come (one per
    // step, at most two row groups). Injected delays are harmless.
    let first_ticket = lm4db_fault::ticket() + 1;
    let target = feed_salt(VICTIM, 0, VICTIM_FED);
    let panics = |site: &str, salt: u64| roll(site, salt) == Some(Fault::Panic);
    let seed = (0u64..100_000)
        .find(|&seed| {
            lm4db_fault::configure(seed, 0.02);
            let feeds = (0..REQUESTS).flat_map(|serial| {
                (0..2).flat_map(move |attempt| {
                    (0..=(PROMPT + MAX_NEW) as u64).map(move |fed| feed_salt(serial, attempt, fed))
                })
            });
            let mut tasks = (first_ticket..first_ticket + 64)
                .flat_map(|ticket| (0..2).map(move |index| ticket.wrapping_mul(4096) + index));
            panics("serve/feed", target)
                && !feeds
                    .filter(|&salt| salt != target)
                    .any(|salt| panics("serve/feed", salt))
                && !tasks.any(|salt| panics("pool/task", salt))
        })
        .expect("some seed isolates the victim's feed point");
    lm4db_fault::configure(seed, 0.02);

    let mut engine = Engine::with_options(&m, options);
    submit_all(&mut engine);
    // Step 1 prefills, step 2 feeds the first chosen token; step 3 is the
    // victim's second decode feed.
    engine.step();
    engine.step();
    let before = engine.stats();
    assert_eq!(before.retries, 0);
    engine.step();
    let after = engine.stats();
    assert_eq!(after.retries, 1, "the victim is quarantined");
    assert_eq!(
        after.decoded_tokens - before.decoded_tokens,
        REQUESTS - 1,
        "every other sequence — the victim's group-mates included — advanced"
    );
    for (&tenant, row) in &after.tenants {
        let want = u64::from(u64::from(tenant) == VICTIM);
        assert_eq!(row.retries, want, "tenant {tenant} retries");
    }

    let responses = engine.run();
    lm4db_fault::disarm();
    let stats = engine.stats();
    assert_eq!(stats.retries, 1, "the retry itself ran clean");
    assert_eq!(stats.completed, REQUESTS);
    assert_eq!(
        tokens(&responses),
        undisturbed,
        "recovery is invisible in the result stream"
    );
}
