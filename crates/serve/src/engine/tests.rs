//! Unit tests for the staged engine: decode parity with the single-request
//! decoders, scheduling, shedding, deadlines, tenants and telemetry.

use super::feed::{backoff_steps, group_lens};
use super::*;
use lm4db_tokenize::{BOS, EOS};
use lm4db_transformer::generate::log_softmax_at;
use lm4db_transformer::{
    beam as beam_single, greedy as greedy_single, greedy_cached, IncrementalSession, ModelConfig,
    TokenMask,
};

/// A divisibility grammar for the mask tests: allows the multiples of
/// `.0`, and the stop token.
pub(super) struct MultiplesOrEos(pub usize);

impl TokenMask for MultiplesOrEos {
    fn fill(&self, _prefix: &[usize], mask: &mut [bool]) {
        for (t, m) in mask.iter_mut().enumerate() {
            *m = t.is_multiple_of(self.0) || t == EOS;
        }
    }
}

fn model() -> GptModel {
    GptModel::new(ModelConfig::test(), 7)
}

/// A model trained enough that its next-token distributions are sharp.
fn trained_model() -> GptModel {
    let mut m = model();
    let mut opt = m.optimizer(3e-3);
    let batch = vec![
        vec![BOS, 10, 11, 12, 13, 14, EOS],
        vec![BOS, 20, 21, 22, 23, 24, EOS],
    ];
    for _ in 0..30 {
        m.train_step(&batch, &mut opt);
    }
    m
}

fn prompts() -> Vec<Vec<usize>> {
    vec![
        vec![BOS, 10],
        vec![BOS, 10, 11],
        vec![BOS, 20],
        vec![BOS, 20, 21, 22],
        vec![BOS, 10, 11, 12],
        vec![BOS, 20, 21],
        vec![BOS, 10, 11, 12, 13],
        vec![BOS, 20, 21, 22, 23],
    ]
}

#[test]
fn engine_greedy_matches_greedy_cached() {
    let m = trained_model();
    for p in prompts() {
        let want = greedy_cached(&m, &p, 8, EOS);
        let mut engine = Engine::new(&m);
        assert_eq!(engine.greedy(&p, 8, EOS), want, "prompt {p:?}");
    }
}

#[test]
fn engine_output_is_independent_of_batch_size_and_prefix_cache() {
    let m = trained_model();
    let ps = prompts();
    let mut reference: Option<Vec<Vec<usize>>> = None;
    for max_batch in [1, 3, 8] {
        for cache_tokens in [0, 4096] {
            let mut engine = Engine::with_options(
                &m,
                EngineOptions {
                    max_batch,
                    prefix_cache_tokens: cache_tokens,
                    ..EngineOptions::default()
                },
            );
            let reqs = ps
                .iter()
                .map(|p| Request::greedy(p.clone(), 8, EOS))
                .collect();
            let out: Vec<Vec<usize>> = engine
                .generate_batch(reqs)
                .into_iter()
                .map(|r| r.tokens)
                .collect();
            match &reference {
                None => reference = Some(out),
                Some(want) => assert_eq!(
                    &out, want,
                    "batch {max_batch} / cache {cache_tokens} diverged"
                ),
            }
        }
    }
}

#[test]
fn engine_beam_matches_single_request_beam() {
    let m = trained_model();
    for p in prompts().into_iter().take(4) {
        // The reference is the seed beam over a KV-cached session —
        // float-identical to the engine's compute path.
        let mut session = IncrementalSession::new(&m);
        let want = beam_single(&mut session, &p, 3, 6, EOS, None);
        let mut engine = Engine::new(&m);
        let got = engine.beam(&p, 3, 6, EOS, None);
        assert_eq!(got.len(), want.len(), "prompt {p:?}");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.ids, w.ids, "prompt {p:?}");
            assert_eq!(g.finished, w.finished, "prompt {p:?}");
            assert_eq!(g.log_prob.to_bits(), w.log_prob.to_bits(), "prompt {p:?}");
        }
    }
}

#[test]
fn engine_beam_respects_constraints() {
    let m = trained_model();
    let mask = MultiplesOrEos(2);
    let p = vec![BOS, 10];
    let mut session = IncrementalSession::new(&m);
    let want = beam_single(&mut session, &p, 2, 5, EOS, Some(&mask));
    let mut engine = Engine::new(&m);
    let got = engine.beam(&p, 2, 5, EOS, Some(&mask));
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!(g.ids, w.ids);
        assert_eq!(g.log_prob.to_bits(), w.log_prob.to_bits());
        assert!(g.ids[2..].iter().all(|&t| t % 2 == 0), "{:?}", g.ids);
    }
}

/// Vetoes every token.
struct VetoAll;

impl TokenMask for VetoAll {
    fn fill(&self, _prefix: &[usize], _mask: &mut [bool]) {}
}

/// Allows the stop token only.
struct OnlyEos;

impl TokenMask for OnlyEos {
    fn fill(&self, _prefix: &[usize], mask: &mut [bool]) {
        mask[EOS] = true;
    }
}

#[test]
fn masks_that_allow_nothing_or_only_eos_end_every_decoder_at_the_prompt() {
    let m = trained_model();
    let p = vec![BOS, 10];
    let bare = |finished| Hypothesis {
        ids: p.clone(),
        log_prob: 0.0,
        finished,
    };
    // Beam: a vetoed first step leaves the prompt as the one unfinished
    // hypothesis (as a zero budget does); EOS as the only choice finishes
    // it at log-probability 0 and keeps the unfinished prompt behind it.
    let cases: [(&str, &dyn TokenMask, Vec<Hypothesis>); 2] = [
        ("veto-all", &VetoAll, vec![bare(false)]),
        ("eos-only", &OnlyEos, vec![bare(true), bare(false)]),
    ];
    for (name, mask, want_hyps) in cases {
        let mut session = IncrementalSession::new(&m);
        let want_tokens = greedy_single(&mut session, &p, 8, EOS, Some(mask));
        assert!(want_tokens.is_empty(), "{name}: reference greedy");
        let mut session = IncrementalSession::new(&m);
        let want = beam_single(&mut session, &p, 3, 6, EOS, Some(mask));

        let mut engine = Engine::new(&m);
        let g = engine.submit(Request::greedy(p.clone(), 8, EOS).with_mask(mask));
        let b = engine.submit(Request::beam(p.clone(), 3, 6, EOS).with_mask(mask));
        let out = engine.run();
        let [greedy, beam] = [g, b].map(|id| {
            let r = out.iter().find(|r| r.id == id).expect("one response each");
            assert_eq!(r.outcome, Outcome::Finished, "{name}");
            r
        });
        assert_eq!(greedy.tokens, want_tokens, "{name}: engine greedy");
        assert!(beam.tokens.is_empty(), "{name}: engine beam");
        for (hyps, who) in [(&want, "reference"), (&beam.hyps, "engine")] {
            assert_eq!(hyps.len(), want_hyps.len(), "{name}: {who} beam");
            for (h, w) in hyps.iter().zip(&want_hyps) {
                assert_eq!(h.ids, w.ids, "{name}: {who} beam");
                assert_eq!(h.finished, w.finished, "{name}: {who} beam");
                assert_eq!(h.log_prob.to_bits(), w.log_prob.to_bits(), "{name}: {who}");
            }
        }
    }
}

#[test]
fn engine_score_matches_sequential_scoring() {
    let m = trained_model();
    let prefix = vec![BOS, 10, 11];
    let cont = vec![12, 13, 14];
    // Reference: teacher-forced scoring over a KV-cached session.
    let mut session = IncrementalSession::new(&m);
    let mut seq = prefix.clone();
    let mut want = 0.0;
    for &tok in &cont {
        use lm4db_transformer::NextToken;
        let logits = session.next_logits(&seq);
        want += log_softmax_at(&logits, tok);
        seq.push(tok);
    }
    let mut engine = Engine::new(&m);
    let got = engine.score(&prefix, &cont);
    assert_eq!(got.to_bits(), want.to_bits());
}

#[test]
fn mixed_request_kinds_coexist_in_one_batch() {
    let m = trained_model();
    let mut engine = Engine::new(&m);
    let g = engine.submit(Request::greedy(vec![BOS, 10], 6, EOS));
    let b = engine.submit(Request::beam(vec![BOS, 20], 3, 6, EOS));
    let s = engine.submit(Request::score(&[BOS, 10], &[11, 12]));
    let responses = engine.run();
    assert_eq!(responses.len(), 3);
    assert_eq!(responses[0].id, g);
    assert_eq!(responses[1].id, b);
    assert_eq!(responses[2].id, s);
    assert_eq!(responses[0].tokens, greedy_cached(&m, &[BOS, 10], 6, EOS));
    assert!(!responses[1].hyps.is_empty());
    assert!(responses[2].score < 0.0);
}

/// Everything a response carries that decoding computed, floats as bits.
fn response_bits(r: &Response) -> String {
    let hyps: Vec<_> = r
        .hyps
        .iter()
        .map(|h| (&h.ids, h.log_prob.to_bits(), h.finished))
        .collect();
    format!("{:?} {hyps:?} {:08x}", r.tokens, r.score.to_bits())
}

#[test]
fn mixed_stack_serves_each_request_as_if_alone() {
    // Eight requests of every kind. Four are admitted first; the other
    // four arrive two steps later, so their prefill chunks share one
    // step's stack with the beam's siblings and the single decode rows of
    // the first four. Each answer must equal the same request served
    // alone, bit for bit.
    let m = trained_model();
    let options = EngineOptions {
        max_batch: 8,
        ..EngineOptions::default()
    };
    // The greedy requests never stop early: a decode row is still pending
    // when the late arrivals prefill.
    let requests = || -> Vec<Request<'static>> {
        vec![
            Request::greedy(vec![BOS, 10], 8, usize::MAX),
            Request::beam(vec![BOS, 20], 2, 6, EOS),
            Request::beam(vec![BOS, 10, 11], 3, 6, EOS),
            Request::score(&[BOS, 20], &[21, 22, 23, 24]),
            Request::greedy(vec![BOS, 20, 21, 22], 8, usize::MAX),
            Request::score(&[BOS, 10, 11], &[12, 13]),
            Request::beam(vec![BOS, 20, 21], 2, 5, EOS),
            Request::greedy(vec![BOS, 10, 11, 12, 13], 6, EOS),
        ]
    };
    let alone: Vec<_> = requests()
        .into_iter()
        .map(|req| {
            let mut engine = Engine::with_options(&m, options.clone());
            response_bits(&engine.generate_batch(vec![req])[0])
        })
        .collect();

    let mut engine = Engine::with_options(&m, options);
    let mut late = requests().split_off(4);
    for req in requests().into_iter().take(4) {
        engine.submit(req);
    }
    engine.step();
    engine.step();
    for req in late.drain(..) {
        engine.submit(req);
    }
    // The step about to run stacks all three row shapes.
    assert!(
        engine
            .active
            .iter()
            .any(|j| matches!(j.req.decode, Decode::Greedy { .. })),
        "a greedy decode row is pending"
    );
    assert!(
        engine.active.iter().any(|j| j.run.live.len() > 1),
        "beam siblings are pending"
    );
    assert_eq!(engine.queue.len(), 4, "four prefill chunks are pending");
    let together: Vec<_> = engine.run().iter().map(response_bits).collect();
    assert_eq!(together, alone);
}

#[test]
fn row_groups_close_at_a_full_tile_whatever_the_pool() {
    let lens = |rows: &[usize]| group_lens(rows.iter().copied());
    assert_eq!(lens(&[]), Vec::<usize>::new());
    assert_eq!(lens(&[1, 1, 1]), [3], "a short stack is one group");
    assert_eq!(lens(&[1; 8]), [4, 4], "batch-8 decode: two full tiles");
    assert_eq!(lens(&[1; 7]), [4, 3]);
    assert_eq!(lens(&[1, 9, 1, 1, 4, 1]), [2, 3, 1], "chunks never split");
    assert_eq!(lens(&[32, 1, 1, 1, 1]), [1, 4]);
}

#[test]
fn step_deadline_retires_with_partial_output() {
    let m = trained_model();
    let mut engine = Engine::new(&m);
    let full = engine.greedy(&[BOS, 10], 8, EOS);
    assert!(full.len() > 2, "test needs a few generated tokens");
    let id =
        engine.submit(Request::greedy(vec![BOS, 10], 8, EOS).with_deadline(Deadline::Steps(2)));
    let resp = engine
        .run()
        .into_iter()
        .find(|r| r.id == id)
        .expect("deadline request completes");
    assert_eq!(resp.outcome, Outcome::DeadlineExpired);
    assert!(resp.tokens.len() < full.len());
    assert_eq!(resp.tokens[..], full[..resp.tokens.len()]);
    assert_eq!(engine.stats().expired, 1);
}

#[test]
fn cancellation_works_queued_and_active() {
    let m = trained_model();
    let mut engine = Engine::with_options(
        &m,
        EngineOptions {
            max_batch: 1,
            ..Default::default()
        },
    );
    let a = engine.submit(Request::greedy(vec![BOS, 10], 8, EOS));
    let b = engine.submit(Request::greedy(vec![BOS, 20], 8, EOS));
    // One step: `a` is active, `b` still queued.
    engine.step();
    engine.cancel(a);
    engine.cancel(b);
    let responses = engine.run();
    assert!(responses.iter().all(|r| r.outcome == Outcome::Cancelled));
    assert_eq!(engine.stats().cancelled, 2);
}

#[test]
fn cancelling_a_retired_request_is_a_no_op() {
    let m = trained_model();
    let mut engine = Engine::new(&m);
    let id = engine.submit(Request::greedy(vec![BOS, 10], 2, EOS));
    engine.run();
    engine.cancel(id);
    engine.cancel(id + 1_000_000); // never issued by this engine
    assert!(
        engine.cancelled.is_empty(),
        "cancel of a non-live id leaked"
    );
    assert_eq!(engine.stats().cancelled, 0);
}

#[test]
fn continuous_batching_admits_from_queue_as_slots_free() {
    let m = trained_model();
    let mut engine = Engine::with_options(
        &m,
        EngineOptions {
            max_batch: 2,
            ..Default::default()
        },
    );
    let reqs = prompts()
        .into_iter()
        .map(|p| Request::greedy(p, 8, EOS))
        .collect();
    let responses = engine.generate_batch(reqs);
    assert_eq!(responses.len(), 8);
    let stats = engine.stats();
    assert_eq!(stats.completed, 8);
    assert!(stats.peak_batch <= 2);
    assert!(stats.decoded_tokens > 0);
}

#[test]
fn prefix_cache_reduces_prefill_work() {
    let m = trained_model();
    let header = vec![BOS, 10, 11, 12, 13];
    let mut engine = Engine::new(&m);
    // Warm the cache with the shared header.
    engine.greedy(&header, 1, EOS);
    let warm_before = engine.stats();
    let mut p = header.clone();
    p.push(14);
    engine.greedy(&p, 1, EOS);
    let after = engine.stats();
    assert!(
        after.cached_prefix_tokens > warm_before.cached_prefix_tokens,
        "second request should hit the prefix cache"
    );
    // The second prompt has 6 tokens; at least 4 (header minus the
    // always-live last prefill token boundary) come from the cache.
    assert!(after.cached_prefix_tokens >= 4);
}

#[test]
fn stats_token_accounting_is_exact() {
    let m = trained_model();
    let mut engine = Engine::with_options(
        &m,
        EngineOptions {
            prefix_cache_tokens: 0,
            ..Default::default()
        },
    );
    let p = vec![BOS, 10];
    let out = engine.greedy(&p, 8, EOS);
    let stats = engine.stats();
    assert_eq!(stats.prefill_tokens, p.len() as u64);
    // Every emitted token except the last one scheduled is fed back.
    assert_eq!(stats.decoded_tokens, out.len() as u64);
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.completed, 1);
    assert!(stats.mean_batch_occupancy() >= 1.0);
}

#[test]
fn responses_arrive_in_submission_order_regardless_of_length() {
    let m = trained_model();
    let mut engine = Engine::new(&m);
    let long = engine.submit(Request::greedy(vec![BOS, 10], 9, EOS));
    let short = engine.submit(Request::greedy(vec![BOS, 20], 1, EOS));
    let responses = engine.run();
    assert_eq!(responses[0].id, long);
    assert_eq!(responses[1].id, short);
}

#[test]
fn admission_control_sheds_beyond_max_queue() {
    let m = trained_model();
    let mut engine = Engine::with_options(
        &m,
        EngineOptions {
            max_batch: 1,
            max_queue: 2,
            ..Default::default()
        },
    );
    // Nothing stepped yet, so every submission after the first two
    // queued ones sheds.
    let ids: Vec<_> = (0..5)
        .map(|_| engine.submit(Request::greedy(vec![BOS, 10], 4, EOS)))
        .collect();
    let stats = engine.stats();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.rejected, 3);
    let mut responses = engine.run();
    responses.extend(engine.take_responses());
    let shed: Vec<_> = responses
        .iter()
        .filter(|r| r.outcome == Outcome::Rejected)
        .map(|r| r.id)
        .collect();
    assert_eq!(shed, ids[2..].to_vec());
    let stats = engine.stats();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.terminal_total(), stats.submitted);
}

#[test]
fn oversize_prompt_fails_gracefully_instead_of_panicking() {
    let m = model();
    let max = m.config().max_seq_len;
    let mut engine = Engine::new(&m);
    let id = engine.submit(Request::greedy(vec![BOS; max + 1], 4, EOS));
    let responses = engine.take_responses();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].id, id);
    match &responses[0].outcome {
        Outcome::Failed { reason } => assert!(reason.contains("max_seq_len")),
        other => panic!("expected Failed, got {other:?}"),
    }
    let stats = engine.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.terminal_total(), stats.submitted);
    // The engine stays fully usable afterwards.
    engine.greedy(&[BOS, 10], 4, EOS);
    assert_eq!(engine.stats().completed, 1);
}

#[test]
fn backoff_grows_and_saturates() {
    assert_eq!(backoff_steps(2, 0), 2);
    assert_eq!(backoff_steps(2, 1), 4);
    assert_eq!(backoff_steps(2, 3), 16);
    assert_eq!(backoff_steps(0, 0), 1); // base clamps to 1
    assert_eq!(backoff_steps(2, 63), 1024); // shift and result both capped
}

#[test]
fn zero_budget_requests_return_empty() {
    let m = trained_model();
    let mut engine = Engine::new(&m);
    assert!(engine.greedy(&[BOS, 10], 0, EOS).is_empty());
    let hyps = engine.beam(&[BOS, 10], 2, 0, EOS, None);
    assert_eq!(hyps.len(), 1);
    assert_eq!(hyps[0].ids, vec![BOS, 10]);
    assert!(!hyps[0].finished);
}

/// Two tenant classes: tier-0 interactive (weight 2) and tier-1 batch.
fn two_tenants() -> Vec<TenantClass> {
    vec![
        TenantClass::new("interactive").weight(2),
        TenantClass::new("batch").tier(1),
    ]
}

#[test]
fn tenant_outcomes_are_booked_per_tenant_and_conserve() {
    let m = trained_model();
    let mut engine = Engine::with_options(
        &m,
        EngineOptions {
            max_batch: 2,
            tenants: two_tenants(),
            ..EngineOptions::default()
        },
    );
    for p in prompts() {
        let tenant = (p.len() % 2) as TenantId;
        engine.submit(Request::greedy(p, 4, EOS).with_tenant(tenant));
    }
    engine.run();
    let stats = engine.stats();
    assert_eq!(stats.tenants.len(), 2);
    let mut submitted = 0;
    for t in stats.tenants.values() {
        assert_eq!(t.terminal_total(), t.submitted);
        assert_eq!(t.admitted, t.submitted);
        assert_eq!(t.latency_steps.count(), t.submitted);
        assert_eq!(t.queue_wait_steps.count(), t.submitted);
        submitted += t.submitted;
    }
    assert_eq!(submitted, stats.submitted);
}

#[test]
fn higher_tier_tenant_admits_first_under_contention() {
    let m = trained_model();
    let mut engine = Engine::with_options(
        &m,
        EngineOptions {
            max_batch: 1,
            tenants: two_tenants(),
            ..EngineOptions::default()
        },
    );
    // Batch-tenant backlog first, then one interactive arrival: with a
    // single slot, the tier-0 request must finish before the tier-1
    // backlog clears.
    let b0 = engine.submit(Request::greedy(vec![BOS, 20], 3, EOS).with_tenant(1));
    let b1 = engine.submit(Request::greedy(vec![BOS, 20, 21], 3, EOS).with_tenant(1));
    let i0 = engine.submit(Request::greedy(vec![BOS, 10], 3, EOS).with_tenant(0));
    let mut order = Vec::new();
    while engine.step() {
        for r in engine.take_responses() {
            order.push(r.id);
        }
    }
    for r in engine.take_responses() {
        order.push(r.id);
    }
    assert_eq!(order.len(), 3);
    // b0 occupies the slot when i0 arrives, but i0 jumps b1.
    let pos = |id| order.iter().position(|&x| x == id).unwrap();
    assert!(
        pos(i0) < pos(b1),
        "tier 0 must pass queued tier 1: {order:?}"
    );
    let _ = b0;
}

#[test]
fn tenant_ids_validated_when_classes_configured() {
    let m = model();
    let mut engine = Engine::with_options(
        &m,
        EngineOptions {
            tenants: two_tenants(),
            ..EngineOptions::default()
        },
    );
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.submit(Request::greedy(vec![BOS, 10], 2, EOS).with_tenant(7));
    }));
    assert!(result.is_err(), "out-of-range tenant must panic");
}

#[test]
fn slo_admission_sheds_predicted_misses() {
    let m = trained_model();
    let mut engine = Engine::with_options(
        &m,
        EngineOptions {
            max_batch: 1,
            tenants: vec![TenantClass::new("strict").slo_steps(4)],
            slo_admission: true,
            ..EngineOptions::default()
        },
    );
    // First request fills the single slot and fits the target; the
    // backlog behind it predicts (ahead/1 + 1) * 4 > 4 and sheds.
    let ids: Vec<RequestId> = (0..4)
        .map(|_| engine.submit(Request::greedy(vec![BOS, 10], 3, EOS)))
        .collect();
    engine.run();
    let stats = engine.stats();
    let t = &stats.tenants[&0];
    assert_eq!(t.submitted, 4);
    assert!(t.slo_shed >= 2, "backlogged submits must shed: {t:?}");
    assert_eq!(t.rejected, t.slo_shed);
    assert_eq!(t.terminal_total(), t.submitted);
    assert_eq!(stats.rejected, t.rejected);
    // Everything admitted met its SLO — that is the controller's point.
    assert_eq!(t.slo_missed, 0);
    assert_eq!(t.slo_met, t.completed);
    let _ = ids;
}

#[test]
fn sampling_is_purely_observational() {
    let m = trained_model();
    let outputs = |sample_steps: u64| {
        let mut engine = Engine::with_options(
            &m,
            EngineOptions {
                max_batch: 2,
                sample_steps,
                ..EngineOptions::default()
            },
        );
        let reqs = prompts()
            .into_iter()
            .map(|p| Request::greedy(p, 4, EOS))
            .collect();
        engine
            .generate_batch(reqs)
            .into_iter()
            .map(|r| (r.tokens, format!("{:?}", r.outcome)))
            .collect::<Vec<_>>()
    };
    let base = outputs(0);
    let sampled = outputs(3);
    assert_eq!(base, sampled, "sampling must never change outputs");
    // And the sampled run actually left series behind.
    let snap = lm4db_obs::series_snapshot();
    let active = snap.iter().find(|(k, _)| k == "serve/active");
    assert!(
        active.is_some_and(|(_, s)| !s.is_empty()),
        "sampler must record serve/active"
    );
}

#[test]
fn burn_rate_alerts_fire_and_resolve_deterministically() {
    let m = trained_model();
    let run_once = || {
        let mut engine = Engine::with_options(
            &m,
            EngineOptions {
                max_batch: 1,
                tenants: vec![TenantClass::new("strict").slo_steps(4)],
                slo_admission: true,
                sample_steps: 1,
                slo_alerts: Some(lm4db_obs::AlertConfig {
                    fast_samples: 1,
                    slow_samples: 2,
                    burn_num: 1,
                    burn_den: 4,
                    resolve_samples: 2,
                }),
                ..EngineOptions::default()
            },
        );
        // Overload phase: one fresh submission per tick against a
        // single batch slot — most shed, and every sampler tick
        // watches the cumulative burn grow.
        for _ in 0..12 {
            engine.submit(Request::greedy(vec![BOS, 10], 3, EOS));
            engine.step();
        }
        engine.run();
        // Idle cool-down ticks let the monitor see the burn stop.
        for _ in 0..8 {
            engine.step();
        }
        (engine.alert_transitions().to_vec(), engine.stats())
    };
    let (tr, stats) = run_once();
    assert!(stats.sampler_ticks > 0);
    assert!(stats.tenants[&0].slo_shed > 0, "overload must shed");
    assert!(stats.slo_firing >= 1, "overload must fire: {tr:?}");
    assert!(stats.slo_resolved >= 1, "cool-down must resolve: {tr:?}");
    let fired = tr
        .iter()
        .filter(|t| t.to == lm4db_obs::AlertState::Firing)
        .count() as u64;
    let resolved = tr
        .iter()
        .filter(|t| t.to == lm4db_obs::AlertState::Resolved)
        .count() as u64;
    assert_eq!(stats.slo_firing, fired, "stats mirror the transition log");
    assert_eq!(stats.slo_resolved, resolved);
    // Replay the identical schedule: the alert trajectory — including
    // the exact step of every transition — must be byte-identical.
    let (tr2, stats2) = run_once();
    assert_eq!(tr, tr2);
    assert_eq!(stats.slo_pending, stats2.slo_pending);
    assert_eq!(stats.slo_firing, stats2.slo_firing);
    assert_eq!(stats.slo_resolved, stats2.slo_resolved);
}

#[test]
fn firing_alert_tightens_slo_admission() {
    let m = trained_model();
    // Identical overload schedules; the alerting engine halves the
    // effective step target while firing, so it must shed at least as
    // much as the alert-free engine.
    let shed_with = |alerts: Option<lm4db_obs::AlertConfig>| {
        let mut engine = Engine::with_options(
            &m,
            EngineOptions {
                max_batch: 1,
                tenants: vec![TenantClass::new("strict").slo_steps(12)],
                slo_admission: true,
                sample_steps: 1,
                slo_alerts: alerts,
                ..EngineOptions::default()
            },
        );
        for _ in 0..16 {
            engine.submit(Request::greedy(vec![BOS, 10], 3, EOS));
            engine.step();
        }
        engine.run();
        engine.stats().tenants[&0].slo_shed
    };
    let base = shed_with(None);
    let alerted = shed_with(Some(lm4db_obs::AlertConfig {
        fast_samples: 1,
        slow_samples: 2,
        burn_num: 1,
        burn_den: 4,
        resolve_samples: 2,
    }));
    assert!(
        alerted >= base,
        "tightened admission must not shed less ({alerted} < {base})"
    );
}

#[test]
fn default_options_keep_single_tenant_fifo_accounting() {
    let m = trained_model();
    let mut engine = Engine::new(&m);
    engine.greedy(&[BOS, 10], 3, EOS);
    engine.greedy(&[BOS, 20], 3, EOS);
    let stats = engine.stats();
    assert_eq!(stats.tenants.len(), 1);
    let t = &stats.tenants[&0];
    assert_eq!(t.submitted, 2);
    assert_eq!(t.completed, 2);
    assert_eq!(t.slo_met + t.slo_missed, 0, "no SLO configured");
}
